"""README's CLI examples, config file and library quick tour.

Every ``orthoglide ...`` line of the CLI block (backslash continuations
joined, shell comments and redirections dropped) must exit 0 through
``cli.main``, and the ``ini`` example must be accepted as a ``--config``
file.  The ``python`` block runs, and each comment in it that states a value
states the value its statement has.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import orthoglide
from orthoglide.cli import CONFIG_ENV_VAR, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _cli_examples():
    text = next(b for b in _blocks("sh") if "\northoglide " in "\n" + b)
    argvs = []
    for line in text.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["orthoglide"]:
            argvs.append(words[1:words.index(">")] if ">" in words else words[1:])
    return argvs


CLI_EXAMPLES = _cli_examples()


def test_examples_were_found():
    """Every subcommand has an example, and the continued line is joined."""
    assert {argv[0] for argv in CLI_EXAMPLES} == {"ik", "dk", "trajectory", "volumes", "jointspace"}
    assert ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.7,0.7,0.7", "--step", "0.02",
            "--policy", "warn-and-hold-branch"] in CLI_EXAMPLES


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_cli_example_exits_zero(argv, capsys, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["ik", "-L", "1", "-p", "-0.5,0.4,0.3"],
    ["volumes", "-L", "1"],
    ["jointspace", "boundary-sample", "-L", "1", "--grid", "2"],
], ids=" ".join)
def test_config_example_is_accepted(argv, capsys, monkeypatch, tmp_path):
    (ini,) = _blocks("ini")
    cfg = tmp_path / "orthoglide.cfg"
    cfg.write_text(ini, encoding="utf-8")
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert main([*argv, "--config", str(cfg)]) == 0
    capsys.readouterr()


(TOUR,) = _blocks("python")
#: A value comment's number is its first word; a repr may leave digits out as ``...``.
_NUMBER = re.compile(r"-?\d[\d.eE+-]*(?=\s|$)")
_REPR = re.compile(r"[\[(]|\w+\(")


def _value_comments():
    """``(expression, comment)`` for each comment of the tour that states a value: a
    number or a repr; the rest are prose.  A comment on a statement's line, or on a
    line of its own after the statement, states the value of that statement's
    expression, or of its target for an assignment."""
    statements = ast.parse(TOUR).body
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(TOUR).readline):
        comment = tok.string[1:].strip()
        if tok.type != tokenize.COMMENT or not (_NUMBER.match(comment) or _REPR.match(comment)):
            continue
        stmt = [s for s in statements if s.lineno <= tok.start[0]][-1]
        node = stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.value
        found.append((ast.get_source_segment(TOUR, node), comment))
    return found


VALUE_COMMENTS = _value_comments()


@pytest.fixture(scope="module")
def tour_namespace():
    namespace = {}
    exec(TOUR, namespace)
    return namespace


def test_tour_value_comments_were_found():
    assert [expr for expr, _ in VALUE_COMMENTS] == [
        "sols",
        "classify_point(CartesianPoint(0.7, 0.7, 0.7), params).ik_count",
        "workspace_volumes(params).vol_W",
        "boundary_radius(bisector, params)",
    ]


def test_tour_imports_are_public():
    (imports,) = [s for s in ast.parse(TOUR).body if isinstance(s, ast.ImportFrom)]
    assert imports.module == "orthoglide"
    assert {alias.name for alias in imports.names} <= set(orthoglide.__all__)


@pytest.mark.parametrize("expr, comment", VALUE_COMMENTS, ids=[e for e, _ in VALUE_COMMENTS])
def test_tour_value_comment_is_the_value(expr, comment, tour_namespace):
    shown = repr(eval(expr, tour_namespace))
    number = _NUMBER.match(comment)
    if number:
        assert shown == number.group()
    else:
        assert re.fullmatch(re.escape(comment).replace(re.escape("..."), r"\d*"), shown), shown
