"""README's CLI examples and config file, run through ``cli.main``.

Every ``orthoglide ...`` line of the CLI block (backslash continuations
joined, shell comments and redirections dropped) must exit 0, and the
``ini`` example must be accepted as a ``--config`` file.
"""

import re
import shlex
from pathlib import Path

import pytest

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
