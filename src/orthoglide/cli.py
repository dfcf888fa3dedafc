"""Command-line front-end: single queries, trajectory checks, reports.

Subcommands
    ik          inverse kinematics for one point (all branches or one)
    dk          direct kinematics for one joint vector
    trajectory  interpolate waypoints and solve IK holding one branch
    volumes     closed-form workspace volumes, optional Monte-Carlo check
    jointspace  feasibility check / boundary-surface sampling

Exit codes: 0 success, 1 geometrically infeasible query, 2 usage error.
JSON reports echo the full input, the tolerances, and the library version,
so any reported solution can be re-verified by feeding it back through
``dk``/``ik``.  In CSV mode the same metadata goes to stderr so stdout
stays machine-parseable.

The argument parser is built once per process and reused as built.  A known
command's arguments are parsed by that command's own parser, without first
being checked against the top-level options.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .core import (
    AXES,
    Branch,
    CartesianPoint,
    DirectionOnOctantBorder,
    JointVector,
    ManipulatorParams,
    NoDkSolution,
    RadicandNegative,
    ZeroJoint,
    joint_limits_ok,
    leg_residuals,
)
from .direct import _pick, _points, _roots, plane_eval
from .inverse import ik_branch, ik_enumerate_feasible, is_serial_singular
from .jointspace import _boundary_grid
from .workspace import _REGIONS, _path_columns, classify_point
from .workspace import monte_carlo_volumes, workspace_volumes

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2

CONFIG_ENV_VAR = "ORTHOGLIDE_CONFIG"
#: ``--config``'s default, the ``ORTHOGLIDE_CONFIG`` file; no argv word holds a NUL.
_FROM_ENV = "\0" + CONFIG_ENV_VAR

#: ``json.dumps(value, indent=2)``; a report is a tree, so no cycle check.
_json_indent = json.JSONEncoder(indent=2, check_circular=False).encode

# Accept option values like "-0.5,0.4,0.3": anything starting "-<digit>" or
# "-.<digit>" is a value, not an option (no option strings look numeric).
_VALUE_MATCHER = re.compile(r"^-\d|^-\.\d")
#: Where a command's names go in the namespace: ``command``, then ``subcommand``.
_DESTS = ("command", "subcommand")


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------
def _triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z got {text!r}")
    try:
        vals = tuple(float(s) for s in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric component in {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"non-finite component in {text!r}")
    return vals


def _branch_label(text: str) -> Branch:
    try:
        return Branch.from_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _posture(text: str) -> int:
    if text in ("-1", "+1", "1"):
        return -1 if text == "-1" else 1
    raise argparse.ArgumentTypeError(f"posture must be -1 or +1, got {text!r}")


def _add_command(parser: argparse.ArgumentParser, subs, names: tuple[str, ...], func,
                 help: str, default_fmt: str = "json") -> argparse.ArgumentParser:
    """The parser of the command ``names``, made under ``subs`` with the options
    every command takes, and registered in ``parser.commands[names]``."""
    sub = parser.commands[names] = subs.add_parser(names[-1], help=help)
    sub._negative_number_matcher = _VALUE_MATCHER
    sub.add_argument("-L", "--leg-length", dest="L", type=float, required=True,
                     help="bar-link length L (sets the unit of all lengths)")
    sub.add_argument("--eps-geom", type=float, default=None,
                     help="relative residual tolerance (default 1e-9)")
    sub.add_argument("--eps-branch", type=float, default=None,
                     help="absolute branch/posture sign tolerance (default 1e-9*L)")
    sub.add_argument("--config", type=_config, default=_FROM_ENV,
                     help=f"key=value settings file (default: ${CONFIG_ENV_VAR})")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    sub.set_defaults(fmt=default_fmt, func=func)
    return sub


#: Config key -> (type, default); ``main`` merges flag > config > default.
_SETTINGS = {
    "eps_geom": (float, 1e-9),
    "eps_branch": (float, None),
    "seed": (int, 0),
}


def _config(path: str) -> dict:
    """``--config`` type: a ``key = value`` file read into typed values.
    argparse runs the string default through it on each parse that has no
    ``--config``, so ``_FROM_ENV`` reads the file ``$ORTHOGLIDE_CONFIG`` names
    then, or none if the variable is unset or empty."""
    if path == _FROM_ENV:
        path = os.environ.get(CONFIG_ENV_VAR)
        if not path:
            return {}
    cfg, lineno = {}, 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                key, eq, value = (s.strip() for s in raw.split("#", 1)[0].partition("="))
                if not (key or eq):
                    continue
                if not eq:
                    raise ValueError(f"expected key=value, got {raw.rstrip()!r}")
                if key not in _SETTINGS:
                    raise ValueError(f"unknown key {key!r}")
                cfg[key] = _SETTINGS[key][0](value)
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path}:{lineno}: {exc}")
    return cfg


def _base_report(command: str, params: ManipulatorParams, input_echo: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "params": {
            "L": params.L,
            "eps_geom": params.eps_geom,
            "eps_branch": params.eps_branch,
        },
        "input": input_echo,
    }


def _emit(report: dict, fmt: str, header: Sequence[str] = (), rows: Iterable[Sequence] = (),
          key: str | None = None, items: Iterable[str] = ()) -> None:
    """Write a report to stdout: ``json.dumps(report, indent=2)``, with the
    JSON text ``items`` (separators included) as the list at ``report[key]``,
    or CSV ``header`` and ``rows`` with the rest on stderr, through a ``%s``
    line template (``csv.writer``'s output for the fields it leaves unquoted,
    all that rows hold), then the CSV text ``items``."""
    if fmt == "csv":
        meta = {k: v for k, v in report.items() if k not in ("rows", "records", "solutions")}
        print(json.dumps(meta), file=sys.stderr)
        line = ",".join(["%s"] * len(header)) + "\n"
        sys.stdout.writelines(map(line.__mod__, chain((tuple(header),), rows)))
        sys.stdout.writelines(items)
    elif key is None:
        print(_json_indent(report))
    else:
        # A top-level key sits at exactly "\n  " and a JSON string holds no
        # raw newline, so the placeholder occurs once.
        placeholder = f"\n  {json.dumps(key)}: "
        head, tail = _json_indent({**report, key: []}).split(placeholder + "[]")
        sys.stdout.write(head + placeholder + "[\n")
        sys.stdout.writelines(items)
        print("\n  ]", tail, sep="")


def _template(value, depth: int) -> str:
    """``value`` as ``json.dumps(report, indent=2)`` writes it ``depth``
    levels into the report, each string ``"%s"`` in it made a ``%s`` slot."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth).replace('"%s"', "%s")


def _float_texts(values: Sequence[float], spell) -> list[str]:
    """Each float of the column ``values`` as ``spell`` (``repr`` or
    ``json.dumps``) writes it.  One orjson call writes the whole column with
    the shortest digits that round-trip, as ``repr`` does; it spells the rest
    differently, so ``spell`` writes every value that ``repr`` puts in exponent
    notation (0 < |v| < 1e-4 or |v| >= 1e16) or that is not finite."""
    import numpy as np
    import orjson

    column = np.ascontiguousarray(values, dtype=float)
    if not column.size:
        return []
    texts = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(column)
    for k in np.flatnonzero(~((1e-4 <= size) & (size < 1e16)) & (size != 0.0)).tolist():
        texts[k] = spell(float(column[k]))
    return texts


#: Rows of a long report whose texts are made, joined and written together:
#: up to ~200 kB of text, so that a report adds little to the peak heap.
_CHUNK = 2**9


def _chunks(fmt: str, n: int, columns: Sequence, layout: Callable[[int], str],
            kind=None) -> Iterator[str]:
    """Rows 0 .. n - 1 of a long report, ``_CHUNK`` rows to a text.  Row r is
    ``layout(kind[r])`` (``layout(0)`` without ``kind``) with its ``%s`` slots
    filled by the texts of the first columns; each JSON row but the report's
    first starts with a comma and a newline.  A column is a float array,
    written by ``_float_texts``, or a function from a slice of rows to their
    texts.  A run of one kind is that kind's row repeated, each column's texts
    put in by extended-slice assignment."""
    import numpy as np

    spell, sep = (repr, "") if fmt == "csv" else (json.dumps, ",\n")
    kind = np.broadcast_to(0, n) if kind is None else kind
    rows = {}  # each kind's row: its literals, None in each column's place
    for i in range(0, n, _CHUNK):
        s = slice(i, min(i + _CHUNK, n))
        edges = [0, *(np.flatnonzero(np.diff(kind[s])) + 1).tolist(), s.stop - i]
        runs = list(zip(edges, edges[1:], kind[s][edges[:-1]].tolist()))
        for c in {c for *_, c in runs} - rows.keys():
            literals = (sep + layout(c)).split("%s")
            row = rows[c] = [None] * (2 * len(literals) - 1)
            row[::2] = literals
        texts = [list(column(s)) if callable(column) else _float_texts(column[s], spell)
                 for column in columns[:max(len(rows[c]) for *_, c in runs) // 2]]
        out = []
        for a, b, c in runs:
            pieces, k = rows[c] * (b - a), len(rows[c])
            for j, column in enumerate(texts[:k // 2]):
                pieces[2 * j + 1::k] = column if len(runs) == 1 else column[a:b]
            if not i + a:
                pieces[0] = pieces[0][len(sep):]
            out.append("".join(pieces))
        yield "".join(out)


def _lookup(table: Sequence[str], key) -> Callable:
    """A ``_chunks`` column: ``table[c]`` for each code c of ``key(s)``."""
    return lambda s: map(table.__getitem__, key(s).tolist())


# ---------------------------------------------------------------------------
# ik
# ---------------------------------------------------------------------------
def _ik_solution_dict(p: CartesianPoint, sol, params: ManipulatorParams) -> dict:
    return {
        "branch": sol.branch.label,
        "rho": list(sol.rho),
        "residuals": list(leg_residuals(p, sol.rho, params)),
        "joint_limits_ok": joint_limits_ok(sol.rho, params),
    }


def cmd_ik(args: argparse.Namespace) -> int:
    params = args.params
    p = CartesianPoint(*args.point)
    report = _base_report("ik", params, {
        "p": list(p),
        "branch": args.branch.label if args.branch else None,
    })
    error = None
    if args.branch is not None:
        try:
            solutions = [ik_branch(p, args.branch, params)]
        except RadicandNegative as exc:
            solutions = []
            error = {"type": "radicand_negative", "axis": exc.axis, "message": str(exc)}
    else:
        solutions = ik_enumerate_feasible(p, params)
    region = classify_point(p, params)
    report["region"] = region.value
    report["region_ik_count"] = region.ik_count
    report["serial_singular_axes"] = list(is_serial_singular(p, params).axes())
    report["solutions"] = [_ik_solution_dict(p, s, params) for s in solutions]
    if error:
        report["error"] = error
    rows = [(d["branch"], *d["rho"], d["joint_limits_ok"]) for d in report["solutions"]]
    _emit(report, args.fmt, ("branch", "rho_x", "rho_y", "rho_z", "joint_limits_ok"), rows)
    return EXIT_OK if solutions else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# dk
# ---------------------------------------------------------------------------
def _dk_solution_dict(rho: JointVector, sol, params: ManipulatorParams) -> dict:
    return {
        "posture": sol.posture,
        "t": sol.t_value,
        "p": list(sol.p),
        "plane_eval": plane_eval(sol.p, rho),
        "residuals": list(leg_residuals(sol.p, rho, params)),
    }


def cmd_dk(args: argparse.Namespace) -> int:
    params = args.params
    rho = JointVector(*args.joints)
    report = _base_report("dk", params, {
        "rho": list(rho),
        "posture": args.posture,
    })
    error = None
    _, disc, roots = _roots(rho, params)
    solutions = _points(rho, roots)
    if args.posture is not None:
        try:
            solutions = [_pick(solutions, args.posture)]
        except NoDkSolution as exc:
            solutions = []
            error = {"type": "no_solution", "message": str(exc)}
    report["discriminant"] = disc
    report["joint_limits_ok"] = joint_limits_ok(rho, params)
    report["solutions"] = [_dk_solution_dict(rho, s, params) for s in solutions]
    if error:
        report["error"] = error
    rows = [(d["posture"] or "", d["t"], *d["p"], d["plane_eval"]) for d in report["solutions"]]
    _emit(report, args.fmt, ("posture", "t", "p_x", "p_y", "p_z", "plane_eval"), rows)
    return EXIT_OK if solutions else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------
_TRAJECTORY_HEADER = ("index", "p_x", "p_y", "p_z", "rho_x", "rho_y", "rho_z",
                      "branch", "region", "singular_axes", "joint_limits_ok", "infeasible")


def cmd_trajectory(args: argparse.Namespace) -> int:
    params = args.params
    wps = args.waypoints
    if len(wps) < 2:
        raise ValueError("need at least two -w/--waypoint arguments")
    if not args.step > 0:
        raise ValueError("--step must be positive")
    lengths = list(map(math.dist, wps, wps[1:]))
    if math.inf in lengths:
        k = lengths.index(math.inf) + 1
        raise ValueError(f"waypoints {k} and {k + 1} are too far apart: their distance overflows")
    spans = [d / args.step for d in lengths]
    if not all(map(math.isfinite, spans)):
        raise ValueError(f"--step {args.step!r} is too small: the step count overflows")
    # Past 2**53 steps a segment's i and n stop being exact floats; checked
    # before anything is allocated for them.
    counts = [max(1, math.ceil(s)) for s in spans]
    if max(counts) > 2**53:
        raise ValueError(f"--step {args.step!r} is too small: one segment needs "
                         f"{max(counts):.3g} steps, more than 2**53")
    branch = args.branch
    report = _base_report("trajectory", params, {
        "waypoints": [list(w) for w in wps],
        "step": args.step,
        "branch": branch.label,
        "policy": args.policy,
    })
    try:
        points, rho, ok, codes, axis, region, aborted_at = _path_columns(
            wps, counts, branch, params, args.policy == "abort")
    except MemoryError:  # a step count the allocator refuses outright
        raise ValueError(f"--step {args.step!r} is too small: {1 + sum(counts):.3g} steps "
                         "do not fit in memory") from None
    n = len(ok)
    failures = (~ok).nonzero()[0]
    n_bad = int((axis >= 0).sum())
    report.update(records=[], summary={  # _emit writes the records in their place
        "feasible": not failures.size and aborted_at is None,
        "first_failure_index": int(failures[0]) if failures.size else None,
        "aborted_at": aborted_at,
        "n_steps": n,
        "n_singular_steps": int((codes > 0).sum()),
        "n_limit_violations": failures.size - n_bad,
        "n_infeasible_steps": n_bad,
    })
    # A step's kind codes its small fields; its record holds "%s" for each column's text.
    def index(s: slice):
        return map(str, range(s.start, s.stop))

    def layout(c: int) -> str:
        (region, codes), ok, axis = divmod(c // 8, 8), c // 4 % 2, c % 4 - 1
        r = {"index": "%s", "p": ["%s"] * 3, "branch": branch.label,
             "region": _REGIONS[region].value,
             "singular_axes": [a for k, a in enumerate(AXES) if codes >> k & 1],
             "rho": ["%s"] * 3, "joint_limits_ok": ok == 1, "infeasible": False}
        if axis >= 0:  # no joints
            r.update(rho=None, infeasible=True, error_axis=AXES[axis])
        if args.fmt == "json":
            return "    " + _template(r, 2)
        return ",".join(map(str, [r["index"], *r["p"], *(r["rho"] or [""] * 3), r["branch"],
                                  r["region"], ";".join(r["singular_axes"]),
                                  r["joint_limits_ok"], r["infeasible"]])) + "\n"

    kind = ((region * 8 + codes) * 2 + ok) * 4 + axis + 1
    _emit(report, args.fmt, _TRAJECTORY_HEADER, key="records",
          items=_chunks(args.fmt, n, [index, *points, *rho], layout, kind))
    return EXIT_OK if report["summary"]["feasible"] else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------
def cmd_volumes(args: argparse.Namespace) -> int:
    params = args.params
    report = _base_report("volumes", params, {
        "mc_samples": args.mc,
        "seed": args.seed,
    })
    report["closed_form"] = workspace_volumes(params)._asdict()
    rows = [("closed", k, v, "") for k, v in report["closed_form"].items()]
    if args.mc is not None:
        if args.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
        mc = monte_carlo_volumes(params, args.mc, args.seed)
        estimates = {k: getattr(mc, k)._asdict() for k in ("vol_C", "vol_S", "vol_G", "vol_W")}
        report["monte_carlo"] = {"n_samples": mc.n_samples, "seed": mc.seed, **estimates}
        rows += [("monte_carlo", k, est["value"], est["stderr"]) for k, est in estimates.items()]
    _emit(report, args.fmt, ("source", "quantity", "value", "stderr"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# jointspace
# ---------------------------------------------------------------------------
def cmd_jointspace_check(args: argparse.Namespace) -> int:
    params = args.params
    rho = JointVector(*args.joints)
    product, _, roots = _roots(rho, params)
    header = ("product", "dk_solvable", "joint_limits_ok", "feasible")
    limits = joint_limits_ok(rho, params)
    row = (product, bool(roots), limits, bool(roots) and limits)
    report = _base_report("jointspace-check", params, {"rho": list(rho)})
    report.update(zip(header, row), on_boundary=len(roots) == 1)
    _emit(report, args.fmt, header, [row])
    return EXIT_OK if row[-1] else EXIT_INFEASIBLE


_BOUNDARY_HEADER = ("phi", "theta", "t", "rho_x", "rho_y", "rho_z")


def cmd_jointspace_boundary(args: argparse.Namespace) -> int:
    params = args.params
    n = args.grid
    if n < 1:
        raise ValueError("--grid must be >= 1")
    report = _base_report("jointspace-boundary-sample", params, {"grid": n})
    try:
        angles, columns = _boundary_grid(n, params)
    except MemoryError:  # a grid the allocator refuses outright
        raise ValueError(f"--grid {n} is too large: {n * n:.3g} directions "
                         "do not fit in memory") from None
    # Row r is direction (angles[r // n], angles[r % n]).
    import numpy as np

    angle = _float_texts(angles, repr if args.fmt == "csv" else json.dumps)
    phi = _lookup(angle, lambda s: np.arange(s.start, s.stop) // n)
    theta = _lookup(angle, lambda s: np.arange(s.start, s.stop) % n)
    row = (",".join(["%s"] * len(_BOUNDARY_HEADER)) + "\n" if args.fmt == "csv"
           else "    " + _template(dict.fromkeys(_BOUNDARY_HEADER, "%s"), 2))
    rows = _chunks(args.fmt, n * n, [phi, theta, *(c.ravel() for c in columns)], lambda _: row)
    _emit(report, args.fmt, _BOUNDARY_HEADER, key="rows", items=rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
class _TopLevelParser(argparse.ArgumentParser):
    """Hands the arguments after a known command straight to that command's
    parser, ``commands[names]``, which ``build_parser`` fills.  argparse's
    subparsers action passes them on unchanged too, but only after matching
    each one against the top-level options."""

    def parse_known_args(self, args=None, namespace=None):
        rest = sys.argv[1:] if args is None else list(args)
        names = next((k for k in (tuple(rest[:1]), tuple(rest[:2])) if k in self.commands), None)
        # "--=x" abbreviates both --help and --version, which the top level
        # rejects as ambiguous before any command sees it.
        if names is None or namespace is not None or any(a.startswith("--=") for a in rest):
            return super().parse_known_args(args, namespace)
        # As the subparsers action does: the command's values over the names.
        namespace = argparse.Namespace(**dict(zip(_DESTS, names)))
        parsed, extras = self.commands[names].parse_known_args(rest[len(names):])
        vars(namespace).update(vars(parsed))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _TopLevelParser(
        prog="orthoglide",
        description="Kinematics and workspace analysis for the Orthoglide parallel manipulator.",
    )
    parser._negative_number_matcher = _VALUE_MATCHER
    parser.commands = {}
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest=_DESTS[0], required=True,
                                parser_class=argparse.ArgumentParser)

    p_ik = _add_command(parser, sub, ("ik",), cmd_ik, "inverse kinematics for one point")
    p_ik.add_argument("-p", "--point", type=_triple, required=True, help="TCP position x,y,z")
    p_ik.add_argument("-b", "--branch", type=_branch_label, default=None,
                      help="restrict to one branch label (e.g. PPP, MPM)")

    p_dk = _add_command(parser, sub, ("dk",), cmd_dk, "direct kinematics for one joint vector")
    p_dk.add_argument("-r", "--joints", type=_triple, required=True,
                      help="joint displacements rho_x,rho_y,rho_z (nonzero)")
    p_dk.add_argument("-m", "--posture", type=_posture, default=None,
                      help="restrict to one posture index (-1 or +1)")

    p_tr = _add_command(parser, sub, ("trajectory",), cmd_trajectory,
                        "feasibility check along interpolated waypoints")
    p_tr.add_argument("-w", "--waypoint", dest="waypoints", type=_triple, action="append",
                      required=True, help="waypoint x,y,z (repeat, at least twice)")
    p_tr.add_argument("--step", type=float, required=True,
                      help="maximum interpolation spacing (length units)")
    p_tr.add_argument("-b", "--branch", type=_branch_label, default=Branch(1, 1, 1),
                      help="branch to hold throughout (default PPP)")
    p_tr.add_argument("--policy", choices=("abort", "warn-and-hold-branch"), default="abort",
                      help="behaviour at singular/infeasible steps")

    p_vol = _add_command(parser, sub, ("volumes",), cmd_volumes, "workspace volume report")
    p_vol.add_argument("--mc", type=int, default=None, metavar="N",
                       help="add Monte-Carlo estimates with N samples")
    p_vol.add_argument("--seed", type=int, default=None, help="RNG seed for --mc")

    p_js = sub.add_parser("jointspace", help="jointspace feasibility tools")
    p_js._negative_number_matcher = _VALUE_MATCHER
    js_sub = p_js.add_subparsers(dest=_DESTS[1], required=True)
    p_check = _add_command(parser, js_sub, ("jointspace", "check"), cmd_jointspace_check,
                           "feasibility of one joint vector")
    p_check.add_argument("-r", "--joints", type=_triple, required=True,
                         help="joint displacements rho_x,rho_y,rho_z (nonzero)")
    p_bs = _add_command(parser, js_sub, ("jointspace", "boundary-sample"),
                        cmd_jointspace_boundary, "sample the boundary surface", default_fmt="csv")
    p_bs.add_argument("--grid", type=int, default=10,
                      help="n x n interior grid of (phi, theta) directions")
    return parser


@functools.lru_cache(maxsize=1)
def _built_by(build) -> argparse.ArgumentParser:
    """The parser ``main`` reuses, left as ``build`` made it.  A replaced
    ``build_parser`` gets a parser of its own."""
    return build()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _built_by(build_parser)
    args = parser.parse_args(argv)
    for key, (_, default) in _SETTINGS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, args.config.get(key, default))
    try:
        args.params = ManipulatorParams(L=args.L, eps_geom=args.eps_geom, eps_branch=args.eps_branch)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except (ValueError, ZeroJoint, DirectionOnOctantBorder) as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # The reader stopped early (``| head``).  As the Python docs' SIGPIPE
        # note does: what is still buffered goes to devnull, and the run fails.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
