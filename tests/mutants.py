"""Mutants that the tests are expected to kill, re-checked on demand.

Each entry names a file, an exact snippet that must occur in it once, the
snippet's replacement, and the pytest node IDs expected to fail with the
replacement in place.  An entry with a ``survives`` reason is an equivalent
mutant: no test can kill it, and the reason says why.

    python tests/mutants.py

copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary directory,
checks that the listed nodes pass there unmutated, then applies one entry at a
time and runs only its nodes.  It exits 1 if a snippet no longer occurs exactly
once, if a mutant survives its nodes, or if an expected survivor is killed;
then the registry is updated along with the code, not dropped.  pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    nodes: tuple[str, ...]
    survives: str | None = None


INIT = "src/orthoglide/__init__.py"
CLI = "src/orthoglide/cli.py"
CORE = "src/orthoglide/core.py"
DIRECT = "src/orthoglide/direct.py"
INVERSE = "src/orthoglide/inverse.py"
JOINTSPACE = "src/orthoglide/jointspace.py"
WORKSPACE = "src/orthoglide/workspace.py"

SHARED = "tests/test_shared_formulas.py"
SWEEP = f"{SHARED}::TestSharedFormulas"
CHORDS = (f"{SHARED}::test_chords_are_one_rule_on_floats_and_columns",)
ENUMERATE = (f"{SWEEP}::test_enumerate_is_the_brute_force_filter",)
BRANCH_OF = (f"{SWEEP}::test_branch_of_returns_the_branch_order_objects",)
DK_ROOTS = (f"{SWEEP}::test_dk_both_is_equidistant_point_at_the_roots",)
DK_EDGES = ("tests/test_direct.py::test_discriminant_exactly_at_the_band_edges",)
UNDERFLOW = ("tests/test_direct.py::TestEdgeInputs"
             "::test_overflowing_sum_of_squares_has_no_solution",)
NON_FINITE = ("tests/test_direct.py::TestNonFiniteInputs",)
ONE_RADIUS = (f"{SHARED}::test_boundary_radius_is_one_formula_on_floats_and_arrays",)
RECORDS = (f"{SHARED}::TestSharedFormulas::test_trajectory_records_are_the_library_answers",)
REGION_EDGES = (f"{SHARED}::test_region_formula_makes_the_early_return_decisions",)
GRID = (f"{SHARED}::test_boundary_sample_rows_are_the_library_answers",)
TRAJECTORY = "tests/test_cli.py::TestTrajectoryCommand"
SUMMARY = (f"{TRAJECTORY}::test_summary", f"{TRAJECTORY}::test_abort_policy_truncates")
NAN_STEP = (f"{TRAJECTORY}::test_overflowing_radicands_stop_or_raise_without_warnings",)
PATH_EDGES = ("tests/test_workspace.py::test_path_regions_at_the_region_edges",)
COLUMN_HYPOT = ("tests/test_workspace.py::test_column_hypot_decides_as_math_hypot",)
CLEAR_PATH = ("tests/test_workspace.py::test_no_radius_is_redone_clear_of_every_edge",)
SUBNORMAL_L = ("tests/test_workspace.py::test_path_region_at_a_subnormal_length",)
FLOAT_TEXTS = ("tests/test_cli.py::TestFloatTexts",)
SHORT_CSV = ("tests/test_cli.py::TestWriters"
             "::test_short_reports_are_csv_writer_of_the_json_values",)
JSON_WRITER = ("tests/test_cli.py::TestWriters::test_json_is_json_dumps_indent_2",)
STREAM = ("tests/test_cli.py::TestWriters::test_json_list_is_written_item_by_item",)
USAGE = ("tests/test_cli.py::test_usage_error_message",)
CSV_VALUES = ("tests/test_cli.py::TestWriters::test_csv_is_csv_writer_of_the_json_values",)
GOLDEN = ("tests/test_cli_golden.py::test_cli_bytes_are_golden",)
BLOCKS = ("tests/test_cli.py::TestWriters::test_block_size_does_not_change_bytes",)
LAYOUT = ("tests/test_cli.py::TestWriters::test_rows_are_the_layout_of_their_kind",)
DISPATCH = ("tests/test_cli.py::TestCommandDispatch::test_matches_argparse_on_drawn_argvs",)
NEGATIVE = ("tests/test_cli.py::test_negative_values_parse_as_values",)
MC = "tests/test_workspace.py::TestMonteCarlo"
MC_RANGES = (f"{MC}::test_hits_independent_of_cpus_and_block",)
MC_ERRORS = (f"{MC}::test_range_error_reaches_caller_and_threads_end",)
BLOCK_EDGES = ("tests/test_workspace.py::test_block_hits_on_edge_rows",)
FROM_VECTOR = ("tests/test_jointspace.py::TestFromVector",)
RHO_X = ("tests/test_jointspace.py::TestBoundaryRhoX::test_nonpositive_slice_rejected",)
BISECTOR = ("tests/test_jointspace.py::TestBoundaryRadius::test_bisector",)
CONFIG = "tests/test_cli.py::TestConfig"
VALUE_RECORDS = "tests/test_core.py::TestRecords"
REMADE = (f"{VALUE_RECORDS}::test_bad_values_rejected_however_made",)
DEFAULT_EPS = (f"{VALUE_RECORDS}::test_default_eps_branch_is_filled_in_before_the_tuple_is_made",)
PUBLIC_API = ("tests/test_public_api.py::test_public_names_are_pinned",)
NO_NUMPY = ("tests/test_cli.py::test_each_command_imports_only_its_own_optional_modules",
            "tests/test_cli.py::test_scalar_library_calls_import_no_numpy")

MUTANTS = [
    # __init__: __all__ is every global that is neither private nor a module, and the version
    Mutant(INIT, 'name.startswith("_") or ', "", PUBLIC_API),
    Mutant(INIT, " or isinstance(value, _ModuleType)", "", PUBLIC_API),
    Mutant(INIT, ' + ["__version__"]', "", PUBLIC_API),
    # workspace._path_columns, the trajectory's column pass: _chords' reach flags
    Mutant(WORKSPACE, "reach[0] & reach[1] & reach[2]", "reach[0] & reach[1]", RECORDS),
    Mutant(WORKSPACE, "np.argmin(reach, 0)", "np.argmax(reach, 0)", RECORDS),
    Mutant(WORKSPACE, "n = int(halted.argmax()) + 1", "n = int(halted.argmax())", SUMMARY),
    Mutant(WORKSPACE, "n = int(halted.argmax()) + 1", "n = int(halted.argmax()) + 2", SUMMARY),
    Mutant(WORKSPACE, "np.isnan(rads[:, :n].sum(0))", "np.isnan(rads.sum(0))", NAN_STEP),
    Mutant(WORKSPACE, "np.isnan(rads[:, :n].sum(0))", "np.isnan(rads[:, :n - 1].sum(0))",
           NAN_STEP),
    # workspace._column_hypot: math.hypot redone only within 2^-40 (c + L) + 2^-1074 of an edge
    Mutant(WORKSPACE, "c[near] = list(map(math.hypot", "list(map(math.hypot",
           PATH_EDGES + COLUMN_HYPOT),
    Mutant(WORKSPACE, "<= 2.0**-40 * (c + L)", "<= 2.0**-60 * (c + L)",
           PATH_EDGES + COLUMN_HYPOT),
    Mutant(WORKSPACE, "<= 2.0**-40 * (c + L)", "<= 2.0**40 * (c + L)", CLEAR_PATH),
    Mutant(WORKSPACE, " + 2.0**-1074\n", "\n", SUBNORMAL_L),
    # jointspace._radius: Python's ** squares by the C library's pow, numpy's by
    # multiplying; with glibc one direction of grid 21 then gets another radius
    Mutant(JOINTSPACE, "1.0 / (ex * ex) + 1.0 / (ey * ey) + 1.0 / (ez * ez)",
           "1.0 / ex**2 + 1.0 / ey**2 + 1.0 / ez**2", GRID + ONE_RADIUS),
    # workspace._region_code: its own radii, then the edges
    Mutant(WORKSPACE, "hypot(x, y), hypot(x, z), hypot(y, z)",
           "hypot(x, y), hypot(x, y), hypot(y, z)", REGION_EDGES),
    Mutant(WORKSPACE, "sqrt(x * x + y * y + z * z)", "sqrt(x * x + y * y)", REGION_EDGES),
    Mutant(WORKSPACE, " & (abs(x) > band) & (abs(y) > band) & (abs(z) > band))", ")",
           REGION_EDGES),
    Mutant(WORKSPACE, "(abs(c_xy - L) > band) & (abs(c_xz - L) > band)\n"
                      "             & (abs(c_yz - L) > band) & ", "", REGION_EDGES),
    Mutant(WORKSPACE, "clear = ((d > band) & ", "clear = (", REGION_EDGES),
    Mutant(WORKSPACE, "* (2 * octant - 1)", "* 1", REGION_EDGES),
    Mutant(WORKSPACE, "2 * (in_c & (d < -band))", "2 * (in_c & (d < 0))", REGION_EDGES),
    Mutant(WORKSPACE, "2 * (in_c & (d < -band))", "2 * (d < -band)", REGION_EDGES),
    Mutant(WORKSPACE, "in_c = (c_xy <= out)", "in_c = (c_xy < out)", REGION_EDGES),
    Mutant(WORKSPACE, "(c_yz <= out)", "(c_yz <= L)", REGION_EDGES),
    Mutant(WORKSPACE, "(d < -band)", "(d <= -band)", REGION_EDGES),
    Mutant(WORKSPACE, "clear = ((d > band)", "clear = ((d >= band)", REGION_EDGES),
    Mutant(WORKSPACE, "(abs(c_xz - L) > band)", "(abs(c_xz - L) >= band)", REGION_EDGES),
    Mutant(WORKSPACE, "(abs(y) > band)", "(abs(y) >= band)", REGION_EDGES),
    Mutant(WORKSPACE, "octant = (x > 0)", "octant = (x >= 0)", REGION_EDGES,
           survives="the octant sign counts only where clear holds, and clear needs "
                    "|x| > band >= 0, which excludes x = 0"),
    # cli: the float writer's orjson range, the flat posture in CSV, the usage errors
    Mutant(CLI, "(1e-4 <= size)", "(1e-5 <= size)", FLOAT_TEXTS),
    Mutant(CLI, "(1e-4 <= size)", "(1e-4 < size)", FLOAT_TEXTS,
           survives="at exactly 1e-4 repr, json.dumps and orjson all write 0.0001"),
    Mutant(CLI, "(size < 1e16)", "(size <= 1e16)", FLOAT_TEXTS),
    Mutant(CLI, 'd["posture"] or ""', 'd["posture"]', SHORT_CSV),
    Mutant(CLI, "if math.inf in lengths:", "if False:", USAGE),
    Mutant(CLI, "except MemoryError:  # a step", "except OverflowError:  # a step", USAGE),
    Mutant(CLI, "except MemoryError:  # a grid", "except OverflowError:  # a grid", USAGE),
    # cli: the long reports' row writer, its chunks, the JSON list's splice
    Mutant(CLI, "error_axis=AXES[axis]", 'error_axis="zyx"[axis]', RECORDS),
    Mutant(CLI, "np.diff(kind[s])) + 1)", "np.diff(kind[s])) + 0)", LAYOUT + RECORDS),
    Mutant(CLI, "*(np.flatnonzero(np.diff(kind[s])) + 1).tolist(), ", "", LAYOUT + RECORDS),
    Mutant(CLI, "} - rows.keys():", "}:", LAYOUT),
    Mutant(CLI, "rows[c] * (b - a)", "rows[runs[0][2]] * (b - a)", LAYOUT + RECORDS),
    Mutant(CLI, "if not i + a:", "if not a:", LAYOUT + RECORDS + GRID),
    Mutant(CLI, "if not i + a:", "if False:", LAYOUT + JSON_WRITER),
    Mutant(CLI, '(json.dumps, ",\\n")', '(json.dumps, ",")', LAYOUT + JSON_WRITER),
    Mutant(CLI, 'placeholder + "[\\n")', 'placeholder + "[")', JSON_WRITER + STREAM),
    Mutant(CLI, "slice(i, min(i + _CHUNK, n))", "slice(i, min(i + _CHUNK + 1, n))", BLOCKS),
    Mutant(CLI, "range(0, n, _CHUNK)", "range(0, n, _CHUNK - 1)", BLOCKS),
    Mutant(CLI, "map(str, range(s.start, s.stop))", "map(str, range(s.stop - s.start))", BLOCKS),
    Mutant(CLI, "map(str, range(s.start, s.stop))", "map(str, range(s.start + 1, s.stop + 1))",
           GOLDEN),
    Mutant(CLI, "(region * 8 + codes)", "(region * 8 + codes + 1)", RECORDS),
    Mutant(CLI, "* 2 + ok) * 4", "* 2 + ok + 1) * 4", RECORDS),
    Mutant(CLI, "* 4 + axis + 1", "* 4 + axis + 2", RECORDS),
    Mutant(CLI, 'r["joint_limits_ok"], r["infeasible"]]', 'r["infeasible"], r["joint_limits_ok"]]',
           CSV_VALUES),
    Mutant(CLI, "np.arange(s.start, s.stop) // n)", "np.arange(s.start, s.stop) % n)", GRID),
    # cli: the command registry and the direct dispatch that reads it
    Mutant(CLI, 'any(a.startswith("--=") for a in rest)', "False", DISPATCH),
    Mutant(CLI, "    sub._negative_number_matcher = _VALUE_MATCHER\n", "", NEGATIVE),
    Mutant(CLI, "rest[len(names):]", "rest[1:]", DISPATCH + NEGATIVE),
    Mutant(CLI, "(tuple(rest[:1]), tuple(rest[:2]))", "(tuple(rest[:2]), tuple(rest[:1]))",
           DISPATCH, survives="no command name is the first word of another, so at most one "
                              "of the two lookups is in the registry"),
    # cli._config: the file grammar and the ORTHOGLIDE_CONFIG default
    Mutant(CLI, "if path == _FROM_ENV:", "if False:", (f"{CONFIG}::test_env_var_default_path",)),
    Mutant(CLI, "if not path:", "if path is None:",
           (f"{CONFIG}::test_empty_env_var_means_no_file",)),
    Mutant(CLI, "if not (key or eq):", "if False:",
           (f"{CONFIG}::test_comment_and_blank_lines_are_skipped",)),
    Mutant(CLI, "if not eq:", "if False:", (f"{CONFIG}::test_line_without_equals_sign_exits_two",)),
    # workspace: numpy is imported by the functions that make arrays, not with the module
    Mutant(WORKSPACE, "from typing import NamedTuple\n", "from typing import NamedTuple\n"
           "import numpy\n", NO_NUMPY),
    # core: the records are NamedTuples, so no module imports dataclasses (or its inspect)
    Mutant(CORE, "from typing import NamedTuple\n", "from typing import NamedTuple\n"
           "import dataclasses\n", NO_NUMPY),
    # core: _make, and so _replace, goes through the validating constructor
    Mutant(CORE, "(sx, sy, sz))\n\n    _make = classmethod(lambda cls, fields: cls(*fields))",
           "(sx, sy, sz))\n", REMADE),
    Mutant(CORE, "eps_branch))\n\n    _make = classmethod(lambda cls, fields: cls(*fields))",
           "eps_branch))\n", REMADE + DEFAULT_EPS),
    # workspace.monte_carlo_volumes: per-CPU PCG64 ranges on a thread pool
    Mutant(WORKSPACE, ".advance(3 * start)", ".advance(3 * start + 3)", MC_RANGES),
    Mutant(WORKSPACE, "with ThreadPoolExecutor(k) as pool:", "if pool := ThreadPoolExecutor(k):",
           MC_ERRORS),
    Mutant(WORKSPACE, "[L] * k, bounds, bounds[1:]", "[L] * k, bounds[:1] * k, bounds[1:]",
           MC_RANGES),
    Mutant(WORKSPACE, "[L] * k, bounds, bounds[1:]", "[L] * k, bounds[:-1], bounds[1:]",
           MC_RANGES, survives="map stops at its shortest iterable, which is bounds[1:]"),
    # workspace._block_hits: the block test's exact rewrites of the scalar formulas
    Mutant(WORKSPACE, "np.add(xy, z2, out=u)", "np.add(x2, np.add(y2, z2), out=u)",
           BLOCK_EDGES),
    Mutant(WORKSPACE, "maximum(maximum(xy, xz), yz) <= L2", "maximum(maximum(xy, xz), yz) < L2",
           BLOCK_EDGES),
    Mutant(WORKSPACE, "np.minimum(np.minimum(x, y, out=w), z, out=w)", "np.minimum(x, y, out=w)",
           BLOCK_EDGES),
    # direct.dk_both: the flat band's edges, the roots and their postures
    Mutant(DIRECT, "if disc > eps:", "if disc >= eps:", DK_EDGES),
    Mutant(DIRECT, "elif disc >= -eps:", "elif disc > -eps:", DK_EDGES),
    Mutant(DIRECT, "roots = ((-1, u / a), (1, c / u))", "roots = ((1, u / a), (-1, c / u))",
           DK_ROOTS),
    Mutant(DIRECT, "roots = ((None, -1.0 / (2.0 * a)),)", "roots = ((None, -1.0 / a),)", DK_ROOTS),
    # direct._quadratic: an underflowing a keeps 4ac at +inf, not NaN
    Mutant(DIRECT, "max(a, math.ulp(0.0))", "a", UNDERFLOW),
    # jointspace.dk_feasible: the same closed band as dk_both
    Mutant(JOINTSPACE, "4.0 * a * c >= -params.eps_geom", "4.0 * a * c > -params.eps_geom",
           DK_EDGES),
    # direct._no_overflow: a non-finite p or t is named before any joint is blamed
    Mutant(DIRECT, "if not all(map(math.isfinite, nums)):", "if False:", NON_FINITE),
    # inverse._chords: the clamp to +0.0 and the reach edge, one rule for floats and columns
    Mutant(INVERSE, "sqrt(ry * (ry > 0.0) + 0.0)", "sqrt(ry * (ry > 0.0))", CHORDS),
    Mutant(INVERSE, "sqrt(rz * (rz > 0.0) + 0.0)", "sqrt(abs(rz))", CHORDS),
    Mutant(INVERSE, "sqrt(rx * (rx > 0.0) + 0.0)", "sqrt(rx * (rx >= 0.0) + 0.0)", CHORDS,
           survives="at r = +-0.0 the product is a signed zero either way, and + 0.0 makes it +0.0"),
    Mutant(INVERSE, "(rx >= -tol, ry >= -tol", "(rx > -tol, ry >= -tol", CHORDS),
    Mutant(INVERSE, "ry >= -tol, rz >= -tol)", "ry >= -tol, rz > -tol)", CHORDS),
    # inverse.branch_of: the closed eps_branch band, which a NaN difference is in
    Mutant(INVERSE, "if not (abs(d[0]) > eps and", "if not (abs(d[0]) >= eps and", BRANCH_OF),
    Mutant(INVERSE, "if not (abs(d[0]) > eps and abs(d[1]) > eps and abs(d[2]) > eps):",
           "if abs(d[0]) <= eps or abs(d[1]) <= eps or abs(d[2]) <= eps:", NON_FINITE),
    # inverse.ik_enumerate_feasible: the actuation range 0 < rho <= 2L on each axis
    Mutant(INVERSE, "if 0.0 < (rx := jx[sx])", "if 0.0 <= (rx := jx[sx])", ENUMERATE),
    Mutant(INVERSE, "0.0 < (rz := jz[sz]) <= hi]", "0.0 < (rz := jz[sz]) < hi]", ENUMERATE),
    # boundary_joint_vector, SphericalDirection.from_vector and boundary_rho_x
    Mutant(JOINTSPACE, "t = _radius_of(e, params)", "t = 2.0 * params.L", BISECTOR),
    Mutant(JOINTSPACE, "0 < x < math.inf and", "0 < x and", FROM_VECTOR),
    Mutant(JOINTSPACE, "(math.ldexp(c, -math.frexp(max(x, y, z))[1]) for c in (x, y, z))",
           "(x, y, z)", FROM_VECTOR),
    Mutant(JOINTSPACE, "if not (rho_y > 0 and rho_z > 0):", "if rho_y <= 0 or rho_z <= 0:",
           RHO_X),
]


def run(copy: Path, *args: str) -> subprocess.CompletedProcess:
    """``python *args`` in ``copy``, importing the package from the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=copy, env=env, capture_output=True,
                          text=True)


def pytest(copy: Path, nodes) -> int:
    return run(copy, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        where = run(copy, "-c", "import orthoglide; print(orthoglide.__file__)").stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"orthoglide is imported from {where!r}, not from the copy")
            return 1
        if pytest(copy, sorted({node for m in MUTANTS for node in m.nodes})) != 0:
            print("the listed nodes fail without a mutant: run them to see why")
            return 1
        for m in MUTANTS:
            path = copy / m.file
            source = path.read_text(encoding="utf-8")
            start = time.perf_counter()
            if source.count(m.snippet) != 1:
                verdict = f"snippet occurs {source.count(m.snippet)} times, not once"
            else:
                path.write_text(source.replace(m.snippet, m.replacement), encoding="utf-8")
                try:
                    code = pytest(copy, m.nodes)
                finally:
                    path.write_text(source, encoding="utf-8")
                verdict = {0: "survived", 1: "killed"}.get(code, f"pytest exited {code}")
            expected = "survived" if m.survives else "killed"
            ok = verdict == expected
            label = f"{m.file}: {m.snippet.strip()!r} -> {m.replacement.strip()!r}"
            print(f"{'ok  ' if ok else 'FAIL'} {verdict:8} {time.perf_counter() - start:5.1f}s "
                  f"{label}", flush=True)
            if not ok:
                failures.append(label)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
