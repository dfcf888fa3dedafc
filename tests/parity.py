"""Byte parity of the one-query commands across the installed interpreters.

    python tests/parity.py

runs each argv in ``ARGVS`` as ``python -m orthoglide.cli`` with
``PYTHONPATH=src``, first on the interpreter running this script (the
reference) and then on every other pyenv interpreter the package supports
(``requires-python >= 3.10``) under ``$PYENV_ROOT/versions`` or
``~/.pyenv/versions``.  It prints one line per interpreter and exits 1 if any
(exit code, stdout, stderr) differs from the reference's.  It needs no network
and no packages beyond the standard library: the argvs are the commands that
import neither numpy nor orjson, so an interpreter without them still runs
every one.  A module-level import of either shows here as a traceback.

``--help`` is left out on purpose: argparse lays out help text differently
from one Python version to the next.  pytest does not collect this file: its
name does not start with ``test_``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_VERSION = (3, 10)
#: The bisector joints of the flat configuration at L = 1, sqrt(3/2) on each axis.
FLAT = "1.224744871391589,1.224744871391589,1.224744871391589"

ARGVS = [
    *([*argv, fmt] for fmt in ("--json", "--csv") for argv in (
        ["ik", "-L", "1", "-p", "0.2,0.3,0.1"],
        ["ik", "-L", "1", "-p", "0.6,0.6,0.6"],
        ["ik", "-L", "2.5", "-p", "0.5,-0.25,0.125", "-b", "PMP"],
        ["dk", "-L", "1", "-r", "1,1.1,1.2"],
        ["dk", "-L", "1", "-r", "0.5,0.5,0.5"],
        ["dk", "-L", "1", "-r", "1,1.1,1.2", "-m", "-1"],
        ["dk", "-L", "1", "-r", FLAT],
        ["dk", "-L", "1", "-r", FLAT, "-m", "1"],
        ["dk", "-L", "1", "-r", "3,3,3", "-m", "-1"],
        ["jointspace", "check", "-L", "1", "-r", "1,1,1"],
        ["jointspace", "check", "-L", "1", "-r", "3,3,3"],
        ["jointspace", "check", "-L", "1", "-r", FLAT],
        ["volumes", "-L", "1"],
        ["volumes", "-L", "1e-3"],
    )),
    # usage errors: exit 2, usage line and message on stderr
    ["ik", "-L", "1"],
    ["ik", "-L", "-1", "-p", "0,0,0"],
    ["ik", "-L", "1", "-p", "0,0"],
    ["ik", "-L", "1", "-p", "0,0,0", "-b", "XYZ"],
    ["ik", "-L", "1", "-p", "0,0,0", "--json", "--csv"],
    ["dk", "-L", "1", "-r", "0,1,1"],
    ["volumes", "-L", "1", "--mc", "50"],
    ["volumes", "-L", "1e200"],
    ["survey"],
]


def interpreters() -> list[Path]:
    """The pyenv interpreters at or above ``MIN_VERSION`` other than the reference,
    in version order."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for bin_python in root.glob("*/bin/python3"):
        try:
            version = tuple(int(part) for part in bin_python.parent.parent.name.split("."))
        except ValueError:
            continue  # a virtualenv or a build such as 3.13t
        if version >= MIN_VERSION and bin_python.resolve() != Path(sys.executable).resolve():
            found.append((version, bin_python))
    return [python for _, python in sorted(found)]


def outcomes(python) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each argv on ``python``."""
    env = {k: v for k, v in os.environ.items() if k not in ("ORTHOGLIDE_CONFIG", "PYTHONHOME")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return [(proc.returncode, proc.stdout, proc.stderr) for proc in (
        subprocess.run([str(python), "-m", "orthoglide.cli", *argv], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=60)
        for argv in ARGVS)]


def main() -> int:
    want = outcomes(sys.executable)
    codes = sorted({code for code, _, _ in want})
    print(f"reference {sys.version.split()[0]} ({sys.executable}): "
          f"{len(ARGVS)} argvs, exit codes {codes}")
    failed = False
    for python in interpreters():
        got = outcomes(python)
        differ = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        print(f"{'ok  ' if not differ else 'FAIL'} {python}: {len(differ)} of {len(ARGVS)} differ")
        for i in differ:
            print(f"    {' '.join(ARGVS[i])}\n        reference {want[i]!r}\n        got       {got[i]!r}")
        failed |= bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
