"""Golden bytes of the CLI: each pinned call's exit code, stdout and stderr.

A digest is the first 16 hex digits of the sha256 of the JSON list
``[exit code, stdout, stderr]``.  The digests were taken from the code
before the scalar kernels were rewritten to compute each per-point quantity
once, so any changed report byte, exit code or message fails here.  The
``boundary-sample`` digests were re-taken when the direction floor was
removed: its ``input`` echo lost ``"direction_floor"``, and the same reports
with that key stripped hash to the digests below.  A usage
error (exit 2) pins its exit code only, because argparse words its messages
differently across Python versions.  Monte-Carlo volumes are left out:
numpy does not promise the PCG64 stream across its releases.

Print the table for the current source with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from orthoglide.cli import CONFIG_ENV_VAR, main

#: One or two calls per subcommand, each in JSON and in CSV.
COMMANDS = [
    ["ik", "-L", "1", "-p", "0.2,0.3,0.1"],
    ["ik", "-L", "1", "-p", "0.7,0.7,0.7"],
    ["ik", "-L", "1", "-p", "0.5,0.2,0.2", "-b", "MPM"],
    ["ik", "-L", "1", "-p", "1,0,0"],
    ["ik", "-L", "1", "-p", "1.5,0,0"],
    ["ik", "-L", "1", "-p", "1.5,0,0", "-b", "PPP"],
    ["ik", "-L", "2.5", "-p", "0.1,-0.2,0.3", "--eps-geom", "1e-6"],
    ["dk", "-L", "1", "-r", "0.3,0.3,0.3"],
    ["dk", "-L", "1", "-r", "1,1,1", "-m", "-1"],
    ["dk", "-L", "1", "-r", "-0.5,0.3,0.3"],
    ["dk", "-L", "1", "-r", "3,3,3"],
    ["dk", "-L", "1", "-r", "3,3,3", "-m", "+1"],
    ["dk", "-L", "7", "-r", "2,9,13", "--eps-branch", "1e-6"],
    # sqrt(1.5) (1, 1, 1): one flat solution, whose posture is null, an empty CSV field
    ["dk", "-L", "1", "-r", "1.224744871391589,1.224744871391589,1.224744871391589"],
    ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.7,0.7,0.7", "--step", "0.01"],
    ["volumes", "-L", "1.5"],
    ["volumes", "-L", "1e-3"],
    ["jointspace", "check", "-L", "1", "-r", "1,1,1"],
    ["jointspace", "check", "-L", "1", "-r", "2.1,2.1,2.1"],
    ["jointspace", "check", "-L", "1", "-r", "-.5,0.5,0.5"],
    ["jointspace", "boundary-sample", "-L", "1", "--grid", "4"],
]

#: The trajectory and boundary-sample fixtures of ``test_cli.TestWriters``.
TRAJECTORIES = [
    ["-L", "1", "-w", "0,0,0", "-w", "1.5,0,0", "--step", "0.05",
     "--policy", "warn-and-hold-branch"],
    ["-L", "1", "-w", "0.5,0.2,0.2", "-w", "0.5,0.6,0.8", "-w", "0.5,0.3,0.3",
     "--step", "0.1", "--policy", "warn-and-hold-branch"],
    ["-L", "1", "-w", "0.7071067811865476,0.7071067811865476,0.7071067811865476",
     "-w", "0.2,0.2,0.2", "--step", "0.1", "--policy", "warn-and-hold-branch"],
    ["-L", "1", "-w", "0.1,0.1,0.1", "-w", "0.1,0.1,0.1", "--step", "0.1"],
    ["-L", "1", "-w", "1.5,0,0", "-w", "0,0,0", "--step", "0.05"],
    ["-L", "1", "-w", "-0.0,0.1,-0.2", "-w", "-0.1,-0.0,0.2", "--step", "0.03",
     "--policy", "warn-and-hold-branch", "-b", "MPM"],
    ["-L", "1e-3", "-w", "0,0,0", "-w", "7e-4,7e-4,7e-4", "--step", "1e-5"],
    ["-L", "1e3", "-w", "0,0,0", "-w", "700,700,700", "-w", "1500,0,3", "--step", "9",
     "--policy", "warn-and-hold-branch", "-b", "PMP"],
    ["-L", "1e200", "-w", "0,0,0", "-w", "1,0,0", "--step", "1"],
    ["-L", "1", "-w", "0.2,0.2,0.2", "-w", "0,1.5,0", "-w", "0.8,0.8,0", "-w", "1.5,0,0",
     "--step", "0.1", "--policy", "warn-and-hold-branch"],
]
BOUNDARY_SAMPLES = [
    ["-L", "1", "--grid", "1"],
    ["-L", "1", "--grid", "3"],
    ["-L", "1e-3", "--grid", "2"],
    ["-L", "1e3", "--grid", "2"],
]

#: Usage errors: exit code 2, message not pinned.
USAGE_ERRORS = [
    ["ik", "-L", "1"],
    ["ik", "-L", "-1", "-p", "0,0,0"],
    ["dk", "-L", "1", "-r", "0,1,1"],
    ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1,0,0", "--step", "0"],
    ["volumes", "-L", "1", "--mc", "10"],
    ["jointspace", "boundary-sample", "-L", "1", "--grid", "0"],
]

ARGVS = (
    [[*argv, fmt] for argv in COMMANDS for fmt in ("--json", "--csv")]
    + [["trajectory", *a, fmt] for a in TRAJECTORIES for fmt in ("--json", "--csv")]
    + [["jointspace", "boundary-sample", *a, fmt]
       for a in BOUNDARY_SAMPLES for fmt in ("--json", "--csv")]
    + USAGE_ERRORS
)

GOLDEN = {
    "ik -L 1 -p 0.2,0.3,0.1 --json": "00a69a89903032ea",
    "ik -L 1 -p 0.2,0.3,0.1 --csv": "81290f974529eef2",
    "ik -L 1 -p 0.7,0.7,0.7 --json": "2bf92056b6ebac2e",
    "ik -L 1 -p 0.7,0.7,0.7 --csv": "47dfd9b1ab1fb04e",
    "ik -L 1 -p 0.5,0.2,0.2 -b MPM --json": "f1f046887cde511e",
    "ik -L 1 -p 0.5,0.2,0.2 -b MPM --csv": "84015755e04baaf2",
    "ik -L 1 -p 1,0,0 --json": "1aec5e4d50da16aa",
    "ik -L 1 -p 1,0,0 --csv": "511c6a6a83f9c3a8",
    "ik -L 1 -p 1.5,0,0 --json": "294b82cff26a50e9",
    "ik -L 1 -p 1.5,0,0 --csv": "8a508570e8335a5f",
    "ik -L 1 -p 1.5,0,0 -b PPP --json": "eed4ec0c368f7490",
    "ik -L 1 -p 1.5,0,0 -b PPP --csv": "cc6a0f896244f1d9",
    "ik -L 2.5 -p 0.1,-0.2,0.3 --eps-geom 1e-6 --json": "12b6736507aa57dd",
    "ik -L 2.5 -p 0.1,-0.2,0.3 --eps-geom 1e-6 --csv": "52a341e10fc7879e",
    "dk -L 1 -r 0.3,0.3,0.3 --json": "4e13b58c68a3e424",
    "dk -L 1 -r 0.3,0.3,0.3 --csv": "248694986779517a",
    "dk -L 1 -r 1,1,1 -m -1 --json": "bc64295eb7844db2",
    "dk -L 1 -r 1,1,1 -m -1 --csv": "ed8bc8a3a9a7c53d",
    "dk -L 1 -r -0.5,0.3,0.3 --json": "718d09b60213b5c4",
    "dk -L 1 -r -0.5,0.3,0.3 --csv": "726704470be62933",
    "dk -L 1 -r 3,3,3 --json": "e23879cff7c7bb97",
    "dk -L 1 -r 3,3,3 --csv": "02b66265ec5c2d55",
    "dk -L 1 -r 3,3,3 -m +1 --json": "032d796224cd466c",
    "dk -L 1 -r 3,3,3 -m +1 --csv": "fc153f7266af9c29",
    "dk -L 7 -r 2,9,13 --eps-branch 1e-6 --json": "cb2dc0e3081bab4c",
    "dk -L 7 -r 2,9,13 --eps-branch 1e-6 --csv": "e744915a0cb5f357",
    "dk -L 1 -r 1.224744871391589,1.224744871391589,1.224744871391589 --json": "39068bdefde857f0",
    "dk -L 1 -r 1.224744871391589,1.224744871391589,1.224744871391589 --csv": "e08c5facaacb95f1",
    "trajectory -L 1 -w 0,0,0 -w 0.7,0.7,0.7 --step 0.01 --json": "260bbfcca27ce802",
    "trajectory -L 1 -w 0,0,0 -w 0.7,0.7,0.7 --step 0.01 --csv": "19afe9fdbe453356",
    "volumes -L 1.5 --json": "4a0bfcdfc3f6adcf",
    "volumes -L 1.5 --csv": "e7a4b1431f8d24bd",
    "volumes -L 1e-3 --json": "8a676a0c80ada568",
    "volumes -L 1e-3 --csv": "686da31b2cbff714",
    "jointspace check -L 1 -r 1,1,1 --json": "7e0b3a0805336a69",
    "jointspace check -L 1 -r 1,1,1 --csv": "58a996be579c6509",
    "jointspace check -L 1 -r 2.1,2.1,2.1 --json": "210e014ca9a7cd31",
    "jointspace check -L 1 -r 2.1,2.1,2.1 --csv": "ed32fa6f0ed2e1e3",
    "jointspace check -L 1 -r -.5,0.5,0.5 --json": "8c2b561874987be8",
    "jointspace check -L 1 -r -.5,0.5,0.5 --csv": "63ab7cd263f7b0b1",
    "jointspace boundary-sample -L 1 --grid 4 --json": "007a28c2991bd49c",
    "jointspace boundary-sample -L 1 --grid 4 --csv": "e9b6b4d3eb672bd9",
    "trajectory -L 1 -w 0,0,0 -w 1.5,0,0 --step 0.05 --policy warn-and-hold-branch --json":
        "10bb255db6efd586",
    "trajectory -L 1 -w 0,0,0 -w 1.5,0,0 --step 0.05 --policy warn-and-hold-branch --csv":
        "1f3443d05989a7c7",
    "trajectory -L 1 -w 0.5,0.2,0.2 -w 0.5,0.6,0.8 -w 0.5,0.3,0.3 --step 0.1 --policy warn-and-hold-branch --json":
        "7438fbbe3ebdfb4d",
    "trajectory -L 1 -w 0.5,0.2,0.2 -w 0.5,0.6,0.8 -w 0.5,0.3,0.3 --step 0.1 --policy warn-and-hold-branch --csv":
        "3e67ae0cadf85ca8",
    "trajectory -L 1 -w 0.7071067811865476,0.7071067811865476,0.7071067811865476 -w 0.2,0.2,0.2 --step 0.1 --policy warn-and-hold-branch --json":
        "1288610dccf3c603",
    "trajectory -L 1 -w 0.7071067811865476,0.7071067811865476,0.7071067811865476 -w 0.2,0.2,0.2 --step 0.1 --policy warn-and-hold-branch --csv":
        "7029549f40978a27",
    "trajectory -L 1 -w 0.1,0.1,0.1 -w 0.1,0.1,0.1 --step 0.1 --json": "5f777727c3223082",
    "trajectory -L 1 -w 0.1,0.1,0.1 -w 0.1,0.1,0.1 --step 0.1 --csv": "0a50bb7ea48056cc",
    "trajectory -L 1 -w 1.5,0,0 -w 0,0,0 --step 0.05 --json": "f4ae979d01710a8a",
    "trajectory -L 1 -w 1.5,0,0 -w 0,0,0 --step 0.05 --csv": "3e8af77c0f8d4619",
    "trajectory -L 1 -w -0.0,0.1,-0.2 -w -0.1,-0.0,0.2 --step 0.03 --policy warn-and-hold-branch -b MPM --json":
        "4d4816b50b58a6eb",
    "trajectory -L 1 -w -0.0,0.1,-0.2 -w -0.1,-0.0,0.2 --step 0.03 --policy warn-and-hold-branch -b MPM --csv":
        "1014c70f0bf1d100",
    "trajectory -L 1e-3 -w 0,0,0 -w 7e-4,7e-4,7e-4 --step 1e-5 --json": "114fa1f7cf3588ab",
    "trajectory -L 1e-3 -w 0,0,0 -w 7e-4,7e-4,7e-4 --step 1e-5 --csv": "95136f72e66cf3d9",
    "trajectory -L 1e3 -w 0,0,0 -w 700,700,700 -w 1500,0,3 --step 9 --policy warn-and-hold-branch -b PMP --json":
        "8dd6663e587506d5",
    "trajectory -L 1e3 -w 0,0,0 -w 700,700,700 -w 1500,0,3 --step 9 --policy warn-and-hold-branch -b PMP --csv":
        "745526d7c549bfed",
    "trajectory -L 1e200 -w 0,0,0 -w 1,0,0 --step 1 --json": "fa30c8189e4683f8",
    "trajectory -L 1e200 -w 0,0,0 -w 1,0,0 --step 1 --csv": "47cab464233be66e",
    "trajectory -L 1 -w 0.2,0.2,0.2 -w 0,1.5,0 -w 0.8,0.8,0 -w 1.5,0,0 --step 0.1 --policy warn-and-hold-branch --json":
        "64faac74d2679458",
    "trajectory -L 1 -w 0.2,0.2,0.2 -w 0,1.5,0 -w 0.8,0.8,0 -w 1.5,0,0 --step 0.1 --policy warn-and-hold-branch --csv":
        "61e5c8c55790e273",
    "jointspace boundary-sample -L 1 --grid 1 --json": "4fd94c38c4db77a5",
    "jointspace boundary-sample -L 1 --grid 1 --csv": "e41563ec30fd4be4",
    "jointspace boundary-sample -L 1 --grid 3 --json": "6a07cdac675e801f",
    "jointspace boundary-sample -L 1 --grid 3 --csv": "01c048049c45915f",
    "jointspace boundary-sample -L 1e-3 --grid 2 --json": "d860b4490494b656",
    "jointspace boundary-sample -L 1e-3 --grid 2 --csv": "94384e01934cb8da",
    "jointspace boundary-sample -L 1e3 --grid 2 --json": "fb4d041b61f10f3d",
    "jointspace boundary-sample -L 1e3 --grid 2 --csv": "9cef842d0dd2ba7a",
    "ik -L 1": 2,
    "ik -L -1 -p 0,0,0": 2,
    "dk -L 1 -r 0,1,1": 2,
    "trajectory -L 1 -w 0,0,0 -w 1,0,0 --step 0": 2,
    "volumes -L 1 --mc 10": 2,
    "jointspace boundary-sample -L 1 --grid 0": 2,
}


def outcome(argv):
    """Exit code 2 as is, any other call as the digest of its bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:
        return code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_every_call_is_pinned():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_bytes_are_golden(argv, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    assert outcome(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    os.environ.pop(CONFIG_ENV_VAR, None)
    for argv in ARGVS:
        print(f"    {json.dumps(' '.join(argv))}: {json.dumps(outcome(argv))},", file=sys.__stdout__)
