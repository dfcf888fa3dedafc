import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from argparse import ArgumentParser, _SubParsersAction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import orthoglide
from orthoglide import RadicandNegative, __version__, cli
from orthoglide.cli import main
from orthoglide.jointspace import SphericalDirection


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


def run_any(capsys, argv):
    """``run``, with a usage error's SystemExit turned into its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dk", "-L", "1", "-r", "-0.5,0.5,0.5"], 0),
        # solvable, but a negative joint is outside the actuation range
        (["jointspace", "check", "-L", "1", "-r", "-.5,0.5,0.5"], 1),
        (["trajectory", "-L", "1", "-w", "-0.1,0.2,0.3", "-w", "-0.2,0.2,0.3",
          "--step", "0.05"], 0),
    ],
)
def test_negative_values_parse_as_values(capsys, argv, code):
    assert run(capsys, argv)[0] == code


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["trajectory", "-L", "1", "-w", "0,0,0", "--step", "0.1"], None,
         "need at least two -w/--waypoint arguments"),
        (["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1,0,0", "--step", "0"], None,
         "--step must be positive"),
        (["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1,0,0", "--step", "nan"], None,
         "--step must be positive"),
        (["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1e300,0,0", "--step", "1e-300"], None,
         "--step 1e-300 is too small: the step count overflows"),
        # The path length overflows, whatever the step.
        (["trajectory", "-L", "1", "-w", "-1e308,0,0", "-w", "1e308,0,0", "--step", "1e300"], None,
         "waypoints 1 and 2 are too far apart: their distance overflows"),
        # Rejected before numpy allocates anything for the steps.
        (["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1,0,0", "--step", "1e-290"], None,
         "--step 1e-290 is too small: one segment needs 1e+290 steps, more than 2**53"),
        (["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1,0,0", "--step", "1e-17"], None,
         "--step 1e-17 is too small: one segment needs 1e+17 steps, more than 2**53"),
        # Under 2**53, but its 8 PB step column is more than the 128 TiB that a
        # 64-bit Linux process can map by default, so it is refused untouched.
        (["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1,0,0", "--step", "1e-15"], None,
         "--step 1e-15 is too small: 1e+15 steps do not fit in memory"),
        # Its first array, the 1e14 angles, is 800 TB: refused untouched, as above.
        (["jointspace", "boundary-sample", "-L", "1", "--grid", "100000000000000"], None,
         "--grid 100000000000000 is too large: 1e+28 directions do not fit in memory"),
        (["jointspace", "boundary-sample", "-L", "1", "--grid", "0"], None, "--grid must be >= 1"),
        (["volumes", "-L", "1", "--mc", "50"], None, "n_samples must be >= 10000, got 50"),
        (["volumes", "-L", "1", "--mc", "10000", "--seed", "-1"], None,
         "seed must be a non-negative integer, got -1"),
        (["volumes", "-L", "1", "--mc", "10000"], "seed = -1\n",
         "seed must be a non-negative integer, got -1"),
        (["ik", "-L", "-1", "-p", "0,0,0"], None, "L must be finite and positive, got -1.0"),
        (["ik", "-L", "1", "-p", "0,0,0", "--eps-geom", "0.5"], None,
         "eps_geom must be in (0, 1e-3), got 0.5"),
        (["dk", "-L", "1", "-r", "0,1,1"], None,
         "rho_x = 0.0 is zero, NaN or too small next to L; equidistant line undefined"),
    ],
)
def test_usage_error_message(capsys, tmp_path, argv, config, message):
    """Each usage error exits 2 through the top-level parser with this exact line."""
    if config is not None:
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.splitlines()[-1] == f"orthoglide: error: {message}"


class TestIkCommand:
    def test_interior_worked_example(self, capsys):
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "-0.5,0.4,0.3"])
        assert code == 0
        assert report["version"] == __version__
        assert report["input"]["p"] == [-0.5, 0.4, 0.3]
        assert report["region"] == "sphere_interior"
        assert len(report["solutions"]) == 1
        sol = report["solutions"][0]
        assert sol["branch"] == "PPP"
        assert sol["rho"][0] == pytest.approx(0.37, abs=5e-3)
        assert sol["joint_limits_ok"] is True

    def test_shell_point_eight_solutions(self, capsys):
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "0.7,0.7,0.7"])
        assert code == 0
        assert len(report["solutions"]) == 8
        assert report["region"] == "shell"

    def test_unreachable_point_exits_one(self, capsys):
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "2,0,0"])
        assert code == 1
        assert report["solutions"] == []
        assert report["region"] == "outside"

    def test_single_branch_restriction(self, capsys):
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "0.7,0.7,0.7", "-b", "MMM"])
        assert code == 0
        [sol] = report["solutions"]
        assert sol["branch"] == "MMM"
        assert sol["rho"][0] == pytest.approx(0.7 - math.sqrt(0.02), abs=1e-12)

    def test_csv_output(self, capsys):
        code, out, err = run(capsys, ["ik", "-L", "1", "-p", "0.7,0.7,0.7", "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "branch,rho_x,rho_y,rho_z,joint_limits_ok"
        assert len(lines) == 9
        assert json.loads(err)["command"] == "ik"  # metadata on stderr

    def test_json_roundtrip_resolves_identically(self, capsys):
        """Numbers survive a JSON round trip and re-solving reproduces them."""
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "-0.5,0.4,0.3"])
        rho = report["solutions"][0]["rho"]
        code2, report2 = run_json(
            capsys, ["dk", "-L", "1", "-r", ",".join(repr(v) for v in rho)]
        )
        assert code2 == 0
        assert any(
            sol["p"] == pytest.approx(report["input"]["p"], abs=1e-12)
            for sol in report2["solutions"]
        )

    def test_reports_are_byte_identical_across_runs(self, capsys):
        argv = ["ik", "-L", "1", "-p", "-0.5,0.4,0.3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        # serialize -> parse -> serialize is lossless for every number
        parsed = json.loads(out1)
        assert json.loads(json.dumps(parsed)) == parsed

    def test_bad_triple_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ik", "-L", "1", "-p", "1,2"])
        assert exc.value.code == 2

    def test_bad_branch_label_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ik", "-L", "1", "-p", "0,0,0", "-b", "QQQ"])
        assert exc.value.code == 2


class TestDkCommand:
    def test_two_solutions(self, capsys):
        code, report = run_json(capsys, ["dk", "-L", "1", "-r", "0.3,0.3,0.3"])
        assert code == 0
        postures = [s["posture"] for s in report["solutions"]]
        assert postures == [-1, 1]
        assert report["solutions"][0]["p"][0] == pytest.approx(-0.4598, abs=1e-4)
        assert report["solutions"][1]["p"][0] == pytest.approx(0.6598, abs=1e-4)
        for sol in report["solutions"]:
            assert max(abs(r) for r in sol["residuals"]) <= 1e-9

    def test_flat_configuration(self, capsys):
        r = repr(math.sqrt(1.5))
        code, report = run_json(capsys, ["dk", "-L", "1", "-r", f"{r},{r},{r}"])
        assert code == 0
        [sol] = report["solutions"]
        assert sol["posture"] is None
        assert sol["p"][0] == pytest.approx(math.sqrt(1 / 6), abs=1e-9)

    def test_rounded_flat_joints_need_loosened_band(self, capsys):
        # 1.2247 is strictly inside the solvable region: two close solutions
        code, report = run_json(capsys, ["dk", "-L", "1", "-r", "1.2247,1.2247,1.2247"])
        assert len(report["solutions"]) == 2
        # widening the discriminant band to cover the rounding makes it flat
        code, report = run_json(
            capsys,
            ["dk", "-L", "1", "-r", "1.2247,1.2247,1.2247", "--eps-geom", "7e-4"],
        )
        [sol] = report["solutions"]
        assert sol["posture"] is None

    def test_outside_region_exits_one(self, capsys):
        code, report = run_json(capsys, ["dk", "-L", "1", "-r", "2,2,2"])
        assert code == 1
        assert report["solutions"] == []
        assert report["discriminant"] < 0

    def test_single_posture(self, capsys):
        code, report = run_json(capsys, ["dk", "-L", "1", "-r", "0.3,0.3,0.3", "-m", "-1"])
        assert code == 0
        [sol] = report["solutions"]
        assert sol["posture"] == -1

    def test_zero_joint_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dk", "-L", "1", "-r", "0,1,1"])
        assert exc.value.code == 2


class TestTrajectoryCommand:
    def test_short_move_near_home(self, capsys):
        code, report = run_json(
            capsys,
            ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.2,0,0", "--step", "0.05"],
        )
        assert code == 0
        s = report["summary"]
        assert s["feasible"] is True
        assert s["first_failure_index"] is None
        assert s["n_singular_steps"] == 0
        assert len(report["records"]) == s["n_steps"]

    def test_ball_to_shell_stays_on_ppp(self, capsys):
        code, report = run_json(
            capsys,
            ["trajectory", "-L", "1", "-w", "0.1,0.1,0.1", "-w", "0.7,0.7,0.7",
             "--step", "0.02"],
        )
        assert code == 0
        assert report["summary"]["feasible"] is True
        regions = {r["region"] for r in report["records"]}
        assert "sphere_interior" in regions and "shell" in regions

    def test_leaving_workspace_reports_first_failure(self, capsys):
        code, report = run_json(
            capsys,
            ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1.5,0,0", "--step", "0.05",
             "--policy", "warn-and-hold-branch"],
        )
        assert code == 1
        s = report["summary"]
        assert s["feasible"] is False
        assert s["first_failure_index"] is not None
        failing = report["records"][s["first_failure_index"]]
        p_before = report["records"][s["first_failure_index"] - 1]["p"]
        assert math.hypot(p_before[1], p_before[2]) <= 1.0  # still reachable before
        assert failing["infeasible"] or not failing["joint_limits_ok"]
        # warn policy walks the whole path
        assert report["records"][-1]["p"][0] == pytest.approx(1.5)

    def test_abort_policy_truncates(self, capsys):
        code, report = run_json(
            capsys,
            ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1.5,0,0", "--step", "0.05",
             "--policy", "abort"],
        )
        assert code == 1
        assert report["summary"]["aborted_at"] == len(report["records"]) - 1
        assert report["records"][-1]["p"][0] < 1.5

    @pytest.mark.parametrize(
        "argv, policy, summary",
        [
            (["-w", "0.7,0.7,0.7", "-w", "0.1,0.6,0.7", "-w", "-1,0.2,0.3", "--step", "0.01",
              "-b", "MPM"], "warn-and-hold-branch",
             (False, 39, None, 186, 0, 141, 6)),
            (["-w", "0,0,0", "-w", "1.5,0,0", "--step", "0.05"], "warn-and-hold-branch",
             (False, 20, None, 31, 1, 1, 10)),
            (["-w", "0,0,0", "-w", "0,1,0", "--step", "0.25"], "abort",
             (False, 4, 4, 5, 1, 1, 0)),
            (["-w", "0,0,0", "-w", "0,1,0", "--step", "0.25"], "warn-and-hold-branch",
             (False, 4, None, 5, 1, 1, 0)),
            # stops on a step that is only singular: no failure, yet not feasible
            (["-w", "0.5,0.2,0.2", "-w", "0.5,0.6,0.8", "-w", "0.5,0.3,0.3", "--step", "0.1"],
             "abort", (False, None, 8, 9, 1, 0, 0)),
            (["-w", "0.5,0.2,0.2", "-w", "0.5,0.6,0.8", "-w", "0.5,0.3,0.3", "--step", "0.1"],
             "warn-and-hold-branch", (True, None, None, 15, 1, 0, 0)),
        ],
    )
    def test_summary(self, capsys, argv, policy, summary):
        code, report = run_json(capsys, ["trajectory", "-L", "1", *argv, "--policy", policy])
        keys = ("feasible", "first_failure_index", "aborted_at", "n_steps",
                "n_singular_steps", "n_limit_violations", "n_infeasible_steps")
        assert report["summary"] == dict(zip(keys, summary))
        assert list(report["summary"]) == list(keys)
        assert code == (0 if summary[0] else 1)

    def test_overflowing_step_count_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trajectory", "-L", "1", "-w", "0,0,0", "-w", "1e300,0,0",
                  "--step", "1e-300"])
        assert exc.value.code == 2
        assert "--step" in capsys.readouterr().err

    def test_needs_two_waypoints(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trajectory", "-L", "1", "-w", "0,0,0", "--step", "0.1"])
        assert exc.value.code == 2

    def test_overflowing_radicands_stop_or_raise_without_warnings(self, capsys):
        """At L = 1e200, L^2 overflows: the origin's radicands and the band
        around them are inf, so it is singular on every axis and its joints
        are inf and fail the limits, and (1e199, 0, 0) has NaN radicands.
        The abort policy stops at the origin before the NaN step; holding the
        branch reaches it and raises, as ik_branch does there.  The column
        kernel's inf and NaN arithmetic warns nowhere: stderr holds only the
        metadata line.  A NaN step raises also as the last step reported."""
        argv = ["trajectory", "-L", "1e200", "-w", "0,0,0", "-w", "1e200,0,0", "--step", "1e199"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [*argv, "--csv"])
            assert code == 1
            assert out.splitlines()[1:] == [
                "0,0.0,0.0,0.0,inf,inf,inf,PPP,sphere_interior,x;y;z,False,False"]
            meta = json.loads(err)
            assert err == json.dumps(meta) + "\n"
            assert meta["summary"] == {
                "feasible": False, "first_failure_index": 0, "aborted_at": 0, "n_steps": 1,
                "n_singular_steps": 1, "n_limit_violations": 1, "n_infeasible_steps": 0}
            for end in ("1e200,0,0", "1e199,0,0"):  # to 1e199 the NaN step is the last one
                with pytest.raises(RadicandNegative) as exc:
                    main([*argv[:5], "-w", end, "--step", "1e199", "--policy",
                          "warn-and-hold-branch"])
                assert exc.value.axis == "y"
                assert str(exc.value) == "axis y: radicand is NaN; point (1e+199, 0.0, 0.0)"
        assert capsys.readouterr() == ("", "")


class TestVolumesCommand:
    def test_closed_form(self, capsys):
        code, report = run_json(capsys, ["volumes", "-L", "1"])
        assert code == 0
        cf = report["closed_form"]
        assert cf["vol_W"] == pytest.approx(2 + 7 * math.pi / 6 - math.sqrt(2), abs=1e-12)
        assert cf["pct_W_of_serial"] == pytest.approx(53.14, abs=0.01)

    def test_cubic_scaling(self, capsys):
        _, r1 = run_json(capsys, ["volumes", "-L", "1"])
        _, r2 = run_json(capsys, ["volumes", "-L", "2"])
        assert r2["closed_form"]["vol_W"] == pytest.approx(
            8 * r1["closed_form"]["vol_W"], rel=1e-12
        )

    def test_monte_carlo_deterministic(self, capsys):
        argv = ["volumes", "-L", "1", "--mc", "20000", "--seed", "42"]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert a["monte_carlo"] == b["monte_carlo"]
        est = a["monte_carlo"]["vol_W"]
        assert abs(est["value"] - a["closed_form"]["vol_W"]) <= 4 * est["stderr"]


    def test_report_key_order(self, capsys):
        _, report = run_json(capsys, ["volumes", "-L", "1", "--mc", "10000"])
        assert list(report["closed_form"]) == [
            "vol_C", "vol_S", "vol_G", "vol_W",
            "pct_W_of_serial", "pct_S_of_serial", "pct_C_of_serial",
        ]
        mc = report["monte_carlo"]
        assert list(mc) == ["n_samples", "seed", "vol_C", "vol_S", "vol_G", "vol_W"]
        for name in ("vol_C", "vol_S", "vol_G", "vol_W"):
            assert list(mc[name]) == ["value", "stderr", "hits"]

    @pytest.mark.parametrize("L, quantity", [
        ("1e-120", "vol_C = 4.68629"), ("5e102", "vol_C = 4.68629"),
        ("1e300", "vol_C = 4.68629"), ("3e102", "cube = 8"),
    ])
    @pytest.mark.parametrize("fmt", ["--json", "--csv"])
    def test_unrepresentable_volumes_exit_two(self, capsys, L, quantity, fmt):
        """No ZeroDivisionError, OverflowError, Infinity or NaN at the ends
        of the double range; 3e102 fits the volumes but not the MC cube."""
        code, out, err = run_any(capsys, ["volumes", "-L", L, "--mc", "10000", fmt])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"orthoglide: error: L = {float(L)!r} is out of range: "
            f"{quantity} * L**3 is not a finite normal float"
        )

    def test_negative_seed_without_mc_is_unused(self, capsys, tmp_path):
        code, report = run_json(capsys, ["volumes", "-L", "1", "--seed", "-1"])
        assert code == 0
        assert report["input"]["seed"] == -1
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("seed = -1\n")
        code, _ = run_json(capsys, ["ik", "-L", "1", "-p", "0,0,0", "--config", str(cfg)])
        assert code == 0


class TestJointspaceCommand:
    def test_check_home(self, capsys):
        code, report = run_json(capsys, ["jointspace", "check", "-L", "1", "-r", "1,1,1"])
        assert code == 0
        assert report["feasible"] is True
        assert report["product"] == pytest.approx(-3.0, abs=1e-12)

    def test_check_boundary(self, capsys):
        r = repr(math.sqrt(1.5))
        code, report = run_json(
            capsys, ["jointspace", "check", "-L", "1", "-r", f"{r},{r},{r}"]
        )
        assert code == 0
        assert report["product"] == pytest.approx(1.0, abs=1e-12)
        assert report["on_boundary"] is True

    def test_check_agrees_with_dk_inside_the_zero_band(self, capsys):
        # product 1 + 5.2e-10: outside by the raw product, inside the band
        r = "1.224744871431589"
        argv = ["-L", "1", "-r", f"{r},{r},{r}"]
        code, report = run_json(capsys, ["jointspace", "check", *argv])
        assert report["product"] > 1.0
        assert (code, report["dk_solvable"], report["on_boundary"]) == (0, True, True)
        code, report = run_json(capsys, ["dk", *argv])
        assert code == 0
        assert [s["posture"] for s in report["solutions"]] == [None]

    def test_check_infeasible_exits_one(self, capsys):
        code, report = run_json(capsys, ["jointspace", "check", "-L", "1", "-r", "2,2,2"])
        assert code == 1
        assert report["feasible"] is False

    def test_boundary_sample_csv(self, capsys):
        code, out, err = run(capsys, ["jointspace", "boundary-sample", "-L", "1", "--grid", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,theta,t,rho_x,rho_y,rho_z"
        assert len(lines) == 10
        middle = lines[5].split(",")  # centre of the 3x3 grid: phi = theta = pi/4
        assert float(middle[0]) == pytest.approx(math.pi / 4, abs=1e-12)
        t_mid = float(middle[2])
        assert 2.0 < t_mid <= 3 / math.sqrt(2) + 1e-12
        assert t_mid == pytest.approx(2.12, abs=0.02)

    def test_boundary_sample_json(self, capsys):
        code, report = run_json(
            capsys, ["jointspace", "boundary-sample", "-L", "1", "--grid", "2", "--json"]
        )
        assert code == 0
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            norm = math.sqrt(row["rho_x"] ** 2 + row["rho_y"] ** 2 + row["rho_z"] ** 2)
            assert norm == pytest.approx(row["t"], rel=1e-12)

    def test_boundary_sample_rows(self, capsys):
        """JSON rows keep the CSV column order; each point is t times its unit direction."""
        _, report = run_json(
            capsys, ["jointspace", "boundary-sample", "-L", "1", "--grid", "2", "--json"]
        )
        for row in report["rows"]:
            assert list(row) == ["phi", "theta", "t", "rho_x", "rho_y", "rho_z"]
            e = SphericalDirection(row["phi"], row["theta"]).unit_vector()
            assert [row["rho_x"], row["rho_y"], row["rho_z"]] == [row["t"] * c for c in e]


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_boundary_sample_overflowing_radius_is_a_usage_error(capsys, fmt):
    """At L = 1e308 every boundary radius overflows: a usage error, not rows of inf."""
    code, out, err = run_any(capsys, ["jointspace", "boundary-sample", "-L", "1e308",
                                      "--grid", "2", fmt])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "orthoglide: error: L = 1e+308 is out of range: the boundary radius along "
        "(0.8535533905932737, 0.3535533905932738, 0.3826834323650898) overflows"
    )


class TestWriters:
    """Reports are exactly what ``json.dumps(report, indent=2)`` and
    ``csv.writer`` write.  ``trajectory`` and ``boundary-sample`` make their
    long lists' rows with one row writer, and the short reports' CSV rows go
    through one line template, so these pin both on the cases they branch on."""

    TRAJECTORIES = [
        # infeasible steps: rho null, with error_axis
        ["-L", "1", "-w", "0,0,0", "-w", "1.5,0,0", "--step", "0.05",
         "--policy", "warn-and-hold-branch"],
        # zero and one singular axes (x at y^2 + z^2 = L^2)
        ["-L", "1", "-w", "0.5,0.2,0.2", "-w", "0.5,0.6,0.8", "-w", "0.5,0.3,0.3",
         "--step", "0.1", "--policy", "warn-and-hold-branch"],
        # three singular axes at (1, 1, 1) L / sqrt(2)
        ["-L", "1", "-w", "0.7071067811865476,0.7071067811865476,0.7071067811865476",
         "-w", "0.2,0.2,0.2", "--step", "0.1", "--policy", "warn-and-hold-branch"],
        # one step between two equal waypoints
        ["-L", "1", "-w", "0.1,0.1,0.1", "-w", "0.1,0.1,0.1", "--step", "0.1"],
        # abort at step 0
        ["-L", "1", "-w", "1.5,0,0", "-w", "0,0,0", "--step", "0.05"],
        ["-L", "1", "-w", "-0.0,0.1,-0.2", "-w", "-0.1,-0.0,0.2", "--step", "0.03",
         "--policy", "warn-and-hold-branch", "-b", "MPM"],
        ["-L", "1e-3", "-w", "0,0,0", "-w", "7e-4,7e-4,7e-4", "--step", "1e-5"],
        ["-L", "1e3", "-w", "0,0,0", "-w", "700,700,700", "-w", "1500,0,3", "--step", "9",
         "--policy", "warn-and-hold-branch", "-b", "PMP"],
        # rho overflows to inf, which json writes as Infinity
        ["-L", "1e200", "-w", "0,0,0", "-w", "1,0,0", "--step", "1"],
        # infeasible steps of each error axis, x, y and z
        ["-L", "1", "-w", "0.2,0.2,0.2", "-w", "0,1.5,0", "-w", "0.8,0.8,0", "-w", "1.5,0,0",
         "--step", "0.1", "--policy", "warn-and-hold-branch"],
    ]
    BOUNDARY_SAMPLES = [
        ["-L", "1", "--grid", "1"],
        ["-L", "1", "--grid", "3"],
        ["-L", "1e-3", "--grid", "2"],
        ["-L", "1e3", "--grid", "2"],
    ]
    OTHERS = [
        ["ik", "-L", "1", "-p", "0.7,0.7,0.7"],
        ["dk", "-L", "1", "-r", "0.3,0.3,0.3"],
        ["volumes", "-L", "1.5"],
        ["jointspace", "check", "-L", "1", "-r", "1,1,1"],
    ]
    #: One flat solution: its null posture is the one field that ``%s`` and
    #: ``csv.writer`` would write differently if it were passed as it is.
    FLAT_DK = ["dk", "-L", "1", "-r", "1.224744871391589,1.224744871391589,1.224744871391589"]

    def argvs(self, fmt):
        return ([["trajectory", *a, fmt] for a in self.TRAJECTORIES]
                + [["jointspace", "boundary-sample", *a, fmt] for a in self.BOUNDARY_SAMPLES])

    def test_json_is_json_dumps_indent_2(self, capsys):
        records = []
        for argv in self.argvs("--json") + self.OTHERS:
            _, out, _ = run(capsys, argv)
            report = json.loads(out)
            assert out == json.dumps(report, indent=2) + "\n", argv
            records += report.get("records", [])
        # The fixtures reach every record template and each branch of one.
        assert {len(r["singular_axes"]) for r in records} >= {0, 1, 3}
        assert {r["error_axis"] for r in records if r["rho"] is None} == {"x", "y", "z"}
        assert any(r["rho"] is not None and math.isinf(r["rho"][0]) for r in records)

    def test_csv_is_csv_writer_output(self, capsys):
        for argv in self.argvs("--csv") + [[*a, "--csv"] for a in [*self.OTHERS, self.FLAT_DK]]:
            _, out, _ = run(capsys, argv)
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
            assert out == buf.getvalue(), argv

    def test_short_reports_are_csv_writer_of_the_json_values(self, capsys):
        """Each short report's CSV rows are ``csv.writer`` applied to the
        typed values its JSON report holds, a flat ``None`` posture too."""
        fields = {
            "ik": lambda s: (s["branch"], *s["rho"], s["joint_limits_ok"]),
            "dk": lambda s: (s["posture"], s["t"], *s["p"], s["plane_eval"]),
        }
        for argv in self.OTHERS + [self.FLAT_DK]:
            _, report = run_json(capsys, argv)
            _, out, _ = run(capsys, [*argv, "--csv"])
            if argv[0] in fields:
                rows = [fields[argv[0]](s) for s in report["solutions"]]
            elif argv[0] == "volumes":
                rows = [("closed", k, v, "") for k, v in report["closed_form"].items()]
            else:
                rows = [(report["product"], report["dk_solvable"], report["joint_limits_ok"],
                         report["feasible"])]
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([out.splitlines()[0].split(","), *rows])
            assert out == buf.getvalue(), argv
        assert report["solutions"][0]["posture"] is None and out.splitlines()[1][0] == ","

    def test_csv_is_csv_writer_of_the_json_values(self, capsys):
        """The long lists' CSV rows are ``csv.writer`` applied to the typed
        values the JSON report holds for the same call."""
        fields = []
        for argv in self.argvs("--json"):
            _, report = run_json(capsys, argv)
            _, out, _ = run(capsys, [*argv[:-1], "--csv"])
            if "records" in report:
                header = ("index", "p_x", "p_y", "p_z", "rho_x", "rho_y", "rho_z", "branch",
                          "region", "singular_axes", "joint_limits_ok", "infeasible")
                rows = [(r["index"], *r["p"], *(r["rho"] or ("", "", "")), r["branch"],
                         r["region"], ";".join(r["singular_axes"]), r["joint_limits_ok"],
                         r["infeasible"]) for r in report["records"]]
            else:
                header = ("phi", "theta", "t", "rho_x", "rho_y", "rho_z")
                rows = [tuple(r.values()) for r in report["rows"]]
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([header, *rows])
            assert out == buf.getvalue(), argv
            fields += [v for row in rows for v in row]
        # The fixtures reach every kind of field the line template writes.
        assert "" in fields and "x;y;z" in fields
        assert any(v is True for v in fields) and any(v is False for v in fields)
        assert any(isinstance(v, float) and math.isinf(v) for v in fields)
        assert any(isinstance(v, float) and v == 0.0 and math.copysign(1.0, v) < 0 for v in fields)

    def test_emit_writes_once_per_call(self, capsys, monkeypatch):
        calls = []
        emit = cli._emit

        def counted(*args, **kwargs):
            calls.append(args[0]["command"])
            emit(*args, **kwargs)

        monkeypatch.setattr(cli, "_emit", counted)
        for fmt in ("--json", "--csv"):
            for argv in (["trajectory", *self.TRAJECTORIES[0], fmt],
                         ["jointspace", "boundary-sample", *self.BOUNDARY_SAMPLES[1], fmt]):
                calls.clear()
                run(capsys, argv)
                assert len(calls) == 1, argv

    def test_json_list_is_written_item_by_item(self, capsys):
        """Each list item is written as it is drawn, so no report body is
        joined in memory first: the head is out before the first item."""
        report = {"command": "c", "rows": [], "summary": {"n": 2}}
        seen = []

        def items():
            seen.append(capsys.readouterr().out)
            yield "    1"
            yield "    2"

        cli._emit(report, "json", key="rows", items=items())
        assert seen == ['{\n  "command": "c",\n  "rows": ']
        out = seen[0] + capsys.readouterr().out
        assert out == json.dumps({**report, "rows": [1, 2]}, indent=2) + "\n"

    #: 3460 steps, infeasible ones of each error axis among them.
    LONG_TRAJECTORY = ["-L", "1", "-w", "0.2,0.2,0.2", "-w", "0,1.5,0", "-w", "0.8,0.8,0",
                       "-w", "1.5,0,0", "--step", "0.001", "--policy", "warn-and-hold-branch"]
    CHUNKS = [1, 7, cli._CHUNK - 1, cli._CHUNK + 1]

    @pytest.mark.parametrize("block", CHUNKS)
    def test_block_size_does_not_change_bytes(self, capsys, monkeypatch, block):
        """``trajectory`` makes, joins and writes its steps' texts one chunk
        of rows at a time; any chunk size writes the same bytes."""
        argvs = [["trajectory", *a, fmt] for a in [*self.TRAJECTORIES, self.LONG_TRAJECTORY]
                 for fmt in ("--json", "--csv")]
        want = [run(capsys, argv) for argv in argvs]
        assert len(json.loads(want[-2][1])["records"]) > 3 * cli._CHUNK
        monkeypatch.setattr(cli, "_CHUNK", block)
        assert [run(capsys, argv) for argv in argvs] == want

    @pytest.mark.parametrize("block", CHUNKS)
    def test_boundary_chunk_size_does_not_change_bytes(self, capsys, monkeypatch, block):
        """``boundary-sample`` goes through the same row writer: a chunk may
        end inside a grid line or span several."""
        argvs = [["jointspace", "boundary-sample", "-L", "1", "--grid", grid, fmt]
                 for grid in ("1", "3", "40") for fmt in ("--json", "--csv")]
        want = [run(capsys, argv) for argv in argvs]
        monkeypatch.setattr(cli, "_CHUNK", block)
        assert [run(capsys, argv) for argv in argvs] == want

    @staticmethod
    def layout(c):
        """Kind c's row: (c + 3) % 4 of the three columns' slots, literals that
        are the same for every kind and one that differs by the kind's
        parity, then an end that is the kind's own."""
        literals = ["(", f"[{c % 2}]", "|"][:(c + 3) % 4]
        return "".join(f"{text}%s" for text in literals) + f"<{c}>"

    @pytest.mark.parametrize("block", CHUNKS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_are_the_layout_of_their_kind(self, monkeypatch, block, fmt):
        """The row writer against a plain reference: row r is ``layout(c) %``
        the texts of the first ``layout(c).count("%s")`` columns, c its kind,
        and ``layout`` runs once for each kind a report holds.  The cases: many
        kinds with a narrower one first, a report of one narrower kind only,
        and a report with no kinds."""
        monkeypatch.setattr(cli, "_CHUNK", block)
        rng = np.random.default_rng(21)
        n = 2 * max(self.CHUNKS) + 5
        floats = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-8, 20, (2, n))
        floats[0, :3] = [math.inf, -math.nan, -0.0]
        spell, sep = (repr, "") if fmt == "csv" else (json.dumps, ",\n")
        texts = [(str(r), spell(x), spell(y)) for r, (x, y) in enumerate(floats.T.tolist())]
        mixed = rng.integers(0, 12, n)
        mixed[0] = 5
        for kind in (mixed, np.full(n, 2), None):
            calls = []

            def layout(c):
                calls.append(c)
                return self.layout(c)

            columns = [lambda s: map(str, range(s.start, s.stop)), *floats]
            got = sep.join(cli._chunks(fmt, n, columns, layout, kind))
            kinds = [0] * n if kind is None else kind.tolist()
            assert sorted(calls) == sorted(set(kinds))
            rows = [self.layout(c) % texts[r][:self.layout(c).count("%s")]
                    for r, c in enumerate(kinds)]
            assert got == sep.join(rows)


class TestFloatTexts:
    """``_float_texts`` writes each float as ``repr`` or ``json.dumps`` does,
    so an orjson release that writes other digits, or switches notation at
    other magnitudes, fails here instead of changing report bytes."""

    EDGES = [0.0, math.inf, math.nan, 1e-4, math.nextafter(1e-4, 0), 1e16,
             math.nextafter(1e16, 0), 9999999999999998.0, 5e-324]

    @staticmethod
    def doubles(seed=12):
        """~10**5 doubles of both signs: random bits in every binade from the
        subnormals to ``sys.float_info.max``, as many again in the binades
        around ``repr``'s plain decimal range, 1e-4 <= |v| < 1e16, where
        orjson's own digits are kept, and short decimals from 1e-18 to 1e22."""
        rng = np.random.default_rng(seed)

        def binades(count, low, high):  # biased exponents low .. high - 1
            sign = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
            exponent = rng.integers(low, high, count, dtype=np.uint64) << np.uint64(52)
            mantissa = rng.integers(0, 1 << 52, count, dtype=np.uint64)
            return (sign | exponent | mantissa).view(np.float64).tolist()

        digits, powers = rng.integers(1, 10**6, 20_000), rng.integers(-18, 17, 20_000)
        short = [float(f"{d}e{p}") for d, p in zip(digits.tolist(), powers.tolist())]
        return binades(40_000, 0, 2047) + binades(40_000, 1023 - 15, 1023 + 55) + short

    def test_doubles_reach_every_binade(self):
        values = np.abs(np.array(self.doubles()))
        assert ((0 < values) & (values < sys.float_info.min)).any()  # subnormals
        # frexp's exponent e puts v in [2**(e-1), 2**e); the normal ones run -1021 .. 1024.
        assert set(np.frexp(values)[1].tolist()) >= set(range(-1021, 1025))

    @pytest.mark.parametrize("spell", [repr, json.dumps])
    def test_writes_what_spell_writes(self, spell):
        values = [*self.EDGES, *(-v for v in self.EDGES), *self.doubles()]
        assert cli._float_texts(values, spell) == [spell(v) for v in values]

    def test_empty_column(self):
        assert cli._float_texts([], repr) == []


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("argv", [
    ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.7,0.7,0.7", "--step", "1e-4"],
    ["jointspace", "boundary-sample", "-L", "1", "--grid", "300"],
], ids=["trajectory", "boundary-sample"])
def test_closed_pipe_exits_one_without_traceback(argv, fmt):
    """A reader that stops after 100 bytes, as ``| head -c 100`` does, ends a
    long report with exit 1 and nothing about the broken pipe on stderr."""
    env = {k: v for k, v in os.environ.items() if k != "ORTHOGLIDE_CONFIG"}
    env["PYTHONPATH"] = str(Path(orthoglide.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "orthoglide.cli", *argv, fmt], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_only_the_long_reports_import_orjson():
    """``ik``, ``dk``, ``jointspace check`` and ``volumes`` start without
    orjson's import; ``trajectory`` is the control that does import it."""
    code = """if True:
        import contextlib, io, sys
        import orthoglide.cli as cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (["ik", "-L", "1", "-p", "0.2,0.3,0.1"], ["dk", "-L", "1", "-r", "1,1,1"],
                         ["jointspace", "check", "-L", "1", "-r", "1,1,1"],
                         ["volumes", "-L", "1", "--mc", "10000"]):
                assert cli.main(argv) == 0, argv
            print("orjson" in sys.modules, file=sys.__stdout__)
            cli.main(["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.1,0,0", "--step", "0.05"])
            print("orjson" in sys.modules, file=sys.__stdout__)
    """
    env = {k: v for k, v in os.environ.items() if k != "ORTHOGLIDE_CONFIG"}
    env["PYTHONPATH"] = str(Path(orthoglide.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nTrue\n", "")


class TestConfig:
    def test_config_file_sets_tolerances(self, capsys, tmp_path):
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("eps_geom = 1e-7\nseed = 99  # used by --mc\n")
        code, report = run_json(
            capsys, ["ik", "-L", "1", "-p", "0,0,0", "--config", str(cfg)]
        )
        assert code == 0
        assert report["params"]["eps_geom"] == 1e-7

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("eps_geom = 1e-7\n")
        code, report = run_json(
            capsys,
            ["ik", "-L", "1", "-p", "0,0,0", "--config", str(cfg), "--eps-geom", "1e-8"],
        )
        assert report["params"]["eps_geom"] == 1e-8

    def test_env_var_default_path(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "default.cfg"
        cfg.write_text("eps_branch = 5e-8\n")
        monkeypatch.setenv("ORTHOGLIDE_CONFIG", str(cfg))
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "0,0,0"])
        assert report["params"]["eps_branch"] == 5e-8

    def test_flag_over_config_over_env_var_over_default(self, capsys, tmp_path, monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("eps_geom = 3e-7\neps_branch = 3e-8\n")
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("eps_geom = 2e-7\n")
        monkeypatch.setenv("ORTHOGLIDE_CONFIG", str(env_cfg))
        argv = ["ik", "-L", "1", "-p", "0,0,0"]
        _, report = run_json(capsys, argv)
        assert report["params"] == {"L": 1.0, "eps_geom": 3e-7, "eps_branch": 3e-8}
        # --config replaces the env-var file: eps_branch falls back to its default
        _, report = run_json(capsys, [*argv, "--config", str(cfg)])
        assert report["params"] == {"L": 1.0, "eps_geom": 2e-7, "eps_branch": 1e-9}
        _, report = run_json(capsys, [*argv, "--config", str(cfg), "--eps-geom", "1e-8"])
        assert report["params"]["eps_geom"] == 1e-8

    def test_config_seed_feeds_monte_carlo(self, capsys, tmp_path):
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("seed = 99\n")
        _, from_cfg = run_json(
            capsys, ["volumes", "-L", "1", "--mc", "10000", "--config", str(cfg)]
        )
        _, explicit = run_json(
            capsys, ["volumes", "-L", "1", "--mc", "10000", "--seed", "99"]
        )
        assert from_cfg["monte_carlo"] == explicit["monte_carlo"]
        assert from_cfg["monte_carlo"]["seed"] == 99

    def test_unknown_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tolerance = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["ik", "-L", "1", "-p", "0,0,0", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_direction_floor_key_is_unknown(self, capsys, tmp_path):
        """The direction floor is no setting: a file that sets it is a usage error."""
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("direction_floor = 1e-6\n")
        code, out, err = run_any(capsys, ["jointspace", "boundary-sample", "-L", "1",
                                          "--grid", "2", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"{cfg}:1: unknown key 'direction_floor'")

    def test_env_var_is_read_on_every_call(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "default.cfg"
        cfg.write_text("eps_branch = 5e-8\n")
        argv = ["ik", "-L", "1", "-p", "0,0,0"]
        monkeypatch.setenv("ORTHOGLIDE_CONFIG", str(cfg))
        _, report = run_json(capsys, argv)
        assert report["params"]["eps_branch"] == 5e-8
        monkeypatch.delenv("ORTHOGLIDE_CONFIG")
        _, report = run_json(capsys, argv)
        assert report["params"]["eps_branch"] == 1e-9

    def test_bad_env_var_file_fails_from_the_subcommand(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tolerance = 1\n")
        monkeypatch.setenv("ORTHOGLIDE_CONFIG", str(cfg))
        code, out, err = run_any(capsys, ["ik", "-L", "1", "-p", "0,0,0"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"orthoglide ik: error: argument --config: {cfg}:1: unknown key 'tolerance'"
        )

    def test_empty_env_var_means_no_file(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOGLIDE_CONFIG", "")
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "0,0,0"])
        assert code == 0
        assert report["params"] == {"L": 1.0, "eps_geom": 1e-9, "eps_branch": 1e-9}

    def test_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("# tolerances\n\n   \n\t\neps_geom = 1e-7  # relative\n  # end\n\n")
        code, report = run_json(capsys, ["ik", "-L", "1", "-p", "0,0,0", "--config", str(cfg)])
        assert code == 0
        assert report["params"]["eps_geom"] == 1e-7

    def test_line_without_equals_sign_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "orthoglide.cfg"
        cfg.write_text("eps_geom = 1e-7\neps_branch 1e-8\n")
        code, out, err = run_any(capsys, ["ik", "-L", "1", "-p", "0,0,0", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (f"orthoglide ik: error: argument --config: {cfg}:2: "
                                        "expected key=value, got 'eps_branch 1e-8'")

    def test_main_leaves_the_built_parsers_as_built(self, capsys, tmp_path, monkeypatch):
        """The variable is read on each parse, not written into the parser
        that ``main`` reuses."""
        cfg = tmp_path / "default.cfg"
        cfg.write_text("eps_geom = 1e-7\n")
        monkeypatch.setenv("ORTHOGLIDE_CONFIG", str(cfg))
        _, report = run_json(capsys, ["ik", "-L", "1", "-p", "0,0,0"])
        assert report["params"]["eps_geom"] == 1e-7

        def defaults(parser):
            return {names: c.get_default("config") for names, c in parser.commands.items()}

        assert defaults(cli._built_by(cli.build_parser)) == defaults(cli.build_parser())


class TestParserReuse:
    #: Every subcommand in JSON and CSV, a usage error midway, a repeated -w.
    ARGVS = [
        ["ik", "-L", "1", "-p", "-0.5,0.4,0.3"],
        ["ik", "-L", "1", "-p", "0.7,0.7,0.7", "-b", "MPM", "--csv"],
        ["dk", "-L", "1", "-r", "0.3,0.3,0.3"],
        ["dk", "-L", "1", "-r", "0.3,0.3,0.3", "-m", "-1", "--csv"],
        ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.7,0.7,0.7", "-w", "0.2,0,0",
         "--step", "0.1", "--policy", "warn-and-hold-branch"],
        ["trajectory", "-L", "2", "-w", "-0.1,0,0", "-w", "-.2,0,0", "--step", "0.05", "--csv"],
        ["ik", "-L", "1", "-p", "0,0", "--csv"],
        ["volumes", "-L", "1.5", "--mc", "10000", "--seed", "3"],
        ["volumes", "-L", "1.5", "--csv"],
        ["jointspace", "check", "-L", "1", "-r", "1,1,1"],
        ["jointspace", "check", "-L", "1", "-r", "2,2,2", "--csv"],
        ["jointspace", "boundary-sample", "-L", "1", "--grid", "2", "--json"],
        ["jointspace", "boundary-sample", "-L", "1", "--grid", "2"],
        ["trajectory", "-L", "1", "-w", "0,0,0", "-w", "0.1,0,0", "--step", "0.05"],
    ]

    def test_interleaved_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.delenv("ORTHOGLIDE_CONFIG", raising=False)
        in_process = [run_any(capsys, argv) for argv in self.ARGVS]
        env = {k: v for k, v in os.environ.items() if k != "ORTHOGLIDE_CONFIG"}
        env["PYTHONPATH"] = str(Path(orthoglide.__file__).resolve().parent.parent)
        for argv, (code, out, err) in zip(self.ARGVS, in_process):
            proc = subprocess.run([sys.executable, "-m", "orthoglide.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert [code for code, _, _ in in_process].count(2) == 1

    def test_env_var_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        """As above, under ORTHOGLIDE_CONFIG set to a good file, a bad one and ""."""
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text("eps_geom = 1e-7\nseed = 4\n")
        bad.write_text("tolerance = 1\n")
        env = {**os.environ, "PYTHONPATH": str(Path(orthoglide.__file__).resolve().parent.parent)}
        argvs = [["ik", "-L", "1", "-p", "0,0,0"], ["volumes", "-L", "1", "--mc", "10000"],
                 ["jointspace", "check", "-L", "1", "-r", "1,1,1"]]
        codes = []
        for value in (str(good), str(bad), ""):
            monkeypatch.setenv("ORTHOGLIDE_CONFIG", value)
            env["ORTHOGLIDE_CONFIG"] = value
            for argv in argvs:
                code, out, err = run_any(capsys, argv)
                proc = subprocess.run([sys.executable, "-m", "orthoglide.cli", *argv],
                                      capture_output=True, text=True, env=env, timeout=60)
                assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
                codes.append(code)
        assert codes == [0, 0, 0, 2, 2, 2, 0, 0, 0]

    def test_replaced_build_parser_is_used_until_restored(self, capsys, monkeypatch):
        original = cli.build_parser
        builds = []

        def build_parser():
            builds.append(1)
            return original()

        argv = ["ik", "-L", "1", "-p", "0,0,0", "--csv"]
        assert run(capsys, argv)[0] == 0
        with monkeypatch.context() as m:
            # The parser binds cmd_ik when it is built, so the stub shows
            # whose parser main used.
            m.setattr(cli, "cmd_ik", lambda args: 7)
            m.setattr(cli, "build_parser", build_parser)
            assert [run(capsys, argv)[0] for _ in range(3)] == [7, 7, 7]
            assert builds == [1]
        assert run(capsys, argv)[0] == 0

    def test_main_calls_the_built_parsers_parse_args_once(self, capsys, monkeypatch):
        """The benchmark's tracer times parsing by wrapping ``parse_args`` on
        the parser ``build_parser`` returns, so main must parse through it."""
        original = cli.build_parser
        calls = []

        def build_parser():
            parser = original()
            parse_args = parser.parse_args

            def counted(*args, **kwargs):
                calls.append(args)
                return parse_args(*args, **kwargs)

            parser.parse_args = counted
            return parser

        monkeypatch.setattr(cli, "build_parser", build_parser)
        for argv in self.ARGVS:
            calls.clear()
            run_any(capsys, argv)
            assert calls == [(argv,)], argv


class TestCommandDispatch:
    """The top-level parser hands a known command's arguments to that
    command's parser; argparse's full parse must give the same result."""

    COMMANDS = 2 * [["ik"], ["dk"], ["trajectory"], ["volumes"], ["jointspace", "check"],
                    ["jointspace", "boundary-sample"]] + [["jointspace"], ["jointspace", "ik"],
                                                          ["IK"], ["--"], []]
    #: Each command's required arguments; T is a triple, N a number.
    REQUIRED = {"ik": ["-L", "N", "-p", "T"], "dk": ["-L", "N", "-r", "T"],
                "trajectory": ["-L", "N", "-w", "T", "-w", "T", "--step", "N"],
                "volumes": ["-L", "N"], "check": ["-L", "N", "-r", "T"],
                "boundary-sample": ["-L", "N"]}
    TRIPLES = ["0.1,0.2,0.3", "-0.5,0.4,0.3", "-.2,0,0", "0,0,0", "-1e-3,-2,3", "1,2", "a,b,c",
               "nan,0,0"]
    NUMBERS = ["1", "2.5", "-1", "+1", "0", "1e-9", "-.5", "x", "10000", "nan"]
    WORDS = ["PPP", "MPM", "XYZ", "abort", "warn-and-hold-branch", "ik", "extra", "-"]
    HEADS = ["-h", "--help", "--version", "--vers", "--he", "--=x", "-hx", "--", "-L", "1"]
    #: Options, abbreviations (some ambiguous), the top level's own options
    #: after a command, and unknown or malformed ones.
    OPTIONS = ["-L", "--leg-length", "--leg", "--eps-geom", "--eps-g", "--eps", "--eps-branch",
               "--config", "--co", "--c", "--json", "--csv", "--js", "-p", "--point", "--po",
               "-b", "--branch", "-r", "--joints", "-m", "--posture", "-w", "--waypoint",
               "--step", "--st", "--policy", "--mc", "--seed", "--grid", "--gr", "-h", "--help",
               "--version", "--vers", "--", "--=x", "--step=0.1", "-L1", "-L=2", "-z", "--bogus"]

    def draw(self, rng, configs):
        argv = [rng.choice(self.HEADS)] if rng.random() < 0.1 else []
        command = rng.choice(self.COMMANDS)
        argv += command
        pools = {"T": self.TRIPLES, "N": self.NUMBERS}
        body = [rng.choice(pools[t]) if t in pools else t
                for t in self.REQUIRED.get(command[-1] if command else "", [])]
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            tokens = [rng.choice(self.OPTIONS)]
            if rng.random() < 0.6:
                tokens.append(rng.choice(configs if tokens[0] in ("--config", "--co") else
                                         self.TRIPLES + self.NUMBERS + self.WORDS))
            at = rng.randint(0, len(body))
            body[at:at] = tokens
        return argv + body

    def outcome(self, parse, argv):
        """The parse result or exit code, by repr so NaN equals NaN, and the output."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = parse(argv)
            except SystemExit as exc:
                result = exc.code
        return repr(result), out.getvalue(), err.getvalue()

    def test_registry_is_the_whole_tree(self):
        """``parser.commands`` holds every parser that runs a ``cmd_*``, under
        the names that reach it from the top level, and nothing else."""
        parser = cli.build_parser()
        found, todo = {}, [((), parser)]
        while todo:
            names, node = todo.pop()
            if node.get_default("func"):
                found[names] = node
            for action in node._actions:
                if isinstance(action, _SubParsersAction):
                    todo += [((*names, name), sub) for name, sub in action.choices.items()]
        assert len(found) == 6
        assert found == parser.commands

    def test_matches_argparse_on_drawn_argvs(self, tmp_path, monkeypatch):
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text("eps_geom = 1e-7\nseed = 4\n")
        bad.write_text("tolerance = 1\n")
        configs = [str(good), str(bad), str(tmp_path / "missing.cfg")]
        parser = cli._built_by(cli.build_parser)
        rng = random.Random(20261018)
        parsed = 0
        for _ in range(2000):
            # ORTHOGLIDE_CONFIG: no file, or a bad one.
            monkeypatch.setenv("ORTHOGLIDE_CONFIG", str(bad) if rng.random() < 0.1 else "")
            argv = self.draw(rng, configs)
            want = self.outcome(lambda a: ArgumentParser.parse_known_args(parser, a), argv)
            assert self.outcome(parser.parse_known_args, argv) == want, argv
            parsed += want[0].startswith("(Namespace(")
        assert parsed > 300
