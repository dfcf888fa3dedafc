"""The four seeded workloads: input generation, timed ops and output checks.

Every input is drawn from ``random.Random(seed)`` before timing starts; the
package only ever sees the generated argv lists and values.  Ops are built in
a fixed rotation of templates, so every seed has the same mix and only the
numbers change.  Where a workload mixes templates of different cost, the
template count is 5 or 15: the median and p90 then fall in the middle of one
template's cluster of op times rather than on the gap between two.  The
trajectory and Monte-Carlo templates differ in size for that reason, so p90
is the typical latency of the largest ops rather than a noise tail.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle
import survey
from harness import Mismatch, Op, run_cli

#: The package's default ``eps_geom``; no generated command overrides it.
EPS = 1e-9


@dataclass(frozen=True)
class Workload:
    why: str
    #: (seed, notes) -> ops; checks may count observations into ``notes``.
    make_ops: Callable[[int, dict], list[Op]]
    #: Ops run untimed before measuring, so lazy set-up and caches settle.
    warmup: int
    #: Consecutive ops, from the first, that hold every template once;
    #: throughput is taken per round of this many ops.
    round: int
    #: Ops per second of ``--seconds`` in the traced comparison; fixed so that
    #: traced call counts repeat exactly for a seed.
    trace_rate: float


def _f(v: float) -> str:
    return repr(float(v))


def _t(v) -> str:
    return ",".join(_f(c) for c in v)


def _leg_length(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-0.7, 1.3)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# Input samplers
# ---------------------------------------------------------------------------
def _margin_ok(p, L, m):
    """Clear of every boundary by ``m`` (relative): radicands, sphere, planes."""
    r = math.sqrt(sum(c * c for c in p))
    return min(oracle.radicands(p, L)) > m * L * L and r > L * (1 + m) and min(p) > m * L


def sample_point(rng, L, kind):
    """A point of one class: ``ball``, ``ball+`` (ball, positive octant),
    ``shell``, ``shell+`` (shell with margins for held-branch paths),
    ``outside_c`` (outside the cylinder intersection) or ``octant`` (inside
    it but outside the workspace)."""
    while True:
        if kind in ("ball", "octant", "outside_c"):
            s = 1.5 * L if kind == "outside_c" else L
            p = tuple(rng.uniform(-s, s) for _ in range(3))
        else:
            lo = 0.02 * L if kind == "ball+" else 0.0
            p = tuple(rng.uniform(lo, L) for _ in range(3))
        reg = oracle.region(p, L, EPS)
        rads = oracle.radicands(p, L)
        if kind in ("ball", "ball+") and reg == "sphere_interior":
            return p
        if kind == "shell" and reg == "shell":
            return p
        if kind == "shell+" and reg == "shell" and _margin_ok(p, L, 1e-3):
            return p
        if kind == "outside_c" and reg == "outside" and min(rads) < -0.01 * L * L:
            return p
        if kind == "octant" and reg == "outside" and min(rads) > 0.01 * L * L:
            return p


def sample_joints(rng, L, kind):
    """Joint vector: ``feasible``, ``infeasible`` (no direct solution, within
    the actuation range) or ``over`` (one joint beyond 2L)."""
    while True:
        rho = [rng.uniform(0.02 * L, 2.0 * L) for _ in range(3)]
        if kind == "over":
            rho[rng.randrange(3)] = rng.uniform(2.0 * L, 2.5 * L)
            return tuple(rho)
        if (oracle.product(rho, L) <= 1.0) == (kind == "feasible"):
            return tuple(rho)


# ---------------------------------------------------------------------------
# Output parsing shared by the CLI workloads
# ---------------------------------------------------------------------------
def _parse(output, fmt):
    """(exit code, report dict or CSV meta, None or an iterator over the CSV
    rows after the header).  Rows are read as they are used, so a check's
    own memory stays small next to the program's."""
    code, out, err = output
    if fmt == "json":
        return code, json.loads(out), None
    rows = csv.reader(io.StringIO(out))
    next(rows, None)
    return code, json.loads(err), rows


def _bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise Mismatch(f"not a boolean: {text!r}")
    return text == "True"


# ---------------------------------------------------------------------------
# point-queries
# ---------------------------------------------------------------------------
def _check_ik(output, p, L, fmt, branch):
    code, rep, rows = _parse(output, fmt)
    if rows is None:
        sols = [(s["branch"], s["rho"], s["joint_limits_ok"]) for s in rep["solutions"]]
    else:
        sols = [(r[0], [float(v) for v in r[1:4]], _bool(r[4])) for r in rows]
    for label, rho, ok in sols:
        _require(oracle.residual(p, rho, L) <= EPS, f"{label} residual above eps_geom")
        _require(ok == oracle.limits_ok(rho, L), f"{label} joint_limits_ok flag wrong")
    reg = oracle.region(p, L, EPS)
    if reg is not None:
        _require(rep["region"] == reg, f"region {rep['region']} != {reg}")
    if branch is None:
        want = oracle.feasible_labels(p, L, EPS)
        _require(sorted(s[0] for s in sols) == want, f"branches {[s[0] for s in sols]} != {want}")
        if reg is not None:
            _require(len(sols) == oracle.REGION_COUNT[reg], f"count {len(sols)} breaks the law in {reg}")
        _require(code == (0 if want else 1), f"exit {code} with {len(want)} feasible")
    else:
        signs = dict(oracle.BRANCHES)[branch]
        rho = oracle.branch_rho(p, signs, L, EPS)
        _require([s[0] for s in sols] == ([] if rho is None else [branch]), "wrong branch set")
        _require(code == (1 if rho is None else 0), f"exit {code}, radicand ok: {rho is not None}")
    return 1


def _check_dk(output, rho, L, fmt, posture):
    code, rep, rows = _parse(output, fmt)
    if rows is None:
        sols = [(s["posture"], s["p"]) for s in rep["solutions"]]
    else:
        sols = [(int(r[0]), [float(v) for v in r[2:5]]) for r in rows]
    solvable = oracle.product(rho, L) <= 1.0
    want = ([-1, 1] if posture is None else [posture]) if solvable else []
    _require([s[0] for s in sols] == want, f"postures {[s[0] for s in sols]} != {want}")
    for m, p in sols:
        _require(oracle.residual(p, rho, L) <= EPS, f"posture {m} residual above eps_geom")
        _require(oracle.plane_side(p, rho) == m, f"posture {m} on the wrong side of the plane")
    _require(code == (0 if solvable else 1), f"exit {code}, solvable {solvable}")
    return 1


def _check_jointspace(output, rho, L, fmt):
    code, rep, rows = _parse(output, fmt)
    if rows is None:
        got = (rep["product"], rep["dk_solvable"], rep["joint_limits_ok"], rep["feasible"])
    else:
        (row,) = rows
        got = (float(row[0]), *(_bool(v) for v in row[1:4]))
    prod = oracle.product(rho, L)
    solvable, limits = prod <= 1.0, oracle.limits_ok(rho, L)
    _require(abs(got[0] - prod) <= 1e-12 * max(1.0, abs(prod)), f"product {got[0]} != {prod}")
    _require(got[1:] == (solvable, limits, solvable and limits), f"flags {got[1:]} wrong")
    _require(code == (0 if solvable and limits else 1), f"exit {code}")
    return 1


# (command, restriction, format, input class); 15 templates, see module doc.
_PQ_TEMPLATES = (
    ("ik", None, "json", "ball"),
    ("ik", None, "csv", "shell"),
    ("ik", None, "json", "outside_c"),
    ("ik", None, "csv", "octant"),
    ("ik", "branch", "json", "shell"),
    ("ik", "branch", "csv", "ball"),
    ("ik", "branch", "json", "outside_c"),
    ("ik", "branch", "csv", "octant"),
    ("dk", None, "json", "feasible"),
    ("dk", None, "csv", "infeasible"),
    ("dk", "posture", "json", "feasible"),
    ("dk", "posture", "csv", "feasible"),
    ("jointspace", None, "json", "feasible"),
    ("jointspace", None, "csv", "infeasible"),
    ("jointspace", None, "json", "over"),
)


PQ_ROUNDS = 200


def _cli_op(cli, argv, check) -> Op:
    return Op(" ".join(argv), lambda: run_cli(cli, argv), check, ("cli", argv))


def point_queries(seed: int, notes: dict) -> list[Op]:
    import orthoglide.cli as cli

    rng = random.Random(seed)
    ops = []
    for _ in range(PQ_ROUNDS):
        for command, restrict, fmt, kind in _PQ_TEMPLATES:
            L = _leg_length(rng)
            common = ["-L", _f(L), f"--{fmt}"]
            if command == "ik":
                p = sample_point(rng, L, kind)
                branch = oracle.BRANCHES[rng.randrange(8)][0] if restrict else None
                argv = ["ik", *common, "-p", _t(p)] + (["-b", branch] if branch else [])
                check = lambda o, p=p, L=L, fmt=fmt, b=branch: _check_ik(o, p, L, fmt, b)
            elif command == "dk":
                rho = sample_joints(rng, L, kind)
                m = rng.choice((-1, 1)) if restrict else None
                argv = ["dk", *common, "-r", _t(rho)] + (["-m", str(m)] if m else [])
                check = lambda o, r=rho, L=L, fmt=fmt, m=m: _check_dk(o, r, L, fmt, m)
            else:
                rho = sample_joints(rng, L, kind)
                argv = ["jointspace", "check", *common, "-r", _t(rho)]
                check = lambda o, r=rho, L=L, fmt=fmt: _check_jointspace(o, r, L, fmt)
            ops.append(_cli_op(cli, argv, check))
    return ops


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------
TRAJECTORY_ROUNDS = 8


def _clear_of_ball(a, b, L, m):
    """Segment ab keeps a distance above ``L * (1 + m)`` from the origin."""
    d = [bi - ai for ai, bi in zip(a, b)]
    dd = sum(c * c for c in d)
    s = min(1.0, max(0.0, -sum(ai * di for ai, di in zip(a, d)) / dd)) if dd else 0.0
    return math.dist([ai + s * di for ai, di in zip(a, d)], [0, 0, 0]) > L * (1 + m)


def _shell_chain(rng, L, n):
    """Waypoints in the shell whose connecting segments stay in it.  The
    cylinder and octant margins are convex, so they hold along a segment
    whose ends meet them; the ball is cut out of the shell, so each hop is
    checked against it."""
    chain = [sample_point(rng, L, "shell+")]
    while len(chain) < n:
        q = tuple(c + rng.uniform(-0.15 * L, 0.15 * L) for c in chain[-1])
        if oracle.region(q, L, EPS) == "shell" and _margin_ok(q, L, 1e-3) and _clear_of_ball(chain[-1], q, L, 1e-3):
            chain.append(q)
    return chain


def _steps(waypoints, step) -> int:
    """Interpolated point count, by the CLI's documented rule."""
    return 1 + sum(max(1, math.ceil(math.dist(a, b) / step)) for a, b in zip(waypoints, waypoints[1:]))


def _trajectory_spec(rng, kind):
    """(waypoints, L, branch, policy, expected feasible) for one path kind.

    ``ppp``:   ball and shell, held branch PPP, abort policy: feasible.
    ``held``:  shell only, a non-PPP branch held, abort policy: feasible.
    ``cross``: ball, shell, outside the cylinders and outside the octant,
               any branch, warn-and-hold-branch policy: infeasible.
    """
    L = _leg_length(rng)
    if kind == "ppp":
        pts = [sample_point(rng, L, "ball"), sample_point(rng, L, "ball+")]
        for _ in range(3):
            pts += [sample_point(rng, L, "shell+"), sample_point(rng, L, "ball+")]
        return pts, L, "PPP", "abort", True
    if kind == "held":
        branch = oracle.BRANCHES[1 + rng.randrange(7)][0]
        return _shell_chain(rng, L, 6), L, branch, "abort", True
    pts = [sample_point(rng, L, k) for k in ("ball", "shell", "outside_c", "octant", "ball", "shell")]
    return pts, L, oracle.BRANCHES[rng.randrange(8)][0], "warn-and-hold-branch", False


def _check_trajectory(output, fmt, L, branch, policy, n_planned, feasible):
    code, rep, rows = _parse(output, fmt)
    if rows is None:
        recs = (
            (r["p"], r["rho"], r["singular_axes"], r["joint_limits_ok"], r["infeasible"])
            for r in rep["records"]
        )
    else:
        recs = (
            (
                [float(v) for v in r[1:4]],
                None if r[4] == "" else [float(v) for v in r[4:7]],
                [a for a in r[9].split(";") if a],
                _bool(r[10]),
                _bool(r[11]),
            )
            for r in rows
        )
    signs = dict(oracle.BRANCHES)[branch]
    tol = EPS * L * L
    first_failure = stop = None
    n_recs = 0
    for p, rho, singular, limits, infeasible in recs:
        i = n_recs
        n_recs += 1
        rads = oracle.radicands(p, L)
        _require(infeasible == (min(rads) < -tol), f"step {i}: infeasible flag wrong")
        _require(singular == [a for a, r in zip("xyz", rads) if abs(r) <= tol], f"step {i}: singular axes wrong")
        if not infeasible:
            _require(oracle.residual(p, rho, L) <= EPS, f"step {i}: residual above eps_geom")
            _require(oracle.max_diff(rho, oracle.branch_rho(p, signs, L, EPS)) <= 1e-9 * L, f"step {i}: not on {branch}")
            _require(limits == oracle.limits_ok(rho, L), f"step {i}: joint_limits_ok flag wrong")
        failed = infeasible or not limits
        if failed and first_failure is None:
            first_failure = i
        if policy == "abort" and (failed or singular):
            stop = i
            break
    n_recs += sum(1 for _ in recs)
    ok = first_failure is None and stop is None
    _require(n_recs == (n_planned if stop is None else stop + 1), f"{n_recs} steps, planned {n_planned}")
    summary = rep["summary"]
    _require(summary["n_steps"] == n_recs, "summary n_steps wrong")
    _require(summary["feasible"] is ok, f"summary feasible {summary['feasible']}, checked {ok}")
    _require(ok is feasible, f"path built to be feasible={feasible} came out {ok}")
    _require(code == (0 if ok else 1), f"exit {code} with summary feasible {ok}")
    return n_recs


# (path kind, format, steps); 5 templates of distinct cost, see module doc.
_TRAJECTORY_TEMPLATES = (
    ("ppp", "json", 2950),
    ("ppp", "csv", 2700),
    ("held", "json", 2180),
    ("cross", "csv", 1800),
    ("cross", "json", 3800),
)


def trajectory(seed: int, notes: dict) -> list[Op]:
    import orthoglide.cli as cli

    rng = random.Random(seed)
    ops = []
    for _ in range(TRAJECTORY_ROUNDS):
        for kind, fmt, steps in _TRAJECTORY_TEMPLATES:
            pts, L, branch, policy, feasible = _trajectory_spec(rng, kind)
            length = sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))
            step = length / steps
            argv = ["trajectory", "-L", _f(L), f"--{fmt}", "--step", _f(step), "-b", branch, "--policy", policy]
            for w in pts:
                argv += ["-w", _t(w)]
            n = _steps(pts, step)
            check = lambda o, a=(fmt, L, branch, policy, n, feasible): _check_trajectory(o, *a)
            ops.append(_cli_op(cli, argv, check))
    return ops


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------
SURVEY_POINTS = (("ball", 10), ("shell", 4), ("outside_c", 3), ("octant", 3))
SURVEY_JOINTS = (("feasible", 12), ("infeasible", 4))
SURVEY_DIRECTIONS = 16
SURVEY_BATCHES = 64


def _check_survey(output, batch, notes):
    L = batch["L"]
    tol = 1e-9 * L
    points, joints, directions = output
    for p, (reg, sols) in zip(batch["points"], points):
        own = oracle.region(p, L, EPS)
        if own is not None:
            _require(reg == own, f"{p}: region {reg} != {own}")
            _require(len(sols) == oracle.REGION_COUNT[own], f"{p}: count {len(sols)} breaks the law in {own}")
        _require(sorted(s[0] for s in sols) == oracle.feasible_labels(p, L, EPS), f"{p}: wrong branches")
        for label, rho, residuals, mates in sols:
            _require(max(map(abs, residuals)) <= EPS and oracle.residual(p, rho, L) <= EPS, f"{p} {label}: residual")
            if len(mates) == 1 and mates[0][1] is None:
                # The discriminant fell in the direct-kinematics zero band:
                # the merged flat root is the documented answer, and it can
                # miss p by up to the band's root separation.
                notes["flat_band_roundtrips"] = notes.get("flat_band_roundtrips", 0) + 1
                _require(oracle.max_diff(mates[0][0], p) <= oracle.flat_band_miss(rho, EPS) + tol, f"{p} {label}: flat root too far")
                continue
            _require(len(mates) == 2, f"{p} {label}: {len(mates)} direct solutions")
            home = [m for m in mates if oracle.max_diff(m[0], p) <= tol]
            _require(len(home) == 1, f"{p} {label}: roundtrip misses by more than 1e-9 L")
            _require(home[0][2] == label, f"{p} {label}: branch_of gave {home[0][2]}")
            for mp, posture, blabel, back in mates:
                _require(oracle.max_diff(back, rho) <= tol, f"{p} {label}: ik_branch({blabel}) misses rho")
    for rho, (feasible, sols) in zip(batch["joints"], joints):
        prod = oracle.product(rho, L)
        _require(feasible == (prod <= 1.0 and oracle.limits_ok(rho, L)), f"{rho}: dk_feasible wrong")
        _require(len(sols) == (2 if prod <= 1.0 else 0), f"{rho}: {len(sols)} direct solutions")
        for p, posture, side in sols:
            _require(oracle.residual(p, rho, L) <= EPS, f"{rho}: residual above eps_geom")
            _require(side == posture == oracle.plane_side(p, rho), f"{rho}: posture {posture}, posture_of {side}")
    for (phi, theta), (t, inner, n_outer) in zip(batch["directions"], directions):
        e = (math.cos(phi) * math.cos(theta), math.cos(phi) * math.sin(theta), math.sin(phi))
        # The product at the boundary multiplies t^2 - 4L^2, which cancels to
        # 4L^2 / (F - 1), by F = sum(e_i^-2): rounding grows with F.
        F = sum(1.0 / (c * c) for c in e)
        _require(abs(oracle.product([t * c for c in e], L) - 1.0) <= 1e-9 + 64 * 2.0**-52 * F, f"{(phi, theta)}: radius off the boundary")
        _require(len(inner) == 2 and n_outer == 0, f"{(phi, theta)}: {len(inner)} inside, {n_outer} outside")
        for p in inner:
            _require(oracle.residual(p, [0.999 * t * c for c in e], L) <= EPS, f"{(phi, theta)}: residual")
    return len(points) + len(joints) + len(directions)


def survey_ops(seed: int, notes: dict) -> list[Op]:
    import orthoglide as og

    rng = random.Random(seed)
    ops = []
    for _ in range(SURVEY_BATCHES):
        L = _leg_length(rng)
        batch = {
            "L": L,
            "points": [sample_point(rng, L, k) for k, n in SURVEY_POINTS for _ in range(n)],
            "joints": [sample_joints(rng, L, k) for k, n in SURVEY_JOINTS for _ in range(n)],
            "directions": [
                (rng.uniform(0.01, math.pi / 2 - 0.01), rng.uniform(0.01, math.pi / 2 - 0.01))
                for _ in range(SURVEY_DIRECTIONS)
            ],
        }
        params = og.ManipulatorParams(L)
        run = lambda b=batch, params=params: survey.run_batch(og, params, b["points"], b["joints"], b["directions"])
        check = lambda o, b=batch: _check_survey(o, b, notes)
        ops.append(Op(f"survey batch L={_f(L)} {json.dumps(batch)}", run, check, ("survey", batch)))
    return ops


# ---------------------------------------------------------------------------
# volumes-mc
# ---------------------------------------------------------------------------
#: Sample count of each template; see module doc.
MC_SAMPLES = (250_000, 500_000, 1_000_000, 1_500_000, 2_000_000)


def _check_volumes(output, L, n, seed, hits_seen):
    code, rep, _ = _parse(output, "json")
    _require(code == 0, f"exit {code}")
    exact = oracle.closed_form_volumes(L)
    mc = rep["monte_carlo"]
    _require(mc["n_samples"] == n and mc["seed"] == seed, "echoed n_samples/seed wrong")
    for name, value in exact.items():
        _require(abs(rep["closed_form"][name] - value) <= 1e-12 * value, f"closed-form {name} wrong")
        est = mc[name]
        _require(abs(est["value"] - value) <= 4.0 * est["stderr"], f"{name} more than 4 SE from closed form")
    hits = tuple(mc[name]["hits"] for name in exact)
    _require(hits_seen.setdefault((L, n, seed), hits) == hits, f"seed {seed}: hit counts changed between runs")
    return n


def volumes_mc(seed: int, notes: dict) -> list[Op]:
    import orthoglide.cli as cli

    rng = random.Random(seed)
    hits_seen: dict = {}
    ops = []
    for n in MC_SAMPLES:
        L = _leg_length(rng)
        mc_seed = rng.randrange(2**32)
        argv = ["volumes", "-L", _f(L), "--json", "--mc", str(n), "--seed", str(mc_seed)]
        check = lambda o, L=L, n=n, s=mc_seed: _check_volumes(o, L, n, s, hits_seen)
        ops.append(_cli_op(cli, argv, check))
    return ops


WORKLOADS = {
    "point-queries": Workload(
        "single ik/dk/jointspace-check CLI calls, ~2 ms each and mostly parser and start-up cost",
        point_queries, warmup=len(_PQ_TEMPLATES), round=len(_PQ_TEMPLATES), trace_rate=75.0),
    "trajectory": Workload(
        "1800- to 3800-step trajectory checks: per-step kernels, record building and JSON or CSV output share the time",
        trajectory, warmup=len(_TRAJECTORY_TEMPLATES), round=len(_TRAJECTORY_TEMPLATES), trace_rate=0.75),
    "survey": Workload(
        "library-only IK/DK/jointspace roundtrips with no CLI or numpy, so scalar kernels do the work",
        survey_ops, warmup=5, round=1, trace_rate=30.0),
    "volumes-mc": Workload(
        "volumes --mc with 2.5e5 to 2e6 samples at several seeds: the one workload run by the numpy Monte-Carlo kernel",
        volumes_mc, warmup=len(MC_SAMPLES), round=len(MC_SAMPLES), trace_rate=0.5),
}
