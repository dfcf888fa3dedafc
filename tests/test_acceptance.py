"""Acceptance gate: one test per release criterion, each at its pinned
tolerance, each printing a PASS line (run with ``pytest -v -s``).

Randomized criteria use fixed seeds so the gate is reproducible.
"""

import math
import time

import numpy as np
import pytest

from orthoglide import (
    BRANCH_ORDER,
    PPP,
    Branch,
    CartesianPoint,
    JointVector,
    ManipulatorParams,
    SphericalDirection,
    WorkspaceRegion,
    boundary_joint_vector,
    boundary_radius,
    boundary_rho_x,
    boundary_vs_sphere_gap,
    branch_of,
    classify_point,
    dk_both,
    dk_coefficients,
    ik_branch,
    ik_enumerate_feasible,
    leg_residuals,
    monte_carlo_volumes,
    plane_eval,
    workspace_volumes,
)
from oracles import (
    bisect_quadratic_roots,
    random_interior_directions,
    sample_feasible_joints,
    sample_workspace_points,
)

PARAMS = ManipulatorParams(L=1.0)


def _report(n: int, text: str) -> None:
    print(f"CRITERION {n:2d}: PASS - {text}")


def test_criterion_01_ik_interior_worked_example():
    p = CartesianPoint(-0.5, 0.4, 0.3)
    published = {"x": (0.37, -1.37), "y": (1.21, -0.41), "z": (1.07, -0.47)}
    upper = ik_branch(p, PPP, PARAMS).rho
    lower = ik_branch(p, Branch(-1, -1, -1), PARAMS).rho
    for axis, up, lo in zip("xyz", upper, lower):
        assert up == pytest.approx(published[axis][0], abs=5e-3)
        assert lo == pytest.approx(published[axis][1], abs=5e-3)
    sols = ik_enumerate_feasible(p, PARAMS)
    assert len(sols) == 1
    assert sols[0].branch == PPP
    _report(1, "interior point roots match published values; only PPP feasible")


def test_criterion_02_ik_shell_count_example():
    p = CartesianPoint(0.7, 0.7, 0.7)
    upper = ik_branch(p, PPP, PARAMS).rho
    lower = ik_branch(p, Branch(-1, -1, -1), PARAMS).rho
    for up, lo in zip(upper, lower):
        assert up == pytest.approx(0.84, abs=5e-3)
        assert lo == pytest.approx(0.56, abs=5e-3)
    sols = ik_enumerate_feasible(p, PARAMS)
    assert len(sols) == 8
    assert sorted(s.branch.label for s in sols) == sorted(b.label for b in BRANCH_ORDER)
    _report(2, "shell point roots match published values; all 8 branches feasible")


def test_criterion_03_dk_boundary_example():
    r = math.sqrt(1.5)
    rho = JointVector(r, r, r)
    sols = dk_both(rho, PARAMS)
    assert len(sols) == 1
    target = math.sqrt(1.0 / 6.0)
    for c in sols[0].p:
        assert c == pytest.approx(target, abs=1e-9)
    assert abs(plane_eval(sols[0].p, rho)) <= 1e-9
    _report(3, "flat-boundary joints give the single on-plane solution")


def test_criterion_04_dk_interior_example():
    rho = JointVector(0.3, 0.3, 0.3)
    sols = dk_both(rho, PARAMS)
    assert len(sols) == 2
    for sol in sols:
        assert max(abs(r) for r in leg_residuals(sol.p, rho, PARAMS)) <= 1e-9
    # independent bisection oracle on the quadratic, then through the line map
    q = dk_coefficients(rho, PARAMS)
    t_lo, t_hi = bisect_quadratic_roots(q.a, 1.0, q.c)
    p_lo = 0.15 + t_lo / 0.3
    p_hi = 0.15 + t_hi / 0.3
    assert p_lo == pytest.approx(-0.4597, abs=1e-4)
    assert p_hi == pytest.approx(0.6597, abs=1e-4)
    by_m = {sol.posture: sol for sol in sols}
    for c in by_m[-1].p:
        assert c == pytest.approx(p_lo, abs=1e-9)
    for c in by_m[1].p:
        assert c == pytest.approx(p_hi, abs=1e-9)
    # the published second root is often quoted as -0.66, but that point
    # fails the loop constraints while +0.66 satisfies them (sign typo)
    bad = CartesianPoint(-0.66, -0.66, -0.66)
    assert min(abs(r) for r in leg_residuals(bad, rho, PARAMS)) > 0.5
    _report(4, "interior joints give two solutions at -0.4597/+0.6597 (bisection oracle)")


def test_criterion_05_volume_formulas():
    v = workspace_volumes(PARAMS)
    s2 = math.sqrt(2.0)
    assert v.vol_C == pytest.approx(8 * (2 - s2), abs=1e-9)
    assert v.vol_G == pytest.approx(2 - s2 - math.pi / 6, abs=1e-9)
    assert v.vol_W == pytest.approx(2 + 7 * math.pi / 6 - s2, abs=1e-9)
    assert v.vol_S == pytest.approx(4 * math.pi / 3, abs=1e-9)
    assert v.pct_W_of_serial == pytest.approx(53.14, abs=0.005)
    assert v.pct_S_of_serial == pytest.approx(52.36, abs=0.005)
    assert v.pct_C_of_serial == pytest.approx(58.58, abs=0.005)
    # published rounded claims: about 53%, 52%, 59%
    assert abs(v.pct_W_of_serial - 53) <= 0.5
    assert abs(v.pct_S_of_serial - 52) <= 0.5
    assert abs(v.pct_C_of_serial - 59) <= 0.5
    _report(5, "closed-form volumes and serial-baseline percentages")


def test_criterion_06_monte_carlo_vs_closed_form():
    start = time.perf_counter()
    closed = workspace_volumes(PARAMS)
    mc = monte_carlo_volumes(PARAMS, 1_000_000, seed=42)
    for name in ("vol_C", "vol_S", "vol_G", "vol_W"):
        est = getattr(mc, name)
        want = getattr(closed, name)
        assert abs(est.value - want) <= 4 * est.stderr, (name, est, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, f"10^6-sample estimates within 4 SE of closed forms ({elapsed:.2f}s)")


def test_criterion_07_count_law_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    counts_seen = set()
    per_region = {r: 0 for r in WorkspaceRegion}
    for row in rng.uniform(-1.0, 1.0, size=(100_000, 3)):
        p = CartesianPoint(row[0], row[1], row[2])
        region = classify_point(p, PARAMS)
        per_region[region] += 1
        if region is WorkspaceRegion.BOUNDARY_BAND:
            continue
        sols = ik_enumerate_feasible(p, PARAMS)
        counts_seen.add(len(sols))
        if region is WorkspaceRegion.SPHERE_INTERIOR:
            assert len(sols) == 1 and sols[0].branch == PPP, p
        elif region is WorkspaceRegion.SHELL:
            assert len(sols) == 8, p
        else:
            assert sols == [], p
    assert counts_seen <= {0, 1, 8}
    assert not counts_seen & set(range(2, 8))
    assert per_region[WorkspaceRegion.SPHERE_INTERIOR] > 10_000
    assert per_region[WorkspaceRegion.SHELL] > 100
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        7,
        "10^5 samples: counts only {1, 8, 0} per region, never 2-7 "
        f"(shell hits: {per_region[WorkspaceRegion.SHELL]}, {elapsed:.2f}s)",
    )


def test_criterion_08_roundtrip_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(777)

    for p in sample_workspace_points(rng, PARAMS, 10_000):
        for sol in ik_enumerate_feasible(p, PARAMS):
            mates = dk_both(sol.rho, PARAMS)
            assert any(
                max(abs(a - b) for a, b in zip(m.p, p)) <= 1e-9 for m in mates
            ), (p, sol.branch.label)

    for rho in sample_feasible_joints(rng, PARAMS, 10_000):
        for sol in dk_both(rho, PARAMS):
            branch = branch_of(sol.p, rho, PARAMS)
            back = ik_branch(sol.p, branch, PARAMS).rho
            assert max(abs(a - b) for a, b in zip(back, rho)) <= 1e-9, (rho, sol)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(8, f"10^4 + 10^4 point/joint roundtrips within 1e-9 ({elapsed:.2f}s)")


def test_criterion_09_jointspace_boundary():
    start = time.perf_counter()
    bisector = SphericalDirection.from_vector(1.0, 1.0, 1.0)
    t = boundary_radius(bisector, PARAMS)
    assert t == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-9)
    rho_b = boundary_joint_vector(bisector, PARAMS)
    for c in rho_b:
        assert c == pytest.approx(math.sqrt(1.5), abs=1e-9)
        assert c == pytest.approx(1.22, abs=5e-3)
    sphere_axis = 2.0 / math.sqrt(3.0)
    assert 2.0 * bisector.unit_vector()[0] == pytest.approx(sphere_axis, abs=1e-9)
    assert sphere_axis == pytest.approx(1.15, abs=5e-3)

    # nonnegative gap over a 100 x 100 interior direction grid
    n = 100
    half_pi = math.pi / 2.0
    for i in range(n):
        phi = (i + 0.5) * half_pi / n
        for j in range(n):
            theta = (j + 0.5) * half_pi / n
            assert boundary_vs_sphere_gap(SphericalDirection(phi, theta), PARAMS) >= 0.0

    # the gap closes toward the octant edges
    a = math.sqrt((1.0 - 1e-6) / 2.0)
    for vec in ((1e-3, a, a), (a, 1e-3, a), (a, a, 1e-3)):
        d = SphericalDirection.from_vector(*vec)
        assert boundary_vs_sphere_gap(d, PARAMS) < 1e-3

    # slice and radial representations agree
    rng = np.random.default_rng(314)
    agreements = 0
    for _ in range(1000):
        ry, rz = rng.uniform(0.05, 1.95, 2)
        for rx in boundary_rho_x(ry, rz, PARAMS):
            d = SphericalDirection.from_vector(rx, ry, rz)
            norm = math.sqrt(rx * rx + ry * ry + rz * rz)
            assert boundary_radius(d, PARAMS) == pytest.approx(norm, abs=1e-9)
            agreements += 1
    assert agreements > 500

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, f"boundary radii, gap grid, dual representations ({elapsed:.2f}s)")


def test_criterion_10_dk_jointspace_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    for phi, theta in random_interior_directions(rng, 1000):
        d = SphericalDirection(phi, theta)
        t = boundary_radius(d, PARAMS)
        e = d.unit_vector()
        inside = JointVector(*(0.999 * t * c for c in e))
        outside = JointVector(*(1.001 * t * c for c in e))
        assert len(dk_both(inside, PARAMS)) == 2, (phi, theta)
        assert dk_both(outside, PARAMS) == [], (phi, theta)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(10, f"2 solutions at 0.999t, none at 1.001t on 10^3 directions ({elapsed:.2f}s)")
