import math

import numpy as np
import pytest

from orthoglide import (
    BRANCH_ORDER,
    CartesianPoint,
    FlatConfiguration,
    JointVector,
    KinematicsError,
    ManipulatorParams,
    NoDkSolution,
    ZeroJoint,
    branch_of,
    dk_both,
    dk_coefficients,
    dk_feasible,
    dk_solve,
    equidistant_point,
    feasibility_product,
    ik_branch,
    ik_enumerate_feasible,
    leg_residuals,
    plane_eval,
    posture_of,
)
from oracles import bisect_quadratic_roots, sample_feasible_joints, sample_workspace_points

SQRT15 = math.sqrt(1.5)
RHO_FLAT = JointVector(SQRT15, SQRT15, SQRT15)
RHO_SMALL = JointVector(0.3, 0.3, 0.3)

# Frozen from the bisection oracle on 0.0243 t^2 + 0.000729 t - 0.0006797925
# (see test_small_joints_roots_match_bisection_oracle, which re-derives them).
P_SMALL_MINUS = -0.4597618541248889
P_SMALL_PLUS = 0.6597618541248889

UNIT_EXPONENTS = (-150, -30, -10, 0, 10, 30, 150)


def _dk_solve_plus(rho, params):
    return dk_solve(rho, 1, params)


DK_ENTRY_POINTS = (dk_both, _dk_solve_plus, dk_feasible, feasibility_product)


class TestCoefficients:
    def test_home_joints(self, unit_params):
        q = dk_coefficients(JointVector(1, 1, 1), unit_params)
        assert (q.a, q.c) == (3.0, -0.25)

    def test_flat_joints_zero_discriminant(self, unit_params):
        q = dk_coefficients(RHO_FLAT, unit_params)
        assert abs(q.discriminant) <= unit_params.eps_geom

    def test_all_max_corner_negative_discriminant(self, unit_params):
        q = dk_coefficients(JointVector(2, 2, 2), unit_params)
        assert q.c == (12 - 4) / 4
        assert q.discriminant < 0

    def test_zero_joint_rejected(self, unit_params):
        with pytest.raises(ZeroJoint) as exc:
            dk_coefficients(JointVector(1.0, 0.0, 1.0), unit_params)
        assert exc.value.axis == "y"


class TestSolve:
    def test_home_lower_posture(self, unit_params):
        sol = dk_solve(JointVector(1, 1, 1), -1, unit_params)
        assert sol.t_value == pytest.approx(-0.5, abs=1e-15)
        for c in sol.p:
            assert c == pytest.approx(0.0, abs=1e-15)

    def test_home_upper_posture(self, unit_params):
        sol = dk_solve(JointVector(1, 1, 1), 1, unit_params)
        for c in sol.p:
            assert c == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("m", [-1, 1])
    def test_flat_joints_single_point(self, unit_params, m):
        sol = dk_solve(RHO_FLAT, m, unit_params)
        for c in sol.p:
            assert c == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-9)

    def test_small_joints_roots_match_bisection_oracle(self, unit_params):
        q = dk_coefficients(RHO_SMALL, unit_params)
        t_lo, t_hi = bisect_quadratic_roots(q.a, 1.0, q.c)
        lo = dk_solve(RHO_SMALL, -1, unit_params)
        hi = dk_solve(RHO_SMALL, 1, unit_params)
        assert lo.t_value == pytest.approx(t_lo, abs=1e-12)
        assert hi.t_value == pytest.approx(t_hi, abs=1e-12)
        for c in lo.p:
            assert c == pytest.approx(P_SMALL_MINUS, abs=1e-12)
        for c in hi.p:
            assert c == pytest.approx(P_SMALL_PLUS, abs=1e-12)

    def test_small_joints_residuals_vanish(self, unit_params):
        for m in (-1, 1):
            sol = dk_solve(RHO_SMALL, m, unit_params)
            res = leg_residuals(sol.p, RHO_SMALL, unit_params)
            assert max(abs(r) for r in res) <= 1e-12

    def test_published_sign_of_second_root_fails_constraints(self, unit_params):
        # -0.66 per component is not a solution; +0.66 is (published sign typo)
        res = leg_residuals(
            CartesianPoint(-0.66, -0.66, -0.66), RHO_SMALL, unit_params
        )
        assert min(abs(r) for r in res) > 0.5

    def test_outside_region_raises(self, unit_params):
        with pytest.raises(NoDkSolution):
            dk_solve(JointVector(2, 2, 2), -1, unit_params)

    def test_bad_posture_rejected(self, unit_params):
        with pytest.raises(ValueError):
            dk_solve(JointVector(1, 1, 1), 0, unit_params)


class TestBoth:
    def test_interior_two_solutions_ordered(self, unit_params):
        sols = dk_both(RHO_SMALL, unit_params)
        assert [s.posture for s in sols] == [-1, 1]
        assert sols[0].t_value < sols[1].t_value

    def test_boundary_single_flat_solution(self, unit_params):
        sols = dk_both(RHO_FLAT, unit_params)
        assert len(sols) == 1
        assert sols[0].posture is None

    def test_outside_empty(self, unit_params):
        assert dk_both(JointVector(2, 2, 2), unit_params) == []

    def test_negative_joints_still_solved(self, unit_params):
        # geometry stays valid for negative joints; policy lives elsewhere
        sols = dk_both(JointVector(-0.5, 0.5, 0.5), unit_params)
        assert len(sols) == 2
        for sol in sols:
            res = leg_residuals(sol.p, JointVector(-0.5, 0.5, 0.5), unit_params)
            assert max(abs(r) for r in res) <= 1e-12


class TestPosture:
    def test_home_is_minus_one(self, unit_params):
        assert posture_of(CartesianPoint(0, 0, 0), JointVector(1, 1, 1), unit_params) == -1

    def test_flat_point_raises(self, unit_params):
        p = CartesianPoint(*(math.sqrt(1.0 / 6.0),) * 3)
        with pytest.raises(FlatConfiguration):
            posture_of(p, RHO_FLAT, unit_params)

    def test_upper_point_is_plus_one(self, unit_params):
        p = CartesianPoint(P_SMALL_PLUS, P_SMALL_PLUS, P_SMALL_PLUS)
        assert posture_of(p, RHO_SMALL, unit_params) == 1

    def test_negative_joints_use_plane_sign(self, unit_params):
        rho = JointVector(-0.5, 0.5, 0.5)
        for sol in dk_both(rho, unit_params):
            m = posture_of(sol.p, rho, unit_params)
            assert m == sol.posture
            assert m == (1 if plane_eval(sol.p, rho) > 0 else -1)


class TestEquidistant:
    def test_midpoint_parameter_zero(self):
        assert equidistant_point(JointVector(1, 1, 1), 0.0) == CartesianPoint(0.5, 0.5, 0.5)

    def test_home_parameter(self):
        assert equidistant_point(JointVector(1, 1, 1), -0.5) == CartesianPoint(0, 0, 0)

    def test_equal_distances_to_joint_centres(self):
        rho = JointVector(1, 2, 4)
        q = equidistant_point(rho, 2.0)
        assert q == CartesianPoint(2.5, 2.0, 2.5)
        centres = [(rho.x, 0, 0), (0, rho.y, 0), (0, 0, rho.z)]
        dists = [math.dist(q, c) for c in centres]
        assert dists[0] == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert max(dists) - min(dists) <= 1e-12

    def test_any_parameter_is_equidistant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rho = JointVector(*rng.uniform(0.2, 2.0, 3))
            t = rng.uniform(-1.0, 1.0)
            q = equidistant_point(rho, t)
            centres = [(rho.x, 0, 0), (0, rho.y, 0), (0, 0, rho.z)]
            dists = [math.dist(q, c) for c in centres]
            assert max(dists) - min(dists) <= 1e-9


class TestPlaneEval:
    def test_joint_centre_on_plane(self):
        assert plane_eval(CartesianPoint(0.7, 0, 0), JointVector(0.7, 1.1, 0.9)) == 0.0

    def test_origin(self):
        assert plane_eval(CartesianPoint(0, 0, 0), JointVector(1, 2, 3)) == -1.0

    def test_flat_configuration_on_plane(self, unit_params):
        p = dk_both(RHO_FLAT, unit_params)[0].p
        assert abs(plane_eval(p, RHO_FLAT)) <= 1e-12


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("value", [1e-310, -1e-310, 0.0, math.nan])
def test_unusable_joint_raises_from_equidistant_point_and_plane_eval(axis, value):
    """A zero, subnormal or NaN joint is a ZeroJoint on its axis, not a
    silent inf or NaN: t / 1e-310 overflows."""
    rho = [1.0, 1.0, 1.0]
    rho[axis] = value
    rho = JointVector(*rho)
    for call in (lambda: equidistant_point(rho, 1.0),
                 lambda: plane_eval(CartesianPoint(1.0, 0.0, 0.0), rho)):
        with pytest.raises(ZeroJoint) as exc:
            call()
        assert exc.value.axis == "xyz"[axis]


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_overflowing_quotient_raises_from_equidistant_point_and_plane_eval(axis):
    """A normal joint so small that t / rho_i or p_i / rho_i overflows is a
    ZeroJoint on the first such axis, not a silent inf."""
    rho = [1.0, 1.0, 1.0]
    rho[axis] = 1e-300
    p = [0.0, 0.0, 0.0]
    p[axis] = 1e10
    for call in (lambda: equidistant_point(JointVector(*rho), 1e10),
                 lambda: plane_eval(CartesianPoint(*p), JointVector(*rho))):
        with pytest.raises(ZeroJoint) as exc:
            call()
        assert exc.value.axis == "xyz"[axis]
    # Every quotient overflows: the first axis is named.
    with pytest.raises(ZeroJoint) as exc:
        equidistant_point(JointVector(1.0, -1e-300, 1e-300), 1e10)
    assert exc.value.axis == "y"
    # The same joint with a quotient that fits is no error.
    assert equidistant_point(JointVector(*rho), 1e-10)[axis] == 1e-300 / 2.0 + 1e-10 / 1e-300
    tiny = JointVector(1e-300, 1.0, 1.0)
    assert plane_eval(CartesianPoint(1e-10, 0.0, 0.0), tiny) == 1e-10 / 1e-300 - 1.0


def test_overflowing_sum_of_finite_quotients_is_inf():
    """Each quotient fits but their sum overflows: the plane value is inf, with no
    joint to blame, so no ZeroJoint is raised."""
    assert plane_eval(CartesianPoint(1e308, 1e308, 0.0), JointVector(1.0, 1.0, 1.0)) == math.inf


class TestInvariants:
    def test_midline_point_on_plane(self, unit_params):
        rng = np.random.default_rng(7)
        for rho in sample_feasible_joints(rng, unit_params, 100):
            q = dk_coefficients(rho, unit_params)
            t0 = -1.0 / (2.0 * q.a)
            assert abs(plane_eval(equidistant_point(rho, t0), rho)) <= 1e-12

    def test_solutions_share_equidistant_line(self, unit_params):
        rng = np.random.default_rng(8)
        for rho in sample_feasible_joints(rng, unit_params, 100):
            sols = dk_both(rho, unit_params)
            if len(sols) != 2:
                continue
            a, b = sols
            products = [(ai - bi) * ri for ai, bi, ri in zip(a.p, b.p, rho)]
            assert max(products) - min(products) <= 1e-9

    def test_plane_side_matches_posture(self, unit_params):
        rng = np.random.default_rng(9)
        for rho in sample_feasible_joints(rng, unit_params, 200):
            for sol in dk_both(rho, unit_params):
                if sol.posture is None:
                    continue
                pe = plane_eval(sol.p, rho)
                if abs(pe) < 1e-9:
                    continue
                assert math.copysign(1, pe) == sol.posture

    def test_pairwise_linear_relations(self, unit_params):
        rng = np.random.default_rng(10)
        for rho in sample_feasible_joints(rng, unit_params, 100):
            for sol in dk_both(rho, unit_params):
                p = sol.p
                assert 2 * rho.x * p.x - 2 * rho.y * p.y == pytest.approx(
                    rho.x**2 - rho.y**2, abs=1e-9
                )
                assert 2 * rho.y * p.y - 2 * rho.z * p.z == pytest.approx(
                    rho.y**2 - rho.z**2, abs=1e-9
                )

    def test_scale_equivariance(self):
        rho = JointVector(0.4, 0.7, 0.5)
        lam = 3.5
        small = dk_both(rho, ManipulatorParams(L=1.0))
        big = dk_both(
            JointVector(*(lam * r for r in rho)), ManipulatorParams(L=lam)
        )
        assert len(small) == len(big) == 2
        for s, b in zip(small, big):
            assert b.t_value == pytest.approx(lam * lam * s.t_value, rel=1e-12)
            for cs, cb in zip(s.p, b.p):
                assert cb == pytest.approx(lam * cs, rel=1e-12, abs=1e-12)

    def test_dk_solutions_recovered_by_ik(self, unit_params):
        """Every direct solution feeds back through the matching branch."""
        rng = np.random.default_rng(11)
        for rho in sample_feasible_joints(rng, unit_params, 300):
            for sol in dk_both(rho, unit_params):
                branch = branch_of(sol.p, rho, unit_params)
                back = ik_branch(sol.p, branch, unit_params).rho
                for got, want in zip(back, rho):
                    assert got == pytest.approx(want, abs=1e-9)

    def test_workspace_points_recovered_by_dk(self, unit_params):
        """dk_both of any feasible-branch joints contains the query point."""
        rng = np.random.default_rng(12)
        for p in sample_workspace_points(rng, unit_params, 300):
            for sol in ik_enumerate_feasible(p, unit_params):
                candidates = dk_both(sol.rho, unit_params)
                assert any(
                    max(abs(a - b) for a, b in zip(c.p, p)) <= 1e-9
                    for c in candidates
                ), (p, sol)


class TestUnitScale:
    """Results must not depend on the choice of length unit."""

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    def test_small_joints_two_postures(self, k):
        L = 10.0**k
        params = ManipulatorParams(L=L)
        rho = JointVector(0.3 * L, 0.3 * L, 0.3 * L)
        sols = dk_both(rho, params)
        assert [s.posture for s in sols] == [-1, 1]
        for sol in sols:
            assert max(abs(r) for r in leg_residuals(sol.p, rho, params)) <= params.eps_geom

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    def test_ik_dk_ik_roundtrip(self, unit_params, k):
        L = 10.0**k
        params = ManipulatorParams(L=L)
        tol = 1e-9 * L
        rng = np.random.default_rng(41)
        for unit_p in sample_workspace_points(rng, unit_params, 40):
            p = CartesianPoint(*(L * c for c in unit_p))
            for sol in ik_enumerate_feasible(p, params):
                [home] = [
                    m for m in dk_both(sol.rho, params)
                    if max(abs(a - b) for a, b in zip(m.p, p)) <= tol
                ]
                back = ik_branch(home.p, branch_of(home.p, sol.rho, params), params).rho
                assert max(abs(a - b) for a, b in zip(back, sol.rho)) <= tol


class TestEdgeInputs:
    """Only typed KinematicsErrors escape, never arithmetic errors or NaN."""

    @pytest.mark.parametrize("entry", DK_ENTRY_POINTS)
    def test_joint_with_overflowing_inverse_square_is_zero(self, unit_params, entry):
        with pytest.raises(ZeroJoint) as exc:
            entry(JointVector(1e-200, 1.0, 1.0), unit_params)
        assert exc.value.axis == "x"

    @pytest.mark.parametrize("rho", [(1e200, 1.0, 1.0), (1e200, 1e200, 1e200)])
    def test_overflowing_sum_of_squares_has_no_solution(self, unit_params, rho):
        rho = JointVector(*rho)
        assert dk_both(rho, unit_params) == []
        with pytest.raises(NoDkSolution):
            dk_solve(rho, -1, unit_params)
        assert dk_feasible(rho, unit_params) is False
        assert feasibility_product(rho, unit_params) == math.inf

    @pytest.mark.parametrize("entry", DK_ENTRY_POINTS)
    @pytest.mark.parametrize("axis", [0, 2])
    def test_nan_joint_raises(self, unit_params, entry, axis):
        rho = [0.5, 0.5, 0.5]
        rho[axis] = math.nan
        with pytest.raises(KinematicsError):
            entry(JointVector(*rho), unit_params)
