import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthoglide import (
    BRANCH_ORDER,
    PPP,
    Branch,
    CartesianPoint,
    JointVector,
    ManipulatorParams,
    RadicandNegative,
    SerialSingularity,
    branch_of,
    ik_branch,
    ik_enumerate_feasible,
    is_serial_singular,
    leg_residuals,
)
from oracles import scan_leg_roots

# Exact closed-form joints for the interior worked example p = (-0.5, 0.4, 0.3)
RHO_PPP_EXACT = (
    -0.5 + math.sqrt(0.75),
    0.4 + math.sqrt(0.66),
    0.3 + math.sqrt(0.59),
)


class TestIkBranch:
    def test_interior_point_ppp(self, unit_params):
        sol = ik_branch(CartesianPoint(-0.5, 0.4, 0.3), PPP, unit_params)
        for got, want in zip(sol.rho, RHO_PPP_EXACT):
            assert got == pytest.approx(want, abs=1e-12)
        # the published two-decimal values hold at their rounding accuracy
        for got, rounded in zip(sol.rho, (0.37, 1.21, 1.07)):
            assert got == pytest.approx(rounded, abs=5e-3)

    def test_home_position(self, unit_params):
        sol = ik_branch(CartesianPoint(0, 0, 0), PPP, unit_params)
        assert sol.rho == JointVector(1.0, 1.0, 1.0)

    def test_shell_point_lower_branch(self, unit_params):
        sol = ik_branch(CartesianPoint(0.7, 0.7, 0.7), Branch(-1, -1, -1), unit_params)
        lower = 0.7 - math.sqrt(0.02)
        for got in sol.rho:
            assert got == pytest.approx(lower, abs=1e-12)
            assert got == pytest.approx(0.56, abs=5e-3)

    def test_outside_reach_raises_with_axis(self, unit_params):
        with pytest.raises(RadicandNegative) as exc:
            ik_branch(CartesianPoint(1.1, 0.0, 0.0), PPP, unit_params)
        assert exc.value.axis == "y"

    def test_nan_point_raises(self, unit_params):
        with pytest.raises(RadicandNegative):
            ik_branch(CartesianPoint(math.nan, 0.0, 0.0), PPP, unit_params)
        assert ik_enumerate_feasible(CartesianPoint(math.nan, 0.0, 0.0), unit_params) == []

    def test_singular_surface_clamps_to_coincident_roots(self, unit_params):
        p = CartesianPoint(0.0, 0.6, 0.8)
        up = ik_branch(p, PPP, unit_params)
        down = ik_branch(p, Branch(-1, 1, 1), unit_params)
        assert up.rho.x == down.rho.x == 0.0

    def test_all_branches_satisfy_constraints(self, unit_params):
        p = CartesianPoint(-0.2, 0.35, 0.1)
        for branch in BRANCH_ORDER:
            sol = ik_branch(p, branch, unit_params)
            res = leg_residuals(p, sol.rho, unit_params)
            assert max(abs(r) for r in res) <= unit_params.eps_geom


class TestEnumerate:
    def test_sphere_interior_has_single_ppp(self, unit_params):
        sols = ik_enumerate_feasible(CartesianPoint(-0.5, 0.4, 0.3), unit_params)
        assert len(sols) == 1
        assert sols[0].branch == PPP

    def test_shell_point_has_all_eight(self, unit_params):
        sols = ik_enumerate_feasible(CartesianPoint(0.7, 0.7, 0.7), unit_params)
        assert [s.branch.label for s in sols] == [b.label for b in BRANCH_ORDER]

    def test_unreachable_point_empty(self, unit_params):
        assert ik_enumerate_feasible(CartesianPoint(1.1, 0.0, 0.0), unit_params) == []

    def test_unreachable_confirmed_by_scanning(self):
        # brute-force root scan of the y-leg residual finds no joint value
        assert scan_leg_roots(CartesianPoint(1.1, 0.0, 0.0), 1, L=1.0) == []

    def test_scanning_agrees_with_closed_form(self, unit_params):
        p = CartesianPoint(-0.5, 0.4, 0.3)
        for axis in range(3):
            scanned = sorted(scan_leg_roots(p, axis, L=1.0))
            closed = sorted(
                ik_branch(p, b, unit_params).rho[axis]
                for b in (PPP, Branch(-1, -1, -1))
            )
            for got, want in zip(scanned, closed):
                assert got == pytest.approx(want, abs=1e-9)

    def test_home_point_eight_algebraic_but_one_feasible(self, unit_params):
        sols = ik_enumerate_feasible(CartesianPoint(0, 0, 0), unit_params)
        assert len(sols) == 1
        assert sols[0].rho == JointVector(1.0, 1.0, 1.0)


class TestBranchOf:
    def test_home_is_ppp(self, unit_params):
        assert branch_of(
            CartesianPoint(0, 0, 0), JointVector(1, 1, 1), unit_params
        ) == PPP

    def test_mixed_branch_from_signs(self, unit_params):
        h = math.sqrt(0.02)
        p = CartesianPoint(0.7, 0.7, 0.7)
        rho = JointVector(0.7 - h, 0.7 + h, 0.7 + h)
        assert branch_of(p, rho, unit_params).label == "MPP"

    def test_zero_difference_is_singular(self, unit_params):
        # rho_x = p_x by construction; y/z values are irrelevant to the raise
        p = CartesianPoint(0.6, 0.0, 0.8)
        with pytest.raises(SerialSingularity) as exc:
            branch_of(p, JointVector(0.6, 1.0, 1.0), unit_params)
        assert exc.value.axis == "x"


class TestSerialSingular:
    @pytest.mark.parametrize(
        "p,flagged",
        [
            ((0.0, 0.6, 0.8), ("x",)),
            ((0.0, 0.0, 0.0), ()),
            ((0.6, 0.8, 0.0), ("z",)),
        ],
    )
    def test_examples(self, unit_params, p, flagged):
        assert is_serial_singular(CartesianPoint(*p), unit_params).axes() == flagged


class TestProperties:
    @settings(max_examples=200)
    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_roundtrip_branch_recovery(self, px, py, pz):
        """Inside the ball with no axis singular, every branch is recovered."""
        params = ManipulatorParams(L=1.0)
        p = CartesianPoint(px, py, pz)
        if is_serial_singular(p, params).any():
            return
        for branch in BRANCH_ORDER:
            sol = ik_branch(p, branch, params)
            assert branch_of(p, sol.rho, params) == branch

    @settings(max_examples=200)
    @given(st.floats(-0.9, 0.9), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6))
    def test_root_pair_symmetric_about_point(self, px, py, pz):
        params = ManipulatorParams(L=1.0)
        p = CartesianPoint(px, py, pz)
        try:
            hi = ik_branch(p, PPP, params).rho
            lo = ik_branch(p, Branch(-1, -1, -1), params).rho
        except RadicandNegative:
            return
        for pi_, a, b in zip(p, hi, lo):
            assert 0.5 * (a + b) == pytest.approx(pi_, abs=1e-9)

    def test_permutation_equivariance(self, unit_params):
        p = CartesianPoint(-0.31, 0.52, 0.17)
        perm = (2, 0, 1)
        pp = CartesianPoint(*(p[i] for i in perm))
        for branch in BRANCH_ORDER:
            pb = Branch(*(branch.signs[i] for i in perm))
            rho = ik_branch(p, branch, unit_params).rho
            rho_p = ik_branch(pp, pb, unit_params).rho
            for i, want in enumerate(perm):
                assert rho_p[i] == pytest.approx(rho[want], abs=1e-12)

    def test_count_law_sampled(self, unit_params):
        """1 inside the ball, 8 in the shell, 0 outside; never 2..7."""
        from orthoglide import WorkspaceRegion, classify_point

        rng = np.random.default_rng(1234)
        expected = {
            WorkspaceRegion.SPHERE_INTERIOR: 1,
            WorkspaceRegion.SHELL: 8,
            WorkspaceRegion.OUTSIDE: 0,
        }
        seen_shell = 0
        for row in rng.uniform(-1, 1, size=(20_000, 3)):
            p = CartesianPoint(*row)
            region = classify_point(p, unit_params)
            count = len(ik_enumerate_feasible(p, unit_params))
            if region is WorkspaceRegion.BOUNDARY_BAND:
                continue
            assert count == expected[region], (p, region, count)
            if region is WorkspaceRegion.SHELL:
                seen_shell += 1
        assert seen_shell > 50  # the shell is thin but must be exercised
