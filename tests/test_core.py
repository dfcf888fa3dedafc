import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orthoglide import (
    BRANCH_ORDER,
    PPP,
    Branch,
    CartesianPoint,
    JointVector,
    ManipulatorParams,
    ModelInconsistency,
    bisector_landmarks,
    branch_of,
    dk_coefficients,
    ik_branch,
    ik_enumerate_feasible,
    is_consistent,
    joint_limits_ok,
    leg_angles,
    leg_residuals,
    monte_carlo_volumes,
    workspace_volumes,
)
from orthoglide.core import _BRANCHES

ORIGIN = CartesianPoint(0.0, 0.0, 0.0)


class TestManipulatorParams:
    def test_defaults(self):
        params = ManipulatorParams(L=2.0)
        assert params.eps_geom == 1e-9
        assert params.eps_branch == 2e-9

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
    def test_bad_length_rejected(self, L):
        with pytest.raises(ValueError):
            ManipulatorParams(L=L)

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, 1.0])
    def test_bad_eps_geom_rejected(self, eps):
        with pytest.raises(ValueError):
            ManipulatorParams(L=1.0, eps_geom=eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 5e-3])
    def test_bad_eps_branch_rejected(self, eps):
        with pytest.raises(ValueError):
            ManipulatorParams(L=1.0, eps_branch=eps)

    @pytest.mark.parametrize("L", [2.4e-315, 1e-320, 5e-324])
    def test_default_eps_branch_underflow_names_L(self, L):
        """Below about 2.47e-315 the default 1e-9 * L underflows to 0: the error names
        L and the default, not an eps_branch that was never given."""
        with pytest.raises(ValueError) as exc:
            ManipulatorParams(L=L)
        assert str(exc.value) == (f"L = {L!r} is too small: the default eps_branch, "
                                  "1e-9 * L, underflows to 0")

    def test_tiny_length_with_its_own_eps_branch(self):
        assert ManipulatorParams(L=2.4e-315, eps_branch=5e-324).eps_branch == 5e-324
        assert ManipulatorParams(L=2.5e-315).eps_branch == 1e-9 * 2.5e-315 > 0.0


class TestBranch:
    def test_label_roundtrip(self):
        assert Branch.from_label("MPP") == Branch(-1, 1, 1)
        assert Branch(-1, 1, -1).label == "MPM"
        assert str(PPP) == "PPP"

    @pytest.mark.parametrize("label", ["PP", "PPPP", "PPX", ""])
    def test_bad_label_rejected(self, label):
        with pytest.raises(ValueError):
            Branch.from_label(label)

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            Branch(0, 1, 1)
        with pytest.raises(ValueError):
            Branch(1, 1, 2)

    def test_order_is_ppp_then_lexicographic(self):
        labels = [b.label for b in BRANCH_ORDER]
        assert labels[0] == "PPP"
        assert labels[1:] == sorted(labels[1:])
        assert len(set(labels)) == 8


class TestRecords:
    """Every record is a NamedTuple; the two that validate do so however they are made."""

    @staticmethod
    def records():
        params = ManipulatorParams(1.0)
        return [PPP, params, dk_coefficients(JointVector(1.0, 1.1, 1.2), params),
                workspace_volumes(params), monte_carlo_volumes(params, 10_000, 0),
                bisector_landmarks(params)]

    def test_records_are_immutable(self):
        for record in self.records():
            assert isinstance(record, tuple)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], 1.0)
            with pytest.raises(AttributeError):
                record.extra = 1.0

    def test_keyword_and_positional_construction_agree(self):
        assert ManipulatorParams(2.0, 1e-8, 1e-7) == ManipulatorParams(
            L=2.0, eps_geom=1e-8, eps_branch=1e-7) == (2.0, 1e-8, 1e-7)
        assert ManipulatorParams(2.0) == ManipulatorParams(L=2.0) == (2.0, 1e-9, 2e-9)
        assert Branch(-1, 1, -1) == Branch(sx=-1, sy=1, sz=-1) == Branch._make((-1, 1, -1))
        assert ManipulatorParams(2.0)._replace(eps_geom=1e-8) == (2.0, 1e-8, 2e-9)

    def test_default_eps_branch_is_filled_in_before_the_tuple_is_made(self):
        params = ManipulatorParams._make((3.0, 1e-9, None))
        assert params.eps_branch == 1e-9 * 3.0 and params == ManipulatorParams(3.0)
        with pytest.raises(ValueError, match=r"^L = 5e-324 is too small: the default "
                                             r"eps_branch, 1e-9 \* L, underflows to 0$"):
            params._replace(L=5e-324, eps_branch=None)

    @pytest.mark.parametrize("make", [
        lambda good, fields: type(good)(*fields),
        lambda good, fields: type(good)._make(fields),
        lambda good, fields: good._replace(**dict(zip(good._fields, fields))),
        lambda good, fields: copy.copy(tuple.__new__(type(good), fields)),
        lambda good, fields: pickle.loads(pickle.dumps(tuple.__new__(type(good), fields))),
    ], ids=["constructor", "_make", "_replace", "copy", "pickle"])
    @pytest.mark.parametrize("good, fields, message", [
        (PPP, (0, 1, 1), "branch sign for axis x must be -1 or +1, got 0"),
        (PPP, (1, 1, -2), "branch sign for axis z must be -1 or +1, got -2"),
        (ManipulatorParams(1.0), (-1.0, 1e-9, 1e-9), "L must be finite and positive, got -1.0"),
        (ManipulatorParams(1.0), (1.0, 1e-9, 0.0), "eps_branch must be in (0, L*1e-3), got 0.0"),
    ])
    def test_bad_values_rejected_however_made(self, make, good, fields, message):
        """tuple.__new__ alone skips the check: copy and pickle remake the record from
        its fields through the constructor, so they reject what it made."""
        with pytest.raises(ValueError) as exc:
            make(good, fields)
        assert str(exc.value) == message

    def test_copies_are_equal_records_of_the_same_class(self):
        for record in self.records():
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert type(twin) is type(record) and twin == record

    def test_branches_are_the_very_objects_of_branch_order(self, unit_params):
        assert list(_BRANCHES.values()) == list(BRANCH_ORDER)
        assert all(_BRANCHES[b.signs] is b for b in BRANCH_ORDER)
        p = CartesianPoint(0.6, 0.6, 0.6)  # in the shell: all eight branches
        assert all(a.branch is b for a, b in zip(ik_enumerate_feasible(p, unit_params),
                                                 BRANCH_ORDER, strict=True))
        for b in BRANCH_ORDER:
            made = Branch(*b)
            assert made is not b
            assert branch_of(p, ik_branch(p, made, unit_params).rho, unit_params) is b

    def test_a_branch_hashes_and_compares_as_its_sign_triple(self):
        twin = Branch(1, 1, 1)
        assert twin == PPP and hash(twin) == hash(PPP) and {twin: "a"}[PPP] == "a"
        assert PPP == (1, 1, 1) == JointVector(1, 1, 1) and hash(PPP) == hash((1, 1, 1))
        assert type(PPP.signs) is tuple and PPP.signs == (1, 1, 1)
        assert [str(b) for b in BRANCH_ORDER] == [b.label for b in BRANCH_ORDER] == [
            "PPP", "MMM", "MMP", "MPM", "MPP", "PMM", "PMP", "PPM"]
        assert all(Branch.from_label(b.label.lower()) == b for b in BRANCH_ORDER)


class TestLegResiduals:
    def test_home_position(self, unit_params):
        res = leg_residuals(ORIGIN, JointVector(1.0, 1.0, 1.0), unit_params)
        assert res == (0.0, 0.0, 0.0)

    def test_leg_side_sign_insensitive(self, unit_params):
        res = leg_residuals(ORIGIN, JointVector(-1.0, 1.0, 1.0), unit_params)
        assert res == (0.0, 0.0, 0.0)

    def test_two_decimal_joint_values_pass_loose_tolerance(self, unit_params):
        # rho_x = rho_z = 0.7 + sqrt(0.02), rho_y = 0.7 - sqrt(0.02), rounded
        p = CartesianPoint(0.7, 0.7, 0.7)
        rho = JointVector(0.8414, 0.5586, 0.8414)
        assert max(abs(r) for r in leg_residuals(p, rho, unit_params)) <= 1e-3

    def test_scale_free(self):
        p = CartesianPoint(0.2, -0.3, 0.1)
        rho = JointVector(1.1, 0.6, 0.9)
        small = leg_residuals(p, rho, ManipulatorParams(L=1.0))
        k = 7.5
        big = leg_residuals(
            CartesianPoint(*(k * v for v in p)),
            JointVector(*(k * v for v in rho)),
            ManipulatorParams(L=k),
        )
        for a, b in zip(small, big):
            assert a == pytest.approx(b, abs=1e-12)

    @given(
        st.permutations([0, 1, 2]),
        st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    )
    def test_permutation_invariance(self, perm, vals):
        params = ManipulatorParams(L=1.0)
        p = CartesianPoint(*vals[:3])
        rho = JointVector(*vals[3:])
        base = leg_residuals(p, rho, params)
        permuted = leg_residuals(
            CartesianPoint(*(p[i] for i in perm)),
            JointVector(*(rho[i] for i in perm)),
            params,
        )
        # summation order changes under permutation, so ulp-level slack
        for got, want in zip(permuted, (base[i] for i in perm)):
            assert got == pytest.approx(want, abs=1e-14)

    @given(
        st.floats(-0.9, 0.9),
        st.floats(-0.7, 0.7),
        st.floats(-0.7, 0.7),
    )
    def test_both_x_roots_satisfy_x_leg(self, px, py, pz):
        """Any point with p_y^2 + p_z^2 <= L^2 yields two exact x-leg roots."""
        params = ManipulatorParams(L=1.0)
        half = math.sqrt(max(1.0 - py * py - pz * pz, 0.0))
        p = CartesianPoint(px, py, pz)
        for rho_x in (px + half, px - half):
            rx = leg_residuals(p, JointVector(rho_x, 1.0, 1.0), params)[0]
            assert abs(rx) <= params.eps_geom


class TestJointLimits:
    @pytest.mark.parametrize(
        "rho,expected",
        [
            ((1.0, 1.0, 1.0), True),
            ((0.0, 1.0, 1.0), False),   # lower bound strict
            ((2.0, 2.0, 2.0), True),    # upper bound closed
            ((2.0 + 1e-15, 2.0, 2.0), False),
            ((1.0, -0.5, 1.0), False),
        ],
    )
    def test_bounds(self, unit_params, rho, expected):
        assert joint_limits_ok(JointVector(*rho), unit_params) is expected

    def test_scales_with_length(self):
        params = ManipulatorParams(L=3.0)
        assert joint_limits_ok(JointVector(6.0, 6.0, 6.0), params)
        assert not joint_limits_ok(JointVector(6.1, 6.0, 6.0), params)

    def test_columns_of_an_array_are_the_float_answers(self, unit_params):
        """The rows of a 3 x n array, as ``trajectory`` passes its joints,
        give one bool per column, the same as each column's floats do."""
        edges = [0.0, -0.0, 5e-324, 1.0, 2.0, math.nextafter(2.0, 3.0), -1.0, math.inf, math.nan]
        columns = [(a, b, c) for a in edges for b in (1.0, math.nan, 2.5) for c in edges]
        got = joint_limits_ok(np.array(columns).T, unit_params)
        assert got.tolist() == [joint_limits_ok(JointVector(*c), unit_params) for c in columns]
        assert True in got.tolist() and False in got.tolist()


class TestLegAngles:
    def test_home_is_antiparallel(self, unit_params):
        angles = leg_angles(ORIGIN, JointVector(1.0, 1.0, 1.0), unit_params)
        for a in angles:
            assert a == pytest.approx(math.pi, abs=1e-12)

    def test_lower_branch_angle_below_right_angle(self):
        # x joint on its lower root: theta_x = arccos(0.7 - 0.5586)
        params = ManipulatorParams(L=1.0, eps_geom=1e-4)
        p = CartesianPoint(0.7, 0.7, 0.7)
        rho = JointVector(0.5586, 0.8414, 0.8414)
        angles = leg_angles(p, rho, params)
        assert angles.x == pytest.approx(math.acos(0.1414), abs=1e-12)
        assert angles.x < math.pi / 2

    def test_upper_branch_obtuse_angle(self, unit_params):
        p = CartesianPoint(0.0, 0.4, 0.3)
        rho = JointVector(
            math.sqrt(0.75), 0.4 + math.sqrt(0.91), 0.3 + math.sqrt(0.84)
        )
        angles = leg_angles(p, rho, unit_params)
        assert angles.x == pytest.approx(math.acos(-math.sqrt(0.75)), abs=1e-12)
        assert angles.x == pytest.approx(2.618, abs=1e-3)

    def test_inconsistent_pair_rejected(self, unit_params):
        with pytest.raises(ModelInconsistency):
            leg_angles(ORIGIN, JointVector(1.5, 1.0, 1.0), unit_params)

    @pytest.mark.parametrize("axis", "xyz")
    def test_nan_joint_is_inconsistent_on_every_axis(self, unit_params, axis):
        """A NaN residual is outside eps_geom wherever it comes in the order, and
        the error names it."""
        p = CartesianPoint(0.1, 0.2, 0.3)
        rho = ik_branch(p, PPP, unit_params).rho._replace(**{axis: math.nan})
        assert not is_consistent(p, rho, unit_params)
        with pytest.raises(ModelInconsistency, match=f"the {axis} residual is NaN"):
            leg_angles(p, rho, unit_params)

    def test_cosine_reconstructs_argument(self, unit_params):
        p = CartesianPoint(-0.2, 0.5, 0.1)
        rho = JointVector(
            -0.2 + math.sqrt(1 - 0.25 - 0.01),
            0.5 - math.sqrt(1 - 0.04 - 0.01),
            0.1 + math.sqrt(1 - 0.04 - 0.25),
        )
        angles = leg_angles(p, rho, unit_params)
        for theta, pi_, ri in zip(angles, p, rho):
            assert 0.0 <= theta <= math.pi
            assert math.cos(theta) == pytest.approx(pi_ - ri, abs=1e-12)

    def test_singular_surface_angle_is_right_angle(self, unit_params):
        # rho_x = p_x: leg x orthogonal to its axis
        p = CartesianPoint(0.3, 0.6, 0.8)
        rho = JointVector(
            0.3,
            0.6 + math.sqrt(1 - 0.09 - 0.64),
            0.8 + math.sqrt(1 - 0.09 - 0.36),
        )
        angles = leg_angles(p, rho, unit_params)
        assert angles.x == pytest.approx(math.pi / 2, abs=1e-9)

    def test_cosine_slightly_past_minus_one_is_clamped(self, unit_params):
        # leg x barely longer than L (residual 8e-10, inside tolerance);
        # the raw arccos argument is -1 - 4e-10 and must clamp, not NaN
        p = CartesianPoint(0.5, 0.0, 0.0)
        rho = JointVector(1.5 + 4e-10, math.sqrt(0.75), math.sqrt(0.75))
        angles = leg_angles(p, rho, unit_params)
        assert angles.x == math.pi
