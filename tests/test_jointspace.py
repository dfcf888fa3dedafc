import math

import numpy as np
import pytest

from orthoglide import (
    DirectionOnOctantBorder,
    JointVector,
    KinematicsError,
    ManipulatorParams,
    SphericalDirection,
    ZeroJoint,
    boundary_joint_vector,
    boundary_radius,
    boundary_rho_x,
    boundary_vs_sphere_gap,
    dk_both,
    dk_feasible,
    feasibility_product,
)
from oracles import random_interior_directions
from test_direct import UNIT_EXPONENTS

SQRT15 = math.sqrt(1.5)
SQRT3 = math.sqrt(3.0)
BISECTOR = SphericalDirection.from_vector(1.0, 1.0, 1.0)


class TestFromVector:
    @pytest.mark.parametrize("vec", [
        (math.nan, 1.0, 1.0), (1.0, 1.0, math.nan), (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
        (0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
    ])
    def test_non_finite_or_nonpositive_component_rejected(self, vec):
        with pytest.raises(ValueError):
            SphericalDirection.from_vector(*vec)

    @pytest.mark.parametrize("k", [-1070, -1000, -540, 540, 1000, 1020])
    def test_same_direction_at_every_power_of_two(self, k):
        """Where x * x underflows or overflows the direction is still the one at
        magnitude 1, bit for bit, down to subnormal components."""
        for vec in ((1.0, 1.0, 1.0), (3.0, 4.0, 5.0), (0.25, 1.0, 0.5)):
            scaled = [math.ldexp(c, k) for c in vec]
            assert SphericalDirection.from_vector(*scaled) == SphericalDirection.from_vector(*vec)


class TestFeasibility:
    def test_home_joints(self, unit_params):
        rho = JointVector(1, 1, 1)
        assert feasibility_product(rho, unit_params) == pytest.approx(-3.0, abs=1e-12)
        assert dk_feasible(rho, unit_params)

    def test_flat_joints_on_boundary(self, unit_params):
        rho = JointVector(SQRT15, SQRT15, SQRT15)
        assert feasibility_product(rho, unit_params) == pytest.approx(1.0, abs=1e-12)
        assert dk_feasible(rho, unit_params)

    def test_all_max_corner_infeasible(self, unit_params):
        rho = JointVector(2, 2, 2)
        assert feasibility_product(rho, unit_params) == pytest.approx(6.0, abs=1e-12)
        assert not dk_feasible(rho, unit_params)
        assert dk_both(rho, unit_params) == []

    def test_solvable_but_outside_actuation_range(self, unit_params):
        # negative joints can still be solved geometrically, never feasible
        rho = JointVector(-1, 1, 1)
        assert feasibility_product(rho, unit_params) <= 1.0
        assert not dk_feasible(rho, unit_params)

    def test_zero_joint_rejected(self, unit_params):
        with pytest.raises(ZeroJoint):
            feasibility_product(JointVector(1, 0, 1), unit_params)


class TestBoundaryRadius:
    def test_bisector(self, unit_params):
        t = boundary_radius(BISECTOR, unit_params)
        assert t == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-12)
        rho = boundary_joint_vector(BISECTOR, unit_params)
        for c in rho:
            assert c == pytest.approx(SQRT15, abs=1e-12)
            assert c == pytest.approx(1.22, abs=5e-3)

    def test_bisector_sphere_comparison(self, unit_params):
        # the 2L comparison sphere crosses the bisector at 2/sqrt(3) per axis
        e = BISECTOR.unit_vector()
        assert 2.0 * e[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        assert 2.0 * e[0] == pytest.approx(1.15, abs=5e-3)

    def test_boundary_point_satisfies_membership_equality(self, unit_params):
        for phi, theta in random_interior_directions(np.random.default_rng(31), 200):
            rho = boundary_joint_vector(SphericalDirection(phi, theta), unit_params)
            product = feasibility_product(rho, unit_params)
            assert product == pytest.approx(1.0, abs=1e-9)

    def test_edge_limit_approaches_two_L(self, unit_params):
        for ez in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            d = SphericalDirection(math.asin(ez), math.pi / 4)  # e_z == ez
            t = boundary_radius(d, unit_params)
            assert 2.0 <= t <= 2.0 + 2 * ez * ez

    def test_tiny_component_accepted(self, unit_params):
        """A component far below 1e-6 still gets its radius, which is 2L to rounding."""
        assert boundary_radius(SphericalDirection(1e-8, math.pi / 4), unit_params) == 2.0

    @pytest.mark.parametrize("L", [1e-3, 1.0, 1e3])
    def test_corner_direction_of_a_786_grid(self, L):
        """The last cell of ``boundary-sample --grid 786``, whose smallest
        component is about 9.98e-7, has a finite radius just above 2L."""
        angle = 785.5 * (math.pi / 2) / 786
        d = SphericalDirection(angle, angle)
        e_min = min(d.unit_vector())
        assert 9.9e-7 < e_min < 1e-6
        params = ManipulatorParams(L=L)
        t = boundary_radius(d, params)
        assert math.isfinite(t)
        assert 2 * L <= t <= 2 * L * (1 + e_min * e_min)
        rho = boundary_joint_vector(d, params)
        assert list(rho) == [t * c for c in d.unit_vector()]

    @pytest.mark.parametrize("d", [
        SphericalDirection(0.3, 0.0),                  # zero y component
        SphericalDirection(math.nan, 0.5),             # NaN components
        SphericalDirection(0.5, math.nan),
    ])
    def test_zero_or_nan_component_rejected(self, unit_params, d):
        for fn in (boundary_radius, boundary_joint_vector, boundary_vs_sphere_gap):
            with pytest.raises(DirectionOnOctantBorder) as exc:
                fn(d, unit_params)
            assert str(exc.value).endswith("has a component below 1.3e-154")

    def test_component_with_overflowing_inverse_square_rejected(self, unit_params):
        with pytest.raises(DirectionOnOctantBorder):
            boundary_radius(SphericalDirection(1e-200, 0.5), unit_params)

    def test_permutation_symmetry(self, unit_params):
        rng = np.random.default_rng(32)
        for _ in range(100):
            x, y, z = rng.uniform(0.1, 1.0, 3)
            t0 = boundary_radius(SphericalDirection.from_vector(x, y, z), unit_params)
            for perm in ((y, z, x), (z, x, y), (y, x, z)):
                t = boundary_radius(SphericalDirection.from_vector(*perm), unit_params)
                assert t == pytest.approx(t0, rel=1e-12)

    def test_linear_scaling(self):
        t1 = boundary_radius(BISECTOR, ManipulatorParams(L=1.0))
        t5 = boundary_radius(BISECTOR, ManipulatorParams(L=5.0))
        assert t5 == pytest.approx(5 * t1, rel=1e-12)

    def test_overflowing_radius_is_a_typed_value_error(self):
        # 2L * sqrt(9/8) overflows on the bisector from about L = 8.5e307.
        params = ManipulatorParams(L=9e307)
        for fn in (boundary_radius, boundary_joint_vector, boundary_vs_sphere_gap):
            with pytest.raises(KinematicsError) as exc:
                fn(BISECTOR, params)
            assert isinstance(exc.value, ValueError)
            assert "boundary radius" in str(exc.value)
        assert boundary_radius(BISECTOR, ManipulatorParams(L=8e307)) < math.inf

    def test_directional_minimum_is_the_bisector(self, unit_params):
        """F >= 9 with equality only on the bisector, so t is maximal there."""
        t_bis = boundary_radius(BISECTOR, unit_params)
        rng = np.random.default_rng(33)
        for phi, theta in random_interior_directions(rng, 2000):
            t = boundary_radius(SphericalDirection(phi, theta), unit_params)
            assert 2.0 < t <= t_bis + 1e-12


class TestBoundaryRhoX:
    def test_flat_point_single_root(self, unit_params):
        roots = boundary_rho_x(SQRT15, SQRT15, unit_params)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(SQRT15, abs=1e-12)

    def test_outside_disk_empty(self, unit_params):
        assert boundary_rho_x(2.0, 2.0, unit_params) == ()

    def test_unit_slice_root(self, unit_params):
        roots = boundary_rho_x(1.0, 1.0, unit_params)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.sqrt(1 + math.sqrt(2)), abs=1e-12)

    def test_symmetric_in_arguments(self, unit_params):
        a = boundary_rho_x(0.8, 1.3, unit_params)
        b = boundary_rho_x(1.3, 0.8, unit_params)
        assert a == b

    def test_roots_satisfy_membership_equality(self, unit_params):
        rng = np.random.default_rng(34)
        checked = 0
        for _ in range(500):
            ry, rz = rng.uniform(0.05, 2.0, 2)
            roots = boundary_rho_x(ry, rz, unit_params)
            assert len(roots) == (ry * ry + rz * rz - 4.0 < 0)
            for rx in roots:
                product = feasibility_product(JointVector(rx, ry, rz), unit_params)
                assert product == pytest.approx(1.0, abs=1e-9)
                checked += 1
        assert checked > 100

    def test_linear_scaling(self):
        r1 = boundary_rho_x(1.0, 1.0, ManipulatorParams(L=1.0))
        r3 = boundary_rho_x(3.0, 3.0, ManipulatorParams(L=3.0))
        assert r3[0] == pytest.approx(3 * r1[0], rel=1e-12)

    @pytest.mark.parametrize(
        "rho_y, rho_z, expected",
        [
            (1e-100, 1.0, SQRT3),
            (1e-160, 1.0, SQRT3),
            (1e-200, 1.0, SQRT3),
            (1.0, 1e-200, SQRT3),
            (1e-170, 1e-170, 2.0),
            (1e200, 1.0, None),
        ],
    )
    def test_tiny_or_huge_slice(self, unit_params, rho_y, rho_z, expected):
        """The slice through a vanishing rho_y meets the surface where the
        first factor of the product vanishes, rho_x^2 = 4L^2 - rho_z^2."""
        roots = boundary_rho_x(rho_y, rho_z, unit_params)
        if expected is None:
            assert roots == ()
        else:
            assert roots == (pytest.approx(expected, rel=1e-15),)

    @pytest.mark.parametrize("k", UNIT_EXPONENTS)
    def test_unit_scale(self, unit_params, k):
        L = 10.0**k
        params = ManipulatorParams(L=L)
        rng = np.random.default_rng(38)
        for y, z in rng.uniform(0.05, 2.0, (50, 2)).tolist():
            unit = boundary_rho_x(y, z, unit_params)
            roots = boundary_rho_x(y * L, z * L, params)
            assert len(roots) == len(unit) == (y * y + z * z < 4.0)
            for rx, ux in zip(roots, unit):
                assert rx == pytest.approx(ux * L, rel=1e-12)
                rho = JointVector(rx, y * L, z * L)
                assert feasibility_product(rho, params) == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_root_is_a_typed_value_error(self):
        """The root is below 2L, so from about L = 9e307 it can overflow: an error, not inf."""
        with pytest.raises(KinematicsError, match="the boundary rho_x overflows$") as exc:
            boundary_rho_x(5e307, 5e307, ManipulatorParams(L=1e308))
        assert isinstance(exc.value, ValueError)
        assert boundary_rho_x(4e307, 4e307, ManipulatorParams(L=8e307))[0] < math.inf

    def test_nonpositive_slice_rejected(self, unit_params):
        for rho_y, rho_z in ((-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                boundary_rho_x(rho_y, rho_z, unit_params)

    def test_agrees_with_radial_form(self, unit_params):
        """The biquadratic slice and the spherical radius describe the same
        surface: converting each root to a direction reproduces its radius."""
        rng = np.random.default_rng(35)
        checked = 0
        for _ in range(1000):
            ry, rz = rng.uniform(0.05, 1.95, 2)
            for rx in boundary_rho_x(ry, rz, unit_params):
                d = SphericalDirection.from_vector(rx, ry, rz)
                t = boundary_radius(d, unit_params)
                norm = math.sqrt(rx * rx + ry * ry + rz * rz)
                assert t == pytest.approx(norm, abs=1e-9)
                checked += 1
        assert checked > 500


class TestSphereGap:
    def test_bisector_gap(self, unit_params):
        gap = boundary_vs_sphere_gap(BISECTOR, unit_params)
        assert gap == pytest.approx(3 / math.sqrt(2) - 2, abs=1e-12)
        assert gap == pytest.approx(0.1213, abs=1e-4)

    def test_gap_nonnegative_everywhere(self, unit_params):
        rng = np.random.default_rng(36)
        for phi, theta in random_interior_directions(rng, 2000):
            assert boundary_vs_sphere_gap(SphericalDirection(phi, theta), unit_params) >= 0.0

    def test_gap_small_near_edges(self, unit_params):
        d = SphericalDirection(math.asin(1e-3), math.pi / 4)
        assert boundary_vs_sphere_gap(d, unit_params) < 0.01


class TestAgainstDirectKinematics:
    def test_discriminant_flips_across_boundary(self, unit_params):
        """Just inside the radial boundary there are two direct solutions,
        just outside none; exactly on it the discriminant sits in its band."""
        rng = np.random.default_rng(37)
        for phi, theta in random_interior_directions(rng, 300):
            d = SphericalDirection(phi, theta)
            t = boundary_radius(d, unit_params)
            e = d.unit_vector()
            inside = JointVector(*(t * (1 - 1e-7) * c for c in e))
            outside = JointVector(*(t * (1 + 1e-7) * c for c in e))
            assert len(dk_both(inside, unit_params)) == 2
            assert dk_both(outside, unit_params) == []

    def test_feasible_agrees_with_dk_across_the_bisector_band(self, unit_params):
        for i in range(-200, 201):
            r = SQRT15 + i * 1e-11
            rho = JointVector(r, r, r)
            assert dk_feasible(rho, unit_params) == bool(dk_both(rho, unit_params)), i

    def test_on_boundary_single_flat_solution(self, unit_params):
        rng = np.random.default_rng(38)
        for phi, theta in random_interior_directions(rng, 100, margin=0.05):
            rho = boundary_joint_vector(SphericalDirection(phi, theta), unit_params)
            sols = dk_both(rho, unit_params)
            assert len(sols) == 1
            assert sols[0].posture is None
