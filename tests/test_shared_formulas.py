"""Every path that shares a per-point formula gives bit-identical answers.

The scalar kernels compute the three IK radicands and the DK quadratic once
per point and feed every answer from them.  The region comes from one
formula, ``workspace._region_code``, which ``classify_point`` applies to one
point and ``trajectory`` to a column of steps; the early-return oracle
``oracles.early_return_region`` pins its decisions at every edge, for L from
1e-300 to 1e150.  These tests put each public answer next to the long way
round, built from the other public functions, on a seeded sweep that
includes the exact edges: radicands at ``+-eps_geom * L^2`` and a few ulps
either side, points on the sphere and cylinder bands, joints at exactly 0
and 2L, and discriminants either side of the DK flat band.  Floats are
compared with ``float.hex``, so a signed zero or a last-bit difference
fails.  The ``trajectory`` command computes the same answers for all its
steps at once, on arrays, and is held to the same bits.
"""

import itertools
import json
import math
import platform
import random
import warnings

import numpy as np
import pytest

from orthoglide import (
    AXES,
    BRANCH_ORDER,
    Branch,
    CartesianPoint,
    DkSolution,
    FlatConfiguration,
    JointVector,
    ManipulatorParams,
    RadicandNegative,
    SerialSingularity,
    SphericalDirection,
    WorkspaceRegion,
    boundary_joint_vector,
    boundary_radius,
    branch_of,
    classify_point,
    dk_both,
    dk_coefficients,
    dk_feasible,
    equidistant_point,
    feasibility_product,
    ik_branch,
    ik_enumerate_feasible,
    is_serial_singular,
    joint_limits_ok,
    plane_eval,
    posture_of,
)
from orthoglide.cli import main
from orthoglide.jointspace import _radius
from orthoglide.workspace import _REGIONS, _column_hypot, _region_code

from oracles import early_return_region

LENGTHS = (1.0, 2.5, 1e-3, 7e4)
BY_LABEL = {b.label: b for b in BRANCH_ORDER}


def bits(values):
    return tuple(float.hex(float(v)) for v in values)


def ulps(v, k):
    """``v`` moved ``k`` ulps (either sign)."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.inf if k > 0 else -math.inf)
    return v


def exact_radicands(L):
    """Points whose x radicand, as the package computes it, is exactly
    ``eps_geom * L^2``, its negative, or 0.  y leaves ``L^2 - y^2`` near half
    or twice the band, z takes up the rest, and y moves an ulp at a time
    until the rounding lands on the target."""
    L2, tol = L * L, 1e-9 * L * L
    for target in (tol, -tol, 0.0):
        for y in (ulps(math.sqrt(L2 - a * tol), k) for a in (2.0, 0.5) for k in range(-8, 9)):
            if L2 - y * y - target >= 0.0:
                z = math.sqrt(L2 - y * y - target)
                if L2 - y * y - z * z == target:
                    yield (0.25 * L, y, z)
                    break


def edge_points(L, rng):
    """Exact points, radicands at and around the band edge, sphere and
    cylinder points, and random points, all in units of ``L``."""
    tol = 1e-9 * L * L
    pts = [
        (L, 0.0, 0.0), (0.0, L, 0.0), (0.0, 0.0, L), (-L, 0.0, 0.0), (0.0, 0.0, 0.0),
        (-0.0, 0.0, -0.0), (L / 2, L / 2, L / 2), (2 * L, 0.0, 0.0),
        (L / math.sqrt(2), L / math.sqrt(2), L / math.sqrt(2)),
        (-0.0, L, -0.0), (L, -0.0, 0.0), (-0.0, -0.0, -L), (-0.0, 0.5 * L, -2 * L),
        *exact_radicands(L),
    ]
    for _ in range(12):
        # x radicand L^2 - y^2 - z^2 near +-tol: y from z, then nudged by ulps
        z = rng.uniform(0.0, 0.9) * L
        x = rng.uniform(-1.2, 1.2) * L
        for target in (tol, -tol, 0.0):
            y0 = math.sqrt(L * L - z * z - target)
            for k in (-2, -1, 0, 1, 2):
                pts.append((x, ulps(y0, k), z))
        # on the sphere and on a cylinder wall, and a few ulps off
        u = [rng.gauss(0.0, 1.0) for _ in range(3)]
        # not sum(), whose float rounding changed in Python 3.12
        n = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
        s = [abs(c) * L / n for c in u]
        t = rng.uniform(0.0, math.pi / 2)
        for k in (-3, 0, 3):
            pts.append(tuple(ulps(c, k) for c in s))
            pts.append((rng.uniform(0.0, 1.0) * L, ulps(L * math.cos(t), k), L * math.sin(t)))
    pts += [tuple(rng.uniform(-1.5, 1.5) * L for _ in range(3)) for _ in range(40)]
    return [CartesianPoint(*p) for p in pts]


def edge_joints(L, rng):
    """Joint vectors either side of the DK flat band and of the actuation
    range, at exactly 2L, and random ones."""
    params = ManipulatorParams(L)
    rhos = [(L, L, L), (2 * L, 2 * L, 2 * L), (2 * L, L, L), (0.5 * L, 2 * L, 1.5 * L),
            (-L, L, L), (3 * L, 3 * L, 3 * L)]
    for _ in range(10):
        d = SphericalDirection(rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5))
        on = boundary_joint_vector(d, params)
        # the discriminant moves by about 2 * s: across the +-eps_geom band
        for s in (-1e-6, -1e-9, -4e-10, -1e-12, 0.0, 1e-12, 4e-10, 1e-9, 1e-6, 0.1, -0.1):
            rhos.append(tuple(c * (1.0 + s) for c in on))
    rhos += [tuple(rng.uniform(-0.5, 2.5) * L for _ in range(3)) for _ in range(40)]
    return [JointVector(*r) for r in rhos]


def sweep():
    rng = random.Random(2024)
    for L in LENGTHS:
        yield ManipulatorParams(L), edge_points(L, rng), edge_joints(L, rng)


@pytest.mark.parametrize("params, points, joints", list(sweep()), ids=[str(L) for L in LENGTHS])
class TestSharedFormulas:
    def test_sweep_reaches_the_edges(self, params, points, joints):
        L2 = params.L * params.L
        tol = params.eps_geom * L2
        rads = [L2 - p.y * p.y - p.z * p.z for p in points]
        for edge in (tol, -tol):
            near = [r - edge for r in rads if abs(r - edge) <= 1e-14 * L2]
            assert any(d <= 0 for d in near) and any(d > 0 for d in near)
        # p = (L, 0, 0): joints at exactly 0 and 2L
        rhos = [ik_branch(points[0], b, params).rho for b in BRANCH_ORDER]
        assert any(0.0 in r for r in rhos) and any(2 * params.L in r for r in rhos)
        # radicands of exactly 0 and +-(eps_geom * L) * L, the band as the
        # package rounds it; signed zeros; all three axes singular
        band = params.eps_geom * params.L * params.L
        assert {band, -band, 0.0} <= set(rads)
        assert any(math.copysign(1.0, c) < 0 for p in points for c in p if c == 0.0)
        assert any(is_serial_singular(p, params) == (True, True, True) for p in points)
        discs = [dk_coefficients(r, params).discriminant for r in joints if 0.0 not in r]
        assert any(d > params.eps_geom for d in discs)
        assert any(abs(d) <= params.eps_geom for d in discs)
        assert any(d < -params.eps_geom for d in discs)

    def test_enumerate_is_the_brute_force_filter(self, params, points, joints):
        for p in points:
            want = []
            for b in BRANCH_ORDER:
                try:
                    sol = ik_branch(p, b, params)
                except RadicandNegative:
                    want = []
                    break
                if joint_limits_ok(sol.rho, params):
                    want.append(sol)
            got = ik_enumerate_feasible(p, params)
            assert [bits(s.rho) for s in got] == [bits(s.rho) for s in want]
            assert [s.branch for s in got] == [s.branch for s in want]
            assert all(g.branch is w.branch for g, w in zip(got, want))

    def test_branch_of_returns_the_branch_order_objects(self, params, points, joints):
        eps = params.eps_branch
        for p in points:
            for b in BRANCH_ORDER:
                try:
                    rho = ik_branch(p, b, params).rho
                except RadicandNegative:
                    break
                diffs = [r - c for r, c in zip(rho, p)]
                if any(abs(d) <= eps for d in diffs):
                    axis = AXES[[abs(d) <= eps for d in diffs].index(True)]
                    with pytest.raises(SerialSingularity) as exc:
                        branch_of(p, rho, params)
                    assert exc.value.axis == axis
                    continue
                got = branch_of(p, rho, params)
                assert got == Branch(*(1 if d > 0 else -1 for d in diffs))
                assert got is BY_LABEL[got.label]
        # exactly at the eps_branch band edge, and an ulp outside it
        p = CartesianPoint(0.3 * params.L, 0.2 * params.L, 0.1 * params.L)
        rho = JointVector(p.x + 0.5 * params.L, p.y - 0.5 * params.L, p.z + 0.5 * params.L)
        assert branch_of(p, rho, params) is BY_LABEL["PMP"]
        with pytest.raises(SerialSingularity):
            branch_of(p, rho._replace(y=p.y), params)
        with pytest.raises(SerialSingularity):
            branch_of(CartesianPoint(0.0, 0.0, 0.0), JointVector(eps, -1.0, 1.0), params)
        outside = JointVector(ulps(eps, 1), -1.0, 1.0)
        assert branch_of(CartesianPoint(0.0, 0.0, 0.0), outside, params) is BY_LABEL["PMP"]

    def test_dk_both_is_equidistant_point_at_the_roots(self, params, points, joints):
        for rho in joints:
            q = dk_coefficients(rho, params)
            disc = q.discriminant
            if disc > params.eps_geom:
                u = -(1.0 + math.sqrt(disc)) / 2.0
                roots = [(-1, u / q.a), (1, q.c / u)]
            elif disc >= -params.eps_geom:
                roots = [(None, -1.0 / (2.0 * q.a))]
            else:
                roots = []
            want = [DkSolution(equidistant_point(rho, t), m, t) for m, t in roots]
            got = dk_both(rho, params)
            assert [(bits(s.p), s.posture, bits([s.t_value])) for s in got] == [
                (bits(s.p), s.posture, bits([s.t_value])) for s in want]
            product = feasibility_product(rho, params)
            assert bits([product]) == bits([4.0 * q.a * q.c])
            assert dk_feasible(rho, params) == (
                disc >= -params.eps_geom and joint_limits_ok(rho, params))
            for s in got:
                if s.posture is None:
                    continue
                pe = plane_eval(s.p, rho)
                try:
                    side = posture_of(s.p, rho, params)
                except FlatConfiguration:
                    assert not abs(pe) > params.eps_branch * math.sqrt(q.a)
                else:
                    assert side == (1 if pe > 0 else -1)

    @pytest.mark.parametrize("label", ["PPP", "MPM", "PMM"])
    def test_trajectory_records_are_the_library_answers(self, capsys, params, points, joints,
                                                         label):
        # A step longer than any segment makes every waypoint a step, and a
        # segment from the origin ends exactly on its waypoint.
        argv = ["trajectory", "-L", repr(params.L), "--step", "1e300", "-b", label,
                "--policy", "warn-and-hold-branch", "--json"]

        def records(*waypoints):
            main(argv + [a for w in waypoints for a in ("-w", ",".join(map(repr, w)))])
            return json.loads(capsys.readouterr().out)["records"]

        # 0.0 + -0.0 is 0.0, so only the first waypoint keeps a signed zero:
        # each point with one also starts a path of its own.
        signed = [p for p in points if any(math.copysign(1.0, c) < 0 for c in p if c == 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            along = records(*(w for p in points for w in ((0.0, 0.0, 0.0), p)))
            first = [records(p, (0.0, 0.0, 0.0))[0] for p in signed]
        assert [r["p"] for r in along[1::2]] == [list(p) for p in points]
        assert [bits(r["p"]) for r in first] == [bits(p) for p in signed]
        branch = Branch.from_label(label)
        for rec in along + first:
            p = CartesianPoint(*rec["p"])
            assert rec["region"] == classify_point(p, params).value
            assert rec["singular_axes"] == list(is_serial_singular(p, params).axes())
            try:
                rho = ik_branch(p, branch, params).rho
            except RadicandNegative as exc:
                assert rec["rho"] is None and rec["error_axis"] == exc.axis
                assert rec["joint_limits_ok"] is False
            else:
                assert bits(rec["rho"]) == bits(rho)
                assert rec["joint_limits_ok"] == joint_limits_ok(rho, params)


REGION_LENGTHS = (1e-300, 1e-150, 1e-3, 1.0, 7e4, 1e150)


def region_edge_points(L, band, rng):
    """Points at every edge the region decision draws: on the sphere and a few
    ulps off, at the sphere band's edges, on and next to each cylinder wall and
    its band edges, within each coordinate plane's band, and signed zeros."""
    # In the band at eps_geom = 1e-15 only through its coordinate plane's band.
    pts = [(0.5660209826516847 * L, 0.824390834008981 * L, 5.102049057790474e-16 * L)]
    pts += itertools.product((0.0, -0.0, L, -L, 0.5 * L), (0.0, -0.0), (0.0, -0.0, 0.5 * L))
    for _ in range(40):
        u = [abs(rng.gauss(0.0, 1.0)) for _ in range(3)]
        unit = [c / math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) for c in u]
        sign = [rng.choice((1.0, 1.0, -1.0)) for _ in range(3)]
        for radius, ks in ((L, range(-3, 4)), (L + band, (-1, 0, 1)), (L - band, (-1, 0, 1))):
            pts += [tuple(s * ulps(c * radius, k) for s, c in zip(sign, unit)) for k in ks]
        t = rng.uniform(0.0, math.pi / 2)
        for radius in (L, L + band, L - band):
            for k in (-1, 0, 1):
                a, b = ulps(radius * math.cos(t), k), radius * math.sin(t)
                for c in (rng.uniform(0.0, 1.0) * L, rng.uniform(-1.0, 1.0) * band, band):
                    pts += [(a, b, c), (a, c, b), (c, a, b)]
        q = [rng.uniform(0.3, 0.75) * L for _ in range(3)]
        for v in (band, -band, ulps(band, 1), ulps(band, -1), rng.uniform(-2.0, 2.0) * band, -0.0):
            pts += [tuple(v if i == j else c for j, c in enumerate(q)) for i in range(3)]
    return pts


# With eps_geom = 2**-30 a radius can be exactly L + band, so the edges' <= and
# < are tested too; at 1e-15, L + band rounds up, so the plane band decides.
@pytest.mark.parametrize("eps_geom", [1e-9, 1e-15, 2**-30])
@pytest.mark.parametrize("L", REGION_LENGTHS)
def test_region_formula_makes_the_early_return_decisions(L, eps_geom):
    """``_region_code``, for one point through ``classify_point`` and for a
    column of points as ``trajectory`` calls it, returns the region of the
    one-test-at-a-time oracle on every edge the decision draws."""
    params = ManipulatorParams(L, eps_geom=eps_geom)
    band = eps_geom * L
    pts = region_edge_points(L, band, random.Random(2026))
    want = [early_return_region(x, y, z, L, band) for x, y, z in pts]
    # At L = 1e-300, x * x underflows, so r is 0 and all of C is in the ball
    # (ROADMAP item 1); the oracle says so too.
    reached = set(WorkspaceRegion) if L * L > 0.0 else {WorkspaceRegion.OUTSIDE,
                                                         WorkspaceRegion.SPHERE_INTERIOR}
    assert set(want) == reached
    scalar = [classify_point(CartesianPoint(*p), params) for p in pts]
    x, y, z = np.array(pts).T
    with np.errstate(all="ignore"):
        codes = _region_code(x, y, z, L, band, _column_hypot(L, band), np.sqrt)
    column = [_REGIONS[k] for k in codes.tolist()]
    assert [(p, s) for p, s, w in zip(pts, scalar, want) if s is not w] == []
    assert [(p, c) for p, c, w in zip(pts, column, want) if c is not w] == []


def test_trajectory_overflow_is_silent(capsys):
    """The last steps of this path overflow x*x + y*y + z*z to inf: no
    warning reaches stderr, and each region is still ``classify_point``'s."""
    params = ManipulatorParams(1e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["trajectory", "-L", "1e154", "-w", "0,0,0", "-w", "9e153,9e153,9e153",
              "--step", "1e153", "--policy", "warn-and-hold-branch", "--json"])
    out = capsys.readouterr()
    assert out.err == ""
    records = json.loads(out.out)["records"]
    assert any(math.isinf(x * x + y * y + z * z) for x, y, z in (rec["p"] for rec in records))
    for rec in records:
        assert rec["region"] == classify_point(CartesianPoint(*rec["p"]), params).value


#: Grid 21 holds a direction whose radius changes if its squares are taken by
#: multiplying, as numpy's ``**`` does, rather than by the C library's pow, as
#: Python's ``**`` does (with glibc's pow; see the test after this one).
GRIDS = (1, 2, 3, 7, 21, 40)


@pytest.mark.parametrize("fmt", ["--csv", "--json"])
@pytest.mark.parametrize("L", [1e-300, 1e-3, 1.0, 2.5, 7e4, 1e300])
def test_boundary_sample_rows_are_the_library_answers(capsys, L, fmt):
    """Every ``boundary-sample`` row, computed by column, is ``(phi, theta,
    boundary_radius(d), *boundary_joint_vector(d))`` for the direction d at
    the centre ``(k + 0.5) * (pi / 2) / n`` of its grid cell."""
    params = ManipulatorParams(L)
    for n in GRIDS:
        main(["jointspace", "boundary-sample", "-L", repr(L), "--grid", str(n), fmt])
        out = capsys.readouterr().out
        if fmt == "--csv":
            rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        else:
            rows = [list(row.values()) for row in json.loads(out)["rows"]]
        angles = [(k + 0.5) * (math.pi / 2.0) / n for k in range(n)]
        want = [(*d, boundary_radius(d, params), *boundary_joint_vector(d, params))
                for d in itertools.starmap(SphericalDirection, itertools.product(angles, angles))]
        assert [bits(row) for row in rows] == [bits(row) for row in want]


def test_boundary_radius_is_one_formula_on_floats_and_arrays():
    """``_radius`` on grid 21's columns, as ``boundary-sample`` calls it, gives
    ``boundary_radius``'s bits on every direction.  With glibc, squaring by
    multiplying instead of by pow would change one of them."""
    n, params = 21, ManipulatorParams(1.0)
    angles = [(k + 0.5) * (math.pi / 2.0) / n for k in range(n)]
    cos, sin = np.array([math.cos(a) for a in angles]), np.array([math.sin(a) for a in angles])
    e = np.multiply.outer(cos, cos), np.multiply.outer(cos, sin), sin[:, None]
    t = _radius(*e, params.L, np.float_power, np.sqrt)
    want = [boundary_radius(SphericalDirection(a, b), params)
            for a, b in itertools.product(angles, angles)]
    assert bits(t.ravel()) == bits(want)
    multiplied = _radius(*e, params.L, lambda v, k: v ** k, np.sqrt)
    if platform.libc_ver()[0] == "glibc":
        assert np.count_nonzero(t != multiplied) == 1
