import functools
import itertools
import math
import os
import random
import threading
import time

import numpy as np
import pytest

from orthoglide import (
    CartesianPoint,
    KinematicsError,
    ManipulatorParams,
    PPP,
    RadicandNegative,
    VolumeOutOfRange,
    WorkspaceRegion,
    bisector_landmarks,
    classify_point,
    ik_branch,
    ik_enumerate_feasible,
    in_cylinder_intersection,
    is_serial_singular,
    monte_carlo_volumes,
    workspace_volumes,
)
from orthoglide.workspace import _REGIONS, _column_hypot, _path_columns

from test_shared_formulas import REGION_LENGTHS, region_edge_points

SQRT2 = math.sqrt(2.0)


class TestCylinderIntersection:
    def test_origin_inside(self, unit_params):
        assert in_cylinder_intersection(CartesianPoint(0, 0, 0), unit_params)

    def test_bisector_touch_point_on_closed_boundary(self, unit_params):
        c = 1.0 / SQRT2
        assert in_cylinder_intersection(CartesianPoint(c, c, c), unit_params)

    def test_pairwise_sum_violation(self, unit_params):
        assert not in_cylinder_intersection(CartesianPoint(0.8, 0.8, 0.0), unit_params)

    def test_contains_the_ball(self, unit_params):
        rng = np.random.default_rng(21)
        for row in rng.uniform(-1, 1, size=(5000, 3)):
            if row @ row <= 1.0:
                assert in_cylinder_intersection(CartesianPoint(*row), unit_params)


class TestClassify:
    @pytest.mark.parametrize(
        "p,region,count",
        [
            ((-0.5, 0.4, 0.3), WorkspaceRegion.SPHERE_INTERIOR, 1),
            ((0.7, 0.7, 0.7), WorkspaceRegion.SHELL, 8),
            ((1.2, 0.0, 0.0), WorkspaceRegion.OUTSIDE, 0),
            ((-0.6, 0.6, 0.6), WorkspaceRegion.OUTSIDE, 0),
        ],
    )
    def test_examples(self, unit_params, p, region, count):
        got = classify_point(CartesianPoint(*p), unit_params)
        assert got is region
        assert got.ik_count == count

    def test_outside_example_confirmed_by_enumeration(self, unit_params):
        assert ik_enumerate_feasible(CartesianPoint(1.2, 0, 0), unit_params) == []
        assert ik_enumerate_feasible(CartesianPoint(-0.6, 0.6, 0.6), unit_params) == []

    @pytest.mark.parametrize(
        "p",
        [
            (0.6, 0.8, 0.0),                       # on the sphere
            (1.0, 0.0, 0.0),                       # sphere and two cylinder walls
            (1 / SQRT2, 1 / SQRT2, 0.5),           # on a cylinder wall, r > 1
            (0.3, 1 / SQRT2, 1 / SQRT2),           # on the y-z wall, r > 1
        ],
    )
    def test_boundary_band(self, unit_params, p):
        assert classify_point(CartesianPoint(*p), unit_params) is WorkspaceRegion.BOUNDARY_BAND

    @pytest.mark.parametrize("wall", [(0, 1, 2), (0, 2, 1), (1, 2, 0)])
    @pytest.mark.parametrize("offset, region", [
        (0.5, WorkspaceRegion.BOUNDARY_BAND), (-0.5, WorkspaceRegion.BOUNDARY_BAND),
        (2.0, WorkspaceRegion.OUTSIDE), (-2.0, WorkspaceRegion.SHELL),
    ])
    def test_band_straddles_each_cylinder_wall(self, unit_params, wall, offset, region):
        """``offset`` bands (eps_geom * L) off a cylinder wall, with r > L: in
        the band on either side, else the region of that side."""
        i, j, k = wall
        p = [0.5] * 3
        p[i] = p[j] = (1.0 + offset * unit_params.eps_geom) / SQRT2
        assert classify_point(CartesianPoint(*p), unit_params) is region

    def test_interior_coordinate_plane_is_not_boundary(self, unit_params):
        # coordinate planes only bound the shell, not the ball interior
        got = classify_point(CartesianPoint(0.0, 0.4, 0.3), unit_params)
        assert got is WorkspaceRegion.SPHERE_INTERIOR

    @pytest.mark.parametrize("p", list(itertools.permutations(
        (0.5660209826516847, 0.824390834008981, 5.102049057790474e-16))))
    def test_coordinate_plane_band_decides_at_small_eps(self, p):
        """5.1e-16 from a coordinate plane with eps_geom = 1e-15: in the band.
        The point's cylinder radius is L + 1.11e-15, which is ``L + band`` as
        rounded but outside the wall band, so only the coordinate-plane test
        puts it in the band; without that test the answer is SHELL."""
        params = ManipulatorParams(1.0, eps_geom=1e-15)
        got = classify_point(CartesianPoint(*p), params)
        assert got is WorkspaceRegion.BOUNDARY_BAND

    def test_agrees_with_enumeration_on_sample(self, unit_params):
        rng = np.random.default_rng(22)
        region_counts = {r: 0 for r in WorkspaceRegion}
        for row in rng.uniform(-1, 1, size=(20_000, 3)):
            p = CartesianPoint(*row)
            region = classify_point(p, unit_params)
            region_counts[region] += 1
            if region is WorkspaceRegion.BOUNDARY_BAND:
                continue
            assert len(ik_enumerate_feasible(p, unit_params)) == region.ik_count
        assert region_counts[WorkspaceRegion.SHELL] > 0
        assert region_counts[WorkspaceRegion.SPHERE_INTERIOR] > 0


POINT_QUERIES = [classify_point, in_cylinder_intersection, is_serial_singular]


@pytest.mark.parametrize("query", POINT_QUERIES)
@pytest.mark.parametrize(
    "p,axis",
    [
        ((math.nan, 0.0, 0.0), "y"),
        ((0.0, math.nan, 0.0), "x"),
        ((0.0, 0.0, math.nan), "x"),
        ((math.nan, math.nan, math.nan), "x"),
        ((math.nan, math.inf, 0.0), "y"),  # x radicand is -inf, not NaN
    ],
)
def test_nan_point_raises_on_the_axis_ik_branch_names(unit_params, query, p, axis):
    with pytest.raises(RadicandNegative) as exc:
        query(CartesianPoint(*p), unit_params)
    assert exc.value.axis == axis
    with pytest.raises(RadicandNegative) as ik:
        ik_branch(CartesianPoint(*p), PPP, unit_params)
    assert ik.value.axis == axis


@pytest.mark.parametrize(
    "p", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0), (math.inf, math.inf, -math.inf)]
)
def test_infinite_point_is_outside_without_flags(unit_params, p):
    q = CartesianPoint(*p)
    assert classify_point(q, unit_params) is WorkspaceRegion.OUTSIDE
    assert not in_cylinder_intersection(q, unit_params)
    assert not is_serial_singular(q, unit_params).any()


@pytest.mark.parametrize("eps_geom", [1e-9, 1e-15, 2**-30])
@pytest.mark.parametrize("L", REGION_LENGTHS)
def test_path_regions_at_the_region_edges(L, eps_geom):
    """The trajectory's column pass gives each step ``classify_point``'s region on
    every edge the region decision draws.  numpy's hypot rounds otherwise than
    math.hypot on a few of these points, enough to move some across an edge."""
    params = ManipulatorParams(L, eps_geom=eps_geom)
    pts = region_edge_points(L, eps_geom * L, random.Random(2026))
    # A segment from the origin ends exactly on its waypoint.
    waypoints = [w for p in pts for w in ((0.0, 0.0, 0.0), p)]
    points, *_, region, _ = _path_columns(waypoints, [1] * (len(waypoints) - 1), PPP, params,
                                          False)
    assert [_REGIONS[k] for k in region.tolist()] == [
        classify_point(CartesianPoint(*p), params) for p in zip(*points.tolist())]


# Signed zeros, subnormals, the smallest normal, 1e±300, near the largest double, inf.
EXTREMES = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300,
            -1e300, 1.7e308, -1.7976931348623157e308, math.inf, -math.inf)


@pytest.mark.parametrize("eps_geom", [1e-9, 1e-15, 2**-30])
@pytest.mark.parametrize("L", REGION_LENGTHS)
def test_column_hypot_decides_as_math_hypot(L, eps_geom):
    """``_column_hypot`` gives math.hypot's bits wherever an ulp could move a region
    decision, and elsewhere a radius at most an ulp away that decides the same, on the
    region edge points and on every point with coordinates from ``EXTREMES``."""
    band = eps_geom * L
    pts = region_edge_points(L, band, random.Random(2026))
    pts += itertools.product(EXTREMES, repeat=3)
    x, y, z = np.array(pts).T
    pairs, hypot = ((x, y), (x, z), (y, z)), _column_hypot(L, band)
    with np.errstate(all="ignore"):
        got = [hypot(u, v).tolist() for u, v in pairs]
    wrong = []
    for row, (u, v) in zip(got, pairs):
        for c, a, b in zip(row, u.tolist(), v.tolist()):
            want = math.hypot(a, b)
            if abs(abs(want - L) - band) <= 2.0**-41 * (want + L):
                ok = c.hex() == want.hex()
            else:
                ok = (abs(c - want) <= math.ulp(want) and (c <= L + band) == (want <= L + band)
                      and (abs(c - L) > band) == (abs(want - L) > band))
            if not ok:
                wrong.append((a, b, c, want))
    assert wrong == []


@pytest.mark.parametrize("uv", [(6.83094097357e-313, 4.38336409844e-313),
                                (4.13398683576e-313, 3.5214040499e-313),
                                (7.3559298754e-313, 9.75005643714e-313),
                                (9.72704370287e-313, 8.7719448583e-313)])
def test_path_region_at_a_subnormal_length(uv):
    """At these subnormal L = math.hypot(u, v), 2^-40 (c + L) rounds to 0 and np.hypot's
    radius is an ulp above L, across the edge at L + band = L: the window's floor of one
    subnormal ulp still redoes it, so the step keeps classify_point's region."""
    params = ManipulatorParams(math.hypot(*uv), eps_geom=1e-15)
    *_, region, _ = _path_columns([(0.0, 0.0, 0.0), (*uv, 0.0)], [1], PPP, params, False)
    assert _REGIONS[region[1]] is classify_point(CartesianPoint(*uv, 0.0), params)


@pytest.mark.parametrize("L", REGION_LENGTHS)
def test_no_radius_is_redone_clear_of_every_edge(L, monkeypatch):
    """On a seeded path across the cylinder walls whose pairwise radii all stay 1e-6 L
    or more clear of every edge L ± band, math.hypot is redone for no step."""
    rng = random.Random(23)
    waypoints = [tuple(rng.uniform(-1.2, 1.2) * L for _ in range(3)) for _ in range(8)]
    params = ManipulatorParams(L)
    band = params.eps_geom * L
    calls = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda a, b: calls.append((a, b)) or hypot(a, b))
    points, *_ = _path_columns(waypoints, [500] * 7, PPP, params, False)
    monkeypatch.undo()
    x, y, z = points
    c = np.hypot([x, x, y], [y, z, z])
    assert (c < L - band).any() and (c > L + band).any()
    assert abs(abs(c - L) - band).min() >= 1e-6 * L
    assert calls == []


class TestVolumes:
    def test_closed_forms(self, unit_params):
        v = workspace_volumes(unit_params)
        assert v.vol_C == pytest.approx(8 * (2 - SQRT2), abs=1e-12)
        assert v.vol_S == pytest.approx(4 * math.pi / 3, abs=1e-12)
        assert v.vol_G == pytest.approx(2 - SQRT2 - math.pi / 6, abs=1e-12)
        assert v.vol_W == pytest.approx(2 + 7 * math.pi / 6 - SQRT2, abs=1e-12)

    def test_disjoint_union(self, unit_params):
        v = workspace_volumes(unit_params)
        assert v.vol_W == pytest.approx(v.vol_S + v.vol_G, abs=1e-12)
        assert 0 < v.vol_G < v.vol_S < v.vol_C

    def test_percentages(self, unit_params):
        v = workspace_volumes(unit_params)
        assert v.pct_W_of_serial == pytest.approx(53.14, abs=0.5)
        assert v.pct_S_of_serial == pytest.approx(52.36, abs=0.5)
        assert v.pct_C_of_serial == pytest.approx(58.58, abs=0.5)

    def test_cubic_scaling(self):
        v1 = workspace_volumes(ManipulatorParams(L=1.0))
        v2 = workspace_volumes(ManipulatorParams(L=2.0))
        for name in ("vol_C", "vol_S", "vol_G", "vol_W"):
            assert getattr(v2, name) == pytest.approx(8 * getattr(v1, name), rel=1e-12)
        assert v2.pct_W_of_serial == pytest.approx(v1.pct_W_of_serial, rel=1e-12)

    @pytest.mark.parametrize("k", range(-102, 103, 3))
    def test_percentages_do_not_depend_on_L(self, unit_params, k):
        """The percentages are constants: bit-identical at every L = 10^k."""
        v1 = workspace_volumes(unit_params)
        v = workspace_volumes(ManipulatorParams(L=10.0**k))
        pct = ("pct_W_of_serial", "pct_S_of_serial", "pct_C_of_serial")
        assert [getattr(v, n) for n in pct] == [getattr(v1, n) for n in pct]
        for name in ("vol_C", "vol_S", "vol_G", "vol_W"):
            assert getattr(v, name) / 10.0 ** (3 * k) == pytest.approx(getattr(v1, name), rel=1e-14)

    @pytest.mark.parametrize("L", [1e-300, 1e-120, 1e-103, 4e102, 5e102, 1e103, 1e300])
    def test_unrepresentable_volumes_raise(self, L):
        """L^3 underflowing to 0 or a subnormal, or a volume overflowing, is a
        typed error, not ZeroDivisionError, OverflowError, inf or NaN."""
        with pytest.raises(VolumeOutOfRange, match="is not a finite normal float"):
            workspace_volumes(ManipulatorParams(L=L))


@functools.lru_cache(maxsize=None)
def _per_row_hits(L, n, seed):
    """C, S and G hits of ``default_rng(seed)``'s first n cube samples,
    counted one row at a time with the scalar membership formulas."""
    return _row_hits(np.random.default_rng(seed).uniform(-L, L, size=(n, 3)).tolist(), L)


def _row_hits(rows, L):
    """C, S and G hits among ``rows`` of (x, y, z) floats, by the scalar membership formulas."""
    L2 = L * L
    c = s = g = 0
    for x, y, z in rows:
        x2, y2, z2 = x * x, y * y, z * z
        in_c = x2 + y2 <= L2 and x2 + z2 <= L2 and y2 + z2 <= L2
        r2 = x2 + y2 + z2
        c += in_c
        s += r2 < L2
        g += in_c and r2 > L2 and x > 0.0 and y > 0.0 and z > 0.0
    return c, s, g


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self, unit_params):
        a = monte_carlo_volumes(unit_params, 10_000, seed=42)
        b = monte_carlo_volumes(unit_params, 10_000, seed=42)
        assert a == b

    def test_seed_changes_stream(self, unit_params):
        a = monte_carlo_volumes(unit_params, 10_000, seed=42)
        b = monte_carlo_volumes(unit_params, 10_000, seed=43)
        assert a != b

    @pytest.mark.parametrize("L", [1e-120, 3e102, 1e300])
    def test_unrepresentable_cube_raises(self, L):
        with pytest.raises(VolumeOutOfRange, match="cube = 8 \\* L\\*\\*3"):
            monte_carlo_volumes(ManipulatorParams(L=L), 10_000, seed=0)

    def test_block_size_does_not_matter(self, unit_params, monkeypatch):
        import orthoglide.workspace as ws

        full = monte_carlo_volumes(unit_params, 50_000, seed=7)
        monkeypatch.setattr(ws, "_MC_BLOCK", 1024)
        chunked = monte_carlo_volumes(unit_params, 50_000, seed=7)
        assert full == chunked

    @pytest.mark.parametrize(
        "L,n,seed,hits",
        [
            (0.37, 50_000, 7, (29513, 26320, 381)),
            (17.3, 10_000, 2**31 + 5, (5870, 5209, 77)),
            (1.0, 10**6, 42, (585668, 523685, 7703)),
        ],
    )
    def test_pinned_hit_counts(self, L, n, seed, hits):
        mc = monte_carlo_volumes(ManipulatorParams(L=L), n, seed)
        got = (mc.vol_C.hits, mc.vol_S.hits, mc.vol_G.hits)
        assert got == hits
        assert all(type(h) is int for h in got)  # plain ints, as JSON needs
        assert mc.vol_W.hits == hits[1] + hits[2]

    @pytest.mark.parametrize("L,n,seed", [(0.37, 50_000, 7), (17.3, 10_000, 2**31 + 5),
                                          (1e-100, 20_000, 3), (2e102, 20_000, 4)])
    def test_hit_counts_match_per_row_reference(self, L, n, seed):
        mc = monte_carlo_volumes(ManipulatorParams(L=L), n, seed)
        assert (mc.vol_C.hits, mc.vol_S.hits, mc.vol_G.hits) == _per_row_hits(L, n, seed)

    @pytest.mark.parametrize("n", [10_000, 65_537, 1_000_003])
    @pytest.mark.parametrize("block", [1024, 1 << 14])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_hits_independent_of_cpus_and_block(self, monkeypatch, cpus, block, n):
        """Any CPU count splits the rows into min(cpus, blocks) contiguous
        ranges of whole blocks, and the hits are the per-row reference's."""
        import orthoglide.workspace as ws

        ranges = []
        real = ws._mc_hits

        def recorded(ss, L, start, stop):
            ranges.append((start, stop))
            return real(ss, L, start, stop)

        monkeypatch.setattr(ws, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(ws, "_MC_BLOCK", block)
        monkeypatch.setattr(ws, "_mc_hits", recorded)
        mc = monte_carlo_volumes(ManipulatorParams(L=0.37), n, 7)
        assert (mc.vol_C.hits, mc.vol_S.hits, mc.vol_G.hits) == _per_row_hits(0.37, n, 7)
        assert all(type(h) is int for h in (mc.vol_C.hits, mc.vol_S.hits, mc.vol_G.hits))
        ranges.sort()
        assert len(ranges) == min(cpus, -(-n // block))
        assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a % block == 0 for a, _ in ranges)

    def test_numpy_stream_assumptions(self):
        """The kernel's two assumptions about numpy: ``random(out=)`` scaled
        by 2L and shifted by -L is ``uniform(-L, L)`` bit for bit, and a
        PCG64 advanced by 3k draws yields ``default_rng``'s rows k: on."""
        Ls = 10.0 ** np.random.default_rng(5).uniform(-100.0, math.log10(3e102), 400)
        for i, L in enumerate(Ls.tolist()):
            want = np.random.default_rng(i).uniform(-L, L, size=(257, 3))
            got = np.empty((257, 3))
            np.random.default_rng(i).random(out=got)
            got *= 2.0 * L
            got += -L
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), L
        for s in (0, 7, 2**31 + 5, 2**64 + 3):
            rows = np.random.default_rng(s).random((1000, 3))
            for k in (0, 1, 17, 999):
                bits = np.random.PCG64(np.random.SeedSequence(s))
                bits.advance(3 * k)
                tail = np.random.Generator(bits).random((1000 - k, 3))
                assert np.array_equal(tail.view(np.int64), rows[k:].view(np.int64)), (s, k)

    @pytest.mark.parametrize("failing", ["first range", "later ranges", "no range"])
    def test_range_error_reaches_caller_and_threads_end(self, unit_params, monkeypatch, failing):
        import orthoglide.workspace as ws

        raised = []
        real = ws._mc_hits

        def hits(ss, L, start, stop):
            if failing != "no range" and (start > 0) == (failing == "later ranges"):
                raised.append(MemoryError(f"range at {start}"))
                raise raised[-1]
            time.sleep(0.05)  # still running when a first range fails
            return real(ss, L, start, stop)

        monkeypatch.setattr(ws, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(ws, "_mc_hits", hits)
        before = threading.active_count()
        if failing == "no range":
            mc = monte_carlo_volumes(unit_params, 100_000, seed=1)
            assert (mc.vol_C.hits, mc.vol_S.hits, mc.vol_G.hits) == _per_row_hits(1.0, 100_000, 1)
        else:
            with pytest.raises(MemoryError) as err:
                monte_carlo_volumes(unit_params, 100_000, seed=1)
            assert any(err.value is exc for exc in raised)
        assert threading.active_count() == before

    def test_usable_cpus_without_affinity(self, monkeypatch):
        import orthoglide.workspace as ws

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert ws._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ws._usable_cpus() == 1

    def test_negative_seed_raises_before_any_thread(self, unit_params, monkeypatch):
        import orthoglide.workspace as ws

        def unexpected(*args, **kwargs):
            raise AssertionError("a range started")

        monkeypatch.setattr(ws, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(ws, "_mc_hits", unexpected)
        monkeypatch.setattr(threading, "Thread", unexpected)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            monte_carlo_volumes(unit_params, 100_000, seed=-1)

    def test_too_few_samples_rejected(self, unit_params):
        with pytest.raises(ValueError):
            monte_carlo_volumes(unit_params, 9_999, seed=0)

    def test_estimates_bracket_closed_forms(self, unit_params):
        closed = workspace_volumes(unit_params)
        mc = monte_carlo_volumes(unit_params, 200_000, seed=2024)
        for name in ("vol_C", "vol_S", "vol_G", "vol_W"):
            est = getattr(mc, name)
            want = getattr(closed, name)
            assert est.stderr > 0
            assert abs(est.value - want) <= 4 * est.stderr, name

    def test_scales_with_length(self):
        small = monte_carlo_volumes(ManipulatorParams(L=1.0), 20_000, seed=3)
        big = monte_carlo_volumes(ManipulatorParams(L=2.0), 20_000, seed=3)
        # same uniform stream scaled by L: identical hit counts
        assert big.vol_W.hits == small.vol_W.hits
        assert big.vol_W.value == pytest.approx(8 * small.vol_W.value, rel=1e-12)


@pytest.mark.parametrize("module", ["core", "inverse", "direct", "jointspace", "workspace", "cli"])
def test_annotations_resolve(module):
    """``typing.get_type_hints`` resolves every annotation of the package's functions and
    methods: none names a module, such as numpy, that is imported only where it is used."""
    import importlib
    import inspect
    import typing

    mod = importlib.import_module(f"orthoglide.{module}")
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) == mod.__name__:
            members = vars(obj).values() if inspect.isclass(obj) else ()
            for f in filter(inspect.isfunction, (obj, *members)):
                typing.get_type_hints(f)


#: Rows for the kernel's block test, by L; their squares and sums are exact at L = 45,
#: also when L and the rows are scaled by a power of two.  At L = 45: r^2 exactly L^2; a
#: pairwise sum exactly L^2 (in C, and in G when r^2 > L^2); coordinates +0.0 and -0.0;
#: G's rows mirrored out of the octant.  At L = 1: rows whose (x2 + y2) + z2 and
#: x2 + (y2 + z2) round to opposite sides of L^2, two for S, then two for G.
EDGE_ROWS = {
    45.0: [(5, 20, 40), (20, -20, 35), (15, 30, 30), (-15, 30, -30), (45, 0, 0), (27, 36, 0),
           (27, 36, 10), (36, 10, 27), (10, 27, 36), (27, -36, 10), (27, 36, 45), (46, 0, 0),
           (0.0, 27, 36), (-0.0, 27, 36), (27, -0.0, 36), (0.0, 0.0, -0.0), (30, 30, -0.0),
           (30, 30, 30), (30, 30, -30), (30, -30, 30), (-30, 30, 30)],
    1.0: [tuple(map(float.fromhex, row)) for row in (
        ("0x1.19bf5d5bab78ep-1", "0x1.4e0a661f01b6dp-2", "0x1.8987e79d4c559p-1"),
        ("0x1.3897f6c821aa1p-2", "0x1.451d1958cff60p-1", "0x1.6b5733601cce9p-1"),
        ("0x1.3121982a4ac14p-1", "0x1.567dfe272b44ep-1", "0x1.c6eb85f03996fp-2"),
        ("0x1.366baaa391d10p-1", "0x1.7492ea2702b57p-2", "0x1.6a0cd07ac795cp-1"))],
}


@pytest.mark.parametrize("k", [0, -330, 330])
@pytest.mark.parametrize("L0", EDGE_ROWS)
def test_block_hits_on_edge_rows(L0, k):
    """The kernel's block test counts the edge rows as the scalar formulas do, row by row
    and as one block whose scratch is longer than it, at L and the rows scaled by 2^k."""
    import orthoglide.workspace as ws

    rows = [tuple(math.ldexp(c, k) for c in row) for row in EDGE_ROWS[L0]]
    L = math.ldexp(L0, k)
    if L0 == 1.0:  # the regrouped sums are on opposite sides of L^2 for S, then for G
        x2, y2, z2 = (np.array(rows) ** 2).T
        r2, regrouped = (x2 + y2) + z2, x2 + (y2 + z2)
        assert ((r2 < L * L) != (regrouped < L * L)).tolist() == [True, True, False, False]
        assert ((r2 > L * L) != (regrouped > L * L)).tolist() == [False, False, True, True]
    for row in rows:
        block = np.array([row], dtype=float)
        assert ws._block_hits(block, L * L, np.empty((3, 1)), np.empty((2, 1), bool)) == \
            _row_hits([row], L), row
    n = len(rows)
    floats, bools = np.full((3, n + 5), np.nan), np.ones((2, n + 5), bool)
    hits = ws._block_hits(np.array(rows, dtype=float), L * L, floats, bools)
    assert hits == _row_hits(rows, L) and all(type(h) is int for h in hits)


class TestShellGeometry:
    def test_shell_pinches_onto_sphere_near_octant_faces(self, unit_params):
        """Any shell point with a coordinate below delta sits within
        delta^2/2 of the sphere (r^2 <= wall^2 + delta^2 <= 1 + delta^2),
        so the shell touches the sphere along the octant-face edges.

        Uniform sampling never lands in that pinch, so points are built
        near a face directly and fed through the classifier.
        """
        rng = np.random.default_rng(23)
        for delta in (0.2, 0.1, 0.05):
            inf_r = math.inf
            found = 0
            for _ in range(20_000):
                alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
                radial = 1.0 - rng.uniform(0.0, 1.0) * delta * delta / 2
                z = rng.uniform(0.0, delta)
                p = CartesianPoint(radial * math.cos(alpha), radial * math.sin(alpha), z)
                if classify_point(p, unit_params) is not WorkspaceRegion.SHELL:
                    continue
                found += 1
                r = math.sqrt(p.x**2 + p.y**2 + p.z**2)
                assert 1.0 < r <= 1.0 + delta * delta / 2 + 1e-12
                inf_r = min(inf_r, r)
            assert found > 100, delta
            assert inf_r - 1.0 <= delta * delta / 2


class TestBisectorLandmarks:
    def test_unit_values(self, unit_params):
        lm = bisector_landmarks(unit_params)
        assert lm.sphere_axis_coord == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert lm.sphere_axis_coord == pytest.approx(0.58, abs=5e-3)
        assert lm.sphere_distance == 1.0
        assert lm.shell_axis_coord == pytest.approx(1 / SQRT2, abs=1e-12)
        assert lm.shell_axis_coord == pytest.approx(0.71, abs=5e-3)
        assert lm.shell_distance == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_landmarks_sit_on_their_surfaces(self, unit_params):
        lm = bisector_landmarks(unit_params)
        c = lm.sphere_axis_coord
        assert c * c * 3 == pytest.approx(1.0, abs=1e-12)  # on the sphere
        s = lm.shell_axis_coord
        assert s * s * 2 == pytest.approx(1.0, abs=1e-12)  # on every cylinder wall

    def test_overflowing_shell_distance_is_a_typed_value_error(self):
        """L * sqrt(3/2) overflows from about L = 1.4678e308: an error, not inf."""
        with pytest.raises(KinematicsError, match=r"L\*sqrt\(3/2\) overflows$") as exc:
            bisector_landmarks(ManipulatorParams(L=1.7e308))
        assert isinstance(exc.value, ValueError)
        assert bisector_landmarks(ManipulatorParams(L=1.4678e308)).shell_distance < math.inf

    def test_linear_scaling(self):
        lm = bisector_landmarks(ManipulatorParams(L=3.0))
        assert lm.sphere_axis_coord == pytest.approx(1.732, abs=1e-3)
        assert lm.shell_axis_coord == pytest.approx(2.121, abs=1e-3)
