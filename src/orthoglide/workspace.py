"""Workspace sets, region classification, volumes, bisector landmarks.

The reachable set is the intersection C of three orthogonal solid cylinders
of radius L.  Under the actuation range the usable workspace W splits into
two disjoint pieces:

  * S, the open ball of radius L at the origin: exactly one feasible
    inverse solution (branch PPP);
  * G, the thin first-octant solid between the ball and C: all eight
    branches feasible.

Volumes have closed forms; a seeded Monte-Carlo estimator doubles as an
independent check of them.
"""

from __future__ import annotations

import math
import os
import sys
from enum import Enum
from typing import NamedTuple

from .core import Branch, CartesianPoint, ManipulatorParams, VolumeOutOfRange, joint_limits_ok
from .inverse import _branch_joints, _radicands, _real, _singular_axes


class WorkspaceRegion(Enum):
    """Region of a query point, determining the inverse-solution count."""

    SPHERE_INTERIOR = "sphere_interior"
    SHELL = "shell"
    BOUNDARY_BAND = "boundary_band"
    OUTSIDE = "outside"

    @property
    def ik_count(self) -> int | None:
        """Feasible inverse solutions in this region (None: indeterminate)."""
        return _IK_COUNTS[self]


_IK_COUNTS = {
    WorkspaceRegion.SPHERE_INTERIOR: 1,
    WorkspaceRegion.SHELL: 8,
    WorkspaceRegion.BOUNDARY_BAND: None,
    WorkspaceRegion.OUTSIDE: 0,
}


def _in_C(xy, xz, yz, L2, maximum):
    """C membership from the pairwise coordinate square sums: the largest is at most L^2.
    Floats with ``max`` or arrays with ``np.maximum`` alike; exact for NaN-free sums."""
    return maximum(maximum(xy, xz), yz) <= L2


def in_cylinder_intersection(p: CartesianPoint, params: ManipulatorParams) -> bool:
    """Closed membership test: all pairwise coordinate square sums <= L^2.
    Raises RadicandNegative for a point with a NaN coordinate."""
    L = params.L
    _real(p, _radicands(p, L))
    x2, y2, z2 = p.x * p.x, p.y * p.y, p.z * p.z
    return _in_C(x2 + y2, x2 + z2, y2 + z2, L * L, max)


def classify_point(p: CartesianPoint, params: ManipulatorParams) -> WorkspaceRegion:
    """Classify a point against the workspace regions.

    The boundary band is ``eps_geom * L`` in Euclidean distance to each
    bounding surface: the sphere, the cylinder walls, and (for the shell
    only) the coordinate planes.  Inside the band the solution count is
    indeterminate and no count is asserted.  Raises RadicandNegative for a
    point with a NaN coordinate.
    """
    L = params.L
    _real(p, _radicands(p, L))
    x, y, z = p
    return _REGIONS[_region_code(x, y, z, L, params.eps_geom * L, math.hypot, math.sqrt)]


#: Regions by the code ``_region_code`` gives them.
_REGIONS = (WorkspaceRegion.OUTSIDE, WorkspaceRegion.BOUNDARY_BAND, WorkspaceRegion.SHELL,
            WorkspaceRegion.SPHERE_INTERIOR)


def _region_code(x, y, z, L: float, band: float, hypot, sqrt):
    """``_REGIONS`` index of a point with no NaN coordinate, given ``band = eps_geom * L``:
    floats with ``math.hypot`` and ``math.sqrt``, or columns with ``_column_hypot(L, band)``
    and ``np.sqrt`` alike, so the tests are comparisons joined by ``&``.

    Outside C (grown by the band) a point is outside (0).  In it, a point is
    in the ball (3) short of the sphere's band; past that band and clear of
    every cylinder wall's and coordinate plane's band, it is in the shell (2)
    in the open first octant and outside (0) elsewhere; any other point is
    in the band (1).
    """
    c_xy, c_xz, c_yz = hypot(x, y), hypot(x, z), hypot(y, z)
    out = L + band
    in_c = (c_xy <= out) & (c_xz <= out) & (c_yz <= out)
    d = sqrt(x * x + y * y + z * z) - L
    clear = ((d > band) & (abs(c_xy - L) > band) & (abs(c_xz - L) > band)
             & (abs(c_yz - L) > band) & (abs(x) > band) & (abs(y) > band) & (abs(z) > band))
    octant = (x > 0) & (y > 0) & (z > 0)
    return in_c + 2 * (in_c & (d < -band)) + (in_c & clear) * (2 * octant - 1)


def _column_hypot(L: float, band: float):
    """The columns' hypot for ``_region_code``: np.hypot, an ulp at most from math.hypot,
    which is redone within 2^-40 (c + L) + 2^-1074 of an edge L ± band: only there can an ulp
    move a decision.  Columns with no NaN, under ``np.errstate(all="ignore")``."""
    import numpy as np

    def hypot(u, v):
        c = np.hypot(u, v)
        near = abs(abs(c - L) - band) <= 2.0**-40 * (c + L) + 2.0**-1074
        c[near] = list(map(math.hypot, u[near].tolist(), v[near].tolist()))
        return c
    return hypot


def _path_columns(waypoints, counts, branch: Branch, params: ManipulatorParams, abort: bool):
    """The trajectory check of the path through ``waypoints``, ``counts[k]`` equal steps
    along segment k, as columns holding the scalar answers bit for bit: the points,
    ``ik_branch``'s joints, their ``joint_limits_ok`` (False where it raises),
    ``is_serial_singular`` as x + 2y + 4z, the axis ``ik_branch`` raises for (else -1)
    and ``classify_point``'s index into ``_REGIONS``; then the index ``abort`` stopped at,
    or None.  With ``abort`` the columns end at the first step that is singular or fails.
    Raises RadicandNegative for the first step in them with a NaN radicand."""
    import numpy as np

    L = params.L
    band = params.eps_geom * L
    # Steps that overflow get inf and NaN columns, which are reported or raised on.
    with np.errstate(all="ignore"):
        # After the first waypoint, each segment's a + (i/n)(b - a), i = 1..n.
        a, b = np.array(waypoints[:-1]).T, np.array(waypoints[1:]).T
        f = np.concatenate([np.arange(1, n + 1) / n for n in counts])
        points = np.hstack([a[:, :1], np.repeat(a, counts, 1) + f * np.repeat(b - a, counts, 1)])
        rads = np.array(_radicands(points, L))
        flags = _singular_axes(rads, band * L)
        codes = flags.x + 2 * flags.y + 4 * flags.z
        below = rads < -band * L
        chords = np.where(rads > 0.0, np.sqrt(rads), 0.0)
        rho = np.array(_branch_joints(CartesianPoint(*points), chords, branch))
        ok = ~below.any(0) & joint_limits_ok(rho, params)
        halted = (codes > 0) | ~ok
        n = int(halted.argmax()) + 1 if abort and halted.any() else len(ok)
        nan = np.isnan(rads[:, :n].sum(0))
        if nan.any():
            classify_point(CartesianPoint(*points[:, nan.argmax()].tolist()), params)
        region = _region_code(*points[:, :n], L, band, _column_hypot(L, band), np.sqrt)
    axis = np.where(below.any(0), below.argmax(0), -1)[:n]
    aborted_at = n - 1 if abort and halted[n - 1] else None
    return points[:, :n], rho[:, :n], ok[:n], codes[:n], axis, region, aborted_at


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------
class VolumeReport(NamedTuple):
    """Closed-form region volumes and percentages of the serial baseline.

    The baseline is the (2L)^3 box a serial Cartesian machine with the same
    stroke would sweep.
    """

    vol_C: float
    vol_S: float
    vol_G: float
    vol_W: float
    pct_W_of_serial: float
    pct_S_of_serial: float
    pct_C_of_serial: float


_SQRT2 = math.sqrt(2.0)

#: Dimensionless volume coefficients: Vol(X) = coef * L^3.
_VOLUME_COEFS = {
    "vol_C": 8.0 * (2.0 - _SQRT2),
    "vol_S": 4.0 * math.pi / 3.0,
    "vol_G": 2.0 - _SQRT2 - math.pi / 6.0,
    "vol_W": 2.0 + 7.0 * math.pi / 6.0 - _SQRT2,
}


def _volume(name: str, coef: float, L: float) -> float:
    """``coef * L**3``; VolumeOutOfRange unless it is a finite normal float."""
    try:
        v = coef * L**3
    except OverflowError:
        v = math.inf
    if not sys.float_info.min <= v < math.inf:
        raise VolumeOutOfRange(
            f"L = {L!r} is out of range: {name} = {coef:.6g} * L**3 is not a finite normal float"
        )
    return v


def workspace_volumes(params: ManipulatorParams) -> VolumeReport:
    """Exact volumes: Vol(C) = 8(2 - sqrt2) L^3, Vol(S) = 4pi/3 L^3,
    Vol(G) = (2 - sqrt2 - pi/6) L^3, Vol(W) = (2 + 7pi/6 - sqrt2) L^3.

    The percentages are ``100 * coef / 8`` from the coefficients alone, so
    they are the same at every L.  Raises VolumeOutOfRange where a volume is
    not a finite normal float (L below about 7e-103 or above about 3.4e102).
    """
    coef = _VOLUME_COEFS
    return VolumeReport(
        **{name: _volume(name, c, params.L) for name, c in coef.items()},
        pct_W_of_serial=100.0 * coef["vol_W"] / 8.0,
        pct_S_of_serial=100.0 * coef["vol_S"] / 8.0,
        pct_C_of_serial=100.0 * coef["vol_C"] / 8.0,
    )


class VolumeEstimate(NamedTuple):
    """Monte-Carlo estimate with its binomial standard error."""

    value: float
    stderr: float
    hits: int


class MonteCarloVolumeReport(NamedTuple):
    n_samples: int
    seed: int
    vol_C: VolumeEstimate
    vol_S: VolumeEstimate
    vol_G: VolumeEstimate
    vol_W: VolumeEstimate


_MC_BLOCK = 1 << 14


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mc_hits(ss, L: float, start: int, stop: int) -> tuple[int, int, int]:
    """C, S and G hits among rows ``start:stop`` of ``default_rng(ss)``'s cube samples,
    ``ss`` a numpy ``SeedSequence``: each block is drawn into, and tested in, scratch
    allocated once per range."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(ss).advance(3 * start))  # a draw per coordinate
    L2 = L * L
    rows = min(_MC_BLOCK, stop - start)
    buf, floats, bools = np.empty((rows, 3)), np.empty((3, rows)), np.empty((2, rows), bool)
    hits_C = hits_S = hits_G = 0
    for lo in range(start, stop, _MC_BLOCK):
        block = buf[: stop - lo]
        rng.random(out=block)
        block *= 2.0 * L  # uniform(-L, L)'s own operations: -L + 2L * u
        block += -L
        c, s, g = _block_hits(block, L2, floats, bools)
        hits_C += c
        hits_S += s
        hits_G += g
    return hits_C, hits_S, hits_G


def _block_hits(block, L2: float, floats, bools) -> tuple[int, int, int]:
    """C, S and G hits among the rows of ``block``, an (n, 3) float array with no NaN,
    which is left holding its squares; ``floats`` and ``bools`` are (3, m) and (2, m)
    scratch, m >= n.

    The tests are the scalar formulas' rewritten to need fewer passes, each exactly:
    C by ``_in_C``'s largest pairwise sum, as ``max(a, b) <= L2`` iff both are; r^2 as
    ``(x2 + y2) + z2``, the order ``x2 + y2 + z2`` is summed in, reusing C's ``x2 + y2``;
    the open octant as ``min(x, y, z) > 0``, which like ``x > 0 & y > 0 & z > 0`` fails
    for +0.0 and -0.0 alike.
    """
    import numpy as np

    n = len(block)
    u, v, w = floats[:, :n]
    octant, past = bools[:, :n]
    x, y, z = block.T
    np.greater(np.minimum(np.minimum(x, y, out=w), z, out=w), 0.0, out=octant)
    x2, y2, z2 = np.multiply(block, block, out=block).T
    xy = np.add(x2, y2, out=u)
    sums = xy, np.add(x2, z2, out=v), np.add(y2, z2, out=w)
    in_C = _in_C(*sums, L2, lambda a, b: np.maximum(a, b, out=v))
    r2 = np.add(xy, z2, out=u)
    hits_S = np.count_nonzero(np.less(r2, L2, out=past))
    np.greater(r2, L2, out=past)
    past &= in_C
    past &= octant
    return int(np.count_nonzero(in_C)), int(hits_S), int(np.count_nonzero(past))


def monte_carlo_volumes(
    params: ManipulatorParams, n_samples: int, seed: int
) -> MonteCarloVolumeReport:
    """Sampled volume estimates over the [-L, L]^3 cube.

    Uses numpy's PCG64 generator (``default_rng(seed)``); the stream is
    consumed in fixed row-major order, so results are bit-identical for a
    given seed regardless of internal block size or CPU count.  The rows are
    split into one contiguous range of 2^14-row blocks per usable CPU, run on
    a ``ThreadPoolExecutor`` of that many workers (imported on first call);
    each range advances its own PCG64 to its first row and allocates its
    scratch once, about 0.84 MB at any ``n_samples``, which every block is
    drawn into and tested in; numpy releases the GIL while drawing and
    testing.  Sampling the full cube rather than one octant
    exercises the C and S membership tests in every octant; W membership uses
    the disjoint S-union-G decomposition.  Raises VolumeOutOfRange where the
    cube volume ``8 L^3`` is not a finite normal float.  numpy, like the
    executor, is imported on the first call, not with the module.
    """
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
    L = params.L
    cube = _volume("cube", 8.0, L)
    import numpy as np  # on this thread, before the pool: its workers only look it up

    ss = np.random.SeedSequence(seed)
    blocks = -(-n_samples // _MC_BLOCK)
    k = min(_usable_cpus(), blocks)
    bounds = [min(n_samples, blocks * w // k * _MC_BLOCK) for w in range(k + 1)]
    from concurrent.futures import ThreadPoolExecutor  # lazy: it imports logging

    with ThreadPoolExecutor(k) as pool:
        ranges = list(pool.map(_mc_hits, [ss] * k, [L] * k, bounds, bounds[1:]))
    hits_C, hits_S, hits_G = (sum(col) for col in zip(*ranges))

    def estimate(hits: int) -> VolumeEstimate:
        frac = hits / n_samples
        return VolumeEstimate(
            value=cube * frac,
            stderr=cube * math.sqrt(frac * (1.0 - frac) / n_samples),
            hits=hits,
        )

    estimates = map(estimate, (hits_C, hits_S, hits_G, hits_S + hits_G))  # C, S, G and W = S + G
    return MonteCarloVolumeReport(n_samples, seed, *estimates)


class BisectorLandmarks(NamedTuple):
    """Where the first-octant bisector exits the sphere and the cylinder
    intersection.  Both the per-axis coordinate and the Euclidean distance
    from the origin are reported."""

    sphere_axis_coord: float
    sphere_distance: float
    shell_axis_coord: float
    shell_distance: float


def bisector_landmarks(params: ManipulatorParams) -> BisectorLandmarks:
    """Bisector exit points: sphere at per-axis L/sqrt3 (distance L);
    cylinder intersection at per-axis L/sqrt2 (distance L*sqrt(3/2))."""
    L = params.L
    return BisectorLandmarks(
        sphere_axis_coord=L / math.sqrt(3.0),
        sphere_distance=L,
        shell_axis_coord=L / math.sqrt(2.0),
        shell_distance=L * math.sqrt(1.5),
    )
