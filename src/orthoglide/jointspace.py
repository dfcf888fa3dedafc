"""Feasible jointspace region and its boundary surface.

Direct kinematics has real solutions exactly where

    (rho_x^2 + rho_y^2 + rho_z^2 - 4L^2)(rho_x^-2 + rho_y^-2 + rho_z^-2) <= 1

up to the ``eps_geom`` zero band of the direct-kinematics discriminant,
which is 1 minus this product.  Restricted to positive joints, the region
is a star-shaped solid in the first octant.  Its boundary admits two
representations:

  * a biquadratic in rho_x at fixed (rho_y, rho_z), handy for axis-aligned
    slices but asymmetric in the coordinates;
  * in spherical coordinates, the radius along a unit direction e:
        t = 2L * sqrt(F / (F - 1)),   F = e_x^-2 + e_y^-2 + e_z^-2
    which is the cheap form and the one to use for radial queries.

The surface hugs the sphere of radius 2L from outside, touching it along
the quarter-circle octant edges and bulging farthest on the bisector.  The
radial form stays well conditioned as F grows: it is evaluated for every
direction whose components F can represent, down to 1.3e-154.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    DirectionOnOctantBorder,
    JointVector,
    KinematicsError,
    ManipulatorParams,
    joint_limits_ok,
)
from .direct import _quadratic

#: Smallest direction component boundary_radius accepts: below it F overflows.
_MIN_COMPONENT = 1.3e-154


class _RadiusOutOfRange(KinematicsError, ValueError):
    """A boundary radius that overflows: ``L`` is too large.  Also a ValueError."""


class SphericalDirection(NamedTuple):
    """First-octant unit direction via two angles, each in ]0, pi/2]."""

    phi: float
    theta: float

    def unit_vector(self) -> tuple[float, float, float]:
        cp = math.cos(self.phi)
        return (cp * math.cos(self.theta), cp * math.sin(self.theta), math.sin(self.phi))

    @classmethod
    def from_vector(cls, x: float, y: float, z: float) -> "SphericalDirection":
        """Direction of a vector with finite, strictly positive components."""
        if not (0 < x < math.inf and 0 < y < math.inf and 0 < z < math.inf):
            raise ValueError(f"vector must have finite positive components, got {(x, y, z)}")
        # Scaled by a power of two, which is exact, so that no square over- or underflows.
        u, v, w = (math.ldexp(c, -math.frexp(max(x, y, z))[1]) for c in (x, y, z))
        n = math.sqrt(u * u + v * v + w * w)
        return cls(phi=math.asin(min(w / n, 1.0)), theta=math.atan2(y, x))


def feasibility_product(rho: JointVector, params: ManipulatorParams) -> float:
    """The jointspace membership product, 4ac of the normalised direct-
    kinematics quadratic; direct solutions exist iff it is at most
    1 + eps_geom (its discriminant 1 - product is at least -eps_geom)."""
    L = params.L
    a, c = _quadratic(rho, L * L)
    return 4.0 * a * c


def dk_feasible(rho: JointVector, params: ManipulatorParams) -> bool:
    """True iff the joint vector admits a direct solution, in the same
    zero band as ``dk_both``, *and* respects the actuation range (the
    positive-octant restriction)."""
    L = params.L
    a, c = _quadratic(rho, L * L)
    return 1.0 - 4.0 * a * c >= -params.eps_geom and joint_limits_ok(rho, params)


def _radius(ex, ey, ez, L, sqrt):
    """The radius t along the unit direction (ex, ey, ez): floats with ``math.sqrt`` or
    arrays with ``numpy.sqrt`` alike; Python and numpy round each product the same."""
    F = 1.0 / (ex * ex) + 1.0 / (ey * ey) + 1.0 / (ez * ez)
    return 2.0 * L * sqrt(F / (F - 1.0))


def boundary_radius(dir: SphericalDirection, params: ManipulatorParams) -> float:
    """Distance from the origin to the boundary surface along ``dir``.

    F >= 9 for any positive unit direction (minimum on the bisector), so
    F - 1 never vanishes, and as F grows toward the octant edges t tends to
    2L without losing precision.  Only directions F cannot represent are
    rejected with DirectionOnOctantBorder: a component that is NaN, not
    positive, or below 1.3e-154, where F overflows.  An overflowing radius
    (L above about 8.5e307) raises a KinematicsError that is also a ValueError.
    """
    return _radius_of(dir.unit_vector(), params)


def _radius_of(e: tuple[float, float, float], params: ManipulatorParams) -> float:
    """``boundary_radius`` along ``dir``'s unit vector ``e``; raises as it does."""
    ex, ey, ez = e
    if not (ex >= _MIN_COMPONENT and ey >= _MIN_COMPONENT and ez >= _MIN_COMPONENT):
        raise DirectionOnOctantBorder(f"direction {e} has a component below {_MIN_COMPONENT:g}")
    t = _radius(ex, ey, ez, params.L, math.sqrt)
    if t < math.inf:
        return t
    raise _RadiusOutOfRange(f"L = {params.L!r} is out of range: "
                            f"the boundary radius along {e} overflows")


def _boundary_grid(n: int, params: ManipulatorParams) -> tuple:
    """The angles ``(k + 0.5) * (pi / 2) / n``, and at [i, j] of four n x n arrays
    ``boundary_radius`` and ``boundary_joint_vector`` of (angles[i], angles[j]), bit for
    bit; raises as ``boundary_radius`` does for the first direction, in row order, whose
    radius overflows.  ``unit_vector``'s products are outer ones of the n cosines and sines."""
    import numpy as np

    angles = (np.arange(n) + 0.5) * (math.pi / 2.0) / n
    cos, sin = (np.fromiter(map(f, angles), float, n) for f in (math.cos, math.sin))
    e = np.multiply.outer(cos, cos), np.multiply.outer(cos, sin), sin[:, None]
    with np.errstate(over="ignore"):
        t = _radius(*e, params.L, np.sqrt)
    if t.max() == math.inf:
        i, j = divmod(int(t.argmax()), n)
        boundary_radius(SphericalDirection(angles.item(i), angles.item(j)), params)
    return angles, (t, *(t * c for c in e))


def boundary_joint_vector(dir: SphericalDirection, params: ManipulatorParams) -> JointVector:
    """The boundary point itself: ``boundary_radius(dir) * e``."""
    ex, ey, ez = e = dir.unit_vector()
    t = _radius_of(e, params)
    return JointVector(t * ex, t * ey, t * ez)


def boundary_rho_x(
    rho_y: float, rho_z: float, params: ManipulatorParams
) -> tuple[float, ...]:
    """The positive rho_x putting (rho_x, rho_y, rho_z) on the boundary.

    Solves u^2 + e*u + e/d = 0 in u = (rho_x/L)^2, e = (rho_y^2 + rho_z^2)/L^2 - 4,
    1/d = m^2/(1 + r^2), m = min(rho_y, rho_z)/L, r = min/max: nothing over- or
    underflows before the answer.  The roots multiply to e/d and add to -e, so one
    is positive exactly when e < 0; empty means the line never crosses the surface.
    """
    if not (rho_y > 0 and rho_z > 0):
        raise ValueError(f"rho_y and rho_z must be positive, got {(rho_y, rho_z)}")
    L, (lo, hi) = params.L, sorted((rho_y, rho_z))
    m, M = lo / L, hi / L
    e = m * m + M * M - 4.0
    if not e < 0.0:
        return ()
    u = (-e + math.sqrt(e * e - 4.0 * e * m * m / (1.0 + (lo / hi) ** 2))) / 2.0
    return (L * math.sqrt(u),)


def boundary_vs_sphere_gap(dir: SphericalDirection, params: ManipulatorParams) -> float:
    """How far outside the 2L sphere the boundary lies along ``dir``.

    Nonnegative everywhere, maximal on the bisector, tending to zero
    toward the octant edges.
    """
    return boundary_radius(dir, params) - 2.0 * params.L
