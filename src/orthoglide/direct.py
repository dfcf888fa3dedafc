"""Closed-form direct kinematics via the equidistant-line parametrization.

Subtracting the leg constraints pairwise gives linear relations that force
every solution onto the line of points equidistant from the three joint
centres (rho_x, 0, 0), (0, rho_y, 0), (0, 0, rho_z):

    p_i = rho_i / 2 + t / rho_i

with a scalar parameter t (units length^2).  Substituting back into any leg
constraint yields a quadratic (``DkQuadratic``) whose two roots are the
two direct solutions, distinguished by the side of the plane through the
joint centres (posture index m = -1 below, +1 above).  A zero discriminant
is the "flat" configuration with TCP on that plane.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import (
    AXES,
    CartesianPoint,
    FlatConfiguration,
    JointVector,
    ManipulatorParams,
    NoDkSolution,
    ZeroJoint,
)

_NORMAL_MIN = sys.float_info.min  # equidistant_point and plane_eval divide by no joint below it


class DkQuadratic(NamedTuple):
    """The quadratic  a*t^2 + t + c = 0, normalised so that t's coefficient is 1:
    a = sum(rho_i^-2) (length^-2), c = (sum(rho_i^2) - 4L^2) / 4 (length^2).

    Its discriminant is the dimensionless 1 - feasibility_product, with zero
    band ``eps_geom``, so DK and the jointspace test share one formula."""

    a: float
    c: float

    @property
    def discriminant(self) -> float:
        return 1.0 - 4.0 * self.a * self.c


class DkSolution(NamedTuple):
    """One direct solution.  ``posture`` is None for the flat configuration."""

    p: CartesianPoint
    posture: int | None
    t_value: float


def _require_nonzero(rho: JointVector) -> None:
    x, y, z = rho
    if not (abs(x) >= _NORMAL_MIN and abs(y) >= _NORMAL_MIN and abs(z) >= _NORMAL_MIN):
        i = [not abs(r) >= _NORMAL_MIN for r in rho].index(True)  # zero, subnormal or NaN
        raise ZeroJoint(AXES[i], f"rho_{AXES[i]} = {rho[i]!r} is zero, subnormal or NaN; "
                        "equidistant line undefined")


def _no_overflow(value, nums: tuple, rho: JointVector, given: str):
    """``value``, from quotients ``nums[i] / rho[i]``, ``nums`` from ``given``: a ValueError
    if they are not all finite, else ZeroJoint names the first quotient to overflow."""
    if not all(map(math.isfinite, nums)):
        raise ValueError(f"{given} is not finite")
    for a, num, r in zip(AXES, nums, rho):
        if math.isinf(num / r):
            raise ZeroJoint(a, f"rho_{a} = {r!r} is too small: {num!r} / rho_{a} overflows")
    return value


def _quadratic(rho: JointVector, L2: float) -> tuple[float, float]:
    """``dk_coefficients``' ``(a, c)``, given ``L2 = L * L``."""
    x, y, z = rho
    sx, sy, sz = x * x, y * y, z * z
    ax = 1.0 / sx if sx else math.inf
    axy = ax + (1.0 / sy if sy else math.inf)
    a = axy + (1.0 / sz if sz else math.inf)
    # 4aL^2 bounds -4ac, so while it is finite the discriminant is too.  The
    # partial sums only grow, so the first one to leave it names the axis.
    if not 4.0 * a * L2 < math.inf:
        i = [not 4.0 * s * L2 < math.inf for s in (ax, axy, a)].index(True)
        raise ZeroJoint(AXES[i], f"rho_{AXES[i]} = {rho[i]!r} is zero, NaN or too small "
                        "next to L; equidistant line undefined")
    # a * sum(rho_i^2) >= 9, so a underflows to 0 only where c is +inf; a
    # positive a keeps 4ac at +inf there (no solution) instead of NaN.
    return max(a, math.ulp(0.0)), (sx + sy + sz - 4.0 * L2) / 4.0


def dk_coefficients(rho: JointVector, params: ManipulatorParams) -> DkQuadratic:
    """Normalised quadratic coefficients for the given joint vector.

    Raises ZeroJoint for the first axis at which ``4 * a * L^2`` stops being
    finite: a zero or NaN joint, or one so small next to L that the
    discriminant would overflow.  The squares are absolute, so a joint below
    about 1e-154 or an L above about 1.3e154 raises it even at rho = L
    (ROADMAP item 1).
    """
    L = params.L
    return DkQuadratic(*_quadratic(rho, L * L))


def dk_solve(rho: JointVector, posture: int, params: ManipulatorParams) -> DkSolution:
    """Direct solution for one posture index (m = -1 or +1).

    Inside the discriminant's zero band both postures return the single
    flat-configuration point, labelled with the requested posture.
    """
    if posture not in (-1, 1):
        raise ValueError(f"posture index must be -1 or +1, got {posture!r}")
    sols = dk_both(rho, params)
    if not sols:
        raise NoDkSolution("joint vector outside the direct-solution region")
    if len(sols) == 1:
        return sols[0]._replace(posture=posture)
    return sols[0] if posture == -1 else sols[1]


def dk_both(rho: JointVector, params: ManipulatorParams) -> list[DkSolution]:
    """Zero, one, or two direct solutions, ordered m = -1 then m = +1.

    A discriminant within ``eps_geom`` of zero yields the single flat
    solution (t = -1/2a, posture None).  Joint limits are deliberately not
    applied here; feasibility policy belongs to the jointspace layer, and
    callers wanting the flag can check ``joint_limits_ok(rho)`` themselves.
    """
    L, eps = params.L, params.eps_geom
    a, c = _quadratic(rho, L * L)
    disc = 1.0 - 4.0 * a * c
    if disc > eps:
        # t's coefficient 1 is positive, so -(1 + sqrt(disc))/2 has no
        # cancellation; the other root comes from the product c/a.
        u = -(1.0 + math.sqrt(disc)) / 2.0
        roots = ((-1, u / a), (1, c / u))
    elif disc >= -eps:
        roots = ((None, -1.0 / (2.0 * a)),)
    else:
        return []
    # equidistant_point, with no joint to check: _quadratic rejected zeros.
    x, y, z = rho
    return [DkSolution(CartesianPoint(x / 2.0 + t / x, y / 2.0 + t / y, z / 2.0 + t / z), m, t)
            for m, t in roots]


def equidistant_point(rho: JointVector, t: float) -> CartesianPoint:
    """Point on the equidistant line at parameter t (length^2).

    Every returned point is equidistant from the three joint centres,
    whatever t is.
    """
    _require_nonzero(rho)
    p = CartesianPoint(rho.x / 2.0 + t / rho.x, rho.y / 2.0 + t / rho.y, rho.z / 2.0 + t / rho.z)
    return p if math.isfinite(p.x + p.y + p.z) else _no_overflow(p, (t,) * 3, rho, f"t = {t!r}")


def plane_eval(p: CartesianPoint, rho: JointVector) -> float:
    """Signed evaluation of the joint-centre plane:
    ``p_x/rho_x + p_y/rho_y + p_z/rho_z - 1``; zero iff p lies on it."""
    _require_nonzero(rho)
    value = p.x / rho.x + p.y / rho.y + p.z / rho.z - 1.0
    return value if math.isfinite(value) else _no_overflow(value, p, rho, f"p = {tuple(p)}")


def posture_of(p: CartesianPoint, rho: JointVector, params: ManipulatorParams) -> int:
    """Posture index of a known-consistent pair: the side of the
    joint-centre plane the TCP lies on.

    Raises FlatConfiguration when the TCP is within ``eps_branch``
    (Euclidean distance) of the plane.
    """
    # |plane_eval| / sqrt(a) is the Euclidean distance from p to the plane.
    L = params.L
    grad = math.sqrt(_quadratic(rho, L * L)[0])
    pe = plane_eval(p, rho)
    if not abs(pe) > params.eps_branch * grad:
        raise FlatConfiguration(
            f"TCP within {params.eps_branch:.3e} of the joint-centre plane; "
            "posture indeterminate"
        )
    return 1 if pe > 0 else -1
