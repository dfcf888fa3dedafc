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
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class DkQuadratic:
    """The quadratic  a*t^2 + b*t + c = 0  normalised to b = 1:
    a = sum(rho_i^-2) (length^-2), c = (sum(rho_i^2) - 4L^2) / 4 (length^2).

    Its discriminant is the dimensionless 1 - feasibility_product, with zero
    band ``eps_geom``, so DK and the jointspace test share one formula."""

    a: float
    b: float
    c: float

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c


class DkSolution(NamedTuple):
    """One direct solution.  ``posture`` is None for the flat configuration."""

    p: CartesianPoint
    posture: int | None
    t_value: float


def _require_nonzero(rho: JointVector) -> None:
    for axis, ri in zip(AXES, rho):
        if ri == 0.0:
            raise ZeroJoint(axis, f"rho_{axis} = 0; equidistant line undefined")


def dk_coefficients(rho: JointVector, params: ManipulatorParams) -> DkQuadratic:
    """Normalised quadratic coefficients for the given joint vector.

    Raises ZeroJoint for the first axis at which ``4 * a * L^2`` stops being
    finite: a zero or NaN joint, or one so small next to L that the
    discriminant would overflow.
    """
    L2 = params.L * params.L
    a = 0.0
    for axis, ri in zip(AXES, rho):
        sq = ri * ri
        a += 1.0 / sq if sq else math.inf
        # 4aL^2 bounds -4ac, so while it is finite the discriminant is too.
        if not 4.0 * a * L2 < math.inf:
            raise ZeroJoint(axis, f"rho_{axis} = {ri!r} is zero, NaN or too small "
                            "next to L; equidistant line undefined")
    c = (rho.x * rho.x + rho.y * rho.y + rho.z * rho.z - 4.0 * L2) / 4.0
    # a * sum(rho_i^2) >= 9, so a underflows to 0 only where c is +inf; a
    # positive a keeps 4ac at +inf there (no solution) instead of NaN.
    return DkQuadratic(max(a, math.ulp(0.0)), 1.0, c)


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
    solution (t = -b/2a, posture None).  Joint limits are deliberately not
    applied here; feasibility policy belongs to the jointspace layer, and
    callers wanting the flag can check ``joint_limits_ok(rho)`` themselves.
    """
    q = dk_coefficients(rho, params)
    disc = q.discriminant
    if disc > params.eps_geom:
        # b > 0, so -(b + sqrt(disc))/2 has no cancellation; the other root
        # comes from the product c/a.
        u = -(q.b + math.sqrt(disc)) / 2.0
        t_minus, t_plus = u / q.a, q.c / u
        return [
            DkSolution(p=equidistant_point(rho, t_minus), posture=-1, t_value=t_minus),
            DkSolution(p=equidistant_point(rho, t_plus), posture=1, t_value=t_plus),
        ]
    if disc >= -params.eps_geom:
        t0 = -q.b / (2.0 * q.a)
        return [DkSolution(p=equidistant_point(rho, t0), posture=None, t_value=t0)]
    return []


def equidistant_point(rho: JointVector, t: float) -> CartesianPoint:
    """Point on the equidistant line at parameter t (length^2).

    Every returned point is equidistant from the three joint centres,
    whatever t is.
    """
    _require_nonzero(rho)
    return CartesianPoint(
        rho.x / 2.0 + t / rho.x,
        rho.y / 2.0 + t / rho.y,
        rho.z / 2.0 + t / rho.z,
    )


def plane_eval(p: CartesianPoint, rho: JointVector) -> float:
    """Signed evaluation of the joint-centre plane:
    ``p_x/rho_x + p_y/rho_y + p_z/rho_z - 1``; zero iff p lies on it."""
    _require_nonzero(rho)
    return p.x / rho.x + p.y / rho.y + p.z / rho.z - 1.0


def posture_of(p: CartesianPoint, rho: JointVector, params: ManipulatorParams) -> int:
    """Posture index of a known-consistent pair: the side of the
    joint-centre plane the TCP lies on.

    Raises FlatConfiguration when the TCP is within ``eps_branch``
    (Euclidean distance) of the plane.
    """
    # |plane_eval| / sqrt(a) is the Euclidean distance from p to the plane.
    grad = math.sqrt(dk_coefficients(rho, params).a)
    pe = plane_eval(p, rho)
    if not abs(pe) > params.eps_branch * grad:
        raise FlatConfiguration(
            f"TCP within {params.eps_branch:.3e} of the joint-centre plane; "
            "posture indeterminate"
        )
    return 1 if pe > 0 else -1
