"""Closed-form inverse kinematics, branch enumeration, singularity flags.

Each axis decouples: the x-leg constraint solved for rho_x gives

    rho_x = p_x + s_x * sqrt(L^2 - p_y^2 - p_z^2),   s_x in {-1, +1}

and cyclically for y and z, so there are eight algebraic branches named by
the sign triple (PPP ... MMM).  A branch is feasible when all three joint
values satisfy the actuation range.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    AXES,
    BRANCH_ORDER,
    _BRANCHES,
    AxisFlags,
    Branch,
    CartesianPoint,
    JointVector,
    ManipulatorParams,
    RadicandNegative,
    SerialSingularity,
)


class IkSolution(NamedTuple):
    """One inverse-kinematics solution: joint vector plus its branch."""

    rho: JointVector
    branch: Branch


#: BRANCH_ORDER's branches, each after its signs as plain ints, which read faster.
_SIGNED_ORDER = tuple((*b, b) for b in BRANCH_ORDER)


def _radicands(p, L: float) -> tuple:
    """Per axis, L^2 minus the other two squares; floats or arrays alike."""
    x, y, z = p
    L2 = L * L
    return L2 - y * y - z * z, L2 - x * x - z * z, L2 - x * x - y * y


def _real(p: CartesianPoint, rads: tuple[float, float, float]) -> tuple[float, float, float]:
    """``rads``, the radicands of ``p``.  Raises RadicandNegative for the
    first NaN one: a NaN point has no branch, flag or region."""
    # No radicand can be -inf while another is +inf, so only a NaN one makes the sum NaN.
    if math.isnan(rads[0] + rads[1] + rads[2]):
        axis = AXES[[math.isnan(rad) for rad in rads].index(True)]
        raise RadicandNegative(axis, f"axis {axis}: radicand is NaN; point {tuple(p)}")
    return rads


def _chords(p: CartesianPoint, rads: tuple, tol: float) -> tuple[float, float, float]:
    """sqrt of each radicand of ``p``, clamped to 0 within ``tol``.  Raises RadicandNegative
    for the first NaN one, else for the first below ``-tol`` (outside reach)."""
    rx, ry, rz = rads
    if not (rx >= -tol and ry >= -tol and rz >= -tol):
        axis, rad = next((a, r) for a, r in zip(AXES, _real(p, rads)) if r < -tol)
        raise RadicandNegative(axis, f"axis {axis}: radicand {rad:.6e} < 0; point outside reach")
    return (math.sqrt(rx) if rx > 0.0 else 0.0, math.sqrt(ry) if ry > 0.0 else 0.0,
            math.sqrt(rz) if rz > 0.0 else 0.0)


def _singular_axes(rads: tuple[float, float, float], tol: float) -> AxisFlags:
    """Per axis, whether the radicand is within ``tol`` of zero; floats or arrays alike."""
    return AxisFlags(abs(rads[0]) <= tol, abs(rads[1]) <= tol, abs(rads[2]) <= tol)


def _branch_joints(p: CartesianPoint, chords: tuple[float, ...], branch: Branch) -> JointVector:
    """``branch``'s joints from the half-chords; floats or arrays alike."""
    hx, hy, hz = chords
    return JointVector(p.x + branch.sx * hx, p.y + branch.sy * hy, p.z + branch.sz * hz)


def ik_branch(p: CartesianPoint, branch: Branch, params: ManipulatorParams) -> IkSolution:
    """Joint vector for one branch.  Does not apply joint limits.

    Radicands within tolerance of zero are clamped to zero (the two
    branches coincide there; the singular surface is still a valid
    workspace boundary point).
    """
    L = params.L
    chords = _chords(p, _radicands(p, L), params.eps_geom * L * L)
    return IkSolution(_branch_joints(p, chords, branch), branch)


def ik_enumerate_feasible(p: CartesianPoint, params: ManipulatorParams) -> list[IkSolution]:
    """All branches whose joint vector satisfies the actuation range.

    Returns PPP first, then the remaining branches in label order.  For
    points strictly inside the open regions the count is exactly 0, 1, or
    8; points within a boundary band can return other counts (the
    workspace classifier is the authority on which case applies).
    """
    L = params.L
    try:
        hx, hy, hz = _chords(p, _radicands(p, L), params.eps_geom * L * L)
    except RadicandNegative:
        return []
    hi, (x, y, z) = 2.0 * L, p
    # Per axis, each sign's joint value; a branch is feasible where its three are in range.
    jx, jy, jz = {-1: x - hx, 1: x + hx}, {-1: y - hy, 1: y + hy}, {-1: z - hz, 1: z + hz}
    return [IkSolution(JointVector(rx, ry, rz), b) for sx, sy, sz, b in _SIGNED_ORDER
            if 0.0 < (rx := jx[sx]) <= hi and 0.0 < (ry := jy[sy]) <= hi
            and 0.0 < (rz := jz[sz]) <= hi]


def branch_of(p: CartesianPoint, rho: JointVector, params: ManipulatorParams) -> Branch:
    """Configuration indices of a known-consistent pair: sign(rho_i - p_i).

    Raises SerialSingularity instead of inventing a sign when any
    difference is within ``eps_branch`` of zero; silently picking a side
    there is exactly the branch-switching hazard this index exists to
    prevent.  Returns the branch object of BRANCH_ORDER.
    """
    eps = params.eps_branch
    d = (rho[0] - p[0], rho[1] - p[1], rho[2] - p[2])
    if abs(d[0]) <= eps or abs(d[1]) <= eps or abs(d[2]) <= eps:
        axis, di = next((a, di) for a, di in zip(AXES, d) if abs(di) <= eps)
        raise SerialSingularity(
            axis, f"axis {axis}: |rho - p| = {abs(di):.3e} <= eps_branch; "
            "branch sign indeterminate (theta = 90 deg)"
        )
    return _BRANCHES[(1 if d[0] > 0 else -1, 1 if d[1] > 0 else -1, 1 if d[2] > 0 else -1)]


def is_serial_singular(p: CartesianPoint, params: ManipulatorParams) -> AxisFlags:
    """Per-axis flags: radicand within ``eps_geom * L^2`` of zero.

    A flagged axis means the two inverse branches coincide there
    (rho_i = p_i), i.e. the leg is orthogonal to its prismatic axis.
    Raises RadicandNegative for a point with a NaN coordinate.
    """
    L = params.L
    return _singular_axes(_real(p, _radicands(p, L)), params.eps_geom * L * L)
