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
    AxisFlags,
    Branch,
    CartesianPoint,
    JointVector,
    ManipulatorParams,
    RadicandNegative,
    SerialSingularity,
    joint_limits_ok,
)


class IkSolution(NamedTuple):
    """One inverse-kinematics solution: joint vector plus its branch."""

    rho: JointVector
    branch: Branch


def _radicands(p: CartesianPoint, params: ManipulatorParams) -> tuple[float, float, float]:
    """Per axis, L^2 minus the other two squares.  Raises RadicandNegative
    for the first NaN one: a NaN point has no branch, flag or region."""
    L2 = params.L * params.L
    rads = (
        L2 - p.y * p.y - p.z * p.z,
        L2 - p.x * p.x - p.z * p.z,
        L2 - p.x * p.x - p.y * p.y,
    )
    # No radicand can be +inf, so only a NaN one makes the sum NaN.
    if math.isnan(rads[0] + rads[1] + rads[2]):
        axis = AXES[[math.isnan(rad) for rad in rads].index(True)]
        raise RadicandNegative(axis, f"axis {axis}: radicand is NaN; point {tuple(p)}")
    return rads


def _half_chords(p: CartesianPoint, params: ManipulatorParams) -> tuple[float, float, float]:
    """sqrt of each axis radicand, clamped to 0 within the tolerance band.

    Raises RadicandNegative for the first NaN radicand, else for the first
    below ``-eps_geom * L^2`` (outside reach, so no branch can solve it).
    """
    tol = params.eps_geom * params.L * params.L
    chords = []
    for axis, rad in zip(AXES, _radicands(p, params)):
        if rad < -tol:
            raise RadicandNegative(
                axis, f"axis {axis}: radicand {rad:.6e} < 0; point outside reach"
            )
        chords.append(math.sqrt(rad) if rad > 0.0 else 0.0)
    return tuple(chords)


def _branch_joints(
    p: CartesianPoint, chords: tuple[float, float, float], branch: Branch
) -> JointVector:
    hx, hy, hz = chords
    return JointVector(p.x + branch.sx * hx, p.y + branch.sy * hy, p.z + branch.sz * hz)


def ik_branch(p: CartesianPoint, branch: Branch, params: ManipulatorParams) -> IkSolution:
    """Joint vector for one branch.  Does not apply joint limits.

    Radicands within tolerance of zero are clamped to zero (the two
    branches coincide there; the singular surface is still a valid
    workspace boundary point).
    """
    return IkSolution(rho=_branch_joints(p, _half_chords(p, params), branch), branch=branch)


def ik_enumerate_feasible(p: CartesianPoint, params: ManipulatorParams) -> list[IkSolution]:
    """All branches whose joint vector satisfies the actuation range.

    Returns PPP first, then the remaining branches in label order.  For
    points strictly inside the open regions the count is exactly 0, 1, or
    8; points within a boundary band can return other counts (the
    workspace classifier is the authority on which case applies).
    """
    try:
        chords = _half_chords(p, params)
    except RadicandNegative:
        return []
    out = []
    for branch in BRANCH_ORDER:
        rho = _branch_joints(p, chords, branch)
        if joint_limits_ok(rho, params):
            out.append(IkSolution(rho=rho, branch=branch))
    return out


def branch_of(p: CartesianPoint, rho: JointVector, params: ManipulatorParams) -> Branch:
    """Configuration indices of a known-consistent pair: sign(rho_i - p_i).

    Raises SerialSingularity instead of inventing a sign when any
    difference is within ``eps_branch`` of zero; silently picking a side
    there is exactly the branch-switching hazard this index exists to
    prevent.
    """
    signs = []
    for axis, pi_, ri in zip(AXES, p, rho):
        d = ri - pi_
        if abs(d) <= params.eps_branch:
            raise SerialSingularity(
                axis, f"axis {axis}: |rho - p| = {abs(d):.3e} <= eps_branch; "
                "branch sign indeterminate (theta = 90 deg)"
            )
        signs.append(1 if d > 0 else -1)
    return Branch(*signs)


def is_serial_singular(p: CartesianPoint, params: ManipulatorParams) -> AxisFlags:
    """Per-axis flags: radicand within ``eps_geom * L^2`` of zero.

    A flagged axis means the two inverse branches coincide there
    (rho_i = p_i), i.e. the leg is orthogonal to its prismatic axis.
    Raises RadicandNegative for a point with a NaN coordinate.
    """
    tol = params.eps_geom * params.L * params.L
    return AxisFlags(*(abs(rad) <= tol for rad in _radicands(p, params)))
