"""Core geometric model of the Orthoglide translational parallel manipulator.

The mechanism has three actuated prismatic joints mounted along mutually
orthogonal axes, with the base frame at the intersection of those axes.
Each joint carriage is tied to the tool centre point (TCP) by a rigid bar
link of length ``L``, so the loop-closure constraints are

    (p_x - rho_x)^2 + p_y^2 + p_z^2 = L^2        (x leg)
    p_x^2 + (p_y - rho_y)^2 + p_z^2 = L^2        (y leg)
    p_x^2 + p_y^2 + (p_z - rho_z)^2 = L^2        (z leg)

where ``p`` is the TCP position and ``rho`` the joint displacements.  The
actuation range is ``0 < rho_i <= 2L`` (strict lower bound, closed upper
bound).  All quantities share one caller-chosen length unit; ``L`` is the
only scale parameter of the model.

This module holds the shared value types, the tolerance policy, and the raw
constraint predicates.  Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

AXES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------
class KinematicsError(Exception):
    """Base class for all kinematic-domain errors."""


class ModelInconsistency(KinematicsError):
    """A (point, joints) pair does not satisfy the bar-link constraints."""


class _AxisError(KinematicsError):
    def __init__(self, axis: str, message: str):
        super().__init__(message)
        self.axis = axis


class RadicandNegative(_AxisError):
    """The point lies outside the reachable cylinder for this axis: no
    inverse solution exists on any branch."""


class SerialSingularity(_AxisError):
    """Leg orthogonal to its prismatic axis (theta = 90 deg): the two
    inverse branches coincide and the branch sign is indeterminate."""


class ZeroJoint(_AxisError):
    """A joint the direct kinematics cannot divide by: zero, NaN, or one where
    4L^2 sum(rho_i^-2) is not finite.  In units of L that is below about
    1.5e-154 L in magnitude, but rho_i^2 and L^2 are formed in absolute units,
    so it is also raised with rho = L wherever one of them underflows or
    overflows: any joint below about 1e-154 or L above about 1.3e154 (e.g.
    L = rho_i = 1e-300 or 1e200; see ROADMAP item 1).  In equidistant_point
    and plane_eval, which take no L: subnormal, or a divisor that overflows."""


class NoDkSolution(KinematicsError):
    """Joint vector outside the region where direct kinematics has real
    solutions (negative discriminant)."""


class FlatConfiguration(KinematicsError):
    """TCP lies on the plane through the three joint centres; the posture
    sign is indeterminate."""


class DirectionOnOctantBorder(KinematicsError):
    """A spherical direction with a component that is NaN, not positive, or
    below 1.3e-154, where the boundary radius's sum of inverse squares overflows."""


class VolumeOutOfRange(KinematicsError, ValueError):
    """A volume ``coef * L**3`` that is not a finite normal float: ``L`` is
    too small or too large for the volume to be represented.  Also a
    ValueError, like the other out-of-range parameter errors."""


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------
class CartesianPoint(NamedTuple):
    """TCP position. Components are signed lengths and must be finite."""

    x: float
    y: float
    z: float


class JointVector(NamedTuple):
    """Prismatic joint displacements. Components are signed lengths."""

    x: float
    y: float
    z: float


class LegAngles(NamedTuple):
    """Angles in [0, pi] between each bar link and its prismatic axis."""

    x: float
    y: float
    z: float


class AxisFlags(NamedTuple):
    """Per-axis boolean flags."""

    x: bool
    y: bool
    z: bool

    def any(self) -> bool:
        return self.x or self.y or self.z

    def axes(self) -> tuple[str, ...]:
        return tuple(a for a, f in zip(AXES, self) if f)


class Branch(NamedTuple("Branch", [("sx", int), ("sy", int), ("sz", int)])):
    """Inverse-kinematics configuration indices (one sign per axis).

    ``+1`` selects the joint root above the TCP coordinate (leg angle in
    (90, 180] deg), ``-1`` the root below.  The label writes the signs as
    ``P``/``M`` in axis order, e.g. ``MPP`` for (-1, +1, +1).
    """

    __slots__ = ()

    def __new__(cls, sx: int, sy: int, sz: int):
        for axis, s in zip(AXES, (sx, sy, sz)):
            if s not in (-1, 1):
                raise ValueError(f"branch sign for axis {axis} must be -1 or +1, got {s!r}")
        return tuple.__new__(cls, (sx, sy, sz))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @property
    def signs(self) -> tuple[int, int, int]:
        return tuple(self)

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Branch":
        if len(label) != 3 or any(c not in "PM" for c in label.upper()):
            raise ValueError(f"branch label must be three of P/M, got {label!r}")
        return cls(*(1 if c == "P" else -1 for c in label.upper()))

    def __str__(self) -> str:
        return self.label


#: Each sign triple's label; a branch hashes and compares as its plain triple.
_LABELS = {s: "".join("P" if c > 0 else "M" for c in s)
           for s in itertools.product((-1, 1), repeat=3)}

PPP = Branch(1, 1, 1)

#: All eight branches in output order: PPP first, the rest by label.
BRANCH_ORDER: tuple[Branch, ...] = (PPP,) + tuple(sorted(
    (Branch(*s) for s in itertools.product((-1, 1), repeat=3) if s != (1, 1, 1)),
    key=lambda b: b.label))
#: The branches of BRANCH_ORDER, the very objects, by sign triple.
_BRANCHES: dict[tuple[int, int, int], Branch] = {b.signs: b for b in BRANCH_ORDER}


class ManipulatorParams(NamedTuple("ManipulatorParams",
                                   [("L", float), ("eps_geom", float), ("eps_branch", float)])):
    """Geometry parameter and tolerance policy.

    L:
        Bar-link length, strictly positive.  The single scale of the model.
    eps_geom:
        Dimensionless relative tolerance for constraint residuals.  Also
        scales the square-root clamping band (``eps_geom * L**2``), the
        discriminant zero band, and the workspace boundary band
        (``eps_geom * L``).
    eps_branch:
        Absolute length below which a branch/posture sign is declared
        indeterminate.  Defaults to ``1e-9 * L``.
    """

    __slots__ = ()

    def __new__(cls, L: float, eps_geom: float = 1e-9, eps_branch: float | None = None):
        if not (math.isfinite(L) and L > 0):
            raise ValueError(f"L must be finite and positive, got {L!r}")
        if not 0 < eps_geom < 1e-3:
            raise ValueError(f"eps_geom must be in (0, 1e-3), got {eps_geom!r}")
        if eps_branch is None:
            eps_branch = 1e-9 * L
            if eps_branch == 0.0:
                raise ValueError(f"L = {L!r} is too small: the default eps_branch, "
                                 "1e-9 * L, underflows to 0")
        if not 0 < eps_branch < L * 1e-3:
            raise ValueError(f"eps_branch must be in (0, L*1e-3), got {eps_branch!r}")
        return tuple.__new__(cls, (L, eps_geom, eps_branch))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


# ---------------------------------------------------------------------------
# Constraint predicates
# ---------------------------------------------------------------------------
def leg_residuals(
    p: CartesianPoint, rho: JointVector, params: ManipulatorParams
) -> tuple[float, float, float]:
    """Signed relative constraint residuals, one per leg.

    Residual i is ``(|leg_i|^2 - L^2) / L^2`` where leg x runs from the
    joint centre (rho_x, 0, 0) to the TCP, and cyclically for y and z.
    A pair is model-consistent iff ``max(abs(r)) <= eps_geom``.
    """
    L = params.L
    L2 = L * L
    rx = ((p.x - rho.x) ** 2 + p.y * p.y + p.z * p.z - L2) / L2
    ry = (p.x * p.x + (p.y - rho.y) ** 2 + p.z * p.z - L2) / L2
    rz = (p.x * p.x + p.y * p.y + (p.z - rho.z) ** 2 - L2) / L2
    return (rx, ry, rz)


def is_consistent(p: CartesianPoint, rho: JointVector, params: ManipulatorParams) -> bool:
    """True iff all three leg residuals are within ``eps_geom``."""
    return max(abs(r) for r in leg_residuals(p, rho, params)) <= params.eps_geom


def joint_limits_ok(rho: JointVector, params: ManipulatorParams) -> bool:
    """Exact actuation-range check ``0 < rho_i <= 2L``, no tolerance slack; a
    bool for floats, or one per column for the rows of a 3 x n array.

    The lower bound is strict and the upper closed; the workspace set
    algebra depends on exactly these open/closed choices, so any safety
    margin is the caller's business.
    """
    hi, (x, y, z) = 2.0 * params.L, rho
    return (0.0 < x) & (x <= hi) & (0.0 < y) & (y <= hi) & (0.0 < z) & (z <= hi)


def leg_angles(p: CartesianPoint, rho: JointVector, params: ManipulatorParams) -> LegAngles:
    """Angles between each bar link and its prismatic axis.

    ``theta_i = arccos((p_i - rho_i) / L)``, in [0, pi].  Branch sign +1
    corresponds to theta in (pi/2, pi].  Requires a model-consistent pair;
    arccos arguments within ``eps_geom`` of +/-1 are clamped (legs of
    floating-point length exactly L would otherwise produce NaN).
    """
    if not is_consistent(p, rho, params):
        worst = max(abs(r) for r in leg_residuals(p, rho, params))
        raise ModelInconsistency(
            f"(p, rho) violates the bar-link constraints: max |residual| = {worst:.3e} "
            f"> eps_geom = {params.eps_geom:.3e}"
        )
    angles = []
    for axis, pi_, ri in zip(AXES, p, rho):
        c = (pi_ - ri) / params.L
        if abs(c) > 1.0:
            if abs(c) - 1.0 > params.eps_geom:
                raise ModelInconsistency(
                    f"cos(theta_{axis}) = {c!r} outside [-1, 1] beyond tolerance"
                )
            c = math.copysign(1.0, c)
        angles.append(math.acos(c))
    return LegAngles(*angles)
