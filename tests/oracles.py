"""Independent cross-check helpers for the test suite.

These deliberately avoid the library's own solution paths: roots come from
bisection or brute-force scanning, never from closed-form formulas, so they
can vouch for the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from orthoglide import (
    CartesianPoint,
    JointVector,
    ManipulatorParams,
    WorkspaceRegion,
    classify_point,
    dk_feasible,
)


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0.0, (lo, hi, flo, fhi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def bisect_quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Both real roots of a*t^2 + b*t + c (a > 0, two distinct roots assumed),
    found by bisection either side of the vertex."""
    assert a > 0.0
    vertex = -b / (2.0 * a)
    f = lambda t: (a * t + b) * t + c
    assert f(vertex) < 0.0, "no two distinct real roots"
    span = 1.0
    while f(vertex - span) <= 0.0 or f(vertex + span) <= 0.0:
        span *= 2.0
    return (bisect_root(f, vertex - span, vertex), bisect_root(f, vertex, vertex + span))


def scan_leg_roots(
    p: CartesianPoint, axis: int, L: float, lo: float = -3.0, hi: float = 3.0, n: int = 6000
) -> list[float]:
    """All values of one joint variable satisfying its leg constraint,
    located by sign-change scanning of the residual (no square roots)."""
    others = [p[k] ** 2 for k in range(3) if k != axis]

    def f(r: float) -> float:
        return (p[axis] - r) ** 2 + sum(others) - L * L

    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    roots = []
    for x0, x1 in zip(xs, xs[1:]):
        if f(x0) == 0.0:
            roots.append(x0)
        elif f(x0) * f(x1) < 0.0:
            roots.append(bisect_root(f, x0, x1))
    return roots


def sample_workspace_points(
    rng: np.random.Generator, params: ManipulatorParams, n: int
) -> list[CartesianPoint]:
    """Rejection-sample points classified strictly inside the workspace."""
    wanted = {WorkspaceRegion.SPHERE_INTERIOR, WorkspaceRegion.SHELL}
    out: list[CartesianPoint] = []
    L = params.L
    while len(out) < n:
        for row in rng.uniform(-L, L, size=(4 * n, 3)):
            p = CartesianPoint(*row)
            if classify_point(p, params) in wanted:
                out.append(p)
                if len(out) == n:
                    break
    return out


def sample_feasible_joints(
    rng: np.random.Generator, params: ManipulatorParams, n: int
) -> list[JointVector]:
    """Rejection-sample joint vectors strictly inside the feasible region."""
    out: list[JointVector] = []
    L = params.L
    while len(out) < n:
        for row in rng.uniform(1e-3 * L, 2.0 * L, size=(4 * n, 3)):
            rho = JointVector(*row)
            if dk_feasible(rho, params):
                out.append(rho)
                if len(out) == n:
                    break
    return out


def random_interior_directions(
    rng: np.random.Generator, n: int, margin: float = 1e-3
):
    """Random (phi, theta) pairs away from the octant borders."""
    half_pi = math.pi / 2.0
    phis = rng.uniform(margin, half_pi - margin, size=n)
    thetas = rng.uniform(margin, half_pi - margin, size=n)
    return list(zip(phis, thetas))


def early_return_region(x: float, y: float, z: float, L: float, band: float) -> WorkspaceRegion:
    """The region of a point with no NaN coordinate, ``band = eps_geom * L``,
    decided one test at a time with an early return, as the scalar classifier
    once did.  The package's one region formula must agree with it."""
    c_xy = math.hypot(x, y)
    c_xz = math.hypot(x, z)
    c_yz = math.hypot(y, z)
    out = L + band
    if c_xy > out or c_xz > out or c_yz > out:
        return WorkspaceRegion.OUTSIDE
    r = math.sqrt(x * x + y * y + z * z)
    if abs(r - L) <= band:
        return WorkspaceRegion.BOUNDARY_BAND
    if r < L:
        return WorkspaceRegion.SPHERE_INTERIOR
    if abs(c_xy - L) <= band or abs(c_xz - L) <= band or abs(c_yz - L) <= band:
        return WorkspaceRegion.BOUNDARY_BAND
    if abs(x) <= band or abs(y) <= band or abs(z) <= band:
        return WorkspaceRegion.BOUNDARY_BAND
    if x > 0 and y > 0 and z > 0:
        return WorkspaceRegion.SHELL
    return WorkspaceRegion.OUTSIDE
