"""The benchmark's own expectations, written from the model equations.

Nothing here imports the package.  Each function restates one property of the
Orthoglide model (bar-link constraints, actuation range, region definitions,
the jointspace product, closed-form volumes) so that the benchmark can judge
the package's outputs without trusting them.
"""

from __future__ import annotations

import math

#: (label, signs) for all eight inverse branches.
BRANCHES = tuple(
    ("".join("P" if s > 0 else "M" for s in signs), signs)
    for signs in ((sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1))
)

#: Feasible inverse-solution count per region, outside the boundary band.
REGION_COUNT = {"sphere_interior": 1, "shell": 8, "outside": 0}


def radicands(p, L):
    x, y, z = p
    L2 = L * L
    return (L2 - y * y - z * z, L2 - x * x - z * z, L2 - x * x - y * y)


def limits_ok(rho, L):
    return all(0.0 < r <= 2.0 * L for r in rho)


def branch_rho(p, signs, L, eps_geom):
    """Joint vector of one branch, or None when a radicand is negative beyond
    the ``eps_geom * L**2`` clamping band."""
    tol = eps_geom * L * L
    rads = radicands(p, L)
    if min(rads) < -tol:
        return None
    return tuple(pi + s * math.sqrt(max(r, 0.0)) for pi, s, r in zip(p, signs, rads))


def feasible_labels(p, L, eps_geom):
    """Labels of the branches whose joint vector respects the actuation range."""
    out = []
    for label, signs in BRANCHES:
        rho = branch_rho(p, signs, L, eps_geom)
        if rho is not None and limits_ok(rho, L):
            out.append(label)
    return sorted(out)


def region(p, L, eps_geom):
    """Region name of ``p``, or None inside the ``eps_geom * L`` boundary band,
    where the solution count is indeterminate."""
    x, y, z = p
    band = eps_geom * L
    pair = (math.hypot(x, y), math.hypot(x, z), math.hypot(y, z))
    if max(pair) > L + band:
        return "outside"
    r = math.sqrt(x * x + y * y + z * z)
    if abs(r - L) <= band:
        return None
    if r < L:
        return "sphere_interior"
    if min(abs(c - L) for c in pair) <= band or min(abs(x), abs(y), abs(z)) <= band:
        return None
    return "shell" if min(p) > 0.0 else "outside"


def residual(p, rho, L):
    """Largest relative bar-link residual ``(|leg|^2 - L^2) / L^2`` in magnitude."""
    L2 = L * L
    legs = (
        (p[0] - rho[0]) ** 2 + p[1] ** 2 + p[2] ** 2,
        p[0] ** 2 + (p[1] - rho[1]) ** 2 + p[2] ** 2,
        p[0] ** 2 + p[1] ** 2 + (p[2] - rho[2]) ** 2,
    )
    return max(abs(s - L2) / L2 for s in legs)


def product(rho, L):
    """Jointspace membership product; direct solutions exist iff it is <= 1."""
    return (sum(r * r for r in rho) - 4.0 * L * L) * sum(1.0 / (r * r) for r in rho)


def plane_side(p, rho):
    """Side of the joint-centre plane the TCP lies on: +1, -1 or 0."""
    v = sum(pi / ri for pi, ri in zip(p, rho)) - 1.0
    return (v > 0.0) - (v < 0.0)


def flat_band_miss(rho, eps_geom):
    """Largest coordinate distance between the merged flat root and either true
    root when the direct-kinematics discriminant lies in its zero band.

    On the equidistant line ``p_i = rho_i / 2 + t / rho_i`` the roots of
    ``a t^2 + b t + c`` sit ``sqrt(disc) / 2a`` from the merged root; a band of
    ``eps_geom * b^2`` allows up to ``sqrt(eps_geom) * b / 2a`` in t.
    """
    x, y, z = rho
    a = (x * y) ** 2 + (x * z) ** 2 + (y * z) ** 2
    b = (x * y * z) ** 2
    return math.sqrt(eps_geom) * b / (2.0 * a) / min(abs(r) for r in rho)


def max_diff(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def closed_form_volumes(L):
    s2 = math.sqrt(2.0)
    L3 = L**3
    return {
        "vol_C": 8.0 * (2.0 - s2) * L3,
        "vol_S": 4.0 * math.pi / 3.0 * L3,
        "vol_G": (2.0 - s2 - math.pi / 6.0) * L3,
        "vol_W": (2.0 + 7.0 * math.pi / 6.0 - s2) * L3,
    }
