"""The timed part of the ``survey`` workload: library calls only.

Kept apart from the generators and checks so that the set-up probe imports
nothing but this file and the package.  Functions are looked up on the
package at call time, so the traced run sees the wrappers it installs.
"""


def run_batch(og, params, points, joints, directions):
    """Run one batch and return plain tuples for the checks to inspect.

    points:     classify_point -> ik_enumerate_feasible -> dk_both on each
                solution -> branch_of and ik_branch on each direct solution.
    joints:     dk_feasible -> dk_both -> posture_of on each posed solution.
    directions: boundary_radius -> dk_both just inside and just outside.
    """
    point_out = []
    for p in points:
        p = og.CartesianPoint(*p)
        region = og.classify_point(p, params).value
        sols = []
        for sol in og.ik_enumerate_feasible(p, params):
            residuals = og.leg_residuals(p, sol.rho, params)
            mates = []
            for mate in og.dk_both(sol.rho, params):
                branch = og.branch_of(mate.p, sol.rho, params)
                back = og.ik_branch(mate.p, branch, params).rho
                mates.append((tuple(mate.p), mate.posture, branch.label, tuple(back)))
            sols.append((sol.branch.label, tuple(sol.rho), residuals, mates))
        point_out.append((region, sols))

    joint_out = []
    for rho in joints:
        rho = og.JointVector(*rho)
        feasible = og.dk_feasible(rho, params)
        sols = []
        for sol in og.dk_both(rho, params):
            side = og.posture_of(sol.p, rho, params) if sol.posture is not None else None
            sols.append((tuple(sol.p), sol.posture, side))
        joint_out.append((feasible, sols))

    direction_out = []
    for phi, theta in directions:
        d = og.SphericalDirection(phi, theta)
        t = og.boundary_radius(d, params)
        e = d.unit_vector()
        inner = og.dk_both(og.JointVector(*(0.999 * t * c for c in e)), params)
        outer = og.dk_both(og.JointVector(*(1.001 * t * c for c in e)), params)
        direction_out.append((t, [tuple(s.p) for s in inner], len(outer)))
    return point_out, joint_out, direction_out
