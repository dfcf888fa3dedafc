"""Analytic kinematics and workspace analysis for the Orthoglide, a 3-DOF
translational parallel manipulator with orthogonal prismatic drives.

Highlights: branch-resolved inverse kinematics, posture-resolved direct
kinematics, workspace region classification with exact solution counts,
closed-form and Monte-Carlo volumes, and jointspace feasibility boundaries.
"""

from types import ModuleType as _ModuleType

from .core import (
    AXES,
    BRANCH_ORDER,
    PPP,
    AxisFlags,
    Branch,
    CartesianPoint,
    DirectionOnOctantBorder,
    FlatConfiguration,
    JointVector,
    KinematicsError,
    LegAngles,
    ManipulatorParams,
    ModelInconsistency,
    NoDkSolution,
    RadicandNegative,
    SerialSingularity,
    VolumeOutOfRange,
    ZeroJoint,
    is_consistent,
    joint_limits_ok,
    leg_angles,
    leg_residuals,
)
from .direct import (
    DkQuadratic,
    DkSolution,
    dk_both,
    dk_coefficients,
    dk_solve,
    equidistant_point,
    plane_eval,
    posture_of,
)
from .inverse import (
    IkSolution,
    branch_of,
    ik_branch,
    ik_enumerate_feasible,
    is_serial_singular,
)
from .jointspace import (
    SphericalDirection,
    boundary_joint_vector,
    boundary_radius,
    boundary_rho_x,
    boundary_vs_sphere_gap,
    dk_feasible,
    feasibility_product,
)
from .workspace import (
    BisectorLandmarks,
    MonteCarloVolumeReport,
    VolumeEstimate,
    VolumeReport,
    WorkspaceRegion,
    bisector_landmarks,
    classify_point,
    in_cylinder_intersection,
    monte_carlo_volumes,
    workspace_volumes,
)

__version__ = "0.1.0"  # the one source: pyproject.toml reads it

#: Every public name imported above, and the version; the submodules are left out.
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + ["__version__"]
