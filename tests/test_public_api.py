"""The package's public names, pinned.

``orthoglide.__all__`` is derived from the names ``__init__`` imports, so
this list is the one place that states them.  A name added or removed here
is a change to the public API and goes into CHANGES.md.
"""

import importlib
from types import ModuleType

import orthoglide

PUBLIC = [
    "AXES", "AxisFlags", "BRANCH_ORDER", "BisectorLandmarks", "Branch", "CartesianPoint",
    "DirectionOnOctantBorder", "DkQuadratic", "DkSolution", "FlatConfiguration", "IkSolution",
    "JointVector", "KinematicsError", "LegAngles", "ManipulatorParams", "ModelInconsistency",
    "MonteCarloVolumeReport", "NoDkSolution", "PPP", "RadicandNegative", "SerialSingularity",
    "SphericalDirection", "VolumeEstimate", "VolumeOutOfRange", "VolumeReport",
    "WorkspaceRegion", "ZeroJoint", "__version__", "bisector_landmarks",
    "boundary_joint_vector", "boundary_radius", "boundary_rho_x", "boundary_vs_sphere_gap",
    "branch_of", "classify_point", "dk_both", "dk_coefficients", "dk_feasible", "dk_solve",
    "equidistant_point", "feasibility_product", "ik_branch", "ik_enumerate_feasible",
    "in_cylinder_intersection", "is_consistent", "is_serial_singular", "joint_limits_ok",
    "leg_angles", "leg_residuals", "monte_carlo_volumes", "plane_eval", "posture_of",
    "workspace_volumes",
]


def _assert_exports_are_pinned():
    assert sorted(orthoglide.__all__) == PUBLIC
    namespace = {}
    exec("from orthoglide import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(orthoglide.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert namespace["__version__"] == orthoglide.__version__


def test_public_names_are_pinned():
    """``__all__`` is the pinned list, and ``import *`` gives exactly it: no
    submodule, ``__version__`` included.  Importing ``orthoglide.cli``, which
    binds ``cli`` on the package, changes neither."""
    assert PUBLIC == sorted(set(PUBLIC)) and len(PUBLIC) == 53
    _assert_exports_are_pinned()
    importlib.import_module("orthoglide.cli")
    assert isinstance(orthoglide.cli, ModuleType)
    _assert_exports_are_pinned()
