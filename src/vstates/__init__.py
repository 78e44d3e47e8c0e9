"""Doubly connected rotating vortex patches of the planar Euler equations.

Computes m-fold symmetric V-states bifurcating from the annular patch
b < |z| < 1: predicted bifurcation angular velocities from the
dispersion relation, nonlinear states by a Fourier-Newton method with
trapezoidal contour quadrature, and branch continuation in the angular
velocity.
"""

from .continuation import (
    Branch,
    BranchRecord,
    EmptyBranch,
    minimum_distance,
    sweep,
)
from .contour import (
    InvalidContour,
    SampledContour,
    VortexContourCoeffs,
    boundary_distance,
    perturbed_annulus,
    sample,
)
from .dispersion import (
    DispersionPoint,
    critical_radius,
    delta,
    double_eigenvalue_locus,
    double_eigenvalue_radius,
    eigenvalues_for_fold,
    feasibility,
    frequency_matrix,
    kernel_vector,
)
from .residual import DiscreteResidual, assemble, jacobian
from .solver import (
    GeometryBreakdown,
    SingularJacobian,
    SolveReport,
    SolverConfig,
    default_modes,
    fd_jacobian,
    newton_solve,
)
from .state_io import (
    BranchFile,
    StateFile,
    load_branch,
    load_state,
    save_branch,
    save_state,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchFile",
    "BranchRecord",
    "DiscreteResidual",
    "DispersionPoint",
    "EmptyBranch",
    "GeometryBreakdown",
    "InvalidContour",
    "SampledContour",
    "SingularJacobian",
    "SolveReport",
    "SolverConfig",
    "StateFile",
    "VortexContourCoeffs",
    "assemble",
    "boundary_distance",
    "critical_radius",
    "default_modes",
    "delta",
    "double_eigenvalue_locus",
    "double_eigenvalue_radius",
    "eigenvalues_for_fold",
    "fd_jacobian",
    "feasibility",
    "frequency_matrix",
    "jacobian",
    "kernel_vector",
    "load_branch",
    "load_state",
    "minimum_distance",
    "newton_solve",
    "perturbed_annulus",
    "sample",
    "save_branch",
    "save_state",
    "sweep",
    "__version__",
]
