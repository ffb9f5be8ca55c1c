"""Planar photogravitational restricted three-body problem with
Poynting-Robertson drag and an oblate secondary."""

from .errors import (ConfigError, ConvergenceError, DegenerateFormulaError,
                     SingularityError, SingularJacobianError)
from .model import (COLLISION_GUARD, ESCAPE_RADIUS, AccelVector,
                    GrainProperties, PhaseState, SystemParams,
                    amended_potential, conservative_gradient,
                    drag_acceleration, drag_coefficient, equations_of_motion,
                    jacobi_constant, jacobi_drift_rate,
                    mass_reduction_from_grain, mean_motion,
                    oblateness_from_radii)
from .equilibria import (BRANCHES, EquilibriumPoint, PerturbationTerms,
                         SweepRow, analytic_epsilons,
                         analytic_triangular_point, equilibrium_residual,
                         follow_branch, limiting_case_point,
                         refine_equilibrium)
from .dynamics import Trajectory, integrate, jacobi_audit
from .zvc import ZeroVelocityCurve, zero_velocity_curve

__version__ = "0.1.0"

__all__ = [
    "AccelVector",
    "BRANCHES",
    "COLLISION_GUARD",
    "ConfigError",
    "ConvergenceError",
    "DegenerateFormulaError",
    "ESCAPE_RADIUS",
    "EquilibriumPoint",
    "GrainProperties",
    "PerturbationTerms",
    "PhaseState",
    "SingularJacobianError",
    "SingularityError",
    "SweepRow",
    "SystemParams",
    "Trajectory",
    "ZeroVelocityCurve",
    "amended_potential",
    "analytic_epsilons",
    "analytic_triangular_point",
    "conservative_gradient",
    "drag_acceleration",
    "drag_coefficient",
    "equations_of_motion",
    "equilibrium_residual",
    "follow_branch",
    "integrate",
    "jacobi_audit",
    "jacobi_constant",
    "jacobi_drift_rate",
    "limiting_case_point",
    "mass_reduction_from_grain",
    "mean_motion",
    "oblateness_from_radii",
    "refine_equilibrium",
    "zero_velocity_curve",
]
