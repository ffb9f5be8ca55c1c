"""Planar photogravitational restricted three-body problem with
Poynting-Robertson drag and an oblate secondary.

The public names are imported from their modules on first access, so
importing the package, or one of its modules, loads nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name under the module that defines it
_PUBLIC = {
    "errors": ("ConfigError", "ConvergenceError", "DegenerateFormulaError",
               "SingularityError", "SingularJacobianError"),
    "model": ("COLLISION_GUARD", "ESCAPE_RADIUS", "AccelVector",
              "GrainProperties", "PhaseState", "SystemParams",
              "amended_potential", "conservative_gradient",
              "drag_acceleration", "drag_coefficient", "equations_of_motion",
              "jacobi_constant", "jacobi_drift_rate",
              "mass_reduction_from_grain", "mean_motion",
              "oblateness_from_radii"),
    "equilibria": ("BRANCHES", "EquilibriumPoint", "PerturbationTerms",
                   "SweepRow", "analytic_epsilons",
                   "analytic_triangular_point", "equilibrium_residual",
                   "follow_branch", "limiting_case_point",
                   "refine_equilibrium", "triangular_points"),
    "dynamics": ("Trajectory", "integrate", "jacobi_audit"),
    "zvc": ("ZeroVelocityCurve", "zero_velocity_curve"),
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names}
# the modules, which resolve as attributes on first access as well
_MODULES = (*_PUBLIC, "dop853")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
