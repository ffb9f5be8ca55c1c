"""Exception types shared across the package."""

from __future__ import annotations


class SingularityError(ValueError):
    """An evaluation came closer to a primary than the collision guard allows."""


class DegenerateFormulaError(ValueError):
    """A closed-form expression is undefined for the given parameters.

    Raised by the analytic triangular-point formula when the base abscissa
    vanishes. Callers should fall back to the numeric refinement path.
    """


class ConvergenceError(RuntimeError):
    """The iterative refinement failed to reach the requested tolerance.

    Attributes
    ----------
    x, y : float
        Last iterate reached before giving up.
    residual_norm : float
        Residual norm at the last iterate.
    iterations : int
        Number of Newton iterations performed.
    """

    def __init__(self, message: str, x: float, y: float,
                 residual_norm: float, iterations: int):
        super().__init__(message)
        self.x = x
        self.y = y
        self.residual_norm = residual_norm
        self.iterations = iterations


class SingularJacobianError(ConvergenceError):
    """The Jacobian of the rest-state residual is singular to working
    precision."""


class ConfigError(ValueError):
    """A job configuration failed validation; the message names the field."""
