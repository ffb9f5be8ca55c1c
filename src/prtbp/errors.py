"""Exception types shared across the package."""

from __future__ import annotations


class SingularityError(ValueError):
    """An evaluation came closer to a primary than the collision guard allows."""


class DegenerateFormulaError(ValueError):
    """A closed-form expression is undefined for the given parameters.

    Raised when the base abscissa of the analytic or drag-only form
    vanishes, when a closed-form point falls on the other side of y = 0
    than its branch, or when the parameters do not meet a limiting case's
    conditions. Callers should fall back to the numeric refinement path.
    """


class ConvergenceError(RuntimeError):
    """The Newton refinement failed its one stopping rule: a residual
    norm below 1e-12 within 50 iterations, on its side of y = 0.

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
