"""Triangular equilibrium points of the drag-perturbed rotating frame.

With radiation pressure alone the triangular points sit at distances
r1 = delta = q1**(1/3) from the radiating primary and r2 = 1 from the
oblate one. Drag and oblateness shift them; this module provides the
first-order analytic shift, closed forms for the limiting cases, and a
damped Newton refinement that solves the rest-state equations exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

from .errors import (ConvergenceError, DegenerateFormulaError,
                     SingularityError, SingularJacobianError)
from .model import (COLLISION_GUARD, SystemParams, _accelerations,
                    _check_guard)

Branch = Literal["L4", "L5"]
BRANCHES: tuple[Branch, Branch] = ("L4", "L5")

METHOD_ANALYTIC = "analytic-first-order"
METHOD_BASE = "photogravitational-base"
METHOD_REFINED = "refined-numeric"

CASES = ("oblate-only", "drag-only", "classical")

#: Warn when a first-order correction exceeds this fraction.
EPS_VALIDITY = 0.1

#: Below this the base abscissa counts as degenerate for the analytic form.
_DEGENERATE_X0 = 1e-9

_SQRT_EPS = math.sqrt(2.220446049250313e-16)
_MAX_NEWTON_STEP = 0.25
_MAX_HALVINGS = 20


def _branch_sign(branch: Branch) -> float:
    if branch == "L4":
        return 1.0
    if branch == "L5":
        return -1.0
    raise ValueError(f"branch must be 'L4' or 'L5', got {branch!r}")


@dataclass(frozen=True)
class PerturbationTerms:
    """First-order perturbation data for one triangular point.

    ``(x0, y0)`` is the drag-free, oblateness-free base point and
    ``eps1``/``eps2`` are the fractional shifts of the distances to the
    radiating and the oblate primary. Construction warns when either
    shift exceeds the smallness the first-order theory assumes.
    """

    eps1: float
    eps2: float
    x0: float
    y0: float

    def __post_init__(self):
        for name, eps in (("eps1", self.eps1), ("eps2", self.eps2)):
            if abs(eps) > EPS_VALIDITY:
                warnings.warn(
                    f"first-order shift {name}={eps:.3g} exceeds "
                    f"{EPS_VALIDITY}; the analytic point is outside its "
                    "validity regime", stacklevel=3)


@dataclass(frozen=True)
class EquilibriumPoint:
    """A located triangular equilibrium.

    ``method`` records how the coordinates were produced and
    ``residual_norm`` is the norm of the rest-state accelerations there.
    """

    x: float
    y: float
    label: Branch
    method: str
    residual_norm: float

    def __post_init__(self):
        if self.y == 0:
            raise ValueError("triangular points have y != 0")
        if (self.label == "L4") != (self.y > 0):
            raise ValueError(
                f"label {self.label} disagrees with sign of y={self.y}")


def _base_coords(p: SystemParams, branch: Branch) -> tuple[float, float]:
    # r1 = delta and r2 = 1 with unit primary separation pin the point:
    # x + mu = delta^2/2 and y^2 = delta^2 - delta^4/4
    d = p.delta
    x0 = d * d / 2.0 - p.mu
    y0 = _branch_sign(branch) * d * math.sqrt(1.0 - d * d / 4.0)
    return x0, y0


def analytic_epsilons(p: SystemParams, branch: Branch) -> PerturbationTerms:
    """First-order fractional shifts of the equilibrium distances.

    eps1 shifts r1 = delta(1 + eps1), eps2 shifts r2 = 1 + eps2:

        eps2 =  n w1 (1 - 5 A2/2) / (3 mu y0)
        eps1 = -n w1 / (6 (1-mu) y0) - A2/2

    Both are odd in y0, so the drag contributions flip sign between the
    L4 and L5 branches. The returned base point (x0, y0), with r1 = delta
    and r2 = 1, solves the equilibrium equations exactly when both drag
    and oblateness vanish.
    """
    x0, y0 = _base_coords(p, branch)
    eps2 = p.n * p.w1 * (1.0 - 2.5 * p.a2) / (3.0 * p.mu * y0)
    eps1 = -p.n * p.w1 / (6.0 * (1.0 - p.mu) * y0) - p.a2 / 2.0
    return PerturbationTerms(eps1=eps1, eps2=eps2, x0=x0, y0=y0)


def equilibrium_residual(p: SystemParams, x: float, y: float,
                         guard: float = COLLISION_GUARD
                         ) -> tuple[float, float]:
    """Rest-state accelerations at (x, y); zero exactly at an equilibrium.

    Identical, component by component, to the accelerations of
    ``equations_of_motion`` evaluated with zero velocity.
    """
    _check_guard(p, x, y, guard)
    gx, gy, fx, fy = _accelerations(p, x, y, 0.0, 0.0)
    return gx + fx, gy + fy


def analytic_triangular_point(p: SystemParams, branch: Branch
                              ) -> EquilibriumPoint:
    """First-order analytic location of a displaced triangular point.

    Starts from the radiation-only base point and applies the first-order
    drag and oblateness corrections. The correction is relative to the
    base abscissa x0, so the form degenerates when x0 vanishes
    (delta^2/2 = mu); the numeric refinement is the fallback there.

    Raises
    ------
    DegenerateFormulaError
        When |x0| is too small for the correction to be meaningful.
    """
    terms = analytic_epsilons(p, branch)
    x0, y0 = terms.x0, terms.y0
    if abs(x0) < _DEGENERATE_X0:
        raise DegenerateFormulaError(
            f"base abscissa x0={x0} is degenerate (delta^2/2 = mu); "
            "use refine_equilibrium instead")
    mu = p.mu
    a2 = p.a2
    d2h = p.delta * p.delta / 2.0
    drag_x = (p.n * p.w1
              * ((1.0 - mu) * (1.0 - 2.5 * a2) + mu * (1.0 - 0.5 * a2) * d2h)
              / (3.0 * mu * (1.0 - mu) * y0))
    x = x0 - drag_x - d2h * a2
    drag_y = (p.n * p.w1 * p.delta * p.delta
              * (2.0 * mu - 1.0 - mu * (1.0 - 1.5 * a2) * d2h
                 + 3.5 * (1.0 - mu) * a2)
              / (6.0 * mu * (1.0 - mu) * y0**3))
    obl_y = d2h * (1.0 - d2h) * a2 / (y0 * y0)
    y = y0 * (1.0 - drag_y - obl_y)
    rn = math.hypot(*equilibrium_residual(p, x, y))
    return EquilibriumPoint(x=x, y=y, label=branch, method=METHOD_ANALYTIC,
                            residual_norm=rn)


def limiting_case_point(p: SystemParams, case: str, branch: Branch
                        ) -> EquilibriumPoint:
    """Closed-form triangular point in one of three limiting regimes.

    ``oblate-only`` needs w1 = 0, ``drag-only`` needs a2 = 0, and
    ``classical`` needs w1 = 0, a2 = 0, q1 = 1. Each case evaluates its
    own published closed form rather than zeroing terms of the general
    one, so the agreement of the two routes is a meaningful check.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    x0, y0 = _base_coords(p, branch)
    mu = p.mu
    d2h = p.delta * p.delta / 2.0
    if case == "oblate-only":
        if p.w1 != 0:
            raise ValueError(f"oblate-only case requires w1 = 0, got {p.w1}")
        x = x0 - d2h * p.a2
        y = y0 * (1.0 - d2h * (1.0 - d2h) * p.a2 / (y0 * y0))
    elif case == "drag-only":
        if p.a2 != 0:
            raise ValueError(f"drag-only case requires a2 = 0, got {p.a2}")
        if abs(x0) < _DEGENERATE_X0:
            raise DegenerateFormulaError(
                f"base abscissa x0={x0} is degenerate (delta^2/2 = mu)")
        x = x0 * (1.0 - p.w1 * ((1.0 - mu) + mu * d2h)
                  / (3.0 * mu * (1.0 - mu) * x0 * y0))
        y = y0 * (1.0 - p.w1 * p.delta * p.delta * (2.0 * mu - 1.0 - mu * d2h)
                  / (6.0 * mu * (1.0 - mu) * y0**3))
    else:
        if p.w1 != 0 or p.a2 != 0 or p.q1 != 1:
            raise ValueError(
                "classical case requires w1 = 0, a2 = 0 and q1 = 1, got "
                f"w1={p.w1}, a2={p.a2}, q1={p.q1}")
        x = 0.5 - mu
        y = _branch_sign(branch) * (math.sqrt(3.0) / 2.0)
    rn = math.hypot(*equilibrium_residual(p, x, y))
    return EquilibriumPoint(x=x, y=y, label=branch,
                            method=f"limiting-{case}", residual_norm=rn)


def _fd_jacobian(p: SystemParams, x: float, y: float,
                 guard: float) -> tuple[float, float, float, float]:
    # central differences of the residual, step sqrt(machine eps) scaled
    # by the coordinate magnitude
    hx = _SQRT_EPS * max(abs(x), 1.0)
    hy = _SQRT_EPS * max(abs(y), 1.0)
    r1p = equilibrium_residual(p, x + hx, y, guard)
    r1m = equilibrium_residual(p, x - hx, y, guard)
    r2p = equilibrium_residual(p, x, y + hy, guard)
    r2m = equilibrium_residual(p, x, y - hy, guard)
    j11 = (r1p[0] - r1m[0]) / (2.0 * hx)
    j21 = (r1p[1] - r1m[1]) / (2.0 * hx)
    j12 = (r2p[0] - r2m[0]) / (2.0 * hy)
    j22 = (r2p[1] - r2m[1]) / (2.0 * hy)
    return j11, j12, j21, j22


def refine_equilibrium(p: SystemParams, guess: tuple[float, float],
                       tol: float = 1e-12, max_iter: int = 50,
                       guard: float = COLLISION_GUARD) -> EquilibriumPoint:
    """Damped Newton refinement of a triangular-point guess.

    Iterates on the rest-state residual with a finite-difference Jacobian
    until its norm drops below ``tol``. The Newton step is clamped and
    halved (up to 20 times) whenever it fails to decrease the residual,
    which keeps the iteration from wandering off from poor guesses; a
    guess outside the convergence basin exhausts the iteration budget and
    raises instead of silently returning a far-away answer.

    Raises
    ------
    ConvergenceError
        Tolerance not reached within ``max_iter`` iterations; carries the
        last iterate and its residual norm.
    SingularJacobianError
        The finite-difference Jacobian is singular to working precision.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    x, y = float(guess[0]), float(guess[1])
    res = equilibrium_residual(p, x, y, guard)
    rnorm = math.hypot(*res)
    iterations = 0
    while rnorm >= tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations; last iterate "
                f"({x}, {y}) has residual norm {rnorm:.3e}",
                x=x, y=y, residual_norm=rnorm, iterations=iterations)
        j11, j12, j21, j22 = _fd_jacobian(p, x, y, guard)
        det = j11 * j22 - j12 * j21
        scale = math.hypot(j11, j12) * math.hypot(j21, j22)
        if abs(det) <= 1e-14 * max(scale, 1e-300):
            raise SingularJacobianError(
                f"Jacobian singular at ({x}, {y}): det={det:.3e}",
                x=x, y=y, residual_norm=rnorm, iterations=iterations)
        sx = -(j22 * res[0] - j12 * res[1]) / det
        sy = -(-j21 * res[0] + j11 * res[1]) / det
        snorm = math.hypot(sx, sy)
        if snorm > _MAX_NEWTON_STEP:
            sx *= _MAX_NEWTON_STEP / snorm
            sy *= _MAX_NEWTON_STEP / snorm
        lam = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            xt = x + lam * sx
            yt = y + lam * sy
            try:
                rt = equilibrium_residual(p, xt, yt, guard)
            except SingularityError:
                lam *= 0.5
                continue
            rtnorm = math.hypot(*rt)
            if rtnorm < rnorm:
                accepted = True
                break
            lam *= 0.5
        iterations += 1
        if not accepted:
            raise ConvergenceError(
                f"residual norm stalled at {rnorm:.3e} after {iterations} "
                f"iterations near ({x}, {y})",
                x=x, y=y, residual_norm=rnorm, iterations=iterations)
        x, y, res, rnorm = xt, yt, rt, rtnorm
    label: Branch = "L4" if y > 0 else "L5"
    return EquilibriumPoint(x=x, y=y, label=label, method=METHOD_REFINED,
                            residual_norm=rnorm)
