"""Triangular equilibrium points of the drag-perturbed rotating frame.

With radiation pressure alone the triangular points sit at distances
r1 = delta = q1**(1/3) from the radiating primary and r2 = 1 from the
oblate one. Drag and oblateness shift them; this module provides the
first-order analytic shift, closed forms for the limiting cases, a
damped Newton refinement that solves the rest-state equations exactly,
and ``follow_branch``, which tracks a point over a parameter grid and
finds by pseudo-arclength continuation where its branch folds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import (ConvergenceError, DegenerateFormulaError,
                     SingularityError, SingularJacobianError)
from .model import (COLLISION_GUARD, SystemParams, _accelerations,
                    _rest_jacobian)

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

#: Largest and smallest pseudo-arclength step, in (x, y, parameter) units.
_ARC_MAX_STEP = 0.05
_ARC_MIN_STEP = 1e-9
#: Arc steps before the search gives up.
_ARC_MAX_STEPS = 1000
#: Corrector iterations before a step is halved.
_ARC_CORRECTIONS = 8
#: Smallest cosine between successive tangents of an accepted step.
_ARC_MIN_COS = 0.9
#: Secant iterations on det J when a fold is bracketed.
_FOLD_SECANT_ITER = 60
#: Residual norm of the arc points, fixed so that the fold does not move
#: with a sweep's own tolerance.
_ARC_TOL = 1e-12


def _branch_sign(branch: Branch) -> float:
    if branch == "L4":
        return 1.0
    if branch == "L5":
        return -1.0
    raise ValueError(f"branch must be 'L4' or 'L5', got {branch!r}")


def _check_newton_args(tol: float, max_iter: int) -> None:
    # the options of refine_equilibrium, also checked by callers that
    # must reject them before their first refinement
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


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
    gx, gy, fx, fy = _accelerations(p, x, y, 0.0, 0.0, guard)
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
    x, y = _analytic_coords(p, branch)
    rn = math.hypot(*equilibrium_residual(p, x, y))
    return EquilibriumPoint(x=x, y=y, label=branch, method=METHOD_ANALYTIC,
                            residual_norm=rn)


def _analytic_coords(p: SystemParams, branch: Branch) -> tuple[float, float]:
    # the (x, y) of analytic_triangular_point, without its residual
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
    return x, y0 * (1.0 - drag_y - obl_y)


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


def refine_equilibrium(p: SystemParams, guess: tuple[float, float],
                       tol: float = 1e-12, max_iter: int = 50,
                       guard: float = COLLISION_GUARD) -> EquilibriumPoint:
    """Damped Newton refinement of a triangular-point guess.

    Iterates on the rest-state residual with its closed-form Jacobian
    until its norm drops below ``tol``. The Newton step is clamped and
    halved (up to 20 times) whenever it fails to decrease the residual,
    which keeps the iteration from wandering off from poor guesses; a
    guess outside the convergence basin exhausts the iteration budget and
    raises instead of silently returning a far-away answer.

    Raises
    ------
    ValueError
        ``tol`` is not finite and > 0, ``max_iter`` is below 1, or
        ``guess`` is not finite; the message names the argument.
    ConvergenceError
        Tolerance not reached within ``max_iter`` iterations; carries the
        last iterate and its residual norm.
    SingularJacobianError
        The Jacobian is singular to working precision.
    """
    _check_newton_args(tol, max_iter)
    x, y = float(guess[0]), float(guess[1])
    if not (-math.inf < x < math.inf and -math.inf < y < math.inf):
        raise ValueError(f"guess must be finite, got {tuple(guess)}")
    res = equilibrium_residual(p, x, y, guard)
    rnorm = math.hypot(*res)
    iterations = 0
    while rnorm >= tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations; last iterate "
                f"({x}, {y}) has residual norm {rnorm:.3e}",
                x=x, y=y, residual_norm=rnorm, iterations=iterations)
        j11, j12, j21, j22 = _rest_jacobian(p, x, y)
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


class SweepRow(NamedTuple):
    """One grid point of :func:`follow_branch`, None where not computed;
    ``status`` is ``ok``, ``degenerate-analytic``, ``invalid-params``,
    ``refine-failed`` or ``no-equilibrium`` (past a fold of the branch)."""

    value: float
    x_analytic: float | None
    y_analytic: float | None
    x_refined: float | None
    y_refined: float | None
    err_norm: float | None
    status: str


def _empty_row(value: float, status: str) -> SweepRow:
    return SweepRow(value, None, None, None, None, None, status)


def follow_branch(base: SystemParams, variable: str, grid,
                  branch: Branch = "L4", tol: float = 1e-12,
                  max_iter: int = 50
                  ) -> tuple[list[SweepRow], tuple[float, ...]]:
    """Follow the analytic and refined points over a parameter grid.

    ``variable``, one of w1, a2, q1 and mu, takes the values of ``grid``;
    the other parameters and the drag spec come from ``base``. The refined
    points seed the Newton solve of the next grid point, by the secant
    through the last two (the last alone where the two share a value); the
    first point, and the first after an ``invalid-params`` gap, starts from
    the analytic guess, which is also the fallback when the continued seed
    does not converge. From the first refined point the branch is followed
    by pseudo-arclength steps to the end of the grid; where det J changes
    sign along it the branch folds, and every row past the fold reads
    ``no-equilibrium`` without a solve. When rows before the first refined
    point failed, the branch is also followed back to the start of the
    grid, and those past a fold there read ``no-equilibrium`` as well.

    Returns the rows and the folds found: the one toward the start of the
    grid, then the one toward its end. Raises ``ValueError`` naming
    ``variable``, ``branch``, ``tol`` or ``max_iter``, before any solve.
    """
    if variable not in ("w1", "a2", "q1", "mu"):
        raise ValueError(f"variable must be 'w1', 'a2', 'q1' or 'mu', got "
                         f"{variable!r}")
    _branch_sign(branch)
    _check_newton_args(tol, max_iter)
    grid = list(grid)
    # the base keeps its drag spec, cd or w1, unless w1 is the variable
    drag = "cd" if base.cd is not None and variable != "w1" else "w1"
    fields = {"mu": base.mu, "q1": base.q1, "a2": base.a2,
              drag: getattr(base, drag)}

    def family(value: float) -> SystemParams:
        return SystemParams(**{**fields, variable: value})

    rows: list[SweepRow] = []
    # the last two refined (value, x, y) since the last invalid row, and
    # the fold toward the end of the grid
    last = before = fold = None
    for value in grid:
        try:
            p = family(value)
        except ValueError:
            rows.append(_empty_row(value, "invalid-params"))
            last = before = None
            continue
        # past the fold is on the side of it where the grid ends
        if fold is not None and (value - fold) * (grid[-1] - fold) > 0:
            rows.append(_empty_row(value, "no-equilibrium"))
            continue
        xa = ya = None
        try:
            xa, ya = guess = _analytic_coords(p, branch)
            status = "ok"
        except DegenerateFormulaError:
            terms = analytic_epsilons(p, branch)
            guess = (terms.x0, terms.y0)
            status = "degenerate-analytic"
        seeds = [guess]
        if last is not None:
            seed = last[1:]
            if before is not None and last[0] != before[0]:
                # the secant through the last two refined points
                f = (value - last[0]) / (last[0] - before[0])
                seed = (last[1] + f * (last[1] - before[1]),
                        last[2] + f * (last[2] - before[2]))
            seeds.insert(0, seed)
        refined = _refine_first(p, seeds, tol, max_iter)
        if refined is None:
            rows.append(SweepRow(value, xa, ya, None, None, None,
                                 "refine-failed"))
            continue
        if last is None and fold is None:
            fold = _branch_fold(family, (refined.x, refined.y), value,
                                grid[-1])
        before, last = last, (value, refined.x, refined.y)
        err = (math.hypot(xa - refined.x, ya - refined.y)
               if status == "ok" else None)
        rows.append(SweepRow(value, xa, ya, refined.x, refined.y, err,
                             status))
    # the fold toward the start of the grid, from the first refined point
    first = next((i for i, row in enumerate(rows)
                  if row.x_refined is not None), 0)
    back = None
    if any(row.status == "refine-failed" for row in rows[:first]):
        u = rows[first]
        back = _branch_fold(family, (u.x_refined, u.y_refined), u.value,
                            grid[0])
        if back is not None:
            rows[:first] = [_empty_row(row.value, "no-equilibrium")
                            if row.status == "refine-failed"
                            and (row.value - back) * (grid[0] - back) > 0
                            else row for row in rows[:first]]
    return rows, tuple(at for at in (back, fold) if at is not None)


def _refine_first(p: SystemParams, seeds, tol: float,
                  max_iter: int) -> EquilibriumPoint | None:
    # the first seed whose Newton solve converges, or None; a seed inside
    # the collision guard fails like one that does not converge
    for seed in seeds:
        try:
            return refine_equilibrium(p, seed, tol=tol, max_iter=max_iter)
        except (ConvergenceError, SingularityError):
            continue
    return None


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class _Arc:
    """Pseudo-arclength steps along one branch of rest-state solutions.

    A point of the branch is u = (x, y, lam) with R(x, y; lam) = 0, where
    R is the rest-state residual of ``family(lam)``. The cross product c
    of the two rows of [J | dR/dlam] spans the branch's tangent and its
    last component is det J. So c keeps its orientation along the branch,
    and det J changes sign exactly where lam turns back, at a fold
    (Keller 1977; Allgower & Georg 1990, ch. 2). J is exact; dR/dlam is a
    one-sided difference through ``family``, taken back toward ``lam0``,
    inside the swept range. Its error moves only the predictor and the
    corrector's rate, never the points, which solve R = 0 to ``tol``.
    """

    def __init__(self, family, lam0: float, stop: float, tol: float):
        self.family = family
        self.lam0 = lam0
        self.h = math.copysign(_SQRT_EPS * max(abs(lam0), abs(stop - lam0)),
                               stop - lam0)
        self.tol = tol

    def correct(self, u, t, ds):
        """Newton from u + ds*t on R = 0 and t.(v - u) = ds.

        Returns the point v, the cross product c there and the number of
        corrections, or None when ``_ARC_CORRECTIONS`` do not converge or
        a parameter leaves the family's domain.
        """
        v = [u[0] + ds * t[0], u[1] + ds * t[1], u[2] + ds * t[2]]
        for corrections in range(_ARC_CORRECTIONS + 1):
            # dR/dlam forward from lam0, backward everywhere else
            h = self.h if abs(v[2] - self.lam0) <= abs(self.h) else -self.h
            try:
                p = self.family(v[2])
                res = equilibrium_residual(p, v[0], v[1])
                res_h = equilibrium_residual(self.family(v[2] + h),
                                             v[0], v[1])
            except ValueError:
                return None
            j11, j12, j21, j22 = _rest_jacobian(p, v[0], v[1])
            a = (j11, j12, (res_h[0] - res[0]) / h)
            b = (j21, j22, (res_h[1] - res[1]) / h)
            c = _cross(a, b)
            if math.hypot(*res) < self.tol:
                return tuple(v), c, corrections
            # Cramer's rule on the rows a, b, t
            det = _dot(c, t)
            if corrections == _ARC_CORRECTIONS or det == 0.0:
                return None
            g = ds - _dot(t, (v[0] - u[0], v[1] - u[1], v[2] - u[2]))
            bt = _cross(b, t)
            ta = _cross(t, a)
            for i in range(3):
                v[i] += (g * c[i] - res[0] * bt[i] - res[1] * ta[i]) / det


def _unit(c, sign: float):
    norm = math.sqrt(_dot(c, c))
    return (sign * c[0] / norm, sign * c[1] / norm, sign * c[2] / norm)


def _branch_fold(family, point: tuple[float, float], start: float,
                 stop: float) -> float | None:
    """Parameter value of the first fold of a branch between two values.

    ``family`` maps a parameter value to its ``SystemParams`` (raising
    ``ValueError`` outside its domain) and ``point`` is near a solution of
    the rest-state equations of ``family(start)``; it is first corrected
    onto the branch. Every arc point solves them to ``_ARC_TOL``, whatever
    tolerance ``point`` was refined to. The branch is followed by
    pseudo-arclength steps toward ``stop`` until det J changes sign; the
    fold is then located by a secant on det J along the arc (the Illinois
    variant of regula falsi, which keeps the bracket). Returns None when
    the branch reaches ``stop`` without a fold, when the fold lies beyond
    ``stop``, or when the steps fail (a parameter outside the domain, a
    point within the collision guard, no convergence).
    """
    if start == stop:
        return None
    arc = _Arc(family, start, stop, _ARC_TOL)
    first = arc.correct((point[0], point[1], start), (0.0, 0.0, 1.0), 0.0)
    if first is None or first[1][2] == 0.0:
        return None
    u, c, _ = first
    # orient the tangent toward stop, once
    direction = math.copysign(1.0, stop - start)
    sign = math.copysign(1.0, c[2]) * direction
    t = _unit(c, sign)
    ds = _ARC_MAX_STEP
    for _ in range(_ARC_MAX_STEPS):
        if ds < _ARC_MIN_STEP:
            return None
        step = arc.correct(u, t, ds)
        tv = None if step is None else _unit(step[1], sign)
        if tv is None or _dot(t, tv) < _ARC_MIN_COS:
            ds *= 0.5
            continue
        v, cv, corrections = step
        if (cv[2] < 0.0) != (c[2] < 0.0):
            fold = _secant_fold(arc, u, t, c[2], ds, cv[2], v[2])
            return fold if (stop - fold) * direction > 0.0 else None
        if (v[2] - stop) * direction >= 0.0:
            return None
        u, t, c = v, tv, cv
        if corrections <= 2:
            ds = min(2.0 * ds, _ARC_MAX_STEP)
    return None


def _secant_fold(arc: _Arc, u, t, det_a: float, ds: float, det_b: float,
                 lam: float) -> float:
    # det J changes sign between arclength 0 (det_a) and ds (det_b) from
    # u along t; lam is stationary at the fold, so its error is quadratic
    # in that of the arclength
    sa, sb = 0.0, ds
    for _ in range(_FOLD_SECANT_ITER):
        if abs(sb - sa) <= 1e-12 * ds:
            break
        s = sb - det_b * (sb - sa) / (det_b - det_a)
        step = arc.correct(u, t, s)
        if step is None:
            break
        lam = step[0][2]
        det_s = step[1][2]
        if det_s == 0.0:
            break
        if (det_s < 0.0) == (det_b < 0.0):
            det_a *= 0.5
        else:
            sa, det_a = sb, det_b
        sb, det_b = s, det_s
    return lam
