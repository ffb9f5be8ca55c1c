"""Triangular equilibrium points of the drag-perturbed rotating frame.

With radiation pressure alone the triangular points sit at distances
r1 = delta = q1**(1/3) from the radiating primary and r2 = 1 from the
oblate one. Drag and oblateness shift them; this module provides the
first-order analytic shift, closed forms for the limiting cases, a damped
Newton refinement that solves the rest-state equations exactly, the report
``triangular_points`` of both points by every route, and ``follow_branch``,
which tracks a point over a parameter grid up to the fold of its branch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Literal, NamedTuple

from .errors import (ConvergenceError, DegenerateFormulaError,
                     SingularityError, SingularJacobianError)
from .model import (COLLISION_GUARD, SystemParams, _family_fields,
                    _family_kernel, _Record, _state_kernel)

Branch = Literal["L4", "L5"]
BRANCHES: tuple[Branch, Branch] = ("L4", "L5")

METHOD_ANALYTIC = "analytic-first-order"
METHOD_BASE = "photogravitational-base"
METHOD_REFINED = "refined-numeric"

CASES = ("oblate-only", "drag-only", "classical")

#: Largest |eps1|, |eps2| the first-order theory is taken to hold for.
EPS_VALIDITY = 0.1

#: Below this the base abscissa counts as degenerate for the relative forms.
_DEGENERATE_X0 = 1e-9

#: Residual norm below which Newton stops, and its iteration budget.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
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
#: Residual norm of the arc points. It equals Newton's but is set apart:
#: the fold's secant reads det J at these points, so a more exact fold
#: may need a tighter arc alone.
_ARC_TOL = 1e-12


def _branch_sign(branch: Branch) -> float:
    if branch == "L4":
        return 1.0
    if branch == "L5":
        return -1.0
    raise ValueError(f"branch must be 'L4' or 'L5', got {branch!r}")


class PerturbationTerms(_Record):
    """First-order perturbation data for one triangular point.

    ``(x0, y0)`` is the drag-free, oblateness-free base point and
    ``eps1``/``eps2`` are the fractional shifts of the distances to the
    radiating and the oblate primary. The first-order theory assumes
    both small; compare them with ``EPS_VALIDITY``.
    """

    _fields = ("eps1", "eps2", "x0", "y0")

    def __init__(self, eps1: float, eps2: float, x0: float, y0: float):
        self._freeze(eps1, eps2, x0, y0)


class EquilibriumPoint(_Record):
    """A located triangular equilibrium.

    ``method`` records how the coordinates were produced and
    ``residual_norm`` is the norm of the rest-state accelerations there.
    """

    _fields = ("x", "y", "label", "method", "residual_norm")

    def __init__(self, x: float, y: float, label: Branch, method: str,
                 residual_norm: float):
        if not _branch_sign(label) * y > 0.0:
            raise ValueError(f"label {label} disagrees with the sign "
                             f"of y={y}")
        self._freeze(x, y, label, method, residual_norm)


def _base_coords(mu: float, d: float, branch: Branch,
                 relative: bool = False) -> tuple[float, float]:
    # r1 = delta = d and r2 = 1 with unit primary separation pin the point:
    # x + mu = delta^2/2 and y^2 = delta^2 - delta^4/4; x0 must not vanish
    # for a correction relative to it
    x0 = d * d / 2.0 - mu
    y0 = _branch_sign(branch) * d * math.sqrt(1.0 - d * d / 4.0)
    if relative and abs(x0) < _DEGENERATE_X0:
        raise DegenerateFormulaError(
            f"base abscissa x0={x0} is degenerate (delta^2/2 = mu); "
            "use refine_equilibrium instead")
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

    Raises
    ------
    DegenerateFormulaError
        When a shift divides by zero or is not finite (subnormal mu, q1).
    """
    x0, y0 = _base_coords(p.mu, p.delta, branch)
    try:
        eps2 = p.n * p.w1 * (1.0 - 2.5 * p.a2) / (3.0 * p.mu * y0)
        eps1 = -p.n * p.w1 / (6.0 * (1.0 - p.mu) * y0) - p.a2 / 2.0
    except ZeroDivisionError:
        raise DegenerateFormulaError("first-order shifts divide by zero") \
            from None
    if not (-math.inf < eps1 < math.inf and -math.inf < eps2 < math.inf):
        raise DegenerateFormulaError(f"first-order shifts eps1={eps1}, "
                                     f"eps2={eps2} are not finite")
    return PerturbationTerms(eps1=eps1, eps2=eps2, x0=x0, y0=y0)


def equilibrium_residual(p: SystemParams, x: float, y: float,
                         guard: float = COLLISION_GUARD
                         ) -> tuple[float, float]:
    """Rest-state accelerations at (x, y); zero exactly at an equilibrium.

    Identical, component by component, to the accelerations of
    ``equations_of_motion`` evaluated with zero velocity. Raises what
    :func:`prtbp.model.amended_potential` raises.
    """
    _, gx, gy, fx, fy = _state_kernel(p, guard)(x, y, 0.0, 0.0)
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
        When |x0| is too small for the correction to be meaningful, the
        form divides by zero or gives a point that is not finite (at a
        subnormal mu or q1), or the point falls on the other side of
        y = 0 than its branch.
    """
    return _point(p, *_analytic_coords(
        (p.mu, p.q1, p.a2, p.w1, p.n, p.delta), branch), branch,
        METHOD_ANALYTIC)


def _point(p: SystemParams, x: float, y: float, branch: Branch,
           method: str) -> EquilibriumPoint:
    # the point (x, y) of a formula with the norm of its residual
    rn = math.hypot(*equilibrium_residual(p, x, y))
    return EquilibriumPoint(x=x, y=y, label=branch, method=method,
                            residual_norm=rn)


def _formula(method: str, branch: Branch, x: float,
             y: float) -> tuple[float, float]:
    # the point of a closed form, wherever it is evaluated: a tiny
    # denominator can overflow it, and a large shift move it across y = 0
    if not (-math.inf < x < math.inf
            and 0.0 < _branch_sign(branch) * y < math.inf):
        raise DegenerateFormulaError(
            f"{method} point ({x}, {y}) is not finite or off the {branch} "
            "side of y = 0")
    return x, y


def _analytic_coords(c: tuple, branch: Branch) -> tuple[float, float]:
    # the (x, y) of analytic_triangular_point on the system of constants
    # c = (mu, q1, a2, w1, n, delta), without its residual
    mu, _, a2, w1, n, delta = c
    x0, y0 = _base_coords(mu, delta, branch, relative=True)
    d2h = delta * delta / 2.0
    try:
        drag_x = (n * w1 * ((1.0 - mu) * (1.0 - 2.5 * a2)
                            + mu * (1.0 - 0.5 * a2) * d2h)
                  / (3.0 * mu * (1.0 - mu) * y0))
        drag_y = (n * w1 * delta * delta
                  * (2.0 * mu - 1.0 - mu * (1.0 - 1.5 * a2) * d2h
                     + 3.5 * (1.0 - mu) * a2)
                  / (6.0 * mu * (1.0 - mu) * y0**3))
        obl_y = d2h * (1.0 - d2h) * a2 / (y0 * y0)
    except ZeroDivisionError:
        # a denominator underflows to 0, as at a subnormal mu or q1
        raise DegenerateFormulaError(
            f"{METHOD_ANALYTIC} form divides by zero") from None
    return _formula(METHOD_ANALYTIC, branch, x0 - drag_x - d2h * a2,
                    y0 * (1.0 - drag_y - obl_y))


def limiting_case_point(p: SystemParams, case: str, branch: Branch
                        ) -> EquilibriumPoint:
    """Closed-form triangular point in one of three limiting regimes.

    ``oblate-only`` needs w1 = 0, ``drag-only`` needs a2 = 0, and
    ``classical`` needs w1 = 0, a2 = 0, q1 = 1. Each case evaluates its
    own published closed form rather than zeroing terms of the general
    one, so the agreement of the two routes is a meaningful check. Unmet
    conditions, a degenerate form, a point that is not finite or one off
    its branch's side of y = 0 raise ``DegenerateFormulaError``.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    needs = {"oblate-only": {"w1": 0.0}, "drag-only": {"a2": 0.0},
             "classical": {"w1": 0.0, "a2": 0.0, "q1": 1.0}}[case]
    if any(getattr(p, name) != value for name, value in needs.items()):
        raise DegenerateFormulaError(f"{case} case requires {needs}, got "
                                     f"w1={p.w1}, a2={p.a2}, q1={p.q1}")
    x0, y0 = _base_coords(p.mu, p.delta, branch)
    mu = p.mu
    d2h = p.delta * p.delta / 2.0
    method = f"limiting-{case}"
    try:
        if case == "oblate-only":
            x = x0 - d2h * p.a2
            y = y0 * (1.0 - d2h * (1.0 - d2h) * p.a2 / (y0 * y0))
        elif case == "drag-only":
            x0, y0 = _base_coords(mu, p.delta, branch, relative=True)
            x = x0 * (1.0 - p.w1 * ((1.0 - mu) + mu * d2h)
                      / (3.0 * mu * (1.0 - mu) * x0 * y0))
            y = y0 * (1.0 - p.w1 * p.delta * p.delta
                      * (2.0 * mu - 1.0 - mu * d2h)
                      / (6.0 * mu * (1.0 - mu) * y0**3))
        else:
            x = 0.5 - mu
            y = _branch_sign(branch) * (math.sqrt(3.0) / 2.0)
    except ZeroDivisionError:
        raise DegenerateFormulaError(f"{method} form divides by zero") \
            from None
    return _point(p, *_formula(method, branch, x, y), branch, method)


def refine_equilibrium(p: SystemParams, guess: tuple[float, float],
                       guard: float = COLLISION_GUARD) -> EquilibriumPoint:
    """Damped Newton refinement of a triangular-point guess.

    Iterates on the rest-state residual with its closed-form Jacobian
    until its norm drops below 1e-12, the one stopping rule of every
    refined point. The Newton step is clamped and halved (up to 20 times)
    whenever it fails to decrease the residual, which keeps the iteration
    from wandering off from poor guesses; a guess outside the convergence
    basin exhausts the budget of 50 iterations and raises instead of
    silently returning a far-away answer. The point returned lies on the
    guess's side of y = 0 (above it for a guess on it), and is labelled
    by that side.

    Raises
    ------
    ValueError
        ``guess`` is not finite, or ``guard`` is not finite and >= 0; the
        message names the argument.
    SingularityError
        The guess lies within ``guard`` of a primary, or, with a guard of
        0, so near one that the residual divides by zero; a Newton probe
        there is skipped like one inside the guard.
    ConvergenceError
        Residual norm 1e-12 not reached within 50 iterations, a residual
        norm that is not finite, or convergence on y = 0 or beyond it,
        off the guess's side; carries the last iterate and its residual
        norm.
    SingularJacobianError
        The Jacobian is singular to working precision.
    """
    _, rest = _family_kernel(p, "w1", guard)
    x, y = float(guess[0]), float(guess[1])
    if not (-math.inf < x < math.inf and -math.inf < y < math.inf):
        raise ValueError(f"guess must be finite, got {tuple(guess)}")
    return _refined(*_newton(rest, (p.mu, p.q1, p.a2, p.w1, p.n, p.delta),
                             x, y, -1.0 if y < 0.0 else 1.0))


def _refined(x: float, y: float, rnorm: float) -> EquilibriumPoint:
    # the record of a point that _newton returns
    return EquilibriumPoint(x=x, y=y, label="L4" if y > 0 else "L5",
                            method=METHOD_REFINED, residual_norm=rnorm)


def _newton(rest, c: tuple, x: float, y: float,
            sign: float) -> tuple[float, float, float]:
    # the Newton loop of refine_equilibrium on the rest state of a
    # _family_kernel at the constants c, from (x, y), whose arguments the
    # callers check: the refined (x, y), on the side of y = 0 of sign, and
    # its residual norm
    res, jac, _ = rest(x, y, c, _NEWTON_TOL)
    rnorm = math.hypot(*res)
    if not rnorm < math.inf:
        # NaN fails rnorm >= _NEWTON_TOL too; later norms are taken only
        # if smaller
        raise ConvergenceError(f"residual norm {rnorm} is not finite", x=x,
                               y=y, residual_norm=rnorm, iterations=0)
    iterations = 0
    while rnorm >= _NEWTON_TOL:
        if iterations >= _NEWTON_MAX_ITER:
            raise ConvergenceError(
                f"no convergence after {iterations} iterations; last iterate "
                f"({x}, {y}) has residual norm {rnorm:.3e}",
                x=x, y=y, residual_norm=rnorm, iterations=iterations)
        j11, j12, j21, j22 = jac
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
        iterations += 1
        damping = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            xt = x + damping * sx
            yt = y + damping * sy
            damping *= 0.5
            try:
                rt, jt, _ = rest(xt, yt, c, _NEWTON_TOL)
            except SingularityError:
                continue
            rtnorm = math.hypot(*rt)
            if rtnorm < rnorm:
                break
        else:
            raise ConvergenceError(
                f"residual norm stalled at {rnorm:.3e} after {iterations} "
                f"iterations near ({x}, {y})",
                x=x, y=y, residual_norm=rnorm, iterations=iterations)
        x, y, res, jac, rnorm = xt, yt, rt, jt, rtnorm
    if not sign * y > 0.0:
        raise ConvergenceError(f"converged at ({x}, {y}), off its side of "
                               "y = 0", x=x, y=y, residual_norm=rnorm,
                               iterations=iterations)
    return x, y, rnorm


def triangular_points(p: SystemParams) -> list[EquilibriumPoint]:
    """Both triangular points, L4 then L5, by every route ``p`` admits:
    the base point, the analytic one unless degenerate, the refined point
    and each case of ``CASES`` whose conditions ``p`` meets. The refined
    point is the last row of ``follow_branch`` over w1 in {0, p.w1}, so a
    branch that folds before p.w1 has none; it stops by the one rule of
    ``refine_equilibrium``. Raises what ``refine_equilibrium`` raises."""
    points = []
    for branch in BRANCHES:
        points.append(_point(p, *_base_coords(p.mu, p.delta, branch),
                             branch, METHOD_BASE))
        try:
            points.append(analytic_triangular_point(p, branch))
        except DegenerateFormulaError:
            pass
        refined = _solve_grid(p, "w1", sorted({0.0, p.w1}), branch)[1][-1]
        if isinstance(refined, Exception):
            raise refined
        if isinstance(refined, tuple):
            points.append(_refined(*refined))
        for case in CASES:
            try:
                points.append(limiting_case_point(p, case, branch))
            except DegenerateFormulaError:
                pass
    return points


class SweepRow(NamedTuple):
    """One grid point of :func:`follow_branch`, None where not computed;
    ``status`` is ``ok``, ``degenerate-analytic`` (no analytic point: it
    is degenerate, not finite or off the branch's side of y = 0),
    ``invalid-params``, ``refine-failed`` (no refined point on the
    branch's side) or ``no-equilibrium`` (past a fold of the branch).
    Every y written lies on the branch's side."""

    value: float
    x_analytic: float | None
    y_analytic: float | None
    x_refined: float | None
    y_refined: float | None
    err_norm: float | None
    status: str


def follow_branch(base: SystemParams, variable: str, grid,
                  branch: Branch = "L4"
                  ) -> tuple[list[SweepRow], tuple[float, ...]]:
    """Follow the analytic and refined points over a parameter grid.

    ``variable``, one of w1, a2, q1 and mu, takes the values of ``grid``,
    which must be non-decreasing or non-increasing; the other parameters
    and the drag spec come from ``base``. The first grid point that
    refines from its own guess (the analytic point, else the base point)
    anchors the branch, which is followed from there by pseudo-arclength
    steps toward both ends of the grid. Where det J changes sign along it
    the branch folds, and every row past the fold reads
    ``no-equilibrium`` without a solve. The others, outward from the
    anchor, refine from the cubic in the variable through the four
    nearest solved points: arc points and rows refined before them. A
    refined point must end on the branch's side of y = 0, and an analytic
    point lie there, as in :func:`triangular_points`; Newton stops below a
    residual norm of 1e-12 within 50 iterations, as in
    :func:`refine_equilibrium`.

    Returns the rows and the folds found, toward the grid's start then its
    end. Raises ``ValueError`` naming ``variable``, ``grid`` or ``branch``,
    before any solve.
    """
    grid = list(grid)
    pairs = list(zip(grid, grid[1:]))
    if not (all(a <= b for a, b in pairs) or all(a >= b for a, b in pairs)):
        raise ValueError("grid must be non-decreasing or non-increasing")
    analytic, outcomes, folds = _solve_grid(base, variable, grid, branch)
    rows = []
    for value, xy, out in zip(grid, analytic, outcomes):
        xa, ya = (None, None) if isinstance(out, str) or xy is None else xy
        if isinstance(out, tuple):
            x, y, _ = out
            err = None if xy is None else math.hypot(xa - x, ya - y)
            status = "ok" if xy else "degenerate-analytic"
        else:
            x = y = err = None
            status = out if isinstance(out, str) else "refine-failed"
        rows.append(SweepRow._make((value, xa, ya, x, y, err, status)))
    return rows, folds


def _solve_grid(base: SystemParams, variable: str, grid: list,
                branch: Branch):
    # the analytic (x, y) or None and the outcome (a status, the refined
    # (x, y, residual norm) or the error of its solve) of each grid value,
    # and the folds in the grid, after checking variable and branch; the
    # callers check the grid. Every solve goes through one
    # kernel, and a row takes its system's constants from the kernel's
    # at(value), not from a SystemParams
    at, rest = _family_kernel(base, variable, COLLISION_GUARD)
    sign = _branch_sign(branch)
    fields = _family_fields(base, variable)
    n = len(grid)
    analytic = [None] * n
    outcomes = ["invalid-params"] * n

    def admits(value: float) -> bool:
        try:
            SystemParams(**{**fields, variable: value})
        except ValueError:
            return False
        return True

    def arc_rest(x: float, y: float, lam: float):
        # the kernel at a lam the family admits; ValueError at any other
        if not admits(lam):
            raise ValueError(f"{variable}={lam} is outside the domain")
        return rest(x, y, at(lam))

    def solve(i: int, seed=None) -> bool:
        # from the seed, else the row's own guess: its analytic point, else
        # its base point
        c = at(grid[i])
        try:
            analytic[i] = xy = _analytic_coords(c, branch)
        except DegenerateFormulaError:
            xy = None
        seed = seed or xy or _base_coords(c[0], c[5], branch)
        try:
            outcomes[i] = _newton(rest, c, *seed, sign)
        except (ConvergenceError, SingularityError) as exc:
            outcomes[i] = exc
            return False
        return True

    # The values SystemParams admits form an interval that holds the base's
    # own value, and the grid is monotone, so the rows it admits are one
    # run: those nearest that value on either side of it, each end found by
    # a bisection
    inside = getattr(base, variable)
    up = not grid or grid[0] <= grid[-1]
    s = bisect_left(grid, True, key=lambda v: v >= inside if up
                    else v <= inside)
    run = range(bisect_left(grid, True, 0, s, key=admits),
                bisect_left(grid, True, s, n, key=lambda v: not admits(v)))
    anchor = next((i for i in run if solve(i)), None)
    if anchor is None:
        return analytic, outcomes, ()
    start, xy, folds = grid[anchor], outcomes[anchor][:2], []
    # each side's rows outward from the anchor, from its nearest knots
    for end, indices in ((grid[0], range(anchor - 1, run.start - 1, -1)),
                         (grid[-1], range(anchor + 1, run.stop))):
        knots, fold = _walk(arc_rest, xy, start, end)
        knots = sorted(knots or [(*xy, start)], key=lambda u: u[2])
        reach = math.inf if fold is None else abs(fold - start)
        if reach < abs(end - start):
            folds.append(fold)
        k = 0
        for i in indices:
            value = grid[i]
            if abs(value - start) > reach:
                outcomes[i] = "no-equilibrium"
                continue
            k, near = _nearest(knots, k, value)
            # a row left at its seed would add only its residual as a knot
            if solve(i, seed := _lagrange(near, value)) \
                    and outcomes[i][:2] != seed and near[0][2] != value:
                knots.insert(k, (*outcomes[i][:2], value))
    return analytic, outcomes, tuple(folds)


def _nearest(knots: list, k: int, value: float):
    # (k, near): k moved to bisect_left of value among the lams of the
    # knots (x, y, lam), sorted by lam, and the four knots of
    # knots[max(k - 4, 0):k + 4] nearest value, nearest first. Rows come
    # in order, so k moves a step or none. Distances fall toward k from
    # the left and rise from it, so a merge outward picks the knots: a tie
    # across the window goes left, and a tie on one side to the knot
    # nearer the window
    n = len(knots)
    while k < n and knots[k][2] < value:
        k += 1
    while k and knots[k - 1][2] >= value:
        k -= 1
    lo, i, j, hi = max(k - 4, 0), k - 1, k, min(k + 4, n)
    near = []
    for _ in range(min(hi - lo, 4)):
        if j < hi and (i < lo or knots[j][2] - value < value - knots[i][2]):
            near.append(knots[j])
            j += 1
        else:
            near.append(knots[i])
            i -= 1
    return k, near


def _lagrange(knots, value: float) -> tuple[float, float]:
    # the polynomial through the (x, y, lam) knots, of distinct lam, at
    # value; four knots, the common case, unrolled with the loop's
    # operations in its order, as 1.0 * w == w
    if len(knots) == 4:
        (x0, y0, l0), (x1, y1, l1), (x2, y2, l2), (x3, y3, l3) = knots
        if len({l0, l1, l2, l3}) == 4:
            d0, d1, d2, d3 = value - l0, value - l1, value - l2, value - l3
            w0 = d1 / (l0 - l1) * (d2 / (l0 - l2)) * (d3 / (l0 - l3))
            w1 = d0 / (l1 - l0) * (d2 / (l1 - l2)) * (d3 / (l1 - l3))
            w2 = d0 / (l2 - l0) * (d1 / (l2 - l1)) * (d3 / (l2 - l3))
            w3 = d0 / (l3 - l0) * (d1 / (l3 - l1)) * (d2 / (l3 - l2))
            return (0.0 + w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3,
                    0.0 + w0 * y0 + w1 * y1 + w2 * y2 + w3 * y3)
    x = y = 0.0
    for xi, yi, li in knots:
        w = 1.0
        for _, _, lj in knots:
            if lj != li:
                w *= (value - lj) / (li - lj)
        x, y = x + w * xi, y + w * yi
    return x, y


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _correct(rest, u, t, ds):
    """Newton from u + ds*t on R = 0 and t.(v - u) = ds.

    A point of the branch is u = (x, y, lam) with R(x, y; lam) = 0, where
    R, J and dR/dlam, both exact, come from one call of the family kernel
    ``rest``, which raises ``ValueError`` at a lam outside the family's
    domain. The cross product c of the two rows of [J | dR/dlam] spans the
    branch's tangent and its last component is det J. So c keeps its
    orientation along the branch, and det J changes sign exactly where
    lam turns back, at a fold (Keller 1977; Allgower & Georg 1990, ch. 2).

    Returns the point v, the cross product c there and the number of
    corrections, or None when ``_ARC_CORRECTIONS`` do not converge, a
    parameter leaves the family's domain or a point the collision guard.
    """
    v = [u[0] + ds * t[0], u[1] + ds * t[1], u[2] + ds * t[2]]
    for corrections in range(_ARC_CORRECTIONS + 1):
        try:
            res, (j11, j12, j21, j22), (lx, ly) = rest(*v)
        except ValueError:
            return None
        a = (j11, j12, lx)
        b = (j21, j22, ly)
        c = _cross(a, b)
        if math.hypot(*res) < _ARC_TOL:
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


def _walk(rest, point: tuple[float, float], start: float, stop: float):
    """The arc points of a branch from ``start`` toward ``stop``, and its fold.

    ``rest`` is the family kernel of ``_correct`` and ``point`` is near a
    solution of the rest-state equations at ``start``; it is first
    corrected onto the branch. Every arc point solves them to
    ``_ARC_TOL``. The branch is followed by pseudo-arclength steps toward
    ``stop`` until det J changes sign; the fold is then located by a
    secant on det J along the arc (the Illinois variant of regula falsi,
    which keeps the bracket).

    Returns the points (x, y, lam) accepted before the fold and the fold,
    which may lie beyond ``stop``; None when the walk passes ``stop``
    first, or when the steps fail (a parameter outside the domain, a point
    within the collision guard, no convergence).
    """
    if start == stop:
        return [], None
    first = _correct(rest, (point[0], point[1], start), (0.0, 0.0, 1.0),
                     0.0)
    if first is None or first[1][2] == 0.0:
        return [], None
    u, c, _ = first
    # orient the tangent toward stop, once
    direction = math.copysign(1.0, stop - start)
    sign = math.copysign(1.0, c[2]) * direction
    t = _unit(c, sign)
    points = [u]
    ds = _ARC_MAX_STEP
    for _ in range(_ARC_MAX_STEPS):
        if ds < _ARC_MIN_STEP:
            break
        step = _correct(rest, u, t, ds)
        tv = None if step is None else _unit(step[1], sign)
        if tv is None or _dot(t, tv) < _ARC_MIN_COS:
            ds *= 0.5
            continue
        v, cv, corrections = step
        if (cv[2] < 0.0) != (c[2] < 0.0):
            return points, _secant_fold(rest, u, t, c[2], ds, cv[2], v[2])
        points.append(v)
        if (v[2] - stop) * direction >= 0.0:
            break
        u, t, c = v, tv, cv
        if corrections <= 2:
            ds = min(2.0 * ds, _ARC_MAX_STEP)
    return points, None


def _secant_fold(rest, u, t, det_a: float, ds: float, det_b: float,
                 lam: float) -> float:
    # det J changes sign between arclength 0 (det_a) and ds (det_b) from
    # u along t; lam is stationary at the fold, so its error is quadratic
    # in that of the arclength
    sa, sb = 0.0, ds
    for _ in range(_FOLD_SECANT_ITER):
        if abs(sb - sa) <= 1e-12 * ds:
            break
        s = sb - det_b * (sb - sa) / (det_b - det_a)
        step = _correct(rest, u, t, s)
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
