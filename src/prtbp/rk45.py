"""Explicit Runge-Kutta 5(4) stepper of Dormand and Prince on Python floats.

A port of SciPy's ``RK45`` together with the parts of ``solve_ivp`` that
propagation uses: the same tableau, initial step, error norm, step-size
controller, dense output and event rules, so it takes the same steps and
makes the same number of right-hand-side calls. The state is a list of
Python floats, which costs a fraction of NumPy's per-call overhead on a
system of four equations. The samples on the output grid are evaluated
on Python floats as well, step by step, into one flat float array.

References: J. R. Dormand and P. J. Prince, "A family of embedded
Runge-Kutta formulae", J. Comput. Appl. Math. 6 (1980) 19-26; L. F.
Shampine, "Some practical Runge-Kutta formulas", Math. Comp. 46 (1986)
135-150; E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Springer 1993, sections II.4-II.6.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass

EPS = sys.float_info.epsilon

# Dormand-Prince tableau: nodes C, stages A, fifth-order weights B (the
# weight of the second stage is zero) and the error row E = B - B*, whose
# seventh entry weighs the derivative at the new point (first same as last)
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)

# Shampine's quartic dense output: y(t_old + x h) = y_old + h K^T P
# (x, x^2, x^3, x^4), one row of P per stage
P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432),
     (0, 0, 0, 0),
     (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799),
     (0, -1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072),
     (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632),
     (0, -282668133 / 205662961, 2019193451 / 616988883,
      -1453857185 / 822651844),
     (0, 40617522 / 29380423, -110615467 / 29380423,
      69997945 / 29380423))
# its nonzero entries past the first column by name; the first column is
# (1, 0, ..., 0) and the second row is zero
((_, P12, P13, P14), _, (_, P32, P33, P34), (_, P42, P43, P44),
 (_, P52, P53, P54), (_, P62, P63, P64), (_, P72, P73, P74)) = P

# step-size controller: h_new = h * clip(SAFETY * err**EXPONENT)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EXPONENT = -1 / 5

MESSAGES = {0: "The solver successfully reached the end of the "
               "integration interval.",
            1: "A termination event occurred.",
            -1: "Required step size is less than spacing between numbers."}


@dataclass(frozen=True, eq=False)
class OdeResult:
    """Outcome of :func:`solve_ivp`.

    ``times`` holds the output times reached and ``values`` the states and
    then the quadratures there, ``width`` floats per time, one time after
    the other. ``status`` is 0 at the end of the interval, 1
    after an event and -1 when the step size fell below 10 ulp of t or is
    NaN; ``steps`` and ``rejected_steps`` count the accepted and rejected
    steps, and ``nfev`` the calls of ``fun``, 2 + 6 (steps +
    rejected_steps); ``t_events`` lists each event's time, if it ended the
    run.
    """

    times: array
    values: array
    width: int
    status: int
    message: str
    nfev: int
    steps: int
    rejected_steps: int
    t_events: tuple[list[float], ...]


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol, events=()):
    """Integrate ``y' = fun(t, y)`` forward over ``t_span``.

    Parameters
    ----------
    fun : callable
        ``fun(t, y)`` takes a time and the state as a list of floats and
        returns its rates. Rates past the state's length are quadratures,
        integrated from 0 on the same stages, but left out of the error
        control and of what ``fun`` and the events receive.
    t_span : (float, float)
        Initial and final time; the final one must be the larger.
    y0 : sequence of float
        Initial state.
    t_eval : sequence of float
        Increasing output times inside ``t_span``.
    rtol, atol : float
        Tolerances; ``atol`` must be positive, ``rtol`` is raised to
        100 eps if smaller.
    events : sequence of callables
        ``event(t, y)`` returns a float. Its zero, crossed in the sense
        of its ``direction`` attribute (0, the default, for either), ends
        the run; the first in time wins.

    Returns
    -------
    OdeResult
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError(f"t_span must increase, got {tuple(t_span)}")
    if not atol > 0:
        raise ValueError(f"atol must be > 0, got {atol}")
    rtol = max(rtol, 100 * EPS)
    y = [float(v) for v in y0]
    n = len(y)
    sqrt_n = math.sqrt(n)
    t_eval = array("d", t_eval)
    directions = [getattr(event, "direction", 0) for event in events]

    f = fun(t, y)
    # the quadratures of the rates past the state, from 0
    w = [0.0] * (len(f) - n)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol, sqrt_n)
    steps = rejections = 0
    g = [event(t, y) for event in events]
    t_events = tuple([] for _ in events)
    # the states and quadratures at t_eval[:sampled], time after time
    values = array("d")
    sampled = 0
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # written so that a NaN step size also ends the run
            if not h_abs >= min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            k1 = f
            k2 = fun(t + C2 * h, [yi + a * A21 * h
                                  for yi, a in zip(y, k1)])
            k3 = fun(t + C3 * h, [yi + (a * A31 + b * A32) * h
                                  for yi, a, b in zip(y, k1, k2)])
            k4 = fun(t + C4 * h, [yi + (a * A41 + b * A42 + c * A43) * h
                                  for yi, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + C5 * h, [yi + (a * A51 + b * A52 + c * A53
                                        + d * A54) * h
                                  for yi, a, b, c, d
                                  in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h, [yi + (a * A61 + b * A62 + c * A63 + d * A64
                                   + e * A65) * h
                             for yi, a, b, c, d, e
                             in zip(y, k1, k2, k3, k4, k5)])
            y_new = [yi + h * (a * B1 + c * B3 + d * B4 + e * B5 + g6 * B6)
                     for yi, a, c, d, e, g6 in zip(y + w, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new[:n])
            total = 0.0
            for yi, zi, a, c, d, e, g6, g7 in zip(y, y_new, k1, k3, k4, k5,
                                                  k6, k7):
                r = ((a * E1 + c * E3 + d * E4 + e * E5 + g6 * E6 + g7 * E7)
                     * h / (atol + max(abs(yi), abs(zi)) * rtol))
                total += r * r
            error_norm = math.sqrt(total) / sqrt_n
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # a NaN norm also lands here and takes the smallest factor
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
            rejections += 1
        if status == -1:
            break
        steps += 1
        if t_new >= t_bound:
            status = 0
        t_old, y_old = t, y + w
        t, y, w, f = t_new, y_new[:n], y_new[n:], k7
        quartic = None
        if events:
            g_new = [event(t, y) for event in events]
            active = [i for i in range(len(events))
                      if _crosses(g[i], g_new[i], directions[i])]
            if active:
                quartic = _quartic(y_old, (k1, k3, k4, k5, k6, k7))
                t, i = min((_locate(events[i], t_old, h, quartic[:n], t), i)
                           for i in active)
                t_events[i].append(t)
                status = 1
            g = g_new
        end = bisect_right(t_eval, t, sampled)
        if end > sampled:
            if quartic is None:
                quartic = _quartic(y_old, (k1, k3, k4, k5, k6, k7))
            for ti in t_eval[sampled:end]:
                values.extend(_interpolate(ti, t_old, h, quartic))
            sampled = end

    return OdeResult(times=t_eval[:sampled], values=values, width=len(f),
                     status=status, message=MESSAGES[status],
                     nfev=2 + 6 * (steps + rejections), steps=steps,
                     rejected_steps=rejections, t_events=t_events)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol, sqrt_n) -> float:
    # Hairer, Norsett & Wanner, section II.4, with SciPy's constants
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _norm([v / s for v, s in zip(y0, scale)], sqrt_n)
    d1 = _norm([v / s for v, s in zip(f0, scale)], sqrt_n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f0, scale)], sqrt_n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _norm(values, sqrt_n) -> float:
    # root mean square, as sqrt(sum of squares) / sqrt(n)
    return math.sqrt(sum(v * v for v in values)) / sqrt_n


def _crosses(g, g_new, direction) -> bool:
    up = g <= 0 <= g_new
    down = g >= 0 >= g_new
    return (up and direction > 0 or down and direction < 0
            or (up or down) and direction == 0)


def _locate(event, t_old, h, quartic, b) -> float:
    """Bisect the event's zero on the dense output of a step to 4 eps.

    The step runs from a = t_old to b, and ``quartic`` holds its dense
    output of the state. The end a keeps the event's sign from the start
    of the step. If the interpolant does not change sign before b (the
    zero lies at the very end of the step) the bisection closes on b.
    """
    def g(t):
        return event(t, _interpolate(t, t_old, h, quartic))

    a = t_old
    ga = g(a)
    if ga == 0:
        return a
    while b - a > 4 * EPS * (1.0 + abs(b)):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0:
            return m
        if (gm > 0) == (ga > 0):
            a = m
        else:
            b = m
    return b


def _quartic(y_old, stages) -> list[tuple[float, ...]]:
    # Shampine's dense output of a step, per component: y_old and the
    # coefficients q = K^T P of x, x^2, x^3 and x^4, from the stages k1
    # and k3 to k7 (k2 has zero weight)
    return [(yo, a,
             a * P12 + c * P32 + d * P42 + e * P52 + f * P62 + g * P72,
             a * P13 + c * P33 + d * P43 + e * P53 + f * P63 + g * P73,
             a * P14 + c * P34 + d * P44 + e * P54 + f * P64 + g * P74)
            for yo, a, c, d, e, f, g in zip(y_old, *stages)]


def _interpolate(t, t_old, h, quartic) -> list[float]:
    # the dense output at t: y_old + h (q1 x + q2 x^2 + q3 x^3 + q4 x^4)
    # with x = (t - t_old) / h, each component on its own
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return [yo + h * (q1 * x + q2 * x2 + q3 * x3 + q4 * x4)
            for yo, q1, q2, q3, q4 in quartic]
