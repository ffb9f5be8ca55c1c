"""Explicit Runge-Kutta 8(5,3) stepper of Dormand and Prince on Python floats.

A port of SciPy's ``DOP853`` together with the parts of ``solve_ivp`` that
propagation uses: the same tableau, initial step, error estimate,
step-size controller and dense output, so it takes the same steps and
makes the same number of right-hand-side calls. The state is a list of
Python floats, which costs a fraction of NumPy's per-call overhead on a
system of four equations. Each sample on the output grid is evaluated
on Python floats as well, and handed to the caller as soon as the step
that holds it is taken. An event ends the run where it falls through
zero, SciPy's terminal event with ``direction = -1``.

References: P. J. Prince and J. R. Dormand, "High order embedded
Runge-Kutta formulae", J. Comput. Appl. Math. 7 (1981) 67-75; E. Hairer,
S. P. Norsett and G. Wanner, *Solving Ordinary Differential Equations I*,
2nd ed., Springer 1993, sections II.4, II.6 and II.10 (the code DOP853).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from typing import NamedTuple

EPS = sys.float_info.epsilon

# The coefficients of SciPy's dop853_coefficients, which takes them from
# Hairer's DOP853. Names count stages from 1: Ai_j weighs stage j in the
# input of stage i. The equations of motion do not depend on t, so the
# stages' nodes (their times within the step) are left out. The twelfth
# stage sits at the end of the step, and so does k13 = f(y_new), the
# first stage of the next step; Bj are the eighth-order weights (row 13
# of A). Stages 2 to 5 have zero weight in B, in the error rows and in
# the dense output, so only stages 1 and 6 to 16 appear there; stages 14
# to 16 serve the dense output alone.
A2_1 = 5.26001519587677318785587544488e-2
A3_1 = 1.97250569845378994544595329183e-2
A3_2 = 5.91751709536136983633785987549e-2
A4_1 = 2.95875854768068491816892993775e-2
A4_3 = 8.87627564304205475450678981324e-2
A5_1 = 2.41365134159266685502369798665e-1
A5_3 = -8.84549479328286085344864962717e-1
A5_4 = 9.24834003261792003115737966543e-1
A6_1 = 3.7037037037037037037037037037e-2
A6_4 = 1.70828608729473871279604482173e-1
A6_5 = 1.25467687566822425016691814123e-1
A7_1 = 3.7109375e-2
A7_4 = 1.70252211019544039314978060272e-1
A7_5 = 6.02165389804559606850219397283e-2
A7_6 = -1.7578125e-2
A8_1 = 3.70920001185047927108779319836e-2
A8_4 = 1.70383925712239993810214054705e-1
A8_5 = 1.07262030446373284651809199168e-1
A8_6 = -1.53194377486244017527936158236e-2
A8_7 = 8.27378916381402288758473766002e-3
A9_1 = 6.24110958716075717114429577812e-1
A9_4 = -3.36089262944694129406857109825
A9_5 = -8.68219346841726006818189891453e-1
A9_6 = 2.75920996994467083049415600797e1
A9_7 = 2.01540675504778934086186788979e1
A9_8 = -4.34898841810699588477366255144e1
A10_1 = 4.77662536438264365890433908527e-1
A10_4 = -2.48811461997166764192642586468
A10_5 = -5.90290826836842996371446475743e-1
A10_6 = 2.12300514481811942347288949897e1
A10_7 = 1.52792336328824235832596922938e1
A10_8 = -3.32882109689848629194453265587e1
A10_9 = -2.03312017085086261358222928593e-2
A11_1 = -9.3714243008598732571704021658e-1
A11_4 = 5.18637242884406370830023853209
A11_5 = 1.09143734899672957818500254654
A11_6 = -8.14978701074692612513997267357
A11_7 = -1.85200656599969598641566180701e1
A11_8 = 2.27394870993505042818970056734e1
A11_9 = 2.49360555267965238987089396762
A11_10 = -3.0467644718982195003823669022
A12_1 = 2.27331014751653820792359768449
A12_4 = -1.05344954667372501984066689879e1
A12_5 = -2.00087205822486249909675718444
A12_6 = -1.79589318631187989172765950534e1
A12_7 = 2.79488845294199600508499808837e1
A12_8 = -2.85899827713502369474065508674
A12_9 = -8.87285693353062954433549289258
A12_10 = 1.23605671757943030647266201528e1
A12_11 = 6.43392746015763530355970484046e-1
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2
A14_1 = 5.61675022830479523392909219681e-2
A14_7 = 2.53500210216624811088794765333e-1
A14_8 = -2.46239037470802489917441475441e-1
A14_9 = -1.24191423263816360469010140626e-1
A14_10 = 1.5329179827876569731206322685e-1
A14_11 = 8.20105229563468988491666602057e-3
A14_12 = 7.56789766054569976138603589584e-3
A14_13 = -8.298e-3
A15_1 = 3.18346481635021405060768473261e-2
A15_6 = 2.83009096723667755288322961402e-2
A15_7 = 5.35419883074385676223797384372e-2
A15_8 = -5.49237485713909884646569340306e-2
A15_11 = -1.08347328697249322858509316994e-4
A15_12 = 3.82571090835658412954920192323e-4
A15_13 = -3.40465008687404560802977114492e-4
A15_14 = 1.41312443674632500278074618366e-1
A16_1 = -4.28896301583791923408573538692e-1
A16_6 = -4.69762141536116384314449447206
A16_7 = 7.68342119606259904184240953878
A16_8 = 4.06898981839711007970213554331
A16_9 = 3.56727187455281109270669543021e-1
A16_13 = -1.39902416515901462129418009734e-3
A16_14 = 2.9475147891527723389556272149
A16_15 = -9.15095847217987001081870187138

# the fifth-order error row E5 and the third-order one E3 = B - B3,
# which differs from B in three entries
E5_1 = 0.1312004499419488073250102996e-1
E5_6 = -0.1225156446376204440720569753e+1
E5_7 = -0.4957589496572501915214079952
E5_8 = 0.1664377182454986536961530415e+1
E5_9 = -0.3503288487499736816886487290
E5_10 = 0.3341791187130174790297318841
E5_11 = 0.8192320648511571246570742613e-1
E5_12 = -0.2235530786388629525884427845e-1
E3_1 = B1 - 0.244094488188976377952755905512
E3_9 = B9 - 0.733846688281611857341361741547
E3_12 = B12 - 0.220588235294117647058823529412e-1

# the dense output's rows F3 to F6 = h (Dr_1 k1 + Dr_6 k6 + ... + Dr_16 k16)
D3_1 = -0.84289382761090128651353491142e+1
D3_6 = 0.56671495351937776962531783590
D3_7 = -0.30689499459498916912797304727e+1
D3_8 = 0.23846676565120698287728149680e+1
D3_9 = 0.21170345824450282767155149946e+1
D3_10 = -0.87139158377797299206789907490
D3_11 = 0.22404374302607882758541771650e+1
D3_12 = 0.63157877876946881815570249290
D3_13 = -0.88990336451333310820698117400e-1
D3_14 = 0.18148505520854727256656404962e+2
D3_15 = -0.91946323924783554000451984436e+1
D3_16 = -0.44360363875948939664310572000e+1
D4_1 = 0.10427508642579134603413151009e+2
D4_6 = 0.24228349177525818288430175319e+3
D4_7 = 0.16520045171727028198505394887e+3
D4_8 = -0.37454675472269020279518312152e+3
D4_9 = -0.22113666853125306036270938578e+2
D4_10 = 0.77334326684722638389603898808e+1
D4_11 = -0.30674084731089398182061213626e+2
D4_12 = -0.93321305264302278729567221706e+1
D4_13 = 0.15697238121770843886131091075e+2
D4_14 = -0.31139403219565177677282850411e+2
D4_15 = -0.93529243588444783865713862664e+1
D4_16 = 0.35816841486394083752465898540e+2
D5_1 = 0.19985053242002433820987653617e+2
D5_6 = -0.38703730874935176555105901742e+3
D5_7 = -0.18917813819516756882830838328e+3
D5_8 = 0.52780815920542364900561016686e+3
D5_9 = -0.11573902539959630126141871134e+2
D5_10 = 0.68812326946963000169666922661e+1
D5_11 = -0.10006050966910838403183860980e+1
D5_12 = 0.77771377980534432092869265740
D5_13 = -0.27782057523535084065932004339e+1
D5_14 = -0.60196695231264120758267380846e+2
D5_15 = 0.84320405506677161018159903784e+2
D5_16 = 0.11992291136182789328035130030e+2
D6_1 = -0.25693933462703749003312586129e+2
D6_6 = -0.15418974869023643374053993627e+3
D6_7 = -0.23152937917604549567536039109e+3
D6_8 = 0.35763911791061412378285349910e+3
D6_9 = 0.93405324183624310003907691704e+2
D6_10 = -0.37458323136451633156875139351e+2
D6_11 = 0.10409964950896230045147246184e+3
D6_12 = 0.29840293426660503123344363579e+2
D6_13 = -0.43533456590011143754432175058e+2
D6_14 = 0.96324553959188282948394950600e+2
D6_15 = -0.39177261675615439165231486172e+2
D6_16 = -0.14972683625798562581422125276e+3

# step-size controller: h_new = h * clip(SAFETY * err**EXPONENT), with
# the exponent -1/8 of the seventh-order error estimate
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EXPONENT = -1 / 8

#: Why a run with ``status`` -1 ended.
STEP_FAILURE = "Required step size is less than spacing between numbers."


class OdeResult(NamedTuple):
    """Outcome of :func:`solve_ivp`.

    ``status`` is 0 at the end of the interval, 1 after an event and -1
    when the step size fell below 10 ulp of t or is NaN (for the reason
    :data:`STEP_FAILURE`); ``steps`` and ``rejected_steps`` count the
    accepted and rejected steps, and ``nfev`` the calls of ``fun``:
    2 + 12 (steps + rejected_steps), plus 3 for each step that held an
    output time or located an event. ``event`` is (index, time) of the
    event that ended the run, or None.
    """

    status: int
    nfev: int
    steps: int
    rejected_steps: int
    event: tuple[int, float] | None


def solve_ivp(fun, t_span, y0, t_eval, sample, rtol, atol, events=()):
    """Integrate the autonomous system ``y' = fun(y)`` over ``t_span``.

    Parameters
    ----------
    fun : callable
        ``fun(y)`` takes the state as a list of floats and returns its
        rates. Rates past the state's length are quadratures, integrated
        from 0 on the same stages, but left out of the error control and
        of what ``fun`` and the events receive.
    t_span : (float, float)
        Initial and final time, the final one the larger.
    y0 : sequence of float
        Initial state.
    t_eval : sequence of float
        Increasing output times inside ``t_span``, read where they are:
        bisected and sliced, not copied.
    sample : callable
        ``sample(t, v)`` receives each output time reached, in order, and
        the states and then the quadratures there, as soon as the step
        that holds it is taken.
    rtol, atol : float
        Tolerances; ``atol`` is positive, ``rtol`` is raised to 100 eps
        if smaller.
    events : sequence of callables
        ``event(y)`` returns a float. Falling through zero ends the run;
        the first in time wins.

    Returns
    -------
    OdeResult
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    rtol = max(rtol, 100 * EPS)
    y = [float(v) for v in y0]
    n = len(y)

    f = fun(y)
    # the quadratures of the rates past the state, from 0
    w = [0.0] * (len(f) - n)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol, math.sqrt(n))
    steps = rejections = dense_steps = 0
    g = [event(y) for event in events]
    ended = None
    # t_eval[:sampled] went to sample
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
            # zj is a component of the stage kj
            k1 = f
            k2 = fun([yi + z1 * A2_1 * h for yi, z1 in zip(y, k1)])
            k3 = fun([yi + (z1 * A3_1 + z2 * A3_2) * h
                      for yi, z1, z2 in zip(y, k1, k2)])
            k4 = fun([yi + (z1 * A4_1 + z3 * A4_3) * h
                      for yi, z1, z3 in zip(y, k1, k3)])
            k5 = fun([yi + (z1 * A5_1 + z3 * A5_3 + z4 * A5_4) * h
                      for yi, z1, z3, z4 in zip(y, k1, k3, k4)])
            k6 = fun([yi + (z1 * A6_1 + z4 * A6_4 + z5 * A6_5) * h
                      for yi, z1, z4, z5 in zip(y, k1, k4, k5)])
            k7 = fun([yi + (z1 * A7_1 + z4 * A7_4 + z5 * A7_5
                            + z6 * A7_6) * h
                      for yi, z1, z4, z5, z6 in zip(y, k1, k4, k5, k6)])
            k8 = fun([yi + (z1 * A8_1 + z4 * A8_4 + z5 * A8_5 + z6 * A8_6
                            + z7 * A8_7) * h
                      for yi, z1, z4, z5, z6, z7
                      in zip(y, k1, k4, k5, k6, k7)])
            k9 = fun([yi + (z1 * A9_1 + z4 * A9_4 + z5 * A9_5 + z6 * A9_6
                            + z7 * A9_7 + z8 * A9_8) * h
                      for yi, z1, z4, z5, z6, z7, z8
                      in zip(y, k1, k4, k5, k6, k7, k8)])
            k10 = fun([yi + (z1 * A10_1 + z4 * A10_4 + z5 * A10_5
                             + z6 * A10_6 + z7 * A10_7 + z8 * A10_8
                             + z9 * A10_9) * h
                       for yi, z1, z4, z5, z6, z7, z8, z9
                       in zip(y, k1, k4, k5, k6, k7, k8, k9)])
            k11 = fun([yi + (z1 * A11_1 + z4 * A11_4 + z5 * A11_5
                             + z6 * A11_6 + z7 * A11_7 + z8 * A11_8
                             + z9 * A11_9 + z10 * A11_10) * h
                       for yi, z1, z4, z5, z6, z7, z8, z9, z10
                       in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
            k12 = fun([yi + (z1 * A12_1 + z4 * A12_4 + z5 * A12_5
                             + z6 * A12_6 + z7 * A12_7 + z8 * A12_8
                             + z9 * A12_9 + z10 * A12_10
                             + z11 * A12_11) * h
                       for yi, z1, z4, z5, z6, z7, z8, z9, z10, z11
                       in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
            y_new = [yi + h * (z1 * B1 + z6 * B6 + z7 * B7 + z8 * B8
                               + z9 * B9 + z10 * B10 + z11 * B11
                               + z12 * B12)
                     for yi, z1, z6, z7, z8, z9, z10, z11, z12
                     in zip(y + w, k1, k6, k7, k8, k9, k10, k11, k12)]
            k13 = fun(y_new[:n])
            # the fifth-order estimate, damped where the third-order one
            # is larger (Hairer, Norsett & Wanner, section II.10)
            err5 = err3 = 0.0
            terms = []
            for yi, zi, z1, z6, z7, z8, z9, z10, z11, z12 in zip(
                    y, y_new, k1, k6, k7, k8, k9, k10, k11, k12):
                scale = atol + max(abs(yi), abs(zi)) * rtol
                e5 = (z1 * E5_1 + z6 * E5_6 + z7 * E5_7 + z8 * E5_8
                      + z9 * E5_9 + z10 * E5_10 + z11 * E5_11
                      + z12 * E5_12) / scale
                e3 = (z1 * E3_1 + z6 * B6 + z7 * B7 + z8 * B8 + z9 * E3_9
                      + z10 * B10 + z11 * B11 + z12 * E3_12) / scale
                terms += e5, e3
                err5 += e5 * e5
                err3 += e3 * e3
            root = (err5 + 0.01 * err3) * n
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            elif root < math.inf:
                error_norm = h_abs * err5 / math.sqrt(root)
            else:
                # a NaN term also lands here, and keeps the norm NaN
                error_norm = _overflowed_norm(h_abs, terms, n)
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
        t_old, y_old, w_old = t, y, w
        t, y, w, f = t_new, y_new[:n], y_new[n:], k13
        g_new = [event(y) for event in events]
        falling = [i for i, (a, b) in enumerate(zip(g, g_new))
                   if a >= 0 >= b]
        g = g_new
        end = bisect_right(t_eval, t, sampled)
        if not (falling or end > sampled):
            continue
        # the three extra stages, only on a step that needs the dense
        # output
        k14 = fun([yi + (z1 * A14_1 + z7 * A14_7 + z8 * A14_8
                         + z9 * A14_9 + z10 * A14_10 + z11 * A14_11
                         + z12 * A14_12 + z13 * A14_13) * h
                   for yi, z1, z7, z8, z9, z10, z11, z12, z13
                   in zip(y_old, k1, k7, k8, k9, k10, k11, k12, k13)])
        k15 = fun([yi + (z1 * A15_1 + z6 * A15_6 + z7 * A15_7
                         + z8 * A15_8 + z11 * A15_11 + z12 * A15_12
                         + z13 * A15_13 + z14 * A15_14) * h
                   for yi, z1, z6, z7, z8, z11, z12, z13, z14
                   in zip(y_old, k1, k6, k7, k8, k11, k12, k13, k14)])
        k16 = fun([yi + (z1 * A16_1 + z6 * A16_6 + z7 * A16_7
                         + z8 * A16_8 + z9 * A16_9 + z13 * A16_13
                         + z14 * A16_14 + z15 * A16_15) * h
                   for yi, z1, z6, z7, z8, z9, z13, z14, z15
                   in zip(y_old, k1, k6, k7, k8, k9, k13, k14, k15)])
        dense_steps += 1
        rows = _dense_rows(y_old + w_old, y_new, h,
                           (k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15,
                            k16))
        if falling:
            t, i = min((_locate(events[i], t_old, h, rows[:n], t), i)
                       for i in falling)
            ended = i, t
            status = 1
            end = bisect_right(t_eval, t, sampled)
        for ti in t_eval[sampled:end]:
            sample(ti, _interpolate(ti, t_old, h, rows))
        sampled = end

    return OdeResult(status=status,
                     nfev=2 + 12 * (steps + rejections) + 3 * dense_steps,
                     steps=steps, rejected_steps=rejections, event=ended)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol, sqrt_n) -> float:
    # Hairer, Norsett & Wanner, section II.4, with SciPy's constants and
    # the root 1/8 of the seventh-order error estimate
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _norm([v / s for v, s in zip(y0, scale)], sqrt_n)
    d1 = _norm([v / s for v, s in zip(f0, scale)], sqrt_n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    # an h0 that underflows (d1 huge, as next to a primary) is raised to
    # the stepping loop's own smallest step before d2 divides by it
    h0 = min(max(h0, 10 * abs(math.nextafter(t0, math.inf) - t0)), interval)
    f1 = fun([v + h0 * d for v, d in zip(y0, f0)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f0, scale)], sqrt_n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _norm(values, sqrt_n) -> float:
    # root mean square, as sqrt(sum of squares) / sqrt(n)
    return math.sqrt(sum(v * v for v in values)) / sqrt_n


def _overflowed_norm(h_abs, terms, n) -> float:
    # the step's error norm where the sums of squares of the scaled error
    # terms (e5, e3, e5, e3, ...) overflow, as next to a primary: the
    # same norm from the terms divided by the largest of them
    big = max(map(abs, terms))
    err5 = err3 = 0.0
    for e5, e3 in zip(terms[::2], terms[1::2]):
        err5 += (e5 / big) ** 2
        err3 += (e3 / big) ** 2
    return h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n) * big


def _locate(event, t_old, h, rows, b) -> float:
    """Bisect the event's zero on the dense output of a step to 4 eps.

    The step runs from a = t_old to b, and ``rows`` holds its dense
    output of the state. The end a keeps the event's sign from the start
    of the step. If the interpolant does not change sign before b (the
    zero lies at the very end of the step) the bisection closes on b.
    """
    def g(t):
        return event(_interpolate(t, t_old, h, rows))

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


def _dense_rows(y_old, y_new, h, stages) -> list[tuple[float, ...]]:
    # the dense output of a step, per component: y_old and the rows F0 to
    # F6 of SciPy's Dop853DenseOutput, from the stages k1 and k6 to k16
    rows = []
    for yo, yn, z1, z6, z7, z8, z9, z10, z11, z12, z13, z14, z15, z16 in zip(
            y_old, y_new, *stages):
        dy = yn - yo
        rows.append((
            yo, dy, h * z1 - dy, 2 * dy - h * (z13 + z1),
            h * (z1 * D3_1 + z6 * D3_6 + z7 * D3_7 + z8 * D3_8 + z9 * D3_9
                 + z10 * D3_10 + z11 * D3_11 + z12 * D3_12 + z13 * D3_13
                 + z14 * D3_14 + z15 * D3_15 + z16 * D3_16),
            h * (z1 * D4_1 + z6 * D4_6 + z7 * D4_7 + z8 * D4_8 + z9 * D4_9
                 + z10 * D4_10 + z11 * D4_11 + z12 * D4_12 + z13 * D4_13
                 + z14 * D4_14 + z15 * D4_15 + z16 * D4_16),
            h * (z1 * D5_1 + z6 * D5_6 + z7 * D5_7 + z8 * D5_8 + z9 * D5_9
                 + z10 * D5_10 + z11 * D5_11 + z12 * D5_12 + z13 * D5_13
                 + z14 * D5_14 + z15 * D5_15 + z16 * D5_16),
            h * (z1 * D6_1 + z6 * D6_6 + z7 * D6_7 + z8 * D6_8 + z9 * D6_9
                 + z10 * D6_10 + z11 * D6_11 + z12 * D6_12 + z13 * D6_13
                 + z14 * D6_14 + z15 * D6_15 + z16 * D6_16)))
    return rows


def _interpolate(t, t_old, h, rows) -> list[float]:
    # the dense output at t, SciPy's nested form of degree 7:
    # y_old + x (F0 + u (F1 + x (F2 + u (F3 + x (F4 + u (F5 + x F6))))))
    # with x = (t - t_old) / h and u = 1 - x, each component on its own
    x = (t - t_old) / h
    u = 1 - x
    return [yo + x * (f0 + u * (f1 + x * (f2 + u * (f3 + x * (f4 + u * (
        f5 + x * f6))))))
            for yo, f0, f1, f2, f3, f4, f5, f6 in rows]
