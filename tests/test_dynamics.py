"""Tests for trajectory propagation and the Jacobi audit."""

from __future__ import annotations

import math
import random
from array import array

import numpy as np
import pytest
import scipy.integrate

from prtbp import dop853, dynamics
from prtbp import (
    PhaseState,
    SingularityError,
    SystemParams,
    Trajectory,
    equations_of_motion,
    integrate,
    jacobi_audit,
    jacobi_constant,
    jacobi_drift_rate,
    refine_equilibrium,
)

SQRT3_2 = math.sqrt(3.0) / 2.0

CLASSICAL = SystemParams(mu=0.1)
L4_REST = PhaseState(0.4, SQRT3_2, 0.0, 0.0)


def test_integrate_validation():
    nan, inf = math.nan, math.inf
    for name, change in [
            ("t_end", dict(t_end=0.0)), ("t_end", dict(t_end=nan)),
            ("t_end", dict(t_end=inf)), ("sample_dt", dict(sample_dt=0.0)),
            ("sample_dt", dict(sample_dt=nan)),
            ("sample_dt", dict(sample_dt=inf)),
            ("sample_dt", dict(sample_dt=0.99e-7)),
            ("sample_dt", dict(t_end=1e300, sample_dt=1e-10)),
            ("rtol", dict(rtol=0.0)),
            ("rtol", dict(rtol=nan)), ("atol", dict(atol=-1e-9)),
            ("collision_guard", dict(collision_guard=nan)),
            ("escape_radius", dict(escape_radius=nan)),
            ("s0.x", dict(s0=PhaseState(nan, SQRT3_2, 0.0, 0.0))),
            ("s0.vy", dict(s0=PhaseState(0.4, SQRT3_2, 0.0, inf))),
            ("s0.t", dict(s0=PhaseState(0.4, SQRT3_2, 0.0, 0.0, t=nan)))]:
        kwargs = {"s0": L4_REST, "t_end": 1.0, "sample_dt": 0.1, **change}
        with pytest.raises(ValueError, match=name):
            integrate(CLASSICAL, **kwargs)


def test_integrate_rejects_singular_start():
    with pytest.raises(SingularityError):
        integrate(CLASSICAL, PhaseState(0.9, 0.0, 0.0, 0.0),
                  t_end=1.0, sample_dt=0.1)


def test_rest_start_at_equilibrium_stays():
    # needs a linearly stable mass ratio, or the triangular point's own
    # instability amplifies rounding noise exponentially
    p = SystemParams(mu=0.01)
    traj = integrate(p, PhaseState(0.49, SQRT3_2, 0.0, 0.0),
                     t_end=20.0 * math.pi, sample_dt=0.05)
    assert traj.termination == "completed"
    t, x, y, vx, vy, c = traj.arrays()
    assert np.all(np.diff(t) > 0)
    assert t[0] == 0.0
    assert t[-1] == 20.0 * math.pi
    drift = np.hypot(x - 0.49, y - SQRT3_2).max()
    assert drift < 1e-8
    assert jacobi_audit(traj) < 1e-9


def test_sampling_grid_is_uniform_with_short_tail():
    traj = integrate(CLASSICAL, L4_REST, t_end=1.05, sample_dt=0.1)
    t = traj.arrays()[0]
    assert len(t) == 12
    assert np.allclose(np.diff(t)[:-1], 0.1, rtol=0, atol=1e-12)
    assert t[-1] == 1.05


def test_first_sample_is_the_initial_state():
    s0 = PhaseState(0.3, 0.9, 0.1, -0.2, t=2.0)
    traj = integrate(CLASSICAL, s0, t_end=3.0, sample_dt=0.25)
    t, x, y, vx, vy, c0 = traj.samples[0]
    assert (x, y, vx, vy, t) == (0.3, 0.9, 0.1, -0.2, 2.0)
    assert c0 == jacobi_constant(CLASSICAL, s0)


def test_collision_detected():
    # a rest release just above the small primary falls straight in
    p = SystemParams(mu=0.01)
    s0 = PhaseState(0.995, 0.0, 0.0, 0.0)
    traj = integrate(p, s0, t_end=1.0, sample_dt=0.002,
                     rtol=1e-9, atol=1e-9)
    assert traj.termination == "collision"
    assert traj.arrays()[0][-1] < 1.0


def test_escape_detected():
    p = SystemParams(mu=0.01)
    s0 = PhaseState(0.5, 0.5, 3.0, 3.0)
    traj = integrate(p, s0, t_end=60.0, sample_dt=0.5,
                     rtol=1e-9, atol=1e-9)
    assert traj.termination == "escape"
    assert traj.arrays()[0][-1] < 60.0


TERMINATION_CASES = [
    (SystemParams(mu=0.01), PhaseState(0.995, 0.0, 0.0, 0.0),
     1.0, 0.002, "collision"),
    (SystemParams(mu=0.01), PhaseState(0.5, 0.5, 3.0, 3.0),
     60.0, 0.5, "escape"),
    (CLASSICAL, L4_REST, 2.0, 0.1, "completed"),
]


def test_termination_stable_under_tolerance_halving():
    for p, s0, t_end, dt, expected in TERMINATION_CASES:
        for rtol in (1e-9, 5e-10):
            traj = integrate(p, s0, t_end=t_end, sample_dt=dt,
                             rtol=rtol, atol=rtol)
            assert traj.termination == expected


def test_audit_zero_at_drag_equilibrium():
    # the refined point balances drag too, so nothing moves and C stays
    # at C0 to within an ulp of rounding
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    point = refine_equilibrium(p, (0.488, 0.865))
    traj = integrate(p, PhaseState(point.x, point.y, 0.0, 0.0),
                     t_end=1.0, sample_dt=0.01)
    assert traj.termination == "completed"
    assert jacobi_audit(traj) <= 2.0 * math.ulp(traj.samples[0, 5])


def test_audit_conservative_orbit():
    p = SystemParams(mu=0.01)
    s0 = PhaseState(0.495, SQRT3_2, 0.0, 0.0)
    traj = integrate(p, s0, t_end=2.0 * math.pi, sample_dt=0.05)
    assert traj.termination == "completed"
    assert jacobi_audit(traj) < 1e-9


def test_audit_drag_drift_matches_rate():
    p = SystemParams(mu=0.01, q1=0.9, w1=1e-3)
    s0 = PhaseState(0.45, 0.8, 0.0, 1.3)
    traj = integrate(p, s0, t_end=2.0, sample_dt=1e-3)
    assert traj.termination == "completed"
    assert jacobi_audit(traj) < 1e-4
    c = traj.arrays()[5]
    assert np.ptp(c) > 1e-8


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 0.5])
def test_audit_does_not_depend_on_the_sample_spacing(dt):
    # ten revolutions from rest near L4 with drag: C moves by ~6.5e-7,
    # all of it carried by the drift, at every spacing
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    traj = integrate(p, PhaseState(0.49, 0.866, 0.0, 0.0),
                     t_end=20.0 * math.pi, sample_dt=dt)
    assert traj.termination == "completed"
    c = traj.arrays()[5]
    assert np.abs(c - c[0]).max() > 1e-7
    assert jacobi_audit(traj) < 1e-11


def test_drift_is_the_integral_of_the_drift_rate():
    p = SystemParams(mu=0.01, q1=0.9, w1=1e-3)
    traj = integrate(p, PhaseState(0.45, 0.8, 0.0, 1.3), t_end=2.0,
                     sample_dt=1e-3)
    assert not traj.drift.flags.writeable
    assert traj.drift.shape == (len(traj.samples),)
    assert traj.drift[0] == 0.0
    rate = [jacobi_drift_rate(p, PhaseState(*row[1:5]))
            for row in traj.samples.tolist()]
    simpson = scipy.integrate.cumulative_simpson(rate, x=traj.arrays()[0],
                                                 initial=0.0)
    assert np.abs(traj.drift - simpson).max() < 1e-11


def test_arrays_shape_and_jacobi_column():
    p = SystemParams(mu=0.1, q1=0.95, w1=1e-4)
    traj = integrate(p, PhaseState(0.42, 0.85, 0.0, 0.0),
                     t_end=1.0, sample_dt=0.1)
    cols = traj.arrays()
    assert len(cols) == 6
    n = len(traj.samples)
    assert traj.samples.shape == (n, 6)
    assert not traj.samples.flags.writeable
    assert all(col.shape == (n,) for col in cols)
    for t, x, y, vx, vy, c in traj.samples:
        assert c == jacobi_constant(p, PhaseState(x, y, vx, vy, t))


def test_samples_view_the_flat_floats():
    p = SystemParams(mu=0.1, q1=0.95, w1=1e-4)
    traj = integrate(p, PhaseState(0.42, 0.85, 0.0, 0.3),
                     t_end=1.0, sample_dt=0.1)
    samples = traj.samples
    assert samples.dtype == np.float64
    assert samples.shape == (11, 6)
    assert not samples.flags.writeable
    with pytest.raises(ValueError):
        samples[0, 0] = 1.0
    flat = traj.sample_values
    assert len(flat) == 7 * len(samples)
    for i, row in enumerate(samples.tolist()):
        assert row == list(flat[7 * i:7 * i + 6])
        assert flat[7 * i + 6] == jacobi_drift_rate(p, PhaseState(*row[1:5]))
    assert traj.drift.tolist() == list(traj.drift_values)
    assert not traj.drift.flags.writeable


def test_audit_is_nan_when_a_term_is():
    p = SystemParams(mu=0.1)
    traj = integrate(p, L4_REST, t_end=0.5, sample_dt=0.1)
    assert math.isfinite(jacobi_audit(traj))
    for row in (0, 2, 5):
        values = array("d", traj.sample_values)
        values[7 * row + 5] = math.nan
        broken = Trajectory(traj.params, values, traj.drift_values,
                            traj.termination, traj.rhs_calls, traj.steps,
                            traj.rejected_steps)
        assert math.isnan(jacobi_audit(broken))


def _numpy_sample(times, dense):
    # the dense output as NumPy evaluates SciPy's Dop853DenseOutput: every
    # step's rows F0 to F6 from its 16 stages, then the nested polynomial
    # of degree 7 at every output time of the step
    t_old, h, y_old, y_new, stages, counts = zip(*dense)
    step = np.repeat(np.arange(len(dense)), counts)
    h, y_old, y_new = np.array(h), np.array(y_old), np.array(y_new)
    k = np.array(stages)
    d = np.array([[getattr(dop853, f"D{r}_{j}", 0.0) for j in range(1, 17)]
                  for r in range(3, 7)])
    dy = y_new - y_old
    hk = h[:, None] * k[:, 0]
    rows = np.stack([dy, hk - dy, 2 * dy - h[:, None] * k[:, 12] - hk,
                     *np.moveaxis(h[:, None, None] * (d @ k), 1, 0)])
    x = ((np.array(times) - np.array(t_old)[step]) / h[step])[:, None]
    y = np.zeros((len(step), y_old.shape[1]))
    for i, row in enumerate(rows[::-1, step]):
        y = (y + row) * (x if i % 2 == 0 else 1 - x)
    return (y_old[step] + y).T


def test_dense_output_matches_the_numpy_quartic(monkeypatch):
    # the near-L4 drag orbit over one revolution: every sample within
    # 1e-14 of the same degree-7 interpolant evaluated in NumPy
    made = {}
    dense = []
    dense_rows, interpolate = dop853._dense_rows, dop853._interpolate

    def spy_dense_rows(y_old, y_new, h, stages):
        rows = dense_rows(y_old, y_new, h, stages)
        # k2 to k5 have zero weight; the reference takes them as zero
        k1, *rest = stages
        zero = [0.0] * len(k1)
        made[id(rows)] = (rows, y_old, y_new, [k1, *[zero] * 4, *rest])
        return rows

    def spy_interpolate(t, t_old, h, rows):
        if dense and dense[-1][0] is rows:
            dense[-1][-1] += 1
        else:
            dense.append([rows, t_old, h, *made[id(rows)][1:], 1])
        return interpolate(t, t_old, h, rows)

    monkeypatch.setattr(dop853, "_dense_rows", spy_dense_rows)
    monkeypatch.setattr(dop853, "_interpolate", spy_interpolate)
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    traj = integrate(p, PhaseState(0.49, 0.866, 0.0, 0.0),
                     t_end=2.0 * math.pi, sample_dt=0.01)
    assert traj.termination == "completed"
    assert sum(d[-1] for d in dense) == len(traj.samples)
    t = traj.samples[:, 0]
    reference = _numpy_sample(t, [d[1:] for d in dense])
    ours = np.vstack((traj.samples[:, 1:5].T, traj.drift))
    assert np.abs(ours - reference).max() <= 1e-14


@pytest.fixture
def dense_steps(monkeypatch):
    """The number of steps that built the dense output, so far."""
    count = [0]
    dense_rows = dop853._dense_rows

    def spy(*args):
        count[0] += 1
        return dense_rows(*args)

    monkeypatch.setattr(dop853, "_dense_rows", spy)
    return count


def test_trajectory_record_fields(dense_steps):
    traj = integrate(CLASSICAL, L4_REST, t_end=0.5, sample_dt=0.25)
    assert isinstance(traj, Trajectory)
    assert traj.params is CLASSICAL
    assert traj.termination in ("completed", "collision", "escape",
                                "step-failure")
    assert traj.event_time is None
    assert traj.steps > 0
    # 12 calls a step, 3 more for the dense output of a step with samples
    assert traj.rhs_calls == (2 + 12 * (traj.steps + traj.rejected_steps)
                              + 3 * dense_steps[0])


def test_near_l4_drag_orbit_takes_few_rhs_calls():
    # ten revolutions sampled every 0.01 at the default tolerances: the
    # eighth-order steps need under 3,000 calls, where a 5(4) pair needs
    # 8,642, and C - W stays within 1e-12 of C0
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    traj = integrate(p, PhaseState(0.49, 0.866, 0.0, 0.0),
                     t_end=20.0 * math.pi, sample_dt=0.01)
    assert traj.termination == "completed"
    assert traj.rhs_calls < 3000
    assert jacobi_audit(traj) < 1e-12


def _scipy_reference(fun, t_span, y0, t_eval, rtol, atol, events=()):
    """SciPy's DOP853 on the same right-hand side and events, each event
    terminal and counted only where it falls through zero."""
    def floats(g):
        # SciPy passes the time and arrays, and the initial state as given
        return lambda t, v: g(np.asarray(v, dtype=float).tolist())

    def state_rates(v):
        # SciPy has no quadratures, so the rates past the state are dropped
        return fun(v)[:len(y0)]

    def wrap(event):
        wrapped = floats(event)
        wrapped.terminal = True
        wrapped.direction = -1.0
        return wrapped

    return scipy.integrate.solve_ivp(
        floats(state_rates), t_span, y0, method="DOP853",
        t_eval=t_eval, rtol=rtol, atol=atol,
        events=[wrap(event) for event in events])


REFERENCE_CASES = [
    *((p, s0, t_end, dt, tol, expected)
      for p, s0, t_end, dt, expected in TERMINATION_CASES
      for tol in (1e-9, 5e-10)),
    (SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3),
     PhaseState(0.49, 0.868, 0.0, 0.0), 2.0 * math.pi, 0.01, 1e-12,
     "completed"),
    (SystemParams(mu=0.01), PhaseState(0.495, SQRT3_2, 0.0, 0.0),
     2.0 * math.pi, 0.05, 1e-12, "completed"),
]


def _solve(fun, t_span, y0, **kwargs):
    """The stepper's result, and the :func:`_arrays` of its samples."""
    got = []
    sol = dop853.solve_ivp(fun, t_span, y0,
                           sample=lambda t, v: got.append((t, v)), **kwargs)
    return sol, *_arrays(got)


def _arrays(got):
    """The sampled times, and the values with one column per time."""
    t = np.array([t for t, _ in got])
    return t, np.array([v for _, v in got], dtype=float).T


@pytest.fixture
def solve_calls(monkeypatch):
    """The (fun, t_span, y0, kwargs, sol, samples) of each stepper run of
    ``integrate``, ``samples`` holding each (t, values) handed over."""
    calls = []

    def spy(fun, t_span, y0, sample, **kwargs):
        got = []

        def record(t, v):
            got.append((t, v))
            sample(t, v)

        sol = dop853.solve_ivp(fun, t_span, y0, sample=record, **kwargs)
        calls.append((fun, t_span, y0, kwargs, sol, got))
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", spy)
    return calls


@pytest.mark.parametrize("p, s0, t_end, dt, tol, expected", REFERENCE_CASES)
def test_stepper_matches_scipy_dop853(p, s0, t_end, dt, tol, expected,
                                     solve_calls):
    traj = integrate(p, s0, t_end=t_end, sample_dt=dt, rtol=tol, atol=tol)
    assert traj.termination == expected
    (fun, t_span, y0, kwargs, sol, got), = solve_calls
    ref = _scipy_reference(fun, t_span, y0, **kwargs)
    assert sol.status == ref.status
    assert sol.nfev == ref.nfev
    # a collision or an escape reports the time the stepper located
    assert traj.event_time == (sol.event[1] if sol.event else None)
    # the event that ended the run, at SciPy's time to 1e-12
    ours = [[] for _ in ref.t_events]
    if sol.event:
        ours[sol.event[0]].append(sol.event[1])
    for mine, theirs in zip(ours, ref.t_events, strict=True):
        assert len(mine) == len(theirs)
        assert np.allclose(mine, theirs, rtol=1e-12, atol=0.0)
    t, y = _arrays(got)
    assert np.array_equal(t, ref.t)
    assert np.abs(y[:len(y0)] - ref.y).max() <= 1e-10


@pytest.mark.parametrize("params", [
    dict(mu=0.1), dict(mu=0.01, q1=0.98, w1=1e-3), dict(mu=0.01, a2=1e-3),
    dict(mu=0.01, q1=0.995, a2=1e-4, cd=1e3),
], ids=["classical", "drag", "oblate", "drag-and-oblate"])
def test_stepper_rhs_is_the_equations_of_motion(params, solve_calls):
    """The stepper's right-hand side restates the equations of motion and
    the drift rate, to spare the calls; the two agree bit for bit."""
    p = SystemParams(**params)
    integrate(p, L4_REST, t_end=0.1, sample_dt=0.1)
    (rhs, *_), = solve_calls
    rng = random.Random(7)
    for _ in range(200):
        s = PhaseState(*(rng.uniform(-1.5, 1.5) for _ in range(4)))
        got = rhs((s.x, s.y, s.vx, s.vy))
        want = (*equations_of_motion(p, s), jacobi_drift_rate(p, s))
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_quadrature_rides_along_without_changing_the_steps():
    # y' = -y with the quadrature q' = y: q = 1 - exp(-t), and the state
    # alone reaches fun and the event, whose zero is at y = 1/2
    def decay(y):
        assert len(y) == 1
        return [-y[0]]

    def half(y):
        assert len(y) == 1
        return y[0] - 0.5

    t_eval = np.linspace(0.0, 1.0, 41)
    plain, plain_t, plain_y = _solve(decay, (0.0, 1.0), [1.0], t_eval=t_eval,
                                     rtol=1e-12, atol=1e-12, events=(half,))
    sol, t, y = _solve(lambda y: [*decay(y), y[0]], (0.0, 1.0), [1.0],
                       t_eval=t_eval, rtol=1e-12, atol=1e-12, events=(half,))
    assert sol.status == plain.status == 1
    assert sol.event == plain.event
    assert sol.nfev == plain.nfev
    assert np.array_equal(t, plain_t)
    assert y.shape == (2, len(t))
    assert np.array_equal(y[:1], plain_y)
    assert np.abs(y[1] - (1.0 - np.exp(-t))).max() < 1e-10


def test_only_an_event_falling_through_zero_ends_the_run():
    # y' = -y from 1: `rising` crosses zero upward at t = ln 1.25 and the
    # run goes on; `falling` crosses downward at t = ln 2 and ends it, at
    # the time of SciPy's terminal event with direction -1
    def decay(y):
        return [-y[0]]

    def rising(y):
        return 0.8 - y[0]

    def falling(y):
        return y[0] - 0.5

    kwargs = dict(t_eval=np.linspace(0.0, 1.0, 11), rtol=1e-12, atol=1e-12,
                  events=(rising, falling))
    sol, t, _ = _solve(decay, (0.0, 1.0), [1.0], **kwargs)
    assert sol.status == 1
    index, time = sol.event
    assert index == 1
    assert abs(time - math.log(2.0)) < 1e-10
    assert t.max() <= time
    ref = _scipy_reference(decay, (0.0, 1.0), [1.0], **kwargs)
    assert [len(ts) for ts in ref.t_events] == [0, 1]
    assert time == pytest.approx(ref.t_events[1][0], rel=1e-12, abs=0.0)
    assert (ref.status, ref.nfev) == (sol.status, sol.nfev)
    # alone, the rising event lets the run reach the end of the span
    sol, t, _ = _solve(decay, (0.0, 1.0), [1.0], **{**kwargs,
                                                     "events": (rising,)})
    assert (sol.status, sol.event) == (0, None)
    assert t[-1] == 1.0


def test_samples_arrive_once_each_in_time_order_as_the_steps_go():
    # each sample of an oscillator's five periods is handed over once, in
    # time order, right after the step that holds it: the calls of fun
    # made before each sample grow with it, and no sample waits for the
    # end of the run
    calls = []

    def oscillator(y):
        calls.append(None)
        return [y[1], -y[0]]

    arrivals = []
    t_eval = np.linspace(0.0, 10.0 * math.pi, 101)
    sol = dop853.solve_ivp(
        oscillator, (0.0, 10.0 * math.pi), [1.0, 0.0], t_eval=t_eval,
        sample=lambda t, v: arrivals.append((t, len(calls))),
        rtol=1e-12, atol=1e-12)
    assert sol.status == 0
    assert [t for t, _ in arrivals] == t_eval.tolist()
    made = [n for _, n in arrivals]
    assert made == sorted(made)
    assert made[0] < made[len(made) // 2] < made[-1] == sol.nfev


class _Unlisted:
    # a grid that can be bisected and sliced but not iterated, as a copy
    # into a new array would iterate it
    def __init__(self, values):
        self._values = list(values)

    def __len__(self):
        return len(self._values)

    def __getitem__(self, index):
        return self._values[index]

    def __iter__(self):
        raise AssertionError("the output grid was copied")


def test_output_grid_is_read_in_place():
    t_eval = _Unlisted(i / 10.0 for i in range(11))
    arrivals = []
    sol = dop853.solve_ivp(
        lambda y: [y[1], -y[0]], (0.0, 1.0), [1.0, 0.0], t_eval=t_eval,
        sample=lambda t, v: arrivals.append(t), rtol=1e-9, atol=1e-9)
    assert sol.status == 0
    assert arrivals == [i / 10.0 for i in range(11)]


def test_overflowed_error_norm_is_the_plain_norm_scaled():
    # where the squares of the error terms overflow, the norm is the one
    # of the terms scaled by a power of two, scaled back
    def plain(h_abs, terms, n):
        err5 = sum(e * e for e in terms[::2])
        err3 = sum(e * e for e in terms[1::2])
        return h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)

    rng = random.Random(3)
    for _ in range(100):
        terms = [rng.uniform(-1.0, 1.0) for _ in range(8)]
        h_abs = rng.uniform(1e-3, 1.0)
        want = plain(h_abs, terms, 4)
        assert dop853._overflowed_norm(h_abs, terms, 4) == pytest.approx(
            want, rel=1e-14)
        huge = [math.ldexp(e, 700) for e in terms]
        assert math.isinf(sum(e * e for e in huge))
        assert dop853._overflowed_norm(math.ldexp(h_abs, -700), huge,
                                       4) == pytest.approx(want, rel=1e-14)
    assert math.isnan(dop853._overflowed_norm(1.0, [math.inf, 1.0], 1))
    assert math.isnan(dop853._overflowed_norm(1.0, [math.nan, 1.0], 1))


def test_step_failure_reports_its_cause():
    # y' = y^2 from y(0) = 1 blows up at t = 1, before the end of the span
    t_eval = np.linspace(0.0, 2.0, 21)
    sol, t, y = _solve(lambda y: [y[0] * y[0]], (0.0, 2.0), [1.0],
                       t_eval=t_eval, rtol=1e-9, atol=1e-9)
    assert sol.status == -1
    assert sol.event is None
    assert dop853.STEP_FAILURE == ("Required step size is less than "
                                   "spacing between numbers.")
    # the steps close on the pole to within 2e-10 before they fail, so
    # the last sample may be the one at t = 1, where y is already huge
    assert t.max() <= 1.0
    before = t < 1.0
    assert np.allclose(y[0][before], 1.0 / (1.0 - t[before]), rtol=1e-6)
    ref = _scipy_reference(lambda y: [y[0] * y[0]], (0.0, 2.0), [1.0],
                           t_eval=t_eval, rtol=1e-9, atol=1e-9)
    assert (ref.status, ref.nfev) == (sol.status, sol.nfev)


@pytest.mark.parametrize("y0, rtol", [([math.nan, 1.0], 1e-9),
                                      ([1.0, 0.0], math.nan)],
                         ids=["nan-state", "nan-rtol"])
def test_nan_step_size_is_a_step_failure(y0, rtol):
    # a NaN state or tolerance makes the step size NaN; the RHS gives up
    # long after the run should have ended, so a hang fails the test
    calls = 0

    def oscillator(y):
        nonlocal calls
        calls += 1
        if calls > 20_000:
            raise RuntimeError("the stepper did not stop")
        return [y[1], -y[0]]

    sol, t, _ = _solve(oscillator, (0.0, 1.0), y0, t_eval=[0.0, 1.0],
                       rtol=rtol, atol=1e-9)
    assert (sol.status, sol.steps) == (-1, 0)
    # no step was taken, so no sample was handed over
    assert len(t) == 0
