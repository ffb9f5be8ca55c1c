"""Tests for trajectory propagation and the Jacobi audit."""

from __future__ import annotations

import dataclasses
import math
from array import array

import numpy as np
import pytest
import scipy.integrate

from prtbp import dynamics, rk45
from prtbp import (
    PhaseState,
    SingularityError,
    SystemParams,
    Trajectory,
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
    rate = jacobi_drift_rate(p, PhaseState(*traj.arrays()[1:5]))
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
    assert len(flat) == 6 * len(samples)
    for i, row in enumerate(samples.tolist()):
        assert row == list(flat[6 * i:6 * i + 6])
    assert traj.drift.tolist() == list(traj.drift_values)
    assert not traj.drift.flags.writeable


def test_audit_is_nan_when_a_term_is():
    p = SystemParams(mu=0.1)
    traj = integrate(p, L4_REST, t_end=0.5, sample_dt=0.1)
    assert math.isfinite(jacobi_audit(traj))
    for row in (0, 2, 5):
        values = array("d", traj.sample_values)
        values[6 * row + 5] = math.nan
        broken = dataclasses.replace(traj, sample_values=values)
        assert math.isnan(jacobi_audit(broken))


def _numpy_sample(times, dense, n):
    # the dense output as NumPy evaluated it before the stepper sampled
    # on floats: every output row through its step's quartic, the n state
    # components and the quadratures in separate passes
    t_old, h, y_old, stages, counts = zip(*dense)
    step = np.repeat(np.arange(len(dense)), counts)
    h = np.array(h)[step]
    x = (np.array(times) - np.array(t_old)[step]) / h
    powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
    y_old, stages = np.array(y_old), np.array(stages)
    blocks = []
    for cols in (slice(None, n), slice(n, None)):
        q = np.swapaxes(stages[:, :, cols], 1, 2) @ np.array(rk45.P,
                                                             dtype=float)
        blocks.append(y_old[step, cols] + h[:, None] * (
            q[step] @ powers[:, :, None])[:, :, 0])
    return np.concatenate(blocks, axis=1).T


def test_dense_output_matches_the_numpy_quartic(monkeypatch):
    # the near-L4 drag orbit over one revolution: every sample within
    # 1e-14 of the same quartic evaluated in NumPy
    made = {}
    dense = []
    quartic, interpolate = rk45._quartic, rk45._interpolate

    def spy_quartic(y_old, stages):
        q = quartic(y_old, stages)
        # k2 has zero weight; the reference takes it as zero
        k1, *rest = stages
        made[id(q)] = (q, y_old, [k1, [0.0] * len(k1), *rest])
        return q

    def spy_interpolate(t, t_old, h, q):
        if dense and dense[-1][0] is q:
            dense[-1][-1] += 1
        else:
            dense.append([q, t_old, h, *made[id(q)][1:], 1])
        return interpolate(t, t_old, h, q)

    monkeypatch.setattr(rk45, "_quartic", spy_quartic)
    monkeypatch.setattr(rk45, "_interpolate", spy_interpolate)
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    traj = integrate(p, PhaseState(0.49, 0.866, 0.0, 0.0),
                     t_end=2.0 * math.pi, sample_dt=0.01)
    assert traj.termination == "completed"
    assert sum(d[-1] for d in dense) == len(traj.samples)
    t = traj.samples[:, 0]
    reference = _numpy_sample(t, [d[1:] for d in dense], 4)
    ours = np.vstack((traj.samples[:, 1:5].T, traj.drift))
    assert np.abs(ours - reference).max() <= 1e-14


def test_trajectory_record_fields():
    traj = integrate(CLASSICAL, L4_REST, t_end=0.5, sample_dt=0.25)
    assert isinstance(traj, Trajectory)
    assert traj.params is CLASSICAL
    assert traj.termination in ("completed", "collision", "escape",
                                "step-failure")
    assert traj.steps > 0
    assert traj.rhs_calls == 2 + 6 * (traj.steps + traj.rejected_steps)


def _scipy_reference(fun, t_span, y0, t_eval, rtol, atol, events=()):
    """SciPy's RK45 on the same right-hand side and events."""
    def floats(g):
        # SciPy passes arrays, and the initial state as given
        return lambda t, v: g(t, np.asarray(v, dtype=float).tolist())

    def state_rates(t, v):
        # SciPy has no quadratures, so the rates past the state are dropped
        return fun(t, v)[:len(y0)]

    def wrap(event):
        wrapped = floats(event)
        wrapped.terminal = True
        wrapped.direction = getattr(event, "direction", 0)
        return wrapped

    return scipy.integrate.solve_ivp(
        floats(state_rates), t_span, y0, method="RK45",
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


def _arrays(sol):
    """The output times, and the values with one column per time."""
    t = np.frombuffer(sol.times, dtype=float)
    return t, np.frombuffer(sol.values, dtype=float).reshape(-1, sol.width).T


@pytest.mark.parametrize("p, s0, t_end, dt, tol, expected", REFERENCE_CASES)
def test_stepper_matches_scipy_rk45(p, s0, t_end, dt, tol, expected,
                                    monkeypatch):
    calls = []

    def spy(fun, t_span, y0, **kwargs):
        sol = rk45.solve_ivp(fun, t_span, y0, **kwargs)
        calls.append((fun, t_span, y0, kwargs, sol))
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", spy)
    traj = integrate(p, s0, t_end=t_end, sample_dt=dt, rtol=tol, atol=tol)
    assert traj.termination == expected
    (fun, t_span, y0, kwargs, sol), = calls
    ref = _scipy_reference(fun, t_span, y0, **kwargs)
    assert sol.status == ref.status
    assert sol.nfev == ref.nfev
    for ours, theirs in zip(sol.t_events, ref.t_events, strict=True):
        assert len(ours) == len(theirs)
        assert np.allclose(ours, theirs, rtol=1e-12, atol=0.0)
    t, y = _arrays(sol)
    assert np.array_equal(t, ref.t)
    assert np.abs(y[:len(y0)] - ref.y).max() <= 1e-10


def test_quadrature_rides_along_without_changing_the_steps():
    # y' = -y with the quadrature q' = y: q = 1 - exp(-t), and the state
    # alone reaches fun and the event, whose zero is at y = 1/2
    def decay(t, y):
        assert len(y) == 1
        return [-y[0]]

    def half(t, y):
        assert len(y) == 1
        return y[0] - 0.5

    half.direction = -1.0
    t_eval = np.linspace(0.0, 1.0, 41)
    plain = rk45.solve_ivp(decay, (0.0, 1.0), [1.0], t_eval=t_eval,
                           rtol=1e-12, atol=1e-12, events=(half,))
    sol = rk45.solve_ivp(lambda t, y: [*decay(t, y), y[0]], (0.0, 1.0),
                         [1.0], t_eval=t_eval, rtol=1e-12, atol=1e-12,
                         events=(half,))
    assert sol.status == plain.status == 1
    assert sol.t_events == plain.t_events
    assert sol.nfev == plain.nfev
    (t, y), (plain_t, plain_y) = _arrays(sol), _arrays(plain)
    assert np.array_equal(t, plain_t)
    assert y.shape == (2, len(t))
    assert np.array_equal(y[:1], plain_y)
    assert np.abs(y[1] - (1.0 - np.exp(-t))).max() < 1e-10


def test_step_failure_reports_its_cause():
    # y' = y^2 from y(0) = 1 blows up at t = 1, before the end of the span
    t_eval = np.linspace(0.0, 2.0, 21)
    sol = rk45.solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0],
                         t_eval=t_eval, rtol=1e-9, atol=1e-9)
    assert sol.status == -1
    assert sol.message == ("Required step size is less than spacing "
                           "between numbers.")
    t, y = _arrays(sol)
    assert t.max() < 1.0
    assert np.allclose(y[0], 1.0 / (1.0 - t), rtol=1e-6)
    ref = _scipy_reference(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0],
                           t_eval=t_eval, rtol=1e-9, atol=1e-9)
    assert (ref.status, ref.nfev) == (sol.status, sol.nfev)


@pytest.mark.parametrize("y0, rtol", [([math.nan, 1.0], 1e-9),
                                      ([1.0, 0.0], math.nan)],
                         ids=["nan-state", "nan-rtol"])
def test_nan_step_size_is_a_step_failure(y0, rtol):
    # a NaN state or tolerance makes the step size NaN; the RHS gives up
    # long after the run should have ended, so a hang fails the test
    calls = 0

    def oscillator(t, y):
        nonlocal calls
        calls += 1
        if calls > 20_000:
            raise RuntimeError("the stepper did not stop")
        return [y[1], -y[0]]

    sol = rk45.solve_ivp(oscillator, (0.0, 1.0), y0, t_eval=[0.0, 1.0],
                         rtol=rtol, atol=1e-9)
    assert sol.status == -1
    t, _ = _arrays(sol)
    assert len(t) == 0
