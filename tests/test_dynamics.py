"""Tests for trajectory propagation and the Jacobi audit."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        integrate(CLASSICAL, L4_REST, t_end=0.0, sample_dt=0.1)
    with pytest.raises(ValueError):
        integrate(CLASSICAL, L4_REST, t_end=1.0, sample_dt=0.0)
    with pytest.raises(ValueError):
        integrate(CLASSICAL, L4_REST, t_end=1.0, sample_dt=0.1, rtol=0.0)
    with pytest.raises(ValueError):
        integrate(CLASSICAL, L4_REST, t_end=1.0, sample_dt=0.1, atol=-1e-9)


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


def test_termination_stable_under_tolerance_halving():
    cases = [
        (SystemParams(mu=0.01), PhaseState(0.995, 0.0, 0.0, 0.0),
         1.0, 0.002, "collision"),
        (SystemParams(mu=0.01), PhaseState(0.5, 0.5, 3.0, 3.0),
         60.0, 0.5, "escape"),
        (CLASSICAL, L4_REST, 2.0, 0.1, "completed"),
    ]
    for p, s0, t_end, dt, expected in cases:
        for rtol in (1e-9, 5e-10):
            traj = integrate(p, s0, t_end=t_end, sample_dt=dt,
                             rtol=rtol, atol=rtol)
            assert traj.termination == expected


def test_audit_needs_three_samples():
    traj = integrate(CLASSICAL, L4_REST, t_end=0.1, sample_dt=0.1)
    assert len(traj.samples) == 2
    with pytest.raises(ValueError):
        jacobi_audit(traj)


def test_audit_zero_at_drag_equilibrium():
    # the refined point balances drag too, so nothing moves and every
    # drift rate sits below the audit's noise cutoff
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    point = refine_equilibrium(p, (0.488, 0.865))
    traj = integrate(p, PhaseState(point.x, point.y, 0.0, 0.0),
                     t_end=1.0, sample_dt=0.01)
    assert traj.termination == "completed"
    assert jacobi_audit(traj) == 0.0


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


def _audit_reference(traj: Trajectory) -> float:
    """The drag branch of the audit as a per-sample loop."""
    t, x, y, vx, vy, c = traj.arrays()
    worst = 0.0
    for i in range(1, len(t) - 1):
        rate = jacobi_drift_rate(traj.params,
                                 PhaseState(x[i], y[i], vx[i], vy[i]))
        if abs(rate) < 1e-15:
            continue
        fd = (c[i + 1] - c[i - 1]) / (t[i + 1] - t[i - 1])
        worst = max(worst, abs(fd - rate) / abs(rate))
    return worst


@pytest.mark.parametrize("p, s0, t_end, dt", [
    (SystemParams(mu=0.01, q1=0.9, w1=1e-3),
     PhaseState(0.45, 0.8, 0.0, 1.3), 2.0, 1e-3),
    (SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3),
     PhaseState(0.49, 0.868, 0.0, 0.0), 2.0 * math.pi, 0.01),
    (SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3),
     PhaseState(0.49, -0.868, 0.0, 0.0), 1.0, 0.05),
])
def test_audit_matches_per_sample_reference(p, s0, t_end, dt):
    traj = integrate(p, s0, t_end=t_end, sample_dt=dt)
    assert traj.termination == "completed"
    assert jacobi_audit(traj) == _audit_reference(traj)


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


def test_trajectory_record_fields():
    traj = integrate(CLASSICAL, L4_REST, t_end=0.5, sample_dt=0.25)
    assert isinstance(traj, Trajectory)
    assert traj.params is CLASSICAL
    assert traj.termination in ("completed", "collision", "escape",
                                "step-failure")
