"""Trajectory propagation and Jacobi-integral auditing.

Propagation uses an adaptive embedded Runge-Kutta 5(4) pair with dense
output, sampled on a uniform time grid so the Jacobi history can be
differenced cleanly. Runs terminate on reaching the end time, on closing
within the collision guard of a primary, on escaping past the escape
radius from the radiating primary, or on integrator step failure.

A trajectory holds its samples as one read-only (N, 6) float array with
the columns t, x, y, vx, vy, C, one row per sample; the Jacobi column and
the audit are each one array evaluation of the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import (COLLISION_GUARD, PhaseState, SystemParams,
                    _accelerations, _check_guard, _radii, jacobi_constant,
                    jacobi_drift_rate)

#: Default escape radius measured from the radiating primary.
ESCAPE_RADIUS = 50.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory with per-sample Jacobi values.

    ``samples`` is a read-only (N, 6) float array with one row per sample
    on a uniform time grid (a shorter final interval may close the span)
    and the columns t, x, y, vx, vy, C; ``termination`` is one of
    ``completed``, ``collision``, ``escape`` or ``step-failure``.
    """

    params: SystemParams
    samples: np.ndarray
    termination: str

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Per-sample columns (t, x, y, vx, vy, C) as float arrays."""
        return tuple(self.samples.T)


def integrate(p: SystemParams, s0: PhaseState, t_end: float,
              sample_dt: float, rtol: float = 1e-12, atol: float = 1e-12,
              collision_guard: float = COLLISION_GUARD,
              escape_radius: float = ESCAPE_RADIUS) -> Trajectory:
    """Propagate a state to ``t_end``, sampling every ``sample_dt``.

    Parameters
    ----------
    p : SystemParams
        System parameters.
    s0 : PhaseState
        Initial state; must start outside the collision guard.
    t_end : float
        Final time, greater than ``s0.t``.
    sample_dt : float
        Uniform sampling interval for the returned trajectory.
    rtol, atol : float
        Integrator tolerances.
    collision_guard, escape_radius : float
        Termination radii; crossing either one ends the run early.

    Returns
    -------
    Trajectory
        Samples up to the termination point, each with its Jacobi value.
    """
    if t_end <= s0.t:
        raise ValueError(f"t_end={t_end} must exceed the initial time {s0.t}")
    if sample_dt <= 0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt}")
    if rtol <= 0 or atol <= 0:
        raise ValueError(f"tolerances must be > 0, got rtol={rtol}, "
                         f"atol={atol}")
    # rejects an initial state already inside the guard
    _check_guard(p, s0.x, s0.y, collision_guard)

    def rhs(t, v):
        # Python floats give the bits of NumPy scalars at a third the cost
        x, y, vx, vy = v.tolist()
        gx, gy, fx, fy = _accelerations(p, x, y, vx, vy)
        return (vx, vy,
                2.0 * p.n * vy + gx + fx,
                -2.0 * p.n * vx + gy + fy)

    def collision(t, v):
        return min(_radii(p, v[0], v[1])) - collision_guard

    def escape(t, v):
        return _radii(p, v[0], v[1])[0] - escape_radius

    collision.terminal = True
    collision.direction = -1.0
    escape.terminal = True
    escape.direction = 1.0

    span = t_end - s0.t
    nsteps = max(1, math.ceil(span / sample_dt - 1e-9))
    grid = s0.t + sample_dt * np.arange(nsteps + 1)
    grid[-1] = t_end

    # the initial state alone stands in when no step succeeds
    t = np.array([s0.t])
    states = np.array([[s0.x], [s0.y], [s0.vx], [s0.vy]])
    try:
        sol = solve_ivp(rhs, (s0.t, t_end), (s0.x, s0.y, s0.vx, s0.vy),
                        method="RK45", t_eval=grid, rtol=rtol, atol=atol,
                        events=(collision, escape), dense_output=False)
    except (ValueError, FloatingPointError):
        termination = "step-failure"
    else:
        if sol.status == 0:
            termination = "completed"
        elif sol.status == 1:
            termination = "collision" if len(sol.t_events[0]) else "escape"
        else:
            termination = "step-failure"
        if len(sol.t):
            t, states = sol.t, sol.y

    # the guard check of jacobi_constant also rejects samples inside it
    c = jacobi_constant(p, PhaseState(*states), collision_guard)
    samples = np.column_stack((t, *states, c))
    samples.flags.writeable = False
    return Trajectory(params=p, samples=samples, termination=termination)


def jacobi_audit(traj: Trajectory) -> float:
    """Audit the Jacobi history of a trajectory against the drag law.

    Without drag the Jacobi integral is constant and the audit returns
    the maximum drift |C(t) - C(0)| over the samples. With drag it
    returns the worst relative mismatch between the centered difference
    of C over each pair of neighbouring intervals and the analytic rate
    -2 (vx Fx + vy Fy) at the central sample; samples where the rate is
    below 1e-15 are skipped, so a rest-state trajectory audits to zero.
    """
    if len(traj.samples) < 3:
        raise ValueError(
            f"audit needs at least 3 samples, got {len(traj.samples)}")
    p = traj.params
    t, _, _, _, _, c = traj.arrays()
    if p.w1 == 0.0:
        return float(np.max(np.abs(c - c[0])))
    rate = jacobi_drift_rate(p, PhaseState(*traj.samples[1:-1, 1:5].T))
    fd = (c[2:] - c[:-2]) / (t[2:] - t[:-2])
    kept = np.abs(rate) >= 1e-15
    rate, fd = rate[kept], fd[kept]
    # fmax skips a NaN mismatch, as a running max(worst, m) would
    return float(np.fmax.reduce(np.abs(fd - rate) / np.abs(rate),
                                initial=0.0))
