"""Trajectory propagation and Jacobi-integral auditing.

Propagation uses the adaptive Dormand-Prince 5(4) pair of ``prtbp.rk45``
with dense output, sampled on a uniform time grid. Runs terminate on
reaching the end time, on closing within the collision guard of a
primary, on escaping past the escape radius from the radiating primary,
or on integrator step failure.

A trajectory holds its samples as one read-only (N, 6) float array with
the columns t, x, y, vx, vy, C, one row per sample, and the drag's change
of C, integrated alongside the state; the audit compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (COLLISION_GUARD, ESCAPE_RADIUS, PhaseState,
                    SystemParams, _accelerations, _check_guard, _radii,
                    jacobi_constant)
from .rk45 import solve_ivp

if TYPE_CHECKING:
    import numpy as np

#: Largest span / sample_dt that integrate accepts, about 10**7 samples.
MAX_SAMPLES = 10**7


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory with per-sample Jacobi values.

    ``samples`` is a read-only (N, 6) float array with one row per sample
    on a uniform time grid (a shorter final interval may close the span)
    and the columns t, x, y, vx, vy, C; ``drift`` is a read-only array of
    W(t) = integral of -2 (vx Fx + vy Fy) dt from the first sample, the
    drag's change of C (zero without drag); ``termination`` is one of
    ``completed``, ``collision``, ``escape`` or ``step-failure``;
    ``message`` gives the stepper's reason for a ``step-failure`` and is
    None otherwise.
    """

    params: SystemParams
    samples: np.ndarray
    drift: np.ndarray
    termination: str
    message: str | None = None

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
        Finite initial state; must start outside the collision guard.
    t_end : float
        Finite final time, greater than ``s0.t``.
    sample_dt : float
        Uniform sampling interval for the returned trajectory.
    rtol, atol : float
        Integrator tolerances.
    collision_guard, escape_radius : float
        Termination radii; crossing either one ends the run early.

    Returns
    -------
    Trajectory
        Samples up to the termination point, with C and its drift W.

    Raises
    ------
    ValueError
        An argument is not finite, ``t_end`` does not exceed ``s0.t``, or
        ``sample_dt``, a tolerance or a radius is not > 0, or the span
        holds more than ``MAX_SAMPLES`` sampling intervals; the message
        names the argument.
    SingularityError
        ``s0`` lies within the collision guard.
    """
    import numpy as np

    for name in ("x", "y", "vx", "vy", "t"):
        value = getattr(s0, name)
        if not -math.inf < value < math.inf:
            raise ValueError(f"s0.{name} must be finite, got {value}")
    if not s0.t < t_end < math.inf:
        raise ValueError(f"t_end must be finite and exceed s0.t={s0.t}, "
                         f"got {t_end}")
    for name, value in (("sample_dt", sample_dt), ("rtol", rtol),
                        ("atol", atol), ("collision_guard", collision_guard),
                        ("escape_radius", escape_radius)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    span = t_end - s0.t
    # checked before ceil, which overflows on an infinite ratio
    if not span / sample_dt <= MAX_SAMPLES:
        raise ValueError(f"sample_dt must leave at most {MAX_SAMPLES} "
                         f"intervals in the span {span}, got {sample_dt}")
    # rejects an initial state already inside the guard
    _check_guard(p, s0.x, s0.y, collision_guard)

    def rhs(t, v):
        x, y, vx, vy = v
        gx, gy, fx, fy = _accelerations(p, x, y, vx, vy)
        # the trailing rate is the drag law's dC/dt, a quadrature
        return (vx, vy,
                2.0 * p.n * vy + gx + fx,
                -2.0 * p.n * vx + gy + fy,
                -2.0 * (vx * fx + vy * fy))

    def collision(t, v):
        return min(_radii(p, v[0], v[1])) - collision_guard

    def escape(t, v):
        return _radii(p, v[0], v[1])[0] - escape_radius

    collision.direction = -1.0
    escape.direction = 1.0

    nsteps = max(1, math.ceil(span / sample_dt - 1e-9))
    grid = s0.t + sample_dt * np.arange(nsteps + 1)
    grid[-1] = t_end

    sol = solve_ivp(rhs, (s0.t, t_end), (s0.x, s0.y, s0.vx, s0.vy),
                    t_eval=grid, rtol=rtol, atol=atol,
                    events=(collision, escape))
    message = None
    if sol.status == 0:
        termination = "completed"
    elif sol.status == 1:
        termination = "collision" if sol.t_events[0] else "escape"
    else:
        termination, message = "step-failure", sol.message
    t, y = sol.t, sol.y
    if not len(t):
        # the initial state alone stands in when no step succeeds
        t = np.array([s0.t])
        y = np.array([[s0.x], [s0.y], [s0.vx], [s0.vy], [0.0]])
    # a copy of the drift row, so the stepper's array can be freed
    states, drift = y[:4], y[4].copy()

    # the guard check of jacobi_constant also rejects samples inside it
    c = jacobi_constant(p, PhaseState(*states), collision_guard)
    samples = np.column_stack((t, *states, c))
    samples.flags.writeable = False
    drift.flags.writeable = False
    return Trajectory(params=p, samples=samples, drift=drift,
                      termination=termination, message=message)


def jacobi_audit(traj: Trajectory) -> float:
    """Audit the Jacobi history of a trajectory against the drag law.

    Returns max |C - W - C0| over the samples, W being ``traj.drift``.
    C - W is constant along the flow, with or without drag (W = 0), so
    this is the integration error, whatever the sample spacing.
    """
    c = traj.samples[:, 5]
    return float(abs(c - traj.drift - c[0]).max())
