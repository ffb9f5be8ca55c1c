"""Trajectory propagation and Jacobi-integral auditing.

Propagation uses the adaptive Dormand-Prince 5(4) pair of ``prtbp.rk45``
with dense output, sampled on a uniform time grid. Runs terminate on
reaching the end time, on closing within the collision guard of a
primary, on escaping past the escape radius from the radiating primary,
or on integrator step failure.

A trajectory holds its samples as one flat float array, six values per
sample (t, x, y, vx, vy, C), and the drag's change of C, integrated
alongside the state; the audit compares the two. Propagation, C and the
audit run on Python floats and import no NumPy; ``Trajectory.samples``
and ``Trajectory.drift`` view the same floats as NumPy arrays.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (COLLISION_GUARD, ESCAPE_RADIUS, PhaseState,
                    SystemParams, _accelerations, _check_guard, _jacobi,
                    _radii)
from .rk45 import solve_ivp

if TYPE_CHECKING:
    import numpy as np

#: Largest span / sample_dt that integrate accepts, about 10**7 samples.
MAX_SAMPLES = 10**7


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory with per-sample Jacobi values.

    ``sample_values`` holds one sample after the other on a uniform time
    grid (a shorter final interval may close the span), six floats each:
    t, x, y, vx, vy, C. ``drift_values`` holds W(t) = integral of
    -2 (vx Fx + vy Fy) dt from the first sample at each sample, the drag's
    change of C (zero without drag). ``termination`` is one of
    ``completed``, ``collision``, ``escape`` or ``step-failure``;
    ``rhs_calls``, ``steps`` and ``rejected_steps`` count the stepper's
    right-hand-side calls and its accepted and rejected steps;
    ``message`` gives the stepper's reason for a ``step-failure`` and is
    None otherwise.
    """

    params: SystemParams
    sample_values: array
    drift_values: array
    termination: str
    rhs_calls: int
    steps: int
    rejected_steps: int
    message: str | None = None

    @property
    def samples(self) -> np.ndarray:
        """Read-only (N, 6) float view of ``sample_values``, one row per
        sample."""
        return _read_only(self.sample_values).reshape(-1, 6)

    @property
    def drift(self) -> np.ndarray:
        """Read-only float view of ``drift_values``."""
        return _read_only(self.drift_values)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Per-sample columns (t, x, y, vx, vy, C) as float arrays."""
        return tuple(self.samples.T)


def _read_only(values: array) -> np.ndarray:
    # a view of the floats without a copy; the only NumPy in this module
    import numpy as np

    view = np.frombuffer(values, dtype=float)
    view.flags.writeable = False
    return view


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
        ``s0`` or a sample lies within the collision guard.
    """
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
    # s0.t + sample_dt * k has the bits of np.arange's grid
    grid = array("d", (s0.t + sample_dt * k for k in range(nsteps)))
    grid.append(t_end)

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
    times, values = sol.times, sol.values
    if not times:
        # the initial state alone stands in when no step succeeds
        times, values = [s0.t], [s0.x, s0.y, s0.vx, s0.vy, 0.0]

    samples = array("d")
    drift = array("d")
    # the guard check of C also rejects samples inside it
    rows = iter(values)
    for t, x, y, vx, vy, w in zip(times, rows, rows, rows, rows, rows):
        samples.extend((t, x, y, vx, vy,
                        _jacobi(p, x, y, vx, vy, collision_guard)))
        drift.append(w)
    return Trajectory(params=p, sample_values=samples, drift_values=drift,
                      termination=termination, rhs_calls=sol.nfev,
                      steps=sol.steps, rejected_steps=sol.rejected_steps,
                      message=message)


def jacobi_audit(traj: Trajectory) -> float:
    """Audit the Jacobi history of a trajectory against the drag law.

    Returns max |C - W - C0| over the samples, W being ``traj.drift``, or
    NaN if any of them is NaN. C - W is constant along the flow, with or
    without drag (W = 0), so this is the integration error, whatever the
    sample spacing.
    """
    c = traj.sample_values[5::6]
    c0 = c[0]
    worst = 0.0
    for ci, wi in zip(c, traj.drift_values):
        d = abs(ci - wi - c0)
        # a NaN, once taken, fails every later comparison and stays
        if d > worst or d != d:
            worst = d
    return worst
