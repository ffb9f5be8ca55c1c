"""Trajectory propagation and Jacobi-integral auditing.

Propagation uses the adaptive Dormand-Prince 8(5,3) method of
``prtbp.dop853``, whose degree-7 dense output is sampled on a uniform
time grid. Runs terminate on reaching the end time, on closing within
the collision guard of a primary, on escaping past the escape radius
from the radiating primary, or on integrator step failure; the time of
a collision or an escape is located on the dense output.

A trajectory holds its samples as one flat float array, seven values
per sample (t, x, y, vx, vy, C, dC/dt), and the drag's change of C,
integrated alongside the state. The stepper hands over each sample as
it interpolates it; C and its drag rate are formed there, from one
derivation of the radii in ``model``, straight into those arrays, and
the audit compares C with the drag's change. Propagation, C and the
audit run on Python floats and import no NumPy, which is not a
dependency; ``Trajectory.samples``, ``.drift`` and ``.arrays()`` import
it to view the same floats as arrays.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING

from .model import (COLLISION_GUARD, ESCAPE_RADIUS, PhaseState,
                    SystemParams, _radii, _Record, _state_kernel)
from .dop853 import STEP_FAILURE, solve_ivp

if TYPE_CHECKING:
    import numpy as np

#: Largest span / sample_dt that integrate accepts, about 10**7 samples.
MAX_SAMPLES = 10**7


class Trajectory(_Record):
    """Sampled trajectory with per-sample Jacobi values.

    ``sample_values`` holds one sample after the other on a uniform time
    grid (a shorter final interval may close the span), seven floats
    each, the columns of the ``integrate`` table: t, x, y, vx, vy, C and
    dC/dt = -2 (vx Fx + vy Fy). ``drift_values`` holds W(t), the integral
    of dC/dt from the first sample at each sample, the drag's change of C
    (zero without drag). ``termination`` is one of
    ``completed``, ``collision``, ``escape`` or ``step-failure``;
    ``rhs_calls``, ``steps`` and ``rejected_steps`` count the stepper's
    right-hand-side calls and its accepted and rejected steps;
    ``message`` gives the stepper's reason for a ``step-failure`` and
    ``event_time`` the time of a ``collision`` or an ``escape``; each is
    None otherwise. Two trajectories are equal only if they are the same
    object.
    """

    _fields = ("params", "sample_values", "drift_values", "termination",
               "rhs_calls", "steps", "rejected_steps", "message",
               "event_time")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, params: SystemParams, sample_values: array,
                 drift_values: array, termination: str, rhs_calls: int,
                 steps: int, rejected_steps: int, message: str | None = None,
                 event_time: float | None = None):
        self._freeze(params, sample_values, drift_values, termination,
                     rhs_calls, steps, rejected_steps, message, event_time)

    @property
    def samples(self) -> np.ndarray:
        """Read-only (N, 6) float view of ``sample_values``, one row of
        (t, x, y, vx, vy, C) per sample; imports NumPy."""
        return _read_only(self.sample_values).reshape(-1, 7)[:, :6]

    @property
    def drift(self) -> np.ndarray:
        """Read-only float view of ``drift_values``; imports NumPy."""
        return _read_only(self.drift_values)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Columns (t, x, y, vx, vy, C) as float arrays; imports NumPy."""
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
        Termination radii; crossing either one ends the run early. A
        collision is found only where the steps resolve the fall: a run
        whose steps drop below 10 ulp of t before it reaches the guard
        ends in ``step-failure``, not ``collision``. So a guard below
        the distance the stepper can resolve near a primary reads
        ``step-failure``, as a start 1e-90 from the radiating primary
        with a guard of 1e-300 does.

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
        ``s0`` or a sample lies within the collision guard, or a state
        of the run is too near a primary to evaluate.
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
    # the samples are checked against the guard, and so is s0 first; the
    # stages of a step probe freely, as the collision event ends the run
    checked = _state_kernel(p, collision_guard)
    checked(s0.x, s0.y, s0.vx, s0.vy)
    free = _state_kernel(p, 0.0)
    # the system's constants, bound once per trajectory
    two_n = 2.0 * p.n
    radii = _radii(p)

    def rhs(v):
        x, y, vx, vy = v
        _, gx, gy, fx, fy = free(x, y, vx, vy)
        # the trailing rate is the drag law's dC/dt, a quadrature
        return (vx, vy,
                two_n * vy + gx + fx,
                -two_n * vx + gy + fy,
                -2.0 * (vx * fx + vy * fy))

    # each event falls through zero where it ends the run
    def collision(v):
        return min(radii(v[0], v[1])) - collision_guard

    def escape(v):
        return escape_radius - radii(v[0], v[1])[0]

    samples = array("d")
    drift = array("d")
    extend, append = samples.extend, drift.append

    def sample(t, v):
        x, y, vx, vy, w = v
        u, _, _, fx, fy = checked(x, y, vx, vy)
        extend((t, x, y, vx, vy, 2.0 * u - vx * vx - vy * vy,
                -2.0 * (vx * fx + vy * fy)))
        append(w)

    nsteps = max(1, math.ceil(span / sample_dt - 1e-9))
    # s0.t + sample_dt * k has the bits of np.arange's grid
    grid = array("d", (s0.t + sample_dt * k for k in range(nsteps)))
    grid.append(t_end)

    sol = solve_ivp(rhs, (s0.t, t_end), (s0.x, s0.y, s0.vx, s0.vy),
                    t_eval=grid, sample=sample, rtol=rtol, atol=atol,
                    events=(collision, escape))
    if not samples:
        # the initial state alone stands in when no step succeeds
        sample(s0.t, (s0.x, s0.y, s0.vx, s0.vy, 0.0))
    message = event_time = None
    if sol.status == 0:
        termination = "completed"
    elif sol.status == 1:
        which, event_time = sol.event
        termination = ("collision", "escape")[which]
    else:
        termination, message = "step-failure", STEP_FAILURE
    return Trajectory(params=p, sample_values=samples, drift_values=drift,
                      termination=termination, rhs_calls=sol.nfev,
                      steps=sol.steps, rejected_steps=sol.rejected_steps,
                      message=message, event_time=event_time)


def jacobi_audit(traj: Trajectory) -> float:
    """Audit the Jacobi history of a trajectory against the drag law.

    Returns max |C - W - C0| over the samples, W being ``traj.drift``, or
    NaN if any of them is NaN. C - W is constant along the flow, with or
    without drag (W = 0), so this is the integration error, whatever the
    sample spacing.
    """
    c = traj.sample_values[5::7]
    c0 = c[0]
    worst = 0.0
    for ci, wi in zip(c, traj.drift_values):
        d = abs(ci - wi - c0)
        # a NaN, once taken, fails every later comparison and stays
        if d > worst or d != d:
            worst = d
    return worst
