"""Dimensionless model of the planar restricted three-body problem with a
radiating larger primary, an oblate smaller primary, and Poynting-Robertson
drag on the massless particle.

Units are the usual rotating-frame ones: the primary separation is 1, the
sum of the primary masses is 1, and the orbital period of the primaries is
2*pi. The frame rotates with the perturbed mean motion n, so both primaries
sit on the x axis, the larger at (-mu, 0) and the smaller at (1-mu, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SingularityError

#: Default closest allowed approach to either primary, in separation units.
COLLISION_GUARD = 1e-6

#: Default escape radius measured from the radiating primary.
ESCAPE_RADIUS = 50.0

#: CGS coefficient of the grain mass-reduction formula, cm * g / cm^3.
GRAIN_COEFF_CGS = 5.6e-5


def mean_motion(a2: float) -> float:
    """Mean motion of the primaries, n = sqrt(1 + 3*A2/2).

    The equatorial bulge of the smaller primary speeds up the circular
    mutual orbit; ``a2 = 0`` recovers the classical n = 1.
    """
    if not 0 <= a2 < math.inf:
        raise ValueError(
            f"oblateness coefficient a2 must be finite and >= 0, got {a2}")
    return math.sqrt(1.0 + 1.5 * a2)


def drag_coefficient(mu: float, q1: float, cd: float) -> float:
    """Poynting-Robertson drag strength W1 = (1-mu)*(1-q1)/cd.

    Parameters
    ----------
    mu : float
        Mass parameter of the smaller primary, 0 < mu <= 1/2.
    q1 : float
        Mass reduction factor of the radiating primary, 0 < q1 <= 1.
    cd : float
        Speed of light in the dimensionless rotating-frame units, > 0;
        infinity gives the drag-free limit.
    """
    if not 0 < mu <= 0.5:
        raise ValueError(f"mass parameter mu must be in (0, 1/2], got {mu}")
    if not 0 < q1 <= 1:
        raise ValueError(
            f"mass reduction factor q1 must be in (0, 1], got {q1}")
    # cd = inf is the drag-free limit
    if not 0 < cd <= math.inf:
        raise ValueError(
            f"dimensionless light speed cd must be > 0, got {cd}")
    return (1.0 - mu) * (1.0 - q1) / cd


def oblateness_from_radii(equatorial: float, polar: float,
                          separation: float) -> float:
    """Oblateness coefficient A2 = (re^2 - rp^2) / (5 r^2).

    All three lengths must share one unit system; only their ratios enter.
    """
    for name, value in (("equatorial", equatorial), ("polar", polar),
                        ("separation", separation)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if polar > equatorial:
        raise ValueError(
            f"polar radius {polar} exceeds equatorial radius {equatorial}")
    return (equatorial**2 - polar**2) / (5.0 * separation**2)


@dataclass(frozen=True)
class GrainProperties:
    """Physical dust-grain properties in CGS units.

    Attributes
    ----------
    radius_a : float
        Grain radius in centimetres.
    density_rho : float
        Grain density in g/cm^3.
    efficiency_chi : float
        Radiation pressure efficiency factor. Zero is accepted as the
        no-radiation edge case.
    """

    radius_a: float
    density_rho: float
    efficiency_chi: float

    def __post_init__(self):
        for name in ("radius_a", "density_rho"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"grain {name} must be finite and > 0, got {value}")
        if not 0 <= self.efficiency_chi < math.inf:
            raise ValueError("grain efficiency_chi must be finite and >= 0, "
                             f"got {self.efficiency_chi}")


def mass_reduction_from_grain(grain: GrainProperties) -> float:
    """Mass reduction factor of a dust grain around a solar-type primary.

    Evaluates q = 1 - 5.6e-5 * chi / (a * rho) with the grain radius in
    centimetres and density in g/cm^3. Grains for which radiation pressure
    meets or exceeds gravity (q <= 0) are blown out of the system and are
    rejected here.
    """
    q = 1.0 - GRAIN_COEFF_CGS * grain.efficiency_chi / (
        grain.radius_a * grain.density_rho)
    if q <= 0:
        raise ValueError(
            f"grain is blown out: mass reduction factor {q} <= 0 for "
            f"a={grain.radius_a}, rho={grain.density_rho}, "
            f"chi={grain.efficiency_chi}")
    return q


@dataclass(frozen=True)
class SystemParams:
    """Parameter set of one dust-particle system.

    Exactly one of ``cd`` and ``w1`` may be supplied; the other is derived.
    With neither supplied the drag is switched off (w1 = 0). A finite light
    speed cannot reproduce w1 = 0 when q1 < 1, so ``cd`` stays ``None`` in
    that drag-free limit, and q1 = 1 forces w1 = 0.

    Attributes
    ----------
    mu : float
        Mass parameter m2/(m1+m2), 0 < mu <= 1/2.
    q1 : float
        Mass reduction factor of the radiating primary, 0 < q1 <= 1.
    a2 : float
        Oblateness coefficient of the smaller primary, >= 0.
    cd : float or None
        Dimensionless speed of light, > 0 when present.
    w1 : float
        Poynting-Robertson drag strength (1-mu)*(1-q1)/cd, >= 0.
    n : float
        Mean motion of the primaries, derived from ``a2``.
    delta : float
        Radiation-adjusted unit distance q1**(1/3).
    """

    mu: float
    q1: float = 1.0
    a2: float = 0.0
    cd: float | None = None
    w1: float | None = None
    n: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        # cd = inf is the drag-free limit; nothing else may be inf or nan
        for name in ("mu", "q1", "a2", "cd", "w1"):
            value = getattr(self, name)
            if value is not None and (math.isnan(value) or (
                    math.isinf(value) and name != "cd")):
                raise ValueError(f"parameter {name} must not be {value}")
        if not 0 < self.mu <= 0.5:
            raise ValueError(f"mass parameter must be in (0, 1/2], got {self.mu}")
        if not 0 < self.q1 <= 1:
            raise ValueError(
                f"mass reduction factor must be in (0, 1], got {self.q1}")
        if self.cd is not None and self.w1 is not None:
            raise ValueError("specify cd or w1, not both")
        if self.cd is not None:
            object.__setattr__(
                self, "w1", drag_coefficient(self.mu, self.q1, self.cd))
        elif self.w1 is not None:
            if self.w1 < 0:
                raise ValueError(f"drag strength must be >= 0, got {self.w1}")
            if self.q1 == 1.0 and self.w1 != 0.0:
                raise ValueError(
                    "q1 = 1 radiates no pressure and admits no drag; "
                    f"w1 must be 0, got {self.w1}")
            if self.w1 > 0.0:
                object.__setattr__(
                    self, "cd", (1.0 - self.mu) * (1.0 - self.q1) / self.w1)
        else:
            object.__setattr__(self, "w1", 0.0)
        # mean_motion rejects a2 < 0
        object.__setattr__(self, "n", mean_motion(self.a2))
        object.__setattr__(self, "delta", self.q1 ** (1.0 / 3.0))

    @classmethod
    def from_grain(cls, mu: float, grain: GrainProperties, a2: float = 0.0,
                   cd: float | None = None,
                   w1: float | None = None) -> "SystemParams":
        """Build parameters with q1 taken from dust-grain properties."""
        return cls(mu=mu, q1=mass_reduction_from_grain(grain), a2=a2,
                   cd=cd, w1=w1)


@dataclass(frozen=True)
class PhaseState:
    """Planar rotating-frame state (x, y, vx, vy) at time t.

    Equally shaped arrays in the fields make a batch of states, for which
    :func:`jacobi_constant` and :func:`jacobi_drift_rate` answer with
    arrays, bitwise equal to their answers state by state.
    """

    x: float
    y: float
    vx: float
    vy: float
    t: float = 0.0


@dataclass(frozen=True)
class AccelVector:
    """Planar acceleration components in the rotating frame."""

    ax: float
    ay: float


def _squared_radii(p: SystemParams, x, y):
    # x + mu and the squared distances to the primaries at (-mu, 0) and
    # (1-mu, 0); this and the expressions below take floats or arrays,
    # and only the array branches import NumPy
    xm = x + p.mu
    return xm, xm * xm + y * y, (xm - 1.0) * (xm - 1.0) + y * y


def _radii(p: SystemParams, x, y):
    # math.sqrt and np.sqrt are both correctly rounded, so floats and
    # arrays give the same bits, which ** and hypot do not promise
    _, r1sq, r2sq = _squared_radii(p, x, y)
    if type(r1sq) is float:
        return math.sqrt(r1sq), math.sqrt(r2sq)
    import numpy as np
    return np.sqrt(r1sq), np.sqrt(r2sq)


def _guard_error(x, y, r1, r2, guard: float) -> SingularityError:
    return SingularityError(f"point ({x}, {y}) is within {guard} of a "
                            f"primary (r1={r1}, r2={r2})")


def _check_guard(p: SystemParams, x, y, guard: float) -> None:
    r1, r2 = _radii(p, x, y)
    if type(r1) is float:
        if r1 < guard or r2 < guard:
            raise _guard_error(x, y, r1, r2, guard)
        return
    import numpy as np
    near = (r1 < guard) | (r2 < guard)
    if near.any():
        i = np.argmax(near)  # the first point of a batch inside
        raise _guard_error(*(np.ravel(v)[i] for v in (x, y, r1, r2)), guard)


def _potential(p: SystemParams, x, y):
    # amended potential U1, without the guard
    r1, r2 = _radii(p, x, y)
    return (0.5 * p.n * p.n * (x * x + y * y)
            + (1.0 - p.mu) * p.q1 / r1
            + p.mu / r2
            + p.mu * p.a2 / (2.0 * (r2 * r2 * r2)))


def _drag(p: SystemParams, xm, y, vx, vy, r1sq):
    # Poynting-Robertson drag from the offset (xm, y) to the radiating
    # primary and its squared length r1sq
    if p.w1 == 0.0:
        return 0.0, 0.0
    k = p.w1 / r1sq
    radial = (xm * vx + y * vy) / r1sq
    return (-k * (xm * radial + vx - p.n * y),
            -k * (y * radial + vy + p.n * xm))


def _accelerations(p: SystemParams, x: float, y: float, vx: float,
                   vy: float, guard: float | None = None
                   ) -> tuple[float, float, float, float]:
    # shared scalar core: conservative gradient (gx, gy) and drag (fx, fy);
    # the integrator passes no guard so it can probe freely, the public
    # entry points pass theirs and the check reuses these radii
    xm, r1sq, r2sq = _squared_radii(p, x, y)
    r1 = math.sqrt(r1sq)
    r2 = math.sqrt(r2sq)
    if guard is not None and (r1 < guard or r2 < guard):
        raise _guard_error(x, y, r1, r2, guard)
    r13 = r1sq * r1
    r23 = r2sq * r2
    r25 = r23 * r2sq
    gx = (p.n * p.n * x
          - (1.0 - p.mu) * p.q1 * xm / r13
          - p.mu * (xm - 1.0) / r23
          - 1.5 * p.mu * p.a2 * (xm - 1.0) / r25)
    gy = (p.n * p.n * y
          - (1.0 - p.mu) * p.q1 * y / r13
          - p.mu * y / r23
          - 1.5 * p.mu * p.a2 * y / r25)
    fx, fy = _drag(p, xm, y, vx, vy, r1sq)
    return gx, gy, fx, fy


def _rest_jacobian(p: SystemParams, x: float, y: float
                   ) -> tuple[float, float, float, float]:
    # closed-form derivative (j11, j12, j21, j22) of the rest-state
    # residual (gx + fx, gy + fy) of _accelerations with respect to
    # (x, y): the Hessian of U1 plus that of the drag at rest,
    # (fx, fy) = w1 n (y, -(x + mu)) / r1^2; floats only, no guard
    xm, r1sq, r2sq = _squared_radii(p, x, y)
    xp = xm - 1.0
    r1 = math.sqrt(r1sq)
    r2 = math.sqrt(r2sq)
    # gx holds -k1 xm - k2 xp - k3 xp with k = c / r^m (m = 3, 3, 5), and
    # d(-c a / r^m)/da = -c / r^m + m c a^2 / r^(m+2)
    k1 = (1.0 - p.mu) * p.q1 / (r1sq * r1)
    k2 = p.mu / (r2sq * r2)
    k3 = 1.5 * p.mu * p.a2 / (r2sq * r2sq * r2)
    c1 = 3.0 * k1 / r1sq
    c2 = (3.0 * k2 + 5.0 * k3) / r2sq
    diag = p.n * p.n - k1 - k2 - k3
    uxx = diag + c1 * xm * xm + c2 * xp * xp
    uyy = diag + (c1 + c2) * y * y
    uxy = (c1 * xm + c2 * xp) * y
    wn = p.w1 * p.n / r1sq
    b = 2.0 * wn / r1sq
    return (uxx - b * xm * y, uxy + wn - b * y * y,
            uxy - wn + b * xm * xm, uyy + b * xm * y)


def amended_potential(p: SystemParams, x: float, y: float,
                      guard: float = COLLISION_GUARD) -> float:
    """Amended potential of the rotating frame.

    U1 = (n^2/2)(x^2+y^2) + (1-mu) q1 / r1 + mu / r2 + mu A2 / (2 r2^3)

    The zero-velocity level of a state with Jacobi constant C is 2*U1 = C.

    Raises
    ------
    SingularityError
        If the point lies within ``guard`` of either primary.
    """
    _check_guard(p, x, y, guard)
    return _potential(p, x, y)


def conservative_gradient(p: SystemParams, x: float, y: float,
                          guard: float = COLLISION_GUARD) -> AccelVector:
    """Gradient of the amended potential, (dU1/dx, dU1/dy), in closed form."""
    gx, gy, _, _ = _accelerations(p, x, y, 0.0, 0.0, guard)
    return AccelVector(gx, gy)


def drag_acceleration(p: SystemParams, s: PhaseState,
                      guard: float = COLLISION_GUARD) -> AccelVector:
    """Poynting-Robertson drag acceleration at a phase-space state.

    Both components are linear in the drag strength w1 and vanish
    identically when w1 = 0. At rest the drag reduces to the purely
    azimuthal pair (+w1 n y / r1^2, -w1 n (x+mu) / r1^2).
    """
    _check_guard(p, s.x, s.y, guard)
    xm, r1sq, _ = _squared_radii(p, s.x, s.y)
    return AccelVector(*_drag(p, xm, s.y, s.vx, s.vy, r1sq))


def equations_of_motion(p: SystemParams, s: PhaseState,
                        guard: float = COLLISION_GUARD
                        ) -> tuple[float, float, float, float]:
    """Rotating-frame state derivative (dx/dt, dy/dt, dvx/dt, dvy/dt).

    The accelerations combine the Coriolis terms, the amended-potential
    gradient, and the drag:

        dvx/dt =  2 n vy + dU1/dx + Fx
        dvy/dt = -2 n vx + dU1/dy + Fy
    """
    gx, gy, fx, fy = _accelerations(p, s.x, s.y, s.vx, s.vy, guard)
    ax = 2.0 * p.n * s.vy + gx + fx
    ay = -2.0 * p.n * s.vx + gy + fy
    return s.vx, s.vy, ax, ay


def jacobi_constant(p: SystemParams, s: PhaseState,
                    guard: float = COLLISION_GUARD) -> float:
    """Jacobi integral C = 2*U1 - vx^2 - vy^2.

    Conserved exactly when w1 = 0; with drag it evolves at the rate given
    by :func:`jacobi_drift_rate`.
    """
    return _jacobi(p, s.x, s.y, s.vx, s.vy, guard)


def _jacobi(p: SystemParams, x, y, vx, vy, guard: float):
    # C on floats or arrays, after the guard check; the body of
    # jacobi_constant without the PhaseState, for per-sample loops
    _check_guard(p, x, y, guard)
    return 2.0 * _potential(p, x, y) - vx * vx - vy * vy


def jacobi_drift_rate(p: SystemParams, s: PhaseState,
                      guard: float = COLLISION_GUARD) -> float:
    """Instantaneous rate of change of the Jacobi integral.

    dC/dt = -2 (vx Fx + vy Fy), where (Fx, Fy) is the drag acceleration.
    Identically zero when w1 = 0 or at rest.
    """
    _check_guard(p, s.x, s.y, guard)
    return _drift_rate(p, s.x, s.y, s.vx, s.vy)


def _drift_rate(p: SystemParams, x, y, vx, vy):
    # dC/dt on floats or arrays, without the guard check; the body of
    # jacobi_drift_rate for per-sample loops over checked states
    xm, r1sq, _ = _squared_radii(p, x, y)
    fx, fy = _drag(p, xm, y, vx, vy, r1sq)
    return -2.0 * (vx * fx + vy * fy)
