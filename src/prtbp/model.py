"""Dimensionless model of the planar restricted three-body problem with a
radiating larger primary, an oblate smaller primary, and Poynting-Robertson
drag on the massless particle.

Units are the usual rotating-frame ones: the primary separation is 1, the
sum of the primary masses is 1, and the orbital period of the primaries is
2*pi. The frame rotates with the perturbed mean motion n, so both primaries
sit on the x axis, the larger at (-mu, 0) and the smaller at (1-mu, 0).
Every function takes Python floats and evaluates one point at a time.
"""

from __future__ import annotations

import math

from .errors import SingularityError

#: Closest approach to either primary, in separation units, at which the
#: library evaluates a point: the one radius of every function, and the
#: default of ``integrate``'s ``collision_guard``.
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


class _Record:
    """Base of the package's immutable records.

    A record compares and hashes as the tuple of its ``_fields`` in order,
    only with a record of its own class, and prints them as
    ``Name(field=value, ...)``; assigning or deleting any attribute raises
    ``AttributeError``. Constructors set their fields with ``_freeze``.
    """

    _fields: tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        # not self.__dict__.update: reading __dict__ makes CPython (3.11+)
        # give up the instance's inline values, and every later field read
        # gets slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GrainProperties(_Record):
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

    _fields = ("radius_a", "density_rho", "efficiency_chi")

    def __init__(self, radius_a: float, density_rho: float,
                 efficiency_chi: float):
        for name, value in (("radius_a", radius_a),
                            ("density_rho", density_rho)):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"grain {name} must be finite and > 0, got {value}")
        if not 0 <= efficiency_chi < math.inf:
            raise ValueError("grain efficiency_chi must be finite and >= 0, "
                             f"got {efficiency_chi}")
        self._freeze(radius_a, density_rho, efficiency_chi)


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


class SystemParams(_Record):
    """Parameter set of one dust-particle system.

    Exactly one of ``cd`` and ``w1`` may be supplied; the other is derived,
    and obeys the rules a given one does: a ``cd`` so small that w1
    overflows, or a ``w1`` so large that cd underflows to 0, raises
    ``ValueError``. With neither supplied the drag is switched off
    (w1 = 0). A finite light speed cannot reproduce w1 = 0 when q1 < 1, so
    ``cd`` stays ``None`` in that drag-free limit, and q1 = 1 forces
    w1 = 0.

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

    _fields = ("mu", "q1", "a2", "cd", "w1", "n", "delta")

    def __init__(self, mu: float, q1: float = 1.0, a2: float = 0.0,
                 cd: float | None = None, w1: float | None = None):
        # cd = inf is the drag-free limit; nothing else may be inf or nan
        for name, value in (("mu", mu), ("q1", q1), ("a2", a2), ("cd", cd),
                            ("w1", w1)):
            if value is not None and (math.isnan(value) or (
                    math.isinf(value) and name != "cd")):
                raise ValueError(f"parameter {name} must not be {value}")
        if not 0 < mu <= 0.5:
            raise ValueError(f"mass parameter must be in (0, 1/2], got {mu}")
        if not 0 < q1 <= 1:
            raise ValueError(
                f"mass reduction factor must be in (0, 1], got {q1}")
        if cd is not None and w1 is not None:
            raise ValueError("specify cd or w1, not both")
        if cd is not None:
            w1 = drag_coefficient(mu, q1, cd)
            if w1 == math.inf:
                raise ValueError(f"light speed cd={cd} gives w1 = inf")
        elif w1 is not None:
            if w1 < 0:
                raise ValueError(f"drag strength must be >= 0, got {w1}")
            if q1 == 1.0 and w1 != 0.0:
                raise ValueError(
                    "q1 = 1 radiates no pressure and admits no drag; "
                    f"w1 must be 0, got {w1}")
            if w1 > 0.0:
                cd = (1.0 - mu) * (1.0 - q1) / w1
                if cd == 0.0:
                    raise ValueError(f"drag strength w1={w1} gives cd = 0")
        else:
            w1 = 0.0
        # mean_motion rejects a2 < 0
        self._freeze(mu, q1, a2, cd, w1, mean_motion(a2),
                     q1 ** (1.0 / 3.0))

    @classmethod
    def from_grain(cls, mu: float, grain: GrainProperties, a2: float = 0.0,
                   cd: float | None = None,
                   w1: float | None = None) -> "SystemParams":
        """Build parameters with q1 taken from dust-grain properties."""
        return cls(mu=mu, q1=mass_reduction_from_grain(grain), a2=a2,
                   cd=cd, w1=w1)


class PhaseState(_Record):
    """Planar rotating-frame state (x, y, vx, vy) at time t."""

    _fields = ("x", "y", "vx", "vy", "t")

    def __init__(self, x: float, y: float, vx: float, vy: float,
                 t: float = 0.0):
        self._freeze(x, y, vx, vy, t)


class AccelVector(_Record):
    """Planar acceleration components in the rotating frame."""

    _fields = ("ax", "ay")

    def __init__(self, ax: float, ay: float):
        self._freeze(ax, ay)


def _radii(p: SystemParams):
    # radii(x, y), the distances to the primaries at (-mu, 0) and (1-mu, 0);
    # math.sqrt is correctly rounded, which ** and hypot do not promise
    mu = p.mu
    sqrt = math.sqrt
    return lambda x, y: (sqrt((x + mu) * (x + mu) + y * y),
                         sqrt((x + mu - 1.0) * (x + mu - 1.0) + y * y))


def _level_kernel(p: SystemParams, level_c: float):
    # f(x, y) = 2*U1 - level_c, one curve's values at single points: the
    # system's constants are bound once, and U1 has the bits of
    # _state_kernel's, by the same operations in the same order. A point
    # within COLLISION_GUARD is NaN; outside it no denominator is below
    # 2e-18, so none divides by zero
    guard = COLLISION_GUARD
    mu = p.mu
    rotation = 0.5 * p.n * p.n
    radiating = (1.0 - mu) * p.q1
    oblate = mu * p.a2
    sqrt = math.sqrt
    nan = math.nan

    def level(x, y):
        xm = x + mu
        yy = y * y
        r1 = sqrt(xm * xm + yy)
        r2 = sqrt((xm - 1.0) * (xm - 1.0) + yy)
        if r1 < guard or r2 < guard:
            return nan
        return 2.0 * (rotation * (x * x + yy) + radiating / r1
                      + mu / r2 + oblate / (2.0 * (r2 * r2 * r2))) - level_c

    return level


def _state_kernel(p: SystemParams, guard: float = COLLISION_GUARD):
    # state(x, y, vx, vy) -> (U1, gx, gy, fx, fy) from one derivation of
    # the radii, the system's constants bound once. A point within the
    # guard raises SingularityError, and so does one so near a primary
    # that a term divides by zero, which only a guard below ~1e-65 admits:
    # integrate's, which it checks, and the 0 of its stage probes
    mu = p.mu
    n = p.n
    nn = n * n
    rotation = 0.5 * n * n
    radiating = (1.0 - mu) * p.q1
    oblate = mu * p.a2
    oblate_grad = 1.5 * mu * p.a2
    w1 = p.w1
    sqrt = math.sqrt

    def state(x, y, vx, vy):
        xm = x + mu
        xp = xm - 1.0
        yy = y * y
        r1sq = xm * xm + yy
        r1 = sqrt(r1sq)
        r2sq = xp * xp + yy
        r2 = sqrt(r2sq)
        if r1 < guard or r2 < guard:
            raise SingularityError(f"point ({x}, {y}) is within {guard} of "
                                   f"a primary (r1={r1}, r2={r2})")
        r13 = r1sq * r1
        r23 = r2sq * r2
        r25 = r23 * r2sq
        try:
            u = (rotation * (x * x + yy) + radiating / r1 + mu / r2
                 + oblate / (2.0 * (r2 * r2 * r2)))
            gx = (nn * x - radiating * xm / r13 - mu * xp / r23
                  - oblate_grad * xp / r25)
            gy = (nn * y - radiating * y / r13 - mu * y / r23
                  - oblate_grad * y / r25)
        except ZeroDivisionError:
            raise SingularityError(f"point ({x}, {y}) is too near a primary "
                                   f"to evaluate (r1={r1}, r2={r2})") from None
        if w1 == 0.0:
            return u, gx, gy, 0.0, 0.0
        # r1sq > 0 here, since r13 > 0
        k = w1 / r1sq
        radial = (xm * vx + y * vy) / r1sq
        return (u, gx, gy, -k * (xm * radial + vx - n * y),
                -k * (y * radial + vy + n * xm))

    return state


def _family_fields(base: SystemParams, variable: str) -> dict:
    # the SystemParams arguments of the family of systems over variable,
    # one of w1, a2, q1 and mu, each system taking its own value of it:
    # the other parameters are base's, and base keeps its drag spec, cd
    # held fixed when it has one, unless w1 is the variable
    drag = "cd" if base.cd is not None and variable != "w1" else "w1"
    return {"mu": base.mu, "q1": base.q1, "a2": base.a2,
            drag: getattr(base, drag)}


def _family_kernel(base: SystemParams, variable: str):
    # (at, rest). at(lam) -> c = (mu, q1, a2, w1, n, delta): the fields of
    # SystemParams(**{**fields, variable: lam}), bit for bit, lam trusted
    # to lie in the family's domain. rest(x, y, c, tol=None) -> ((rx, ry),
    # (j11, j12, j21, j22), (lx, ly)): the rest-state residual R of system
    # c, its Jacobian J and its derivative in lam, from one derivation of
    # the radii; R has the bits of _state_kernel's at vx = vy = 0, and a
    # point raises what it raises. Given Newton's tol, the derivative in
    # lam is None, and so is J where |R| < tol. A point within
    # COLLISION_GUARD raises SingularityError; outside it no denominator
    # is below 1e-30, so none divides by zero. The variable, one of w1,
    # a2, q1 and mu, is checked here, where it is bound
    if variable not in ("w1", "a2", "q1", "mu"):
        raise ValueError(f"variable must be 'w1', 'a2', 'q1' or 'mu', got "
                         f"{variable!r}")
    guard = COLLISION_GUARD
    fields = _family_fields(base, variable)
    cd = fields.get("cd")
    sqrt = math.sqrt

    def at(lam):
        c = {**fields, variable: lam}
        mu, q1, a2 = c["mu"], c["q1"], c["a2"]
        w1 = c["w1"] if cd is None else (1.0 - mu) * (1.0 - q1) / cd
        return mu, q1, a2, w1, sqrt(1.0 + 1.5 * a2), q1 ** (1.0 / 3.0)

    def rest(x, y, c, tol=None):
        mu, q1, a2, w1, n, _ = c
        nn = n * n
        radiating = (1.0 - mu) * q1
        oblate_grad = 1.5 * mu * a2
        xm = x + mu
        xp = xm - 1.0
        yy = y * y
        r1sq = xm * xm + yy
        r1 = sqrt(r1sq)
        r2sq = xp * xp + yy
        r2 = sqrt(r2sq)
        if r1 < guard or r2 < guard:
            raise SingularityError(f"point ({x}, {y}) is within {guard} of "
                                   f"a primary (r1={r1}, r2={r2})")
        r13 = r1sq * r1
        r23 = r2sq * r2
        r25 = r23 * r2sq
        gx = (nn * x - radiating * xm / r13 - mu * xp / r23
              - oblate_grad * xp / r25)
        gy = (nn * y - radiating * y / r13 - mu * y / r23
              - oblate_grad * y / r25)
        # gx holds -k1 xm - k2 xp - k3 xp with k = c / r^m (m = 3, 3, 5),
        # and d(-c a / r^m)/da = -c / r^m + m c a^2 / r^(m+2)
        k1 = radiating / r13
        k2 = mu / r23
        k3 = oblate_grad / (r2sq * r2sq * r2)
        # the drag at rest, (fx, fy) = w1 n (y, -(x + mu)) / r1^2, with the
        # signed zeros of _state_kernel's at vx = vy = 0
        fx = fy = 0.0
        if w1 != 0.0:
            k = w1 / r1sq
            fx = -k * (0.0 - n * y)
            fy = -k * (0.0 + n * xm)
        res = (gx + fx, gy + fy)
        if tol is not None and not math.hypot(*res) >= tol:
            return res, None, None
        # J: the Hessian of U1 plus the derivative of the drag at rest
        c1 = 3.0 * k1 / r1sq
        c2 = (3.0 * k2 + 5.0 * k3) / r2sq
        diag = nn - k1 - k2 - k3
        uxx = diag + c1 * xm * xm + c2 * xp * xp
        uyy = diag + (c1 + c2) * y * y
        uxy = (c1 * xm + c2 * xp) * y
        wn = w1 * n / r1sq
        b = 2.0 * wn / r1sq
        j11 = uxx - b * xm * y
        j21 = uxy - wn + b * xm * xm
        jac = (j11, uxy + wn - b * y * y, j21, uyy + b * xm * y)
        if tol is not None:
            return res, jac, None
        # dR/dlam = dn2 (x, y) - dk1 (xm, y)/r1^3 - dm (xp, y)/r2^3 - dc
        # (xp, y)/r2^5 + dwn (y, -xm)/r1^2: d/dlam of n^2, (1 - mu) q1, mu,
        # 1.5 mu a2 and w1 n; w1 moves with q1, mu at a held cd, n with a2
        dn2 = dk1 = dm = dc = 0.0
        if variable == "w1":
            dwn = n
        elif variable == "a2":
            dn2, dc, dwn = 1.5, 1.5 * mu, w1 * 0.75 / n
        elif variable == "q1":
            dk1 = 1.0 - mu
            dwn = 0.0 if cd is None else -(1.0 - mu) * n / cd
        else:
            dk1, dm, dc = -q1, 1.0, 1.5 * a2
            dwn = 0.0 if cd is None else -(1.0 - q1) * n / cd
        lx = (dn2 * x - dk1 * xm / r13 - dm * xp / r23 - dc * xp / r25
              + dwn * y / r1sq)
        ly = (dn2 * y - dk1 * y / r13 - dm * y / r23 - dc * y / r25
              - dwn * xm / r1sq)
        if variable == "mu":
            # x + mu moves with mu as with x, save in the rotation's n^2 x
            lx += j11 - nn
            ly += j21
        return res, jac, (lx, ly)

    return at, rest


def _hessian_bound(p: SystemParams, r1: float, r2: float) -> float:
    # upper bound on the spectral norm of the Hessian of U1 at every point
    # at least r1 from the radiating primary and r2 from the oblate one:
    # n^2 from the rotation, 2c/r^3 from each c/r and 12c/r^5 from the
    # c/r^3 of the oblateness (c = mu A2 / 2), each decreasing in r
    return (p.n * p.n
            + 2.0 * (1.0 - p.mu) * p.q1 / (r1 * r1 * r1)
            + 2.0 * p.mu / (r2 * r2 * r2)
            + 6.0 * p.mu * p.a2 / (r2 * r2 * r2 * r2 * r2))


def amended_potential(p: SystemParams, x: float, y: float) -> float:
    """Amended potential of the rotating frame.

    U1 = (n^2/2)(x^2+y^2) + (1-mu) q1 / r1 + mu / r2 + mu A2 / (2 r2^3)

    The zero-velocity level of a state with Jacobi constant C is 2*U1 = C.

    Raises
    ------
    SingularityError
        If the point lies within ``COLLISION_GUARD`` of either primary.
    """
    return _state_kernel(p)(x, y, 0.0, 0.0)[0]


def conservative_gradient(p: SystemParams, x: float, y: float) -> AccelVector:
    """Gradient of the amended potential, (dU1/dx, dU1/dy), in closed form;
    raises what :func:`amended_potential` raises."""
    _, gx, gy, _, _ = _state_kernel(p)(x, y, 0.0, 0.0)
    return AccelVector(gx, gy)


def drag_acceleration(p: SystemParams, s: PhaseState) -> AccelVector:
    """Poynting-Robertson drag acceleration at a phase-space state.

    Both components are linear in the drag strength w1 and vanish
    identically when w1 = 0. At rest the drag reduces to the purely
    azimuthal pair (+w1 n y / r1^2, -w1 n (x+mu) / r1^2). Raises what
    :func:`amended_potential` raises.
    """
    _, _, _, fx, fy = _state_kernel(p)(s.x, s.y, s.vx, s.vy)
    return AccelVector(fx, fy)


def equations_of_motion(p: SystemParams, s: PhaseState
                        ) -> tuple[float, float, float, float]:
    """Rotating-frame state derivative (dx/dt, dy/dt, dvx/dt, dvy/dt).

    Raises what :func:`amended_potential` raises. The accelerations
    combine the Coriolis terms, the amended-potential gradient, and the
    drag:

        dvx/dt =  2 n vy + dU1/dx + Fx
        dvy/dt = -2 n vx + dU1/dy + Fy
    """
    _, gx, gy, fx, fy = _state_kernel(p)(s.x, s.y, s.vx, s.vy)
    ax = 2.0 * p.n * s.vy + gx + fx
    ay = -2.0 * p.n * s.vx + gy + fy
    return s.vx, s.vy, ax, ay


def jacobi_constant(p: SystemParams, s: PhaseState) -> float:
    """Jacobi integral C = 2*U1 - vx^2 - vy^2.

    Conserved exactly when w1 = 0; with drag it evolves at the rate given
    by :func:`jacobi_drift_rate`. Raises what :func:`amended_potential`
    raises.
    """
    u = _state_kernel(p)(s.x, s.y, s.vx, s.vy)[0]
    return 2.0 * u - s.vx * s.vx - s.vy * s.vy


def jacobi_drift_rate(p: SystemParams, s: PhaseState) -> float:
    """Instantaneous rate of change of the Jacobi integral.

    dC/dt = -2 (vx Fx + vy Fy), where (Fx, Fy) is the drag acceleration.
    Identically zero when w1 = 0 or at rest. Raises what
    :func:`amended_potential` raises.
    """
    _, _, _, fx, fy = _state_kernel(p)(s.x, s.y, s.vx, s.vy)
    return -2.0 * (s.vx * fx + s.vy * fy)
