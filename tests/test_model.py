"""Tests for parameter records, potentials, drag, and the Jacobi integral."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from prtbp import (
    GrainProperties,
    PhaseState,
    SingularityError,
    SystemParams,
    amended_potential,
    conservative_gradient,
    drag_acceleration,
    drag_coefficient,
    equations_of_motion,
    equilibrium_residual,
    jacobi_constant,
    jacobi_drift_rate,
    mass_reduction_from_grain,
    mean_motion,
    oblateness_from_radii,
    refine_equilibrium,
)
from prtbp.model import (_family_fields, _family_kernel, _hessian_bound,
                         _radii, _state_kernel)

SQRT3_2 = math.sqrt(3.0) / 2.0


def _potential_reference(p: SystemParams, x: float, y: float) -> float:
    """Independent re-evaluation of the amended potential."""
    r1 = math.sqrt((x + p.mu) ** 2 + y**2)
    r2 = math.sqrt((x + p.mu - 1.0) ** 2 + y**2)
    n2 = 1.0 + 1.5 * p.a2
    return (n2 * (x**2 + y**2) / 2.0 + (1.0 - p.mu) * p.q1 / r1
            + p.mu / r2 + p.mu * p.a2 / (2.0 * r2**3))


def _classical_rhs(mu: float, s: PhaseState) -> tuple:
    """Circular restricted three-body right-hand side, coded directly."""
    r1 = math.sqrt((s.x + mu) ** 2 + s.y**2)
    r2 = math.sqrt((s.x + mu - 1.0) ** 2 + s.y**2)
    ax = (2.0 * s.vy + s.x - (1.0 - mu) * (s.x + mu) / r1**3
          - mu * (s.x + mu - 1.0) / r2**3)
    ay = (-2.0 * s.vx + s.y - (1.0 - mu) * s.y / r1**3
          - mu * s.y / r2**3)
    return s.vx, s.vy, ax, ay


def test_mean_motion_unperturbed():
    assert mean_motion(0.0) == 1.0


def test_mean_motion_oblate():
    assert mean_motion(0.02) == pytest.approx(math.sqrt(1.03), rel=1e-15)


def test_mean_motion_rejects_negative_oblateness():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="a2"):
            mean_motion(bad)


def test_drag_coefficient_values():
    assert drag_coefficient(0.3, 1.0, 100.0) == 0.0
    assert drag_coefficient(0.5, 0.5, 1.0) == 0.25
    assert drag_coefficient(0.001, 0.99, 1000.0) == pytest.approx(
        9.99e-6, rel=1e-15)


def test_drag_coefficient_rejects_bad_inputs():
    with pytest.raises(ValueError):
        drag_coefficient(0.1, 0.9, 0.0)
    with pytest.raises(ValueError):
        drag_coefficient(0.1, 0.0, 100.0)
    with pytest.raises(ValueError):
        drag_coefficient(0.1, 1.2, 100.0)
    for name, args in (("mu", (math.nan, 0.9, 100.0)),
                       ("mu", (0.6, 0.9, 100.0)),
                       ("q1", (0.1, math.nan, 100.0)),
                       ("cd", (0.1, 0.9, math.nan))):
        with pytest.raises(ValueError, match=name):
            drag_coefficient(*args)
    assert drag_coefficient(0.1, 0.9, math.inf) == 0.0


def test_oblateness_from_radii():
    assert oblateness_from_radii(1.0, 1.0, 5.0) == 0.0
    assert oblateness_from_radii(2.0, 1.0, 10.0) == pytest.approx(
        0.006, rel=1e-15)


def test_oblateness_from_radii_rejects_bad_shapes():
    with pytest.raises(ValueError):
        oblateness_from_radii(1.0, 2.0, 10.0)
    with pytest.raises(ValueError):
        oblateness_from_radii(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        oblateness_from_radii(-1.0, 1.0, 10.0)
    for name, args in (("equatorial", (math.nan, 1.0, 10.0)),
                       ("polar", (2.0, math.nan, 10.0)),
                       ("separation", (2.0, 1.0, math.nan)),
                       ("separation", (2.0, 1.0, math.inf))):
        with pytest.raises(ValueError, match=name):
            oblateness_from_radii(*args)


def test_grain_mass_reduction_values():
    assert mass_reduction_from_grain(GrainProperties(1.0, 1.0, 0.0)) == 1.0
    assert mass_reduction_from_grain(
        GrainProperties(1e-3, 2.0, 1.0)) == pytest.approx(0.972, abs=1e-15)


def test_grain_blow_out_rejected():
    with pytest.raises(ValueError, match="blown out"):
        mass_reduction_from_grain(GrainProperties(5.6e-5, 1.0, 1.0))


def test_grain_property_validation():
    with pytest.raises(ValueError):
        GrainProperties(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GrainProperties(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        GrainProperties(1.0, 1.0, -0.1)
    for name, args in (("radius_a", (math.nan, 1.0, 1.0)),
                       ("density_rho", (1.0, math.nan, 1.0)),
                       ("efficiency_chi", (1.0, 1.0, math.nan)),
                       ("radius_a", (math.inf, 1.0, 1.0))):
        with pytest.raises(ValueError, match=name):
            GrainProperties(*args)


def test_system_params_range_validation():
    for bad in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            SystemParams(mu=bad)
    SystemParams(mu=0.5)
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError):
            SystemParams(mu=0.1, q1=bad)
    with pytest.raises(ValueError):
        SystemParams(mu=0.1, a2=-1e-3)


@pytest.mark.parametrize("name, value", [
    (name, value) for name in ("mu", "q1", "a2", "w1")
    for value in (math.nan, math.inf, -math.inf)] + [("cd", math.nan)])
def test_system_params_reject_non_finite(name, value):
    fields = {"mu": 0.01, "q1": 0.98, name: value}
    with pytest.raises(ValueError, match=f"parameter {name} must not be"):
        SystemParams(**fields)


def test_infinite_light_speed_is_drag_free():
    p = SystemParams(mu=0.01, q1=0.98, cd=math.inf)
    assert p.w1 == 0.0


def test_system_params_drag_wiring():
    with pytest.raises(ValueError):
        SystemParams(mu=0.1, q1=0.9, cd=100.0, w1=1e-4)
    p = SystemParams(mu=0.1, q1=0.9, cd=100.0)
    assert p.w1 == drag_coefficient(0.1, 0.9, 100.0)
    q = SystemParams(mu=0.1, q1=0.9, w1=p.w1)
    assert q.cd == pytest.approx(100.0, rel=1e-15)
    # the drag-free limit has no finite light speed to report
    assert SystemParams(mu=0.1, q1=0.9, w1=0.0).cd is None
    assert SystemParams(mu=0.1, q1=0.9).w1 == 0.0
    with pytest.raises(ValueError):
        SystemParams(mu=0.1, q1=1.0, w1=1e-4)
    with pytest.raises(ValueError):
        SystemParams(mu=0.1, q1=0.9, w1=-1e-4)
    assert SystemParams(mu=0.1, q1=1.0, cd=100.0).w1 == 0.0


def test_system_params_derived_fields():
    p = SystemParams(mu=0.2, q1=0.8, a2=0.01)
    assert p.n == math.sqrt(1.015)
    assert p.delta == 0.8 ** (1.0 / 3.0)


# subnormals, +-1e+-308, 0, 1/2 and 1, each with its neighbours, NaN
# and +-inf
DRAWS = [v for c in (0.0, 5e-324, 1e-310, 1e-308, -1e-308, 0.5, 1.0, 1e308,
                     -1e308)
         for v in (math.nextafter(c, -math.inf), c,
                   math.nextafter(c, math.inf))] + [math.nan, math.inf,
                                                    -math.inf]


def test_derived_drag_obeys_the_rules_of_a_given_one():
    """Whatever the draw, a system that constructs holds a finite w1 >= 0
    and a cd that is None, inf or finite > 0, whether it derived w1 from
    cd or cd from w1; and the family of every variable admits the
    system's own value, as the sweep's bisection assumes."""
    rng = random.Random(28)
    built = 0
    for _ in range(20000):
        drag = rng.choice(("cd", "w1"))
        fields = {name: rng.choice(DRAWS)
                  for name in ("mu", "q1", "a2", drag)}
        try:
            p = SystemParams(**fields)
        except ValueError:
            continue
        built += 1
        assert 0.0 <= p.w1 < math.inf, fields
        assert p.cd is None or 0.0 < p.cd <= math.inf, fields
        for variable in ("w1", "a2", "q1", "mu"):
            SystemParams(**{**_family_fields(p, variable),
                            variable: getattr(p, variable)})
    assert built > 1000


def test_system_params_from_grain():
    p = SystemParams.from_grain(0.2, GrainProperties(1e-3, 2.0, 1.0))
    assert p.q1 == pytest.approx(0.972, abs=1e-15)
    assert p.w1 == 0.0


def test_amended_potential_symmetric_configuration():
    p = SystemParams(mu=0.5)
    assert amended_potential(p, 0.0, 1.0) == pytest.approx(
        0.5 + 1.0 / math.sqrt(1.25), rel=1e-15)


def test_amended_potential_guard():
    p = SystemParams(mu=0.1)
    with pytest.raises(SingularityError):
        amended_potential(p, 0.9, 0.0)
    with pytest.raises(SingularityError):
        amended_potential(p, -0.1, 1e-8)
    amended_potential(p, 0.9, 1e-3)


# the primary at (1-mu, 0) of mu = 0.01, where a term divides by zero,
# and a point 1e-110 from the one at (-mu, 0), where r1^3 underflows to 0
AT_PRIMARY = (0.99, 0.0)
R1_CUBED_UNDERFLOWS = (-0.01, 1e-110)

# every public function that evaluates the model at one point (x, y)
ONE_SHOTS = {
    "amended_potential": amended_potential,
    "conservative_gradient": conservative_gradient,
    "drag_acceleration": lambda p, x, y: drag_acceleration(
        p, PhaseState(x, y, 0.1, -0.2)),
    "equations_of_motion": lambda p, x, y: equations_of_motion(
        p, PhaseState(x, y, 0.1, -0.2)),
    "jacobi_constant": lambda p, x, y: jacobi_constant(
        p, PhaseState(x, y, 0.1, -0.2)),
    "jacobi_drift_rate": lambda p, x, y: jacobi_drift_rate(
        p, PhaseState(x, y, 0.1, -0.2)),
    "equilibrium_residual": equilibrium_residual,
    "refine_equilibrium": lambda p, x, y: refine_equilibrium(p, (x, y)),
}


@pytest.mark.parametrize("name, point", [
    *((name, AT_PRIMARY) for name in ONE_SHOTS),
    *((name, R1_CUBED_UNDERFLOWS) for name in ONE_SHOTS),
], ids=[*ONE_SHOTS, *(f"{name}-r1-cubed-underflows" for name in ONE_SHOTS)])
def test_zero_guard_at_a_primary_raises_singularity_error(name, point):
    """The state kernel of integrate's right-hand side, bound with a guard
    of 0, raises where a term divides by zero; every one-shot function
    refuses the same point as within COLLISION_GUARD."""
    p = SystemParams(mu=0.01, q1=0.98, w1=1e-3)
    with pytest.raises(SingularityError, match="too near a primary"):
        _state_kernel(p, 0.0)(*point, 0.1, -0.2)
    with pytest.raises(SingularityError, match="within 1e-06"):
        ONE_SHOTS[name](p, *point)


def test_amended_potential_duplicate_evaluation():
    p = SystemParams(mu=0.2, q1=0.8, a2=0.01)
    for x, y in [(0.3, 0.85), (-0.4, 0.2), (1.2, -0.6)]:
        assert amended_potential(p, x, y) == pytest.approx(
            _potential_reference(p, x, y), rel=1e-15)


def test_gradient_vanishes_at_classical_triangular_point():
    g = conservative_gradient(SystemParams(mu=0.1), 0.4, SQRT3_2)
    assert abs(g.ax) < 1e-15
    assert abs(g.ay) < 1e-15


def test_gradient_matches_finite_differences():
    p = SystemParams(mu=0.2, q1=0.9, a2=0.005)
    rng = np.random.default_rng(81424)
    h = 1e-6
    checked = 0
    while checked < 100:
        x, y = rng.uniform(-2.0, 2.0, size=2)
        r1 = math.hypot(x + p.mu, y)
        r2 = math.hypot(x + p.mu - 1.0, y)
        if min(r1, r2) < 0.05:
            continue
        g = conservative_gradient(p, x, y)
        fx = (amended_potential(p, x + h, y)
              - amended_potential(p, x - h, y)) / (2.0 * h)
        fy = (amended_potential(p, x, y + h)
              - amended_potential(p, x, y - h)) / (2.0 * h)
        scale = max(1.0, math.hypot(g.ax, g.ay))
        assert abs(g.ax - fx) < 1e-6 * scale
        assert abs(g.ay - fy) < 1e-6 * scale
        checked += 1


def test_gradient_equal_masses_axis_symmetry():
    p = SystemParams(mu=0.5)
    for y in (0.7, 1.0, -1.3):
        assert conservative_gradient(p, 0.0, y).ax == 0.0


def test_drag_off_is_exact_zero():
    p = SystemParams(mu=0.3, q1=1.0)
    f = drag_acceleration(p, PhaseState(0.3, 0.7, 1.2, -0.4))
    assert f.ax == 0.0
    assert f.ay == 0.0


def test_drag_at_rest_closed_form():
    p = SystemParams(mu=0.2, q1=0.9, a2=0.01, w1=1e-3)
    x, y = 0.3, 0.8
    f = drag_acceleration(p, PhaseState(x, y, 0.0, 0.0))
    r1sq = (x + p.mu) ** 2 + y**2
    assert f.ax == pytest.approx(p.w1 * p.n * y / r1sq, rel=1e-14)
    assert f.ay == pytest.approx(-p.w1 * p.n * (x + p.mu) / r1sq, rel=1e-14)


def test_drag_linear_in_strength():
    base = 4e-4
    s = PhaseState(0.45, 0.8, 0.3, -1.1)
    f1 = drag_acceleration(SystemParams(mu=0.1, q1=0.9, w1=base), s)
    for lam in (0.5, 2.0):
        f = drag_acceleration(SystemParams(mu=0.1, q1=0.9, w1=lam * base), s)
        assert f.ax == lam * f1.ax
        assert f.ay == lam * f1.ay
    f0 = drag_acceleration(SystemParams(mu=0.1, q1=0.9, w1=0.0), s)
    assert (f0.ax, f0.ay) == (0.0, 0.0)


def test_drag_term_by_term():
    """Both components rebuilt term by term from the printed pieces."""
    p = SystemParams(mu=0.15, q1=0.85, a2=0.002, w1=2e-3)
    s = PhaseState(0.31, -0.54, 0.8, 0.25)
    xm = s.x + p.mu
    r1sq = xm**2 + s.y**2
    radial = (xm * s.vx + s.y * s.vy) / r1sq
    fx = -(p.w1 / r1sq) * (xm * radial + s.vx - p.n * s.y)
    fy = -(p.w1 / r1sq) * (s.y * radial + s.vy + p.n * xm)
    f = drag_acceleration(p, s)
    assert f.ax == pytest.approx(fx, rel=1e-15)
    assert f.ay == pytest.approx(fy, rel=1e-15)


def test_eom_assembles_gradient_coriolis_and_drag():
    p = SystemParams(mu=0.15, q1=0.85, a2=0.002, w1=2e-3)
    rng = np.random.default_rng(5150)
    for _ in range(20):
        x, y, vx, vy = rng.uniform(-1.5, 1.5, size=4)
        if min(math.hypot(x + p.mu, y), math.hypot(x + p.mu - 1, y)) < 0.05:
            continue
        s = PhaseState(x, y, vx, vy)
        g = conservative_gradient(p, x, y)
        f = drag_acceleration(p, s)
        dx, dy, ax, ay = equations_of_motion(p, s)
        assert (dx, dy) == (vx, vy)
        assert ax == 2.0 * p.n * vy + g.ax + f.ax
        assert ay == -2.0 * p.n * vx + g.ay + f.ay


def test_eom_zero_at_classical_triangular_point():
    p = SystemParams(mu=0.1)
    d = equations_of_motion(p, PhaseState(0.4, SQRT3_2, 0.0, 0.0))
    assert d[0] == 0.0 and d[1] == 0.0
    assert abs(d[2]) < 1e-15
    assert abs(d[3]) < 1e-15


def test_eom_equal_mass_axis_balance():
    p = SystemParams(mu=0.5)
    d = equations_of_motion(p, PhaseState(0.0, 0.77, 0.0, 0.0))
    assert d[2] == 0.0


def test_eom_matches_independent_classical_rhs():
    mu = 0.2
    p = SystemParams(mu=mu)
    rng = np.random.default_rng(90210)
    for _ in range(20):
        x, y, vx, vy = rng.uniform(-1.5, 1.5, size=4)
        if min(math.hypot(x + mu, y), math.hypot(x + mu - 1, y)) < 0.05:
            continue
        s = PhaseState(x, y, vx, vy)
        got = equations_of_motion(p, s)
        want = _classical_rhs(mu, s)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-14, abs=1e-14)


def test_jacobi_constant_definition():
    p = SystemParams(mu=0.2, q1=0.9, a2=0.003, w1=1e-4)
    x, y = 0.5, 0.6
    at_rest = jacobi_constant(p, PhaseState(x, y, 0.0, 0.0))
    assert at_rest == 2.0 * amended_potential(p, x, y)
    moving = jacobi_constant(p, PhaseState(x, y, 0.3, -0.2))
    assert moving == pytest.approx(at_rest - 0.3**2 - 0.2**2, rel=1e-15)


def test_jacobi_classical_triangular_value():
    # at the equilateral point both distances are 1, so C = 3 - mu(1-mu)
    mu = 0.1
    c = jacobi_constant(SystemParams(mu=mu), PhaseState(0.4, SQRT3_2, 0, 0))
    assert c == pytest.approx(3.0 - mu * (1.0 - mu), rel=1e-14)


def test_jacobi_drift_zero_cases():
    conservative = SystemParams(mu=0.1, q1=1.0)
    assert jacobi_drift_rate(
        conservative, PhaseState(0.4, 0.9, 1.0, -2.0)) == 0.0
    dragged = SystemParams(mu=0.1, q1=0.9, w1=1e-3)
    assert jacobi_drift_rate(dragged, PhaseState(0.4, 0.9, 0.0, 0.0)) == 0.0


def test_jacobi_drift_matches_symbolic_rate():
    """The drift rate equals the algebraic time derivative of C.

    d/dt (2 U1 - vx^2 - vy^2) expands to 2 grad(U1).v - 2 v.a along the
    equations of motion; the Coriolis contribution cancels in v.a.
    """
    p = SystemParams(mu=0.15, q1=0.9, a2=0.005, w1=2e-3)
    rng = np.random.default_rng(777)
    for _ in range(25):
        x, y, vx, vy = rng.uniform(-1.2, 1.2, size=4)
        if min(math.hypot(x + p.mu, y), math.hypot(x + p.mu - 1, y)) < 0.05:
            continue
        s = PhaseState(x, y, vx, vy)
        g = conservative_gradient(p, x, y)
        _, _, ax, ay = equations_of_motion(p, s)
        symbolic = 2.0 * (g.ax * vx + g.ay * vy) - 2.0 * (vx * ax + vy * ay)
        assert jacobi_drift_rate(p, s) == pytest.approx(
            symbolic, abs=1e-12)


def test_time_reversed_mirror_maps_solutions():
    """Without drag, (x, y, vx, vy) -> (x, -y, -vx, vy) preserves the flow.

    The y-mirror must pair with a time reversal, which flips vx; that
    combination keeps the Coriolis terms consistent with the mirrored
    gravity, and the identity holds bitwise.
    """
    p = SystemParams(mu=0.2, q1=0.9, a2=0.004)
    rng = np.random.default_rng(31337)
    for _ in range(20):
        x, y, vx, vy = rng.uniform(-1.5, 1.5, size=4)
        if min(math.hypot(x + p.mu, y), math.hypot(x + p.mu - 1, y)) < 0.05:
            continue
        d = equations_of_motion(p, PhaseState(x, y, vx, vy))
        m = equations_of_motion(p, PhaseState(x, -y, -vx, vy))
        assert m == (-vx, vy, d[2], -d[3])


def test_drag_spoils_the_mirror_map():
    p = SystemParams(mu=0.2, q1=0.9, w1=1e-3)
    s = PhaseState(0.4, 0.8, 0.5, 0.2)
    d = equations_of_motion(p, s)
    m = equations_of_motion(p, PhaseState(s.x, -s.y, -s.vx, s.vy))
    assert m[2] != d[2]


def test_singularity_error_reports_radii():
    p = SystemParams(mu=0.1)
    with pytest.raises(SingularityError, match="within"):
        equations_of_motion(p, PhaseState(0.9, 0.0, 0.0, 0.0))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_numpy_scalars_give_the_float_bits():
    """np.float64 subclasses float, so its inputs take the float path and
    give its bits."""
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    s = PhaseState(0.49, 0.86, 0.012, -0.034)
    wide = PhaseState(*(np.float64(v) for v in (s.x, s.y, s.vx, s.vy)))
    assert _bits(jacobi_constant(p, wide)) == _bits(jacobi_constant(p, s))
    assert _bits(amended_potential(p, wide.x, wide.y)) \
        == _bits(amended_potential(p, s.x, s.y))
    with pytest.raises(SingularityError, match="within"):
        jacobi_constant(p, PhaseState(np.float64(-0.01), np.float64(0.0),
                                      0.0, 0.0))


def test_arrays_of_points_are_rejected():
    """The model evaluates one point at a time, on floats."""
    p = SystemParams(mu=0.1)
    x = np.array([0.3, 0.4])
    with pytest.raises(TypeError):
        amended_potential(p, x, x)
    with pytest.raises(TypeError):
        jacobi_drift_rate(p, PhaseState(x, x, x, x))


def _jacobian(p, x, y):
    # the rest Jacobian of p, as the family kernel over w1 gives it
    at, rest = _family_kernel(p, "w1")
    return rest(x, y, at(p.w1))[1]


@pytest.mark.parametrize("p, x, y", [
    (SystemParams(mu=0.1), 0.4, SQRT3_2),
    (SystemParams(mu=0.01, q1=0.98, a2=1e-3), 0.47, -0.85),
    (SystemParams(mu=0.01, q1=0.98, w1=5e-3), 0.1, 0.97),
    (SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3), 0.49, 0.86),
    (SystemParams(mu=0.3, q1=0.7, a2=0.02, w1=0.05), 0.15, -0.6),
    (SystemParams(mu=0.5, q1=0.6, a2=0.05, w1=0.3), -0.2, 1.3),
], ids=["classical", "oblate-L5", "drag-near-fold", "drag-oblate",
        "drag-oblate-L5", "strong-drag"])
def test_rest_jacobian_matches_central_differences(p, x, y):
    """The closed-form Jacobian of the rest-state residual against a
    central difference of the residual itself, with and without drag and
    oblateness, above and below the axis."""
    j = _jacobian(p, x, y)
    h = 1e-5
    px, mx = (equilibrium_residual(p, x + d, y) for d in (h, -h))
    py, my = (equilibrium_residual(p, x, y + d) for d in (h, -h))
    fd = ((px[0] - mx[0]) / (2 * h), (py[0] - my[0]) / (2 * h),
          (px[1] - mx[1]) / (2 * h), (py[1] - my[1]) / (2 * h))
    scale = max(abs(v) for v in fd)
    for exact, approx in zip(j, fd):
        assert abs(exact - approx) <= 1e-7 * scale


@pytest.mark.parametrize("p", [
    SystemParams(mu=0.1),
    SystemParams(mu=0.01, q1=0.98, a2=1e-3),
    SystemParams(mu=0.5, q1=0.6, a2=0.05),
], ids=["classical", "oblate", "equal-oblate"])
def test_hessian_bound_covers_the_hessian(p):
    """Without drag the rest Jacobian is the Hessian of U1; its spectral
    norm stays below the bound at the point's own radii, at distances
    from 1e-4 to 10 of either primary."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(2000):
        centre = -p.mu if rng.random() < 0.5 else 1.0 - p.mu
        dist = 10.0 ** rng.uniform(-4.0, 1.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x, y = centre + dist * math.cos(angle), dist * math.sin(angle)
        uxx, uxy, _, uyy = _jacobian(p, x, y)
        mid, half = 0.5 * (uxx + uyy), math.hypot(0.5 * (uxx - uyy), uxy)
        norm = abs(mid) + half
        bound = _hessian_bound(p, *_radii(p)(x, y))
        assert norm <= bound * (1.0 + 1e-12)
        worst = max(worst, norm / bound)
    # the bound is tight to a factor of two where one term dominates
    assert worst > 0.5


# the bases of the families: cd held fixed (finite and infinite), and w1
# held fixed, which a base has only without drag
FAMILY_BASES = {
    "cd": SystemParams(mu=0.03, q1=0.95, a2=2e-3, cd=500.0),
    "cd-inf": SystemParams(mu=0.03, q1=0.95, a2=2e-3, cd=math.inf),
    "w1": SystemParams(mu=0.03, q1=0.95, a2=2e-3, w1=0.0),
}
# each variable's values: both ends of its domain and two inside it
FAMILY_VALUES = {
    "w1": [0.0, 1e-3, 0.05, 1e300],
    "a2": [0.0, 1e-3, 0.05, 1e300],
    "q1": [5e-324, 0.5, 0.98, 1.0],
    "mu": [5e-324, 0.01, 0.2, 0.5],
}


def _family_system(base, variable, value):
    return SystemParams(**{**_family_fields(base, variable), variable: value})


@pytest.mark.parametrize("spec", FAMILY_BASES)
@pytest.mark.parametrize("variable", FAMILY_VALUES)
def test_family_kernel_has_the_bits_of_the_state_kernel(variable, spec):
    """The family's constants at a value are, bit for bit, the fields of
    the SystemParams of that value, and R of the family kernel is its
    rest-state residual by _state_kernel, at random points, on the axis
    (y = +-0) and at the domain's ends, also in Newton's mode, which adds
    J only where |R| reaches tol; a point within the guard raises the
    same error."""
    base = FAMILY_BASES[spec]
    rng = np.random.default_rng(7)
    points = [*rng.uniform(-1.5, 1.5, (40, 2)), (0.4, 0.0), (0.4, -0.0),
              (-0.03, 1e-110)]
    at, rest = _family_kernel(base, variable)
    for value in FAMILY_VALUES[variable]:
        p = _family_system(base, variable, value)
        c = at(value)
        assert (_bits(c) == _bits((p.mu, p.q1, p.a2, p.w1, p.n,
                                   p.delta))).all()
        state = _state_kernel(p)
        for x, y in points:
            x, y = float(x), float(y)
            try:
                _, gx, gy, fx, fy = state(x, y, 0.0, 0.0)
            except SingularityError as exc:
                with pytest.raises(SingularityError) as caught:
                    rest(x, y, c)
                assert str(caught.value) == str(exc)
                continue
            residual, jac, _ = rest(x, y, c)
            assert (_bits(residual) == _bits((gx + fx, gy + fy))).all()
            # Newton's mode: the same R, J only where |R| >= tol
            tol = math.hypot(*residual) * 2.0 ** rng.choice([-1, 1])
            r, j, lam = rest(x, y, c, tol)
            assert (_bits(r) == _bits(residual)).all() and lam is None
            assert j == (jac if tol <= math.hypot(*r) else None)


@pytest.mark.parametrize("variable, message", [
    ("cd", "variable must be 'w1', 'a2', 'q1' or 'mu', got 'cd'"),
], ids=["variable"])
def test_family_kernel_checks_its_arguments_where_it_is_bound(
        variable, message):
    # before any point is evaluated
    with pytest.raises(ValueError, match=re.escape(message)):
        _family_kernel(SystemParams(mu=0.1, q1=0.98, w1=1e-3), variable)


@pytest.mark.parametrize("spec", FAMILY_BASES)
@pytest.mark.parametrize("variable, value", [
    ("w1", 2e-3), ("a2", 1e-2), ("q1", 0.9), ("mu", 0.1)])
def test_family_kernel_derivative_matches_central_differences(variable,
                                                               value, spec):
    """dR/dlam in closed form, with W1's dependence on q1 and mu at a held
    cd and n's on A2, against a central difference of the residual
    through SystemParams, near L4 and L5 and off them."""
    base = FAMILY_BASES[spec]
    at, rest = _family_kernel(base, variable)
    h = 1e-6 * value
    plus, minus = (_family_system(base, variable, value + d)
                   for d in (h, -h))
    for x, y in [(0.45, 0.85), (0.45, -0.86), (0.2, 0.3), (1.3, -0.4)]:
        exact = rest(x, y, at(value))[2]
        rp = equilibrium_residual(plus, x, y)
        rm = equilibrium_residual(minus, x, y)
        fd = [(a - b) / (2 * h) for a, b in zip(rp, rm)]
        scale = max(1.0, *map(abs, fd))
        assert max(abs(a - b) for a, b in zip(exact, fd)) <= 1e-7 * scale
