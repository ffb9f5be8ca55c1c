"""Acceptance suite: nine go/no-go checks at pinned tolerances.

Each test prints one pass/fail line with its measured margin so the run
log shows the whole scorecard at a glance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from prtbp import (
    PhaseState,
    SystemParams,
    amended_potential,
    analytic_epsilons,
    analytic_triangular_point,
    conservative_gradient,
    integrate,
    jacobi_audit,
    jacobi_constant,
    limiting_case_point,
    refine_equilibrium,
    zero_velocity_curve,
)

SQRT3_2 = math.sqrt(3.0) / 2.0


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {num} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _shift_slope(make_params, values, branch="L4"):
    """Log-log slope of |refined - analytic| against the swept value."""
    gaps = []
    for v in values:
        p = make_params(v)
        a = analytic_triangular_point(p, branch)
        r = refine_equilibrium(p, (a.x, a.y))
        gaps.append(math.hypot(a.x - r.x, a.y - r.y))
    return float(np.polyfit(np.log(values), np.log(gaps), 1)[0])


def test_criterion_1_classical_reduction(capsys):
    worst = 0.0
    for mu in (0.001, 0.01, 0.1, 0.3):
        p = SystemParams(mu=mu)
        for branch, sign in (("L4", 1.0), ("L5", -1.0)):
            want = (0.5 - mu, sign * SQRT3_2)
            a = analytic_triangular_point(p, branch)
            base = analytic_epsilons(p, branch)
            r = refine_equilibrium(p, (base.x0, base.y0))
            for point in (a, r):
                worst = max(worst, abs(point.x - want[0]),
                            abs(point.y - want[1]))
    _report(capsys, 1, "classical reduction", worst < 1e-12,
            f"max coordinate error {worst:.3e}, tolerance 1e-12")


def test_criterion_2_oblate_reduction_and_order(capsys):
    a2_grid = np.geomspace(1e-4, 1e-2, 9)
    mismatch = 0.0
    for a2 in a2_grid:
        p = SystemParams(mu=0.1, q1=0.9, a2=float(a2))
        for branch in ("L4", "L5"):
            a = analytic_triangular_point(p, branch)
            c = limiting_case_point(p, "oblate-only", branch)
            mismatch = max(mismatch, abs(a.x - c.x), abs(a.y - c.y))
    slope = _shift_slope(
        lambda a2: SystemParams(mu=0.1, q1=0.9, a2=a2), a2_grid)
    ok = mismatch < 1e-14 and 1.7 <= slope <= 2.3
    _report(capsys, 2, "oblateness-only closed form", ok,
            f"closed-form mismatch {mismatch:.3e} (tol 1e-14), "
            f"refined-gap slope {slope:.3f} (2.0 +/- 0.3)")


def test_criterion_3_drag_reduction_and_order(capsys):
    w1_grid = np.geomspace(1e-4, 1e-2, 9)
    mismatch = 0.0
    for w1 in w1_grid:
        p = SystemParams(mu=0.1, q1=0.98, w1=float(w1))
        for branch in ("L4", "L5"):
            a = analytic_triangular_point(p, branch)
            c = limiting_case_point(p, "drag-only", branch)
            mismatch = max(mismatch, abs(a.x - c.x), abs(a.y - c.y))
    slope = _shift_slope(
        lambda w1: SystemParams(mu=0.1, q1=0.98, w1=w1), w1_grid)
    ok = mismatch < 1e-14 and 1.7 <= slope <= 2.3
    _report(capsys, 3, "drag-only closed form", ok,
            f"closed-form mismatch {mismatch:.3e} (tol 1e-14), "
            f"refined-gap slope {slope:.3f} (2.0 +/- 0.3)")


def test_criterion_4_equilibrium_exactness(capsys):
    p = SystemParams(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
    worst_rn = 0.0
    for branch in ("L4", "L5"):
        a = analytic_triangular_point(p, branch)
        point = refine_equilibrium(p, (a.x, a.y))
        worst_rn = max(worst_rn, point.residual_norm)
    guess = analytic_triangular_point(p, "L4")
    l4 = refine_equilibrium(p, (guess.x, guess.y))
    traj = integrate(p, PhaseState(l4.x, l4.y, 0.0, 0.0),
                     t_end=10.0, sample_dt=0.05)
    _, x, y, _, _, _ = traj.arrays()
    stray = float(np.hypot(x - l4.x, y - l4.y).max())
    ok = worst_rn < 1e-12 and stray < 1e-6 \
        and traj.termination == "completed"
    _report(capsys, 4, "refined equilibrium exactness", ok,
            f"residual norm {worst_rn:.3e} (tol 1e-12), "
            f"10-unit rest-start stray {stray:.3e} (tol 1e-6)")


def test_criterion_5_jacobi_conservation(capsys):
    p = SystemParams(mu=0.01)
    l4 = refine_equilibrium(p, (0.49, SQRT3_2))
    traj = integrate(p, PhaseState(l4.x + 0.005, l4.y, 0.0, 0.0),
                     t_end=20.0 * math.pi, sample_dt=0.05)
    _, x, y, _, _, _ = traj.arrays()
    bounded = traj.termination == "completed" \
        and float(np.hypot(x + p.mu, y).max()) < 2.0
    drift = jacobi_audit(traj)
    ok = bounded and drift < 1e-9
    _report(capsys, 5, "drag-free Jacobi conservation", ok,
            f"max |C - C0| {drift:.3e} over 10 revolutions (tol 1e-9)")


def test_criterion_6_jacobi_drift_law(capsys):
    p = SystemParams(mu=0.01, q1=0.9, w1=1e-3)
    traj = integrate(p, PhaseState(0.45, 0.8, 0.0, 1.3),
                     t_end=2.0, sample_dt=1e-3)
    mismatch = jacobi_audit(traj)
    ok = traj.termination == "completed" and mismatch < 1e-4
    _report(capsys, 6, "Jacobi drift law", ok,
            f"worst relative mismatch {mismatch:.3e} at sample_dt 1e-3 "
            "(tol 1e-4)")


def test_criterion_7_gradient_audit(capsys):
    rng = np.random.default_rng(20260822)
    h = 1e-6
    worst = 0.0
    for _ in range(5):
        p = SystemParams(mu=float(rng.uniform(0.01, 0.5)),
                         q1=float(rng.uniform(0.5, 0.999)),
                         a2=float(rng.uniform(0.0, 0.01)),
                         w1=float(rng.uniform(0.0, 1e-3)))
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
            worst = max(worst, abs(g.ax - fx) / scale,
                        abs(g.ay - fy) / scale)
            checked += 1
    _report(capsys, 7, "gradient audit", worst < 1e-6,
            f"worst relative deviation {worst:.3e} over 5 parameter sets "
            "x 100 points (tol 1e-6)")


def test_criterion_8_drag_antisymmetry(capsys):
    worst = 0.0
    for w1 in (1e-4, 1e-3, 1e-2):
        p = SystemParams(mu=0.1, q1=0.9, w1=w1)
        dx = {}
        for branch in ("L4", "L5"):
            base = analytic_epsilons(p, branch)
            point = analytic_triangular_point(p, branch)
            dx[branch] = point.x - base.x0
        worst = max(worst, abs(dx["L4"] + dx["L5"]))
    _report(capsys, 8, "drag antisymmetry of x-corrections",
            worst < 1e-14,
            f"max |dx(L4) + dx(L5)| {worst:.3e} (tol 1e-14)")


def test_criterion_9_zero_velocity_curves(capsys):
    p = SystemParams(mu=0.1)
    c_l4 = jacobi_constant(p, PhaseState(0.4, SQRT3_2, 0.0, 0.0))
    res = 128
    cell = 3.0 / (res - 1)
    worst_residual = 0.0
    worst_gap = 0.0
    for level in (c_l4 + 0.01, 3.2, 3.9):
        curve = zero_velocity_curve(p, level, (-1.5, 1.5, -1.5, 1.5), res)
        pts = np.array([v for seg in curve.segments for v in seg])
        assert len(pts) > 0
        for x, y in pts:
            g = conservative_gradient(p, x, y)
            scale = max(1.0, 2.0 * math.hypot(g.ax, g.ay))
            worst_residual = max(
                worst_residual,
                abs(2.0 * amended_potential(p, x, y) - level) / scale)
        mirrored = pts * np.array([1.0, -1.0])
        gap = float(cKDTree(pts).query(mirrored)[0].max())
        worst_gap = max(worst_gap, gap)
    ok = worst_residual < 1e-6 and worst_gap < math.sqrt(2.0) * cell
    _report(capsys, 9, "zero-velocity curve correctness", ok,
            f"worst vertex residual {worst_residual:.3e} (tol 1e-6), "
            f"worst mirror gap {worst_gap:.3e} (tol one cell "
            f"{math.sqrt(2.0) * cell:.3e})")
