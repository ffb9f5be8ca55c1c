"""Tests for the triangular-point locators and the Newton refinement."""

from __future__ import annotations

import math
import re

import pytest

from prtbp import equilibria
from prtbp.cli import _sweep_grid, main, read_table
from prtbp import (
    ConvergenceError,
    DegenerateFormulaError,
    EquilibriumPoint,
    PhaseState,
    SweepRow,
    SystemParams,
    analytic_epsilons,
    analytic_triangular_point,
    equations_of_motion,
    equilibrium_residual,
    follow_branch,
    limiting_case_point,
    refine_equilibrium,
)

SQRT3_2 = math.sqrt(3.0) / 2.0

# mu=0.01, q1=0.995, a2=1e-4, cd=1e3; values frozen from a converged
# run cross-checked against an independent root finder
FIXTURE = dict(mu=0.01, q1=0.995, a2=1e-4, cd=1e3)
FROZEN = {
    ("L4", "analytic"): (0.48809044323442158, 0.86514059665488985),
    ("L4", "refined"): (0.48809037613282885, 0.86514061604667225),
    ("L5", "analytic"): (0.48847377307529377, -0.86492201529993595),
    ("L5", "refined"): (0.48847371846757481, -0.86492201973635563),
}


def test_base_point_classical():
    terms = analytic_epsilons(SystemParams(mu=0.1), "L4")
    assert terms.x0 == pytest.approx(0.4, abs=1e-15)
    assert terms.y0 == pytest.approx(SQRT3_2, abs=1e-15)
    assert analytic_epsilons(SystemParams(mu=0.1), "L5").y0 < 0


def test_base_point_solves_radiation_only_problem():
    p = SystemParams(mu=0.2, q1=0.8)
    for branch in ("L4", "L5"):
        terms = analytic_epsilons(p, branch)
        assert terms.x0 == pytest.approx(0.8 ** (2.0 / 3.0) / 2.0 - 0.2,
                                         abs=1e-15)
        res = equilibrium_residual(p, terms.x0, terms.y0)
        assert math.hypot(*res) < 1e-12


def test_base_point_distances():
    # the base point keeps r1 = delta and r2 = 1
    p = SystemParams(mu=0.3, q1=0.7)
    terms = analytic_epsilons(p, "L4")
    r1 = math.hypot(terms.x0 + p.mu, terms.y0)
    r2 = math.hypot(terms.x0 + p.mu - 1.0, terms.y0)
    assert r1 == pytest.approx(p.delta, rel=1e-15)
    assert r2 == pytest.approx(1.0, rel=1e-15)


def test_epsilons_vanish_unperturbed():
    terms = analytic_epsilons(SystemParams(mu=0.1, q1=0.9), "L4")
    assert terms.eps1 == 0.0
    assert terms.eps2 == 0.0


def test_epsilons_oblate_only():
    terms = analytic_epsilons(SystemParams(mu=0.1, q1=0.9, a2=0.02), "L4")
    assert terms.eps1 == -0.01
    assert terms.eps2 == 0.0


def test_epsilon_drag_terms_flip_between_branches():
    p = SystemParams(mu=0.1, q1=0.98, w1=1e-3)
    l4 = analytic_epsilons(p, "L4")
    l5 = analytic_epsilons(p, "L5")
    assert l5.eps2 == -l4.eps2
    assert l5.eps1 == -l4.eps1


def test_epsilon_validity_warning():
    p = SystemParams(mu=0.1, q1=0.98, w1=0.5)
    with pytest.warns(UserWarning, match="validity"):
        analytic_epsilons(p, "L4")


def test_analytic_reduces_to_base_unperturbed():
    p = SystemParams(mu=0.15, q1=0.9)
    terms = analytic_epsilons(p, "L4")
    point = analytic_triangular_point(p, "L4")
    assert point.x == terms.x0
    assert point.y == terms.y0
    assert point.method == "analytic-first-order"
    assert point.residual_norm < 1e-12


def test_analytic_degenerate_abscissa():
    # delta^2/2 = mu collapses the correction's reference abscissa
    mu = 0.5 ** (2.0 / 3.0) / 2.0
    p = SystemParams(mu=mu, q1=0.5)
    assert abs(analytic_epsilons(p, "L4").x0) < 1e-9
    with pytest.raises(DegenerateFormulaError):
        analytic_triangular_point(p, "L4")


def test_analytic_fixture_regression():
    p = SystemParams(**FIXTURE)
    for branch in ("L4", "L5"):
        point = analytic_triangular_point(p, branch)
        x, y = FROZEN[(branch, "analytic")]
        assert point.x == pytest.approx(x, abs=1e-11)
        assert point.y == pytest.approx(y, abs=1e-11)


def test_refined_fixture_regression():
    p = SystemParams(**FIXTURE)
    for branch in ("L4", "L5"):
        analytic = analytic_triangular_point(p, branch)
        point = refine_equilibrium(p, (analytic.x, analytic.y))
        x, y = FROZEN[(branch, "refined")]
        assert point.x == pytest.approx(x, abs=1e-11)
        assert point.y == pytest.approx(y, abs=1e-11)
        assert point.method == "refined-numeric"
        assert point.label == branch
        assert point.residual_norm < 1e-12


def test_refined_approaches_analytic_quadratically():
    """Halving the drag strength four times cuts the gap ~16x."""
    def gap(w1):
        p = SystemParams(mu=0.1, q1=0.98, w1=w1)
        a = analytic_triangular_point(p, "L4")
        r = refine_equilibrium(p, (a.x, a.y))
        return math.hypot(a.x - r.x, a.y - r.y)

    ratio = gap(1e-3) / gap(2.5e-4)
    assert 11.0 < ratio < 22.0


def test_residual_matches_rest_state_accelerations():
    p = SystemParams(mu=0.2, q1=0.9, a2=0.003, w1=5e-4)
    for x, y in [(0.35, 0.82), (0.5, -0.7), (-0.2, 0.4)]:
        r1, r2 = equilibrium_residual(p, x, y)
        d = equations_of_motion(p, PhaseState(x, y, 0.0, 0.0))
        assert (r1, r2) == (d[2], d[3])


def test_limiting_case_constraint_validation():
    with pytest.raises(ValueError):
        limiting_case_point(SystemParams(mu=0.1, q1=0.9, w1=1e-3),
                            "oblate-only", "L4")
    with pytest.raises(ValueError):
        limiting_case_point(SystemParams(mu=0.1, q1=0.9, a2=0.01),
                            "drag-only", "L4")
    with pytest.raises(ValueError):
        limiting_case_point(SystemParams(mu=0.1, q1=0.9), "classical", "L4")
    with pytest.raises(ValueError):
        limiting_case_point(SystemParams(mu=0.1), "spherical", "L4")


def test_classical_case_coordinates():
    p = SystemParams(mu=0.3)
    l4 = limiting_case_point(p, "classical", "L4")
    l5 = limiting_case_point(p, "classical", "L5")
    assert l4.x == 0.2 and l4.y == SQRT3_2
    assert l5.x == 0.2 and l5.y == -SQRT3_2
    assert l4.method == "limiting-classical"
    assert l4.residual_norm < 1e-15


def test_oblate_case_agrees_with_general_form():
    for a2 in (1e-4, 1e-3, 1e-2):
        p = SystemParams(mu=0.1, q1=0.9, a2=a2)
        for branch in ("L4", "L5"):
            case = limiting_case_point(p, "oblate-only", branch)
            general = analytic_triangular_point(p, branch)
            assert abs(case.x - general.x) < 1e-14
            assert abs(case.y - general.y) < 1e-14


def test_drag_case_agrees_with_general_form():
    for w1 in (1e-4, 1e-3, 1e-2):
        p = SystemParams(mu=0.1, q1=0.98, w1=w1)
        for branch in ("L4", "L5"):
            case = limiting_case_point(p, "drag-only", branch)
            general = analytic_triangular_point(p, branch)
            assert abs(case.x - general.x) < 1e-14
            assert abs(case.y - general.y) < 1e-14


def test_oblate_case_without_oblateness_is_base():
    p = SystemParams(mu=0.2, q1=0.85)
    terms = analytic_epsilons(p, "L4")
    case = limiting_case_point(p, "oblate-only", "L4")
    assert case.x == terms.x0
    assert case.y == terms.y0


def test_refine_fixed_point_returns_guess():
    p = SystemParams(mu=0.1)
    point = refine_equilibrium(p, (0.4, SQRT3_2), max_iter=1)
    assert point.x == 0.4
    assert point.y == SQRT3_2
    assert point.method == "refined-numeric"


def test_refine_converges_from_rough_guess():
    point = refine_equilibrium(SystemParams(mu=0.3), (0.21, 0.85))
    assert point.x == pytest.approx(0.2, abs=1e-12)
    assert point.y == pytest.approx(SQRT3_2, abs=1e-12)


def test_refine_far_guess_raises():
    p = SystemParams(**FIXTURE)
    with pytest.raises(ConvergenceError) as excinfo:
        refine_equilibrium(p, (10.0, 10.0))
    err = excinfo.value
    assert isinstance(err, RuntimeError)
    assert err.iterations == 50
    assert err.residual_norm > 0
    assert math.isfinite(err.x) and math.isfinite(err.y)


def test_refine_validation():
    p = SystemParams(mu=0.1)
    for name, guess, kwargs in [
            ("tol", (0.4, SQRT3_2), dict(tol=0.0)),
            ("tol", (0.4, SQRT3_2), dict(tol=math.nan)),
            ("tol", (0.4, SQRT3_2), dict(tol=math.inf)),
            ("max_iter", (0.4, SQRT3_2), dict(max_iter=0)),
            ("guess", (math.nan, SQRT3_2), {}),
            ("guess", (0.4, math.inf), {})]:
        with pytest.raises(ValueError, match=name):
            refine_equilibrium(p, guess, **kwargs)


def test_refine_label_follows_sign():
    point = refine_equilibrium(SystemParams(mu=0.1), (0.41, -0.88))
    assert point.label == "L5"
    assert point.y < 0


def test_drag_shifts_the_mirrored_residual():
    """With drag, mirroring y changes the tangential residual by
    exactly twice the rest-state drag term."""
    p = SystemParams(mu=0.1, q1=0.98, w1=1e-3)
    terms = analytic_epsilons(p, "L4")
    x0, y0 = terms.x0, terms.y0
    upper = equilibrium_residual(p, x0, y0)
    lower = equilibrium_residual(p, x0, -y0)
    expected = 2.0 * p.w1 * p.n * y0 / (p.delta * p.delta)
    assert upper[0] - lower[0] == pytest.approx(expected, rel=1e-13)


def test_point_record_invariants():
    with pytest.raises(ValueError):
        EquilibriumPoint(x=0.4, y=0.0, label="L4",
                         method="refined-numeric", residual_norm=0.0)
    with pytest.raises(ValueError):
        EquilibriumPoint(x=0.4, y=-0.8, label="L4",
                         method="refined-numeric", residual_norm=0.0)


def test_sweep_seed_falls_back_to_the_next():
    # a seed on the secondary, and one too far to converge in 8 Newton
    # steps of at most 0.25, fail; the guess after them still converges
    p = SystemParams(mu=0.1, q1=0.98, w1=1e-3)
    guess = (0.4, SQRT3_2)
    expected = refine_equilibrium(p, guess, tol=1e-12, max_iter=8)
    for bad in ((0.9, 0.0), (5.0, 5.0)):
        assert equilibria._refine_first(p, [bad], 1e-12, 8) is None
        got = equilibria._refine_first(p, [bad, guess], 1e-12, 8)
        assert (got.x, got.y) == (expected.x, expected.y)


# (system, variable, start, stop, count) of geometric sweeps
BRANCH_SWEEPS = [
    # L4 in w1 folds inside the grid, and the rows past it read
    # no-equilibrium
    (dict(mu=0.1, q1=0.98, w1=0.0), "w1", 1e-3, 0.2, 12),
    # in mu at a fixed light speed the branch appears at a fold before
    # the first refined point, so it is also followed backward
    (dict(mu=0.01, q1=0.98, cd=10.0), "mu", 1e-3, 0.5, 20),
]


@pytest.mark.filterwarnings("ignore:first-order shift")
@pytest.mark.parametrize("system, variable, start, stop, count",
                         BRANCH_SWEEPS, ids=["w1-fold", "mu-cd10"])
def test_follow_branch_gives_the_sweep_job_rows(system, variable, start,
                                                stop, count, tmp_path,
                                                capsys):
    out = tmp_path / "sweep.csv"
    flags = [arg for key, value in system.items()
             for arg in (f"--system.{key}", repr(value))]
    assert main(["sweep", *flags, "--job.variable", variable,
                 "--job.start", repr(start), "--job.stop", repr(stop),
                 "--job.count", str(count), "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    columns, table = read_table(str(out))
    grid = _sweep_grid({"start": start, "stop": stop, "count": count,
                        "spacing": "geometric"})
    rows, folds = follow_branch(SystemParams(**system), variable, grid)
    assert columns == list(SweepRow._fields)
    # 17 significant digits read back the written floats exactly
    assert [tuple(row[c] for c in columns) for row in table] \
        == [tuple(row) for row in rows]
    flagged = sum(row.status != "ok" for row in rows)
    assert summary.startswith(f"sweep: {count} points, {flagged} flagged")
    written = re.findall(rf"fold at {variable} = (\S+?)(?:,|\n)", summary)
    assert [float(at) for at in written] == list(folds)
    assert len(folds) == 1
    assert {row.status for row in rows} == {"ok", "no-equilibrium"}


@pytest.mark.parametrize("name, kwargs", [
    ("variable", dict(variable="cd")),
    ("branch", dict(branch="L6")),
    ("tol", dict(tol=-1.0)),
    ("tol", dict(tol=math.nan)),
    ("max_iter", dict(max_iter=0)),
])
def test_follow_branch_checks_its_arguments_before_any_solve(name, kwargs):
    # q1 = 1 admits no drag, so every grid point is invalid and no solve
    # would ever see the options
    base = SystemParams(mu=0.1, q1=1.0, w1=0.0)
    args = dict(variable="w1", grid=[1e-4, 1e-3], branch="L4", tol=1e-12,
                max_iter=50)
    rows, folds = follow_branch(base, **args)
    assert [row.status for row in rows] == ["invalid-params"] * 2
    assert folds == ()
    with pytest.raises(ValueError, match=name):
        follow_branch(base, **{**args, **kwargs})
