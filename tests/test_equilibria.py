"""Tests for the triangular-point locators and the Newton refinement."""

from __future__ import annotations

import math
import random
import re
import warnings
from bisect import bisect_left

import pytest

from prtbp import equilibria
from prtbp.cli import _sweep_grid, main
from prtbp.model import _family_fields
from prtbp import (
    ConvergenceError,
    DegenerateFormulaError,
    EquilibriumPoint,
    PhaseState,
    SingularityError,
    SweepRow,
    SystemParams,
    analytic_epsilons,
    analytic_triangular_point,
    equations_of_motion,
    equilibrium_residual,
    follow_branch,
    limiting_case_point,
    refine_equilibrium,
    triangular_points,
)

from tables import read_table

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


def test_epsilon_validity_is_data():
    # far outside the first-order regime, and no warning says so
    p = SystemParams(mu=0.1, q1=0.98, w1=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = analytic_epsilons(p, "L4")
        analytic_triangular_point(p, "L4")
    assert abs(terms.eps2) > equilibria.EPS_VALIDITY


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


@pytest.mark.parametrize("params, case", [
    (dict(mu=0.1, q1=0.9, w1=1e-3), "oblate-only"),
    (dict(mu=0.1, q1=0.9, a2=0.01), "drag-only"),
    (dict(mu=0.1, q1=0.9), "classical"),
    (dict(mu=0.1, a2=0.01), "classical"),
])
def test_unmet_case_conditions_are_a_degenerate_formula(params, case):
    with pytest.raises(DegenerateFormulaError, match=case):
        limiting_case_point(SystemParams(**params), case, "L4")


def test_unknown_case_is_not_a_degenerate_formula():
    with pytest.raises(ValueError, match="case must be one of") as info:
        limiting_case_point(SystemParams(mu=0.1), "spherical", "L4")
    assert not isinstance(info.value, DegenerateFormulaError)


DEGENERATE_MU = 0.5 ** (2.0 / 3.0) / 2.0

BASE = "photogravitational-base"
ANALYTIC = "analytic-first-order"
REFINED = "refined-numeric"


# at a subnormal mu or q1 the denominators 3mu(1-mu)y0 and 6mu(1-mu)y0^3
# of the first-order forms overflow their point or underflow to 0
SUBNORMAL = [dict(mu=5e-324, q1=0.9, w1=1e-3),
             dict(mu=5e-324, q1=1e-12, w1=1.0),
             dict(mu=0.01, q1=5e-324, w1=0.0)]


@pytest.mark.parametrize("params", SUBNORMAL,
                         ids=["overflow", "mu-underflow", "q1-underflow"])
def test_closed_form_that_is_not_finite_is_degenerate(params):
    p = SystemParams(**params)
    for branch in ("L4", "L5"):
        with pytest.raises(DegenerateFormulaError,
                           match="not finite|divides by zero"):
            analytic_triangular_point(p, branch)
        with pytest.raises(DegenerateFormulaError,
                           match="drag-only .*(not finite|divides by zero)"):
            limiting_case_point(p, "drag-only", branch)
    # the sweep rows have no analytic point and refine from the base point
    rows, _ = follow_branch(p, "a2", [1e-5, 1e-4, 1e-3])
    assert [(row.x_analytic, row.y_analytic) for row in rows] == \
        [(None, None)] * 3


@pytest.mark.parametrize("params", [
    SUBNORMAL[0], dict(mu=5e-324, q1=1e-12, a2=1e-6, w1=1.0)],
    ids=["overflow", "mu-underflow"])
def test_first_order_shifts_that_are_not_finite_are_degenerate(params):
    p = SystemParams(**params)
    for branch in ("L4", "L5"):
        with pytest.raises(DegenerateFormulaError,
                           match="not finite|divide by zero"):
            analytic_epsilons(p, branch)


@pytest.mark.parametrize("params, methods", [
    # classical: every limiting case holds
    (dict(mu=0.1), [BASE, ANALYTIC, REFINED, "limiting-oblate-only",
                    "limiting-drag-only", "limiting-classical"]),
    (dict(mu=0.1, q1=0.9, a2=1e-3),
     [BASE, ANALYTIC, REFINED, "limiting-oblate-only"]),
    (dict(mu=0.1, q1=0.9, w1=1e-4),
     [BASE, ANALYTIC, REFINED, "limiting-drag-only"]),
    (FIXTURE, [BASE, ANALYTIC, REFINED]),
    # delta^2/2 = mu: no analytic point, and the drag-only form is
    # degenerate too, so the refinement starts from the base point
    (dict(mu=DEGENERATE_MU, q1=0.5), [BASE, REFINED, "limiting-oblate-only"]),
    # an infinite light speed is drag-free
    (dict(mu=0.01, q1=0.995, a2=1e-4, cd=math.inf),
     [BASE, ANALYTIC, REFINED, "limiting-oblate-only"]),
], ids=["classical", "oblate-only", "drag-only", "drag-and-oblate",
        "degenerate-x0", "light-speed-inf"])
def test_triangular_points_reports_every_admitted_route(params, methods):
    p = SystemParams(**params)
    points = triangular_points(p)
    assert [(pt.label, pt.method) for pt in points] == (
        [("L4", m) for m in methods] + [("L5", m) for m in methods])
    for pt in points:
        assert pt.residual_norm == math.hypot(
            *equilibrium_residual(p, pt.x, pt.y))
    for branch in ("L4", "L5"):
        row = {pt.method: pt for pt in points if pt.label == branch}
        terms = analytic_epsilons(p, branch)
        assert (row[BASE].x, row[BASE].y) == (terms.x0, terms.y0)
        seed = row.get(ANALYTIC, row[BASE])
        if ANALYTIC in row:
            assert seed == analytic_triangular_point(p, branch)
        if p.w1 == 0.0:
            assert row[REFINED] == refine_equilibrium(p, (seed.x, seed.y))
        else:
            assert row[REFINED] == _walked(p, branch)
        assert row[REFINED].residual_norm < 1e-12
        for method, pt in row.items():
            if method.startswith("limiting-"):
                assert pt == limiting_case_point(
                    p, method.removeprefix("limiting-"), branch)


def _walked(p, branch):
    # the refined point of the last row of the sweep over w1 in {0, p.w1}
    rows, _ = follow_branch(p, "w1", [0.0, p.w1], branch)
    return refine_equilibrium(p, (rows[-1].x_refined, rows[-1].y_refined))


def test_formula_point_off_its_side_of_y_is_degenerate():
    """At this drag the first-order L5 shift moves the point above y = 0:
    the analytic and drag-only points raise, and L5 is still refined
    along its branch from w1 = 0."""
    p = SystemParams(mu=0.01, q1=0.9, w1=0.075)
    with pytest.raises(DegenerateFormulaError, match="y = 0"):
        analytic_triangular_point(p, "L5")
    with pytest.raises(DegenerateFormulaError, match="y = 0"):
        limiting_case_point(p, "drag-only", "L5")
    base, refined = triangular_points(p)[-2:]
    assert (base.label, base.method) == ("L5", BASE)
    assert refined == _walked(p, "L5")
    assert refined.label == "L5"
    assert refined.residual_norm < 1e-12


def test_point_report_stops_at_the_fold():
    """The L4 branch folds at w1 = 6.86695e-3 here, so the report has no
    refined L4 point; L5 keeps its rows and is refined at the point the
    CLI test pins."""
    points = triangular_points(SystemParams(mu=0.01, q1=0.9, w1=0.075))
    refined = [pt for pt in points if pt.method == REFINED]
    assert [pt.label for pt in refined] == ["L5"]
    assert [pt.method for pt in points if pt.label == "L4"] == [
        BASE, ANALYTIC, "limiting-drag-only"]
    assert refined[0].x == pytest.approx(0.8968161758387347, abs=1e-12)
    assert refined[0].y == pytest.approx(-0.3381017254844751, abs=1e-12)
    rows, folds = follow_branch(SystemParams(mu=0.01, q1=0.9, w1=0.0), "w1",
                                [0.0, 0.075])
    assert rows[-1].status == "no-equilibrium"
    assert folds == (pytest.approx(6.86695e-3, rel=1e-5),)


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
    point = refine_equilibrium(p, (0.4, SQRT3_2))
    assert point.x == 0.4
    assert point.y == SQRT3_2
    assert point.method == "refined-numeric"


def test_refine_converges_from_rough_guess():
    point = refine_equilibrium(SystemParams(mu=0.3), (0.21, 0.85))
    assert point.x == pytest.approx(0.2, abs=1e-12)
    assert point.y == pytest.approx(SQRT3_2, abs=1e-12)


def test_refine_skips_a_probe_inside_the_guard(monkeypatch):
    """The kernel raises SingularityError at a probe inside the guard.
    Here it raises at the first trial probe from (0.525, 0.375) at
    mu = 0.1, the full Newton step. That probe is skipped like one that
    fails to decrease the residual, and the halved step goes on to L4."""
    kernel = equilibria._family_kernel
    probes, skipped = [], []

    def spied_kernel(p, variable):
        at, rest = kernel(p, variable)

        def spied(*args):
            # the first call is the guess's own residual
            probes.append(args)
            if len(probes) == 2:
                skipped.append(args)
                raise SingularityError("inside the guard")
            return rest(*args)

        return at, spied

    monkeypatch.setattr(equilibria, "_family_kernel", spied_kernel)
    point = refine_equilibrium(SystemParams(mu=0.1), (0.525, 0.375))
    assert len(skipped) == 1
    (x0, y0, *_), (x1, y1, *_), (x2, y2, *_) = probes[:3]
    assert (x2 - x0, y2 - y0) == pytest.approx(
        (0.5 * (x1 - x0), 0.5 * (y1 - y0)), rel=1e-12)
    assert point.label == "L4"
    assert point.x == pytest.approx(0.4, abs=1e-12)
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
    for guess in [(math.nan, SQRT3_2), (0.4, math.inf), (0.4, 0.8, 9),
                  ("0.4", "0.8")]:
        with pytest.raises(ValueError, match="guess"):
            refine_equilibrium(p, guess)


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


def test_refine_onto_y_zero_is_a_convergence_error():
    """From y = 0 without drag, Newton stays on the axis and converges to
    a collinear point, which no triangular-point label fits."""
    with pytest.raises(ConvergenceError, match="y = 0") as info:
        refine_equilibrium(SystemParams(mu=0.1, w1=0.0), (0.4, 0.0))
    assert info.value.y == 0.0
    assert info.value.residual_norm < 1e-12


def test_refine_that_crosses_y_zero_is_a_convergence_error():
    """From 1.2e-6 above the axis Newton converges to a point 2.9e-4
    below it; a refinement ends on its guess's side of y = 0 or raises."""
    with pytest.raises(ConvergenceError, match="y = 0") as info:
        refine_equilibrium(SystemParams(mu=0.1, q1=0.9, w1=1e-3),
                           (0.35940214808982596, 1.198629984172291e-06))
    assert info.value.y < 0.0
    assert info.value.residual_norm < 1e-12


@pytest.mark.parametrize("branch", ["L4", "L5"])
def test_sweep_rows_stay_on_their_side_of_y_zero(branch):
    """At mu = 0.1, q1 = 0.98 the first-order y of L4 crosses y = 0
    between a2 = 2.6 and 5.3, and past the walk's last point (a2 ~ 50)
    the cubic seed of the row at a2 ~ 386 carries Newton across it. Those
    rows once read ok with a point off the branch's side; now the rows at
    a2 ~ 5.3 to 189 read degenerate-analytic and the one at 386
    refine-failed. L5 mirrors L4."""
    grid = _sweep_grid({"start": 1e-3, "stop": 1e6, "count": 30,
                        "spacing": "geometric"})
    rows, _ = follow_branch(SystemParams(mu=0.1, q1=0.98, w1=0.0), "a2",
                            grid, branch)
    sign = 1.0 if branch == "L4" else -1.0
    assert all(sign * y > 0.0 for row in rows
               for y in (row.y_analytic, row.y_refined) if y is not None)
    assert [row.status for row in rows[11:19]] == [
        "ok", *["degenerate-analytic"] * 6, "refine-failed"]


# (system, variable, start, stop, count) of geometric sweeps
BRANCH_SWEEPS = [
    # L4 in w1 folds inside the grid, and the rows past it read
    # no-equilibrium
    (dict(mu=0.1, q1=0.98, w1=0.0), "w1", 1e-3, 0.2, 12),
    # in mu at a fixed light speed the branch appears at a fold before
    # the first refined point, so it is also followed backward
    (dict(mu=0.01, q1=0.98, cd=10.0), "mu", 1e-3, 0.5, 20),
]


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
    captured = capsys.readouterr()
    # rows beyond first order print nothing on stderr
    assert captured.err == ""
    summary = captured.out
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
    # a grid that falls and rises again could hide a fold from the walk
    ("grid", dict(grid=[1e-3, 9e-3, 2e-3, 7e-3])),
    ("grid", dict(grid=[1e-4, math.nan, 1e-3])),
])
def test_follow_branch_checks_its_arguments_before_any_solve(name, kwargs):
    # q1 = 1 admits no drag, so every grid point is invalid and no solve
    # would ever see the branch
    base = SystemParams(mu=0.1, q1=1.0, w1=0.0)
    args = dict(variable="w1", grid=[1e-4, 1e-3], branch="L4")
    rows, folds = follow_branch(base, **args)
    assert [row.status for row in rows] == ["invalid-params"] * 2
    assert folds == ()
    with pytest.raises(ValueError, match=name):
        follow_branch(base, **{**args, **kwargs})


@pytest.mark.parametrize("variable, grid", [
    ("w1", [0.0, 5e-324]),
    ("a2", [5e-324, 5.434722104253712e-323, 1e-322]),
], ids=["w1", "a2"])
def test_subnormal_span_is_followed(variable, grid):
    """The arc's dR/dlam is exact, so a span of subnormal parameter values
    (which once made a difference step of 0) is walked like any other,
    and every row is the drag-free, oblateness-free point."""
    base = SystemParams(mu=0.1, q1=0.9, w1=0.0)
    rows, folds = follow_branch(base, variable, grid)
    assert folds == ()
    terms = analytic_epsilons(base, "L4")
    point = refine_equilibrium(base, (terms.x0, terms.y0))
    for row in rows:
        assert row.status == "ok"
        assert (row.x_refined, row.y_refined) == (point.x, point.y)


# (system, variable, start, stop, branch) of 200-row geometric sweeps
WORK_SWEEPS = [
    (dict(mu=0.03, q1=0.98, cd=2000.0), "a2", 1e-5, 1e-2, "L5"),
    (dict(mu=0.03, q1=0.95, cd=2000.0), "q1", 0.9, 0.999, "L4"),
    (dict(mu=0.1, q1=0.98, w1=0.0), "w1", 1e-4, 1e-2, "L4"),
]


@pytest.mark.parametrize("system, variable, start, stop, branch",
                         WORK_SWEEPS, ids=["a2", "q1", "w1"])
def test_sweep_rows_mostly_stop_at_their_seed(system, variable, start, stop,
                                              branch, monkeypatch):
    """Each row refines from the cubic through the four nearest solved
    points, so most rows stop at their seed after one residual: 1.16,
    1.58 and 1.54 residuals a row here, arc included, where seeds
    between arc points 0.05 apart took 2.04, 2.11 and 2.29. Every
    residual is one call of the family kernel that the sweep binds, one
    per arc correction too."""
    kernel = equilibria._family_kernel
    calls = []

    def counted_kernel(p, variable):
        at, rest = kernel(p, variable)

        def counted(*args):
            calls.append(args)
            return rest(*args)

        return at, counted

    monkeypatch.setattr(equilibria, "_family_kernel", counted_kernel)
    grid = _sweep_grid({"start": start, "stop": stop, "count": 200,
                        "spacing": "geometric"})
    rows, folds = follow_branch(SystemParams(**system), variable, grid,
                                branch)
    assert {row.status for row in rows} == {"ok"} and folds == ()
    assert len(calls) / len(grid) < 1.8


# the L4 systems of docs/model-notes.md whose branch folds in w1
FOLD_SYSTEMS = [(0.01, 0.98), (0.01004, 0.9805), (0.012, 0.97), (0.1, 0.98)]


@pytest.mark.parametrize("mu, q1", FOLD_SYSTEMS)
def test_sweep_reaches_just_below_the_fold(mu, q1):
    """Grids that end 1e-11 below the fold refine every row, and their
    last rows lie on the near branch, whatever the grid."""
    base = SystemParams(mu=mu, q1=q1, w1=0.0)
    (fold,) = follow_branch(base, "w1", [1e-4, 0.5])[1]
    last = []
    for count in (3, 8):
        grid = _sweep_grid({"start": 1e-4, "stop": fold * (1.0 - 1e-11),
                            "count": count, "spacing": "linear"})
        rows, folds = follow_branch(base, "w1", grid)
        assert [row.status for row in rows] == ["ok"] * count
        assert folds == ()
        last.append(rows[-1])
    assert last[0].x_refined == pytest.approx(last[1].x_refined, abs=1e-7)
    assert last[0].y_refined == pytest.approx(last[1].y_refined, abs=1e-7)


def test_a_nan_residual_is_no_convergence():
    """The seeds of rows 2 and 3 overflow, and their residual norm is NaN,
    which fails rnorm >= 1e-12: Newton once returned such a row as ok with
    NaN coordinates. A residual norm that is not finite raises
    ConvergenceError, so the rows read refine-failed."""
    rows, folds = follow_branch(SystemParams(mu=0.1, q1=0.98, w1=0.0), "a2",
                                [1e-3, 5.6e72, 3.2e148])
    assert [row.status for row in rows] == ["ok"] + ["refine-failed"] * 2
    assert all(row.x_refined is None for row in rows[1:])


NEXT = math.nextafter
# each variable's domain edges with their neighbours, subnormals, 1e308
# and values inside; a grid made all of values outside the domain
EDGE_VALUES = [-1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 1e-3,
               NEXT(0.5, 0.0), 0.5, NEXT(0.5, 1.0), NEXT(1.0, 0.0), 1.0,
               NEXT(1.0, 2.0), 2.0, 1e308]
OUTSIDE = {"w1": [-1e308, -1.0, -5e-324], "a2": [-1e308, -1.0, -5e-324],
           "q1": [-1.0, 0.0, NEXT(1.0, 2.0), 1e308],
           "mu": [-5e-324, 0.0, NEXT(0.5, 1.0), 1.0, 1e308]}
# cd held, drag off with cd = inf held, and w1 = 0 held
VALIDITY_BASES = {
    "cd": SystemParams(mu=0.1, q1=0.98, a2=1e-3, cd=500.0),
    "cd-inf": SystemParams(mu=0.1, q1=0.98, a2=1e-3, cd=math.inf),
    "w1": SystemParams(mu=0.1, q1=0.98, a2=1e-3, w1=0.0),
}


def _admits(base, variable, value):
    try:
        SystemParams(**{**_family_fields(base, variable), variable: value})
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("spec", VALIDITY_BASES)
@pytest.mark.parametrize("variable", ["w1", "a2", "q1", "mu"])
def test_rows_are_invalid_exactly_where_system_params_raises(variable, spec):
    """The rows SystemParams admits are found by bisection, not asked one
    by one; on ascending and descending grids across the domain's edges,
    with repeated values, and on a grid wholly outside the domain, a row
    reads invalid-params exactly where SystemParams raises."""
    base = VALIDITY_BASES[spec]
    up = sorted(EDGE_VALUES + [0.5, 1e-3])
    for grid in (up, up[::-1], OUTSIDE[variable],
                 OUTSIDE[variable][::-1]):
        rows, _ = follow_branch(base, variable, grid)
        assert [row.status == "invalid-params" for row in rows] \
            == [not _admits(base, variable, value) for value in grid]


# 2,000-row sweeps that cross an edge of their variable's domain
EDGE_SWEEPS = {"w1": (-1e-3, 5e-3), "a2": (-1e-3, 1e-2), "q1": (0.9, 1.05),
               "mu": (0.3, 0.6)}


@pytest.mark.parametrize("variable", EDGE_SWEEPS)
def test_sweep_builds_system_params_for_the_arc_and_the_bisection_only(
        variable, monkeypatch):
    """A row takes its constants from the family kernel; SystemParams is
    built once per arc correction, to check the domain, and O(log n)
    times to find the valid rows."""
    built, corrections = [], []

    class CountedParams(SystemParams):
        def __init__(self, **kwargs):
            built.append(kwargs)
            super().__init__(**kwargs)

    walk = equilibria._walk

    def counted_walk(rest, *args):
        def counted(*point):
            corrections.append(point)
            return rest(*point)
        return walk(counted, *args)

    monkeypatch.setattr(equilibria, "SystemParams", CountedParams)
    monkeypatch.setattr(equilibria, "_walk", counted_walk)
    start, stop = EDGE_SWEEPS[variable]
    grid = _sweep_grid({"start": start, "stop": stop, "count": 2000,
                        "spacing": "linear"})
    base = SystemParams(mu=0.03, q1=0.98, a2=1e-4, cd=1000.0)
    rows, _ = follow_branch(base, variable, grid)
    invalid = [row.status == "invalid-params" for row in rows]
    assert invalid == [not _admits(base, variable, v) for v in grid]
    assert 0 < sum(invalid) < len(grid)
    bound = len(corrections) + 2 * math.ceil(math.log2(len(grid))) + 4
    assert len(built) <= bound


def _knot_sets(rng):
    # lams on a dyadic lattice, so that values between two knots are at
    # exactly equal distances from both, with repeats and with neighbours
    # one ulp apart, whose distances from a far value round alike
    for _ in range(300):
        lams = sorted(rng.choice([rng.randrange(-16, 17) / 8.0,
                                  rng.uniform(-2.0, 2.0),
                                  NEXT(1.0, 2.0), 1.0, NEXT(1.0, 0.0)])
                      for _ in range(rng.randrange(1, 14)))
        values = [rng.choice([rng.randrange(-40, 41) / 16.0,
                              rng.uniform(-3.0, 3.0), 1e16, -1e16,
                              rng.choice(lams)])
                  for _ in range(rng.randrange(1, 30))]
        values.sort(reverse=rng.random() < 0.5)
        # the rows repeat grid values
        yield lams, [v for v in values for _ in range(rng.randrange(1, 3))]


def test_knot_window_picks_in_merge_order():
    """From any start the window moves to bisect_left of the row's value
    and picks four of the eight knots around it in the merge's order:
    nearest first, a tie across the window to the left, and a tie on one
    side, of repeated lams or of distances that round alike, to the knot
    nearer the window. Knots are added at the window as the sweep adds
    refined rows."""
    rng = random.Random(27)
    for lams, values in _knot_sets(rng):
        knots = [(rng.random(), rng.random(), lam) for lam in lams]
        k = rng.randrange(len(knots) + 1)
        for value in values:
            k, near = equilibria._nearest(knots, k, value)
            assert k == bisect_left(knots, value, key=lambda u: u[2])
            order = sorted(range(max(k - 4, 0), min(k + 4, len(knots))),
                           key=lambda i: (abs(knots[i][2] - value), i >= k,
                                          abs(i - k + 0.5)))
            assert [id(u) for u in near] \
                == [id(knots[i]) for i in order[:4]]
            if rng.random() < 0.3 and near[0][2] != value:
                knots.insert(k, (rng.random(), rng.random(), value))
