"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prtbp
from prtbp import PhaseState, SystemParams, ZeroVelocityCurve, \
    amended_potential, cli, conservative_gradient, dynamics, \
    equilibrium_residual, jacobi_constant, jacobi_drift_rate, rk45
from prtbp.cli import _render_csv, main, read_table

SQRT3_2 = math.sqrt(3.0) / 2.0

FIXTURE_CONFIG = {
    "system": {"mu": 0.01, "q1": 0.995, "a2": 1e-4, "cd": 1e3},
    "job": {"type": "equilibria"},
}
FROZEN = {
    ("L4", "analytic-first-order"): (0.48809044323442158,
                                     0.86514059665488985),
    ("L4", "refined-numeric"): (0.48809037613282885, 0.86514061604667225),
    ("L5", "analytic-first-order"): (0.48847377307529377,
                                     -0.86492201529993595),
    ("L5", "refined-numeric"): (0.48847371846757481, -0.86492201973635563),
}

INTEGRATE = ["integrate", "--system.mu", "0.01", "--system.w1", "0",
             "--job.x", "0.49", "--job.y", "0.86", "--job.vx", "0",
             "--job.vy", "0", "--job.t_end", "1", "--job.sample_dt", "0.1"]
# the README drag orbit, over a fifth of its span
INTEGRATE_DRAG = ["integrate", "--system.mu", "0.01", "--system.q1", "0.9",
                  "--system.w1", "1e-3", "--job.x", "0.45", "--job.y", "0.8",
                  "--job.vx", "0", "--job.vy", "1.3", "--job.t_end", "0.4",
                  "--job.sample_dt", "0.01"]


def _config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rows_by_key(rows, *keys):
    return {tuple(r[k] for k in keys): r for r in rows}


def test_missing_drag_spec_exits_2(capsys):
    rc = main(["equilibria", "--system.mu", "0.1", "--system.q1", "0.98"])
    assert rc == 2
    assert "system.cd/system.w1" in capsys.readouterr().err


def test_both_drag_specs_exit_2(capsys):
    rc = main(["equilibria", "--system.mu", "0.1", "--system.q1", "0.98",
               "--system.cd", "100", "--system.w1", "1e-4"])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--system.a2", "nan"), ("--system.cd", "nan"), ("--system.w1", "inf")])
def test_non_finite_parameter_exits_2(flag, value, capsys):
    drag = [] if flag in ("--system.cd", "--system.w1") else \
        ["--system.w1", "1e-4"]
    rc = main(["equilibria", "--system.mu", "0.1", "--system.q1", "0.98",
               *drag, flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"parameter {flag.removeprefix('--system.')} must not be" in err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path, {"system": {"mu": 0.1, "w1": 0.0, "bogus": 1}})
    rc = main(["equilibria", "--config", cfg])
    assert rc == 2
    assert "unknown field" in capsys.readouterr().err


def test_job_type_mismatch_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path, FIXTURE_CONFIG)
    rc = main(["integrate", "--config", cfg])
    assert rc == 2
    assert "job.type" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    rc = main(["equilibria", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["equilibria", "--config", str(bad)]) == 2
    scalar = tmp_path / "scalar.json"
    scalar.write_text("[1, 2]", encoding="utf-8")
    assert main(["equilibria", "--config", str(scalar)]) == 2


def test_grain_conflicts_with_explicit_q1(tmp_path, capsys):
    cfg = _config(tmp_path, {"system": {
        "mu": 0.2, "q1": 0.9, "w1": 0.0,
        "grain": {"radius_a": 1e-3, "density_rho": 2.0,
                  "efficiency_chi": 1.0}}})
    rc = main(["equilibria", "--config", cfg])
    assert rc == 2
    assert "grain" in capsys.readouterr().err


def test_grain_block_supplies_mass_reduction(tmp_path):
    out_a = str(tmp_path / "grain.csv")
    rc = main(["equilibria", "--system.mu", "0.2", "--system.w1", "0",
               "--system.grain.radius_a", "1e-3",
               "--system.grain.density_rho", "2.0",
               "--system.grain.efficiency_chi", "1.0",
               "--output", out_a])
    assert rc == 0
    out_b = str(tmp_path / "explicit.csv")
    assert main(["equilibria", "--system.mu", "0.2",
                 "--system.q1", "0.972", "--system.w1", "0",
                 "--output", out_b]) == 0
    _, rows_a = read_table(out_a)
    _, rows_b = read_table(out_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra["x"] == pytest.approx(rb["x"], abs=1e-12)
        assert ra["y"] == pytest.approx(rb["y"], abs=1e-12)


def test_classical_rows_and_methods(tmp_path):
    out = str(tmp_path / "classical.csv")
    rc = main(["equilibria", "--system.mu", "0.1", "--system.w1", "0",
               "--output", out])
    assert rc == 0
    columns, rows = read_table(out)
    assert columns == ["branch", "method", "x", "y", "residual_norm"]
    methods = {(r["branch"], r["method"]) for r in rows}
    expected = {"photogravitational-base", "analytic-first-order",
                "refined-numeric", "limiting-oblate-only",
                "limiting-drag-only", "limiting-classical"}
    for branch in ("L4", "L5"):
        assert {m for b, m in methods if b == branch} == expected
    for r in rows:
        assert r["x"] == pytest.approx(0.4, abs=1e-12)
        want_y = SQRT3_2 if r["branch"] == "L4" else -SQRT3_2
        assert r["y"] == pytest.approx(want_y, abs=1e-12)


def test_fixture_rows_regression(tmp_path):
    cfg = _config(tmp_path, FIXTURE_CONFIG)
    out = str(tmp_path / "fixture.csv")
    assert main(["equilibria", "--config", cfg, "--output", out]) == 0
    _, rows = read_table(out)
    by_key = _rows_by_key(rows, "branch", "method")
    # drag and oblateness are both on, so no limiting-case rows apply
    assert all(not m.startswith("limiting")
               for _, m in by_key)
    for (branch, method), (x, y) in FROZEN.items():
        row = by_key[(branch, method)]
        assert row["x"] == pytest.approx(x, abs=1e-11)
        assert row["y"] == pytest.approx(y, abs=1e-11)
    for branch in ("L4", "L5"):
        assert by_key[(branch, "refined-numeric")]["residual_norm"] < 1e-12


def test_flag_overrides_config(tmp_path):
    cfg = _config(tmp_path, {"system": {"mu": 0.1, "w1": 0.0}})
    out_a = str(tmp_path / "override.csv")
    assert main(["equilibria", "--config", cfg,
                 "--system.mu", "0.2", "--output", out_a]) == 0
    out_b = str(tmp_path / "direct.csv")
    assert main(["equilibria", "--system.mu", "0.2", "--system.w1", "0",
                 "--output", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_output_is_byte_deterministic(tmp_path):
    cfg = _config(tmp_path, FIXTURE_CONFIG)
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["equilibria", "--config", cfg, "--output", out_a]) == 0
    assert main(["equilibria", "--config", cfg, "--output", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_json_output_format(tmp_path):
    cfg = _config(tmp_path, FIXTURE_CONFIG)
    out = str(tmp_path / "points.json")
    assert main(["equilibria", "--config", cfg, "--output", out,
                 "--format", "json"]) == 0
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["job"] == "equilibria"
    branches = {row["branch"] for row in payload["rows"]}
    assert branches == {"L4", "L5"}
    refined = [row for row in payload["rows"]
               if row["method"] == "refined-numeric"]
    assert all(abs(row["residual_norm"]) < 1e-12 for row in refined)


def test_precision_flag_rounds_output(tmp_path):
    cfg = _config(tmp_path, FIXTURE_CONFIG)
    out = str(tmp_path / "rounded.csv")
    assert main(["equilibria", "--config", cfg, "--output", out,
                 "--output.precision", "6"]) == 0
    _, rows = read_table(out)
    by_key = _rows_by_key(rows, "branch", "method")
    x, y = FROZEN[("L4", "refined-numeric")]
    row = by_key[("L4", "refined-numeric")]
    assert row["x"] == pytest.approx(x, abs=1e-6)
    assert row["x"] != x


def test_stdout_when_no_output_path(capsys):
    rc = main(["equilibria", "--system.mu", "0.1", "--system.w1", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("branch,method,x,y,residual_norm\n")
    assert "L5" in out
    # a sweep writes only its table to stdout, and its summary to stderr
    for fmt in ("csv", "json"):
        assert main(SWEEP + ["--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == "sweep: 3 points, 0 flagged\n"
        if fmt == "csv":
            records = list(csv.reader(io.StringIO(captured.out)))
            assert records[0] == list(prtbp.SweepRow._fields)
            assert [len(r) for r in records[1:]] == [7] * 3
        else:
            payload = json.loads(captured.out)
            assert payload["job"] == "sweep"
            assert [row["status"] for row in payload["rows"]] == ["ok"] * 3


def test_integrate_writes_samples_and_sidecar(tmp_path):
    out = str(tmp_path / "orbit.csv")
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "0.49", "--job.y", repr(SQRT3_2),
               "--job.vx", "0", "--job.vy", "0",
               "--job.t_end", "6.283185307179586",
               "--job.sample_dt", "0.1", "--output", out])
    assert rc == 0
    columns, rows = read_table(out)
    assert columns == ["t", "x", "y", "vx", "vy", "C", "dCdt"]
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == pytest.approx(2.0 * math.pi, rel=1e-15)
    with open(tmp_path / "orbit.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert set(meta) == {"termination", "samples", "jacobi_audit",
                         "rhs_calls", "steps", "rejected_steps"}
    assert meta["termination"] == "completed"
    assert meta["samples"] == len(rows)
    assert meta["jacobi_audit"] < 1e-9
    assert all(row["dCdt"] == 0.0 for row in rows)


@pytest.mark.parametrize("argv, rejects", [
    (INTEGRATE_DRAG, False),
    # a collision ends this run after rejected steps near the primary
    (["integrate", "--system.mu", "0.01", "--system.w1", "0",
      "--job.x", "0.995", "--job.y", "0", "--job.vx", "0", "--job.vy", "0",
      "--job.t_end", "1", "--job.sample_dt", "0.002"], True)],
    ids=["drag", "collision"])
def test_integrate_sidecar_counts_the_stepper_work(argv, rejects, tmp_path):
    out = str(tmp_path / "orbit.csv")
    assert main([*argv, "--output", out]) == 0
    with open(tmp_path / "orbit.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["steps"] > 0
    assert (meta["rejected_steps"] > 0) is rejects
    assert meta["rhs_calls"] == 2 + 6 * (meta["steps"]
                                         + meta["rejected_steps"])


def test_integrate_one_interval_writes_a_numeric_audit(tmp_path):
    # t_end = sample_dt: two samples, still one audit value
    out = str(tmp_path / "orbit.csv")
    assert main(["integrate", "--system.mu", "0.01", "--system.q1", "0.9",
                 "--system.w1", "1e-3", "--job.x", "0.45", "--job.y", "0.8",
                 "--job.vx", "0", "--job.vy", "1.3", "--job.t_end", "0.1",
                 "--job.sample_dt", "0.1", "--output", out]) == 0
    with open(tmp_path / "orbit.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["samples"] == 2
    assert 0.0 <= meta["jacobi_audit"] < 1e-12


@pytest.mark.parametrize("precision", [17, 5])
def test_integrate_csv_matches_the_row_renderer(precision, tmp_path):
    # without drag most dCdt values are -0.0, which must print as 0
    out = str(tmp_path / "orbit.csv")
    assert main([*INTEGRATE, "--output", out,
                 "--output.precision", str(precision)]) == 0
    p = SystemParams(mu=0.01, w1=0.0)
    traj = dynamics.integrate(p, PhaseState(0.49, 0.86, 0.0, 0.0),
                              t_end=1.0, sample_dt=0.1)
    dcdt = jacobi_drift_rate(p, PhaseState(*traj.arrays()[1:5]))
    rows = np.column_stack((traj.samples, dcdt)).tolist()
    assert any(math.copysign(1.0, v) < 0 for v in dcdt)
    expected = _render_csv(("t", "x", "y", "vx", "vy", "C", "dCdt"), rows,
                           precision)
    assert Path(out).read_text(encoding="utf-8") == expected


def test_float_csv_stream_matches_the_row_renderer(tmp_path):
    # rows streamed from a generator, one format string per row
    table = np.random.default_rng(7).standard_normal((11, 3)).tolist()
    out = tmp_path / "table.csv"
    cli._write_float_csv(str(out), ("a", "b", "c"),
                         (tuple(row) for row in table), 17)
    assert out.read_text(encoding="utf-8") == _render_csv(
        ("a", "b", "c"), table, 17)


@pytest.mark.parametrize("argv", [INTEGRATE, INTEGRATE_DRAG],
                         ids=["drag-free", "drag"])
def test_integrate_json_matches_the_payload_dump(argv, tmp_path):
    # the rows streamed one at a time have the bytes of the whole payload
    # through _dump_json, with the CSV's values and -0.0 written as 0
    out = tmp_path / "orbit.json"
    assert main([*argv, "--output", str(out), "--format", "json"]) == 0
    # 17 digits read back the CSV's floats exactly
    assert main([*argv, "--output", str(tmp_path / "orbit.csv")]) == 0
    columns, rows = read_table(str(tmp_path / "orbit.csv"))
    assert any(v == 0.0 for row in rows for v in row.values())
    payload = {"job": "integrate", "rows": rows}
    assert out.read_text(encoding="utf-8") == (
        cli._dump_json(payload, 17) + "\n")


def test_integrate_sidecar_sits_next_to_the_output(tmp_path):
    # a dot in a directory name is not the output's extension
    runs = tmp_path / "runs.v2"
    runs.mkdir()
    assert main([*INTEGRATE, "--output", str(runs / "orbit")]) == 0
    assert (runs / "orbit").is_file()
    assert (runs / "orbit.meta.json").is_file()
    assert not (tmp_path / "runs.meta.json").exists()


def test_integrate_step_failure_keeps_its_cause(tmp_path, monkeypatch):
    # no orbit of the model fails a step at these tolerances, so the
    # stepper gets x' = x^2 instead, which blows up at t = 1/x0
    def blow_up(fun, t_span, y0, t_eval, rtol, atol, events=()):
        return rk45.solve_ivp(lambda t, v: (v[0] * v[0], 0.0, 0.0, 0.0,
                                            0.0),
                              t_span, y0, t_eval=t_eval, rtol=rtol,
                              atol=atol)

    monkeypatch.setattr(dynamics, "solve_ivp", blow_up)
    out = str(tmp_path / "orbit.csv")
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "0.5", "--job.y", "0.5", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "3.0",
               "--job.sample_dt", "0.1", "--output", out])
    assert rc == 0
    _, rows = read_table(out)
    assert rows[-1]["t"] < 2.0
    with open(tmp_path / "orbit.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["termination"] == "step-failure"
    assert meta["message"] == ("Required step size is less than spacing "
                               "between numbers.")


def test_integrate_missing_output_exits_2(capsys):
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "0.49", "--job.y", "0.86", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "1.0",
               "--job.sample_dt", "0.1"])
    assert rc == 2
    assert "output.path" in capsys.readouterr().err


def test_integrate_singular_start_exits_3(tmp_path, capsys):
    out = str(tmp_path / "never.csv")
    rc = main(["integrate", "--system.mu", "0.1", "--system.w1", "0",
               "--job.x", "0.9", "--job.y", "0", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "1.0",
               "--job.sample_dt", "0.1", "--output", out])
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_integrate_bad_time_range_exits_2(tmp_path):
    out = str(tmp_path / "never.csv")
    rc = main(["integrate", "--system.mu", "0.1", "--system.w1", "0",
               "--job.x", "0.4", "--job.y", "0.8", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "0.0",
               "--job.sample_dt", "0.1", "--output", out])
    assert rc == 2


def test_integrate_with_drag_moves_jacobi(tmp_path):
    out = str(tmp_path / "drag.csv")
    rc = main(["integrate", "--system.mu", "0.1", "--system.q1", "0.98",
               "--system.w1", "1e-3", "--job.x", "0.45", "--job.y", "0.8",
               "--job.vx", "0", "--job.vy", "1.3", "--job.t_end", "2.0",
               "--job.sample_dt", "0.01", "--output", out])
    assert rc == 0
    _, rows = read_table(out)
    c = np.array([row["C"] for row in rows])
    assert np.ptp(c) > 1e-8
    assert any(row["dCdt"] != 0.0 for row in rows)


def test_nonconvergence_exits_4(capsys):
    with pytest.warns(UserWarning):
        rc = main(["equilibria", "--system.mu", "0.1",
                   "--system.q1", "0.98", "--system.w1", "5e-2",
                   "--job.max_iter", "1"])
    assert rc == 4
    assert "solver error" in capsys.readouterr().err


def test_sweep_error_scales_quadratically(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "system": {"mu": 0.1, "q1": 0.98, "w1": 0.0},
        "job": {"type": "sweep", "variable": "w1",
                "start": 1e-4, "stop": 1e-2, "count": 7},
    })
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--output", out]) == 0
    assert capsys.readouterr().out == "sweep: 7 points, 0 flagged\n"
    _, rows = read_table(out)
    assert all(row["status"] == "ok" for row in rows)
    values = np.array([row["value"] for row in rows])
    errs = np.array([row["err_norm"] for row in rows])
    slope = np.polyfit(np.log(values), np.log(errs), 1)[0]
    assert 1.7 < slope < 2.3


def test_sweep_reaches_the_drag_free_limit(tmp_path):
    cfg = _config(tmp_path, {
        "system": {"mu": 0.01, "q1": 0.9, "cd": 1e3},
        "job": {"type": "sweep", "variable": "q1", "start": 0.9,
                "stop": 1.0, "count": 5, "spacing": "linear"},
    })
    out = str(tmp_path / "q1.csv")
    assert main(["sweep", "--config", cfg, "--output", out]) == 0
    _, rows = read_table(out)
    assert all(row["status"] == "ok" for row in rows)
    assert rows[-1]["value"] == 1.0
    # at q1=1 the drag vanishes and only the refinement tolerance is left
    assert rows[-1]["err_norm"] < 1e-9


def test_sweep_flags_impossible_parameter_rows(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "system": {"mu": 0.1, "q1": 1.0, "w1": 0.0},
        "job": {"type": "sweep", "variable": "w1",
                "start": 1e-4, "stop": 1e-2, "count": 5},
    })
    out = str(tmp_path / "flagged.csv")
    assert main(["sweep", "--config", cfg, "--output", out]) == 0
    assert capsys.readouterr().out == "sweep: 5 points, 5 flagged\n"
    _, rows = read_table(out)
    assert all(row["status"] == "invalid-params" for row in rows)
    assert all(row["err_norm"] is None for row in rows)


def _fold_sweep(tmp_path, capsys, start, count, *extra):
    # L4 at mu = 0.01, q1 = 0.98, A2 = 0, whose w1 branch folds near 7.16e-3
    out = tmp_path / f"fold{count}.csv"
    assert main(["sweep", "--system.mu", "0.01", "--system.q1", "0.98",
                 "--system.w1", "0", "--job.variable", "w1",
                 "--job.start", start, "--job.stop", "2e-2",
                 "--job.count", str(count), "--output", str(out),
                 *extra]) == 0
    summary = re.fullmatch(
        r"sweep: (\d+) points, (\d+) flagged, fold at w1 = (\S+)\n",
        capsys.readouterr().out)
    assert summary is not None
    _, rows = read_table(str(out))
    assert int(summary.group(1)) == len(rows) == count
    return rows, int(summary.group(2)), float(summary.group(3))


@pytest.mark.filterwarnings("ignore:first-order shift")
def test_sweep_stops_at_the_fold(tmp_path, capsys):
    """Past the saddle-node fold of L4 in w1 every row reads
    no-equilibrium, and the fold does not depend on the grid; the two
    grids start apart, so the arcs that reach the fold differ too."""
    folds = []
    for start, count in (("1e-4", 50), ("1e-3", 200)):
        rows, flagged, fold = _fold_sweep(tmp_path, capsys, start, count)
        past = [row for row in rows if row["value"] > fold]
        assert past and all(row["status"] == "no-equilibrium" and
                            row["x_refined"] is None for row in past)
        assert flagged == len(past)
        for row in rows[:len(rows) - len(past)]:
            assert row["status"] == "ok"
            p = SystemParams(mu=0.01, q1=0.98, w1=row["value"])
            residual = equilibrium_residual(p, row["x_refined"],
                                            row["y_refined"])
            assert math.hypot(*residual) < 1e-12
        folds.append(fold)
    assert abs(folds[0] - folds[1]) <= 1e-8 * folds[1]
    # natural continuation in w1 converges at 7.1588e-3 and fails from
    # 7.1593e-3 on
    assert 7.1588e-3 < folds[1] < 7.1593e-3


@pytest.mark.filterwarnings("ignore:first-order shift")
def test_sweep_fold_does_not_depend_on_tol(tmp_path, capsys):
    """The arc points solve the rest state to a fixed tolerance, so a
    loose job.tol moves neither the fold nor a row's status."""
    _, _, fold = _fold_sweep(tmp_path, capsys, "1e-4", 50)
    rows, flagged, loose = _fold_sweep(tmp_path, capsys, "1e-4", 50,
                                       "--job.tol", "1e-3")
    assert abs(loose - fold) <= 1e-10 * fold
    before = [row for row in rows if row["value"] < fold]
    assert all(row["status"] == "ok" for row in before)
    assert flagged == len(rows) - len(before)
    for row in before:
        p = SystemParams(mu=0.01, q1=0.98, w1=row["value"])
        residual = equilibrium_residual(p, row["x_refined"],
                                        row["y_refined"])
        assert math.hypot(*residual) < 1e-3


def _sweep_summary(tmp_path, capsys, argv):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--output", str(out)]) == 0
    summary = re.fullmatch(
        r"sweep: (\d+) points, (\d+) flagged, fold at \w+ = (\S+)\n",
        capsys.readouterr().out)
    assert summary is not None
    _, rows = read_table(str(out))
    return rows, int(summary.group(2)), float(summary.group(3))


@pytest.mark.filterwarnings("ignore:first-order shift")
def test_sweep_classifies_rows_before_the_first_refined_point(tmp_path,
                                                               capsys):
    """A grid that starts past a fold: the branch is followed back from
    the first refined point, and the rows past the fold read
    no-equilibrium, not refine-failed."""
    # descending in w1: the fold is the one an ascending sweep finds
    rows, flagged, fold = _sweep_summary(tmp_path, capsys, [
        "--system.mu", "0.01", "--system.q1", "0.98", "--system.w1", "0",
        "--job.variable", "w1", "--job.start", "2e-2", "--job.stop", "1e-4",
        "--job.count", "12"])
    past = [row for row in rows if row["value"] > fold]
    assert len(past) == flagged == 3
    assert all(row["status"] == "no-equilibrium" and row["x_analytic"] is None
               for row in past)
    assert all(row["status"] == "ok" for row in rows[3:])
    _, _, ascending = _fold_sweep(tmp_path, capsys, "1e-4", 50)
    assert abs(fold - ascending) <= 1e-10 * ascending
    # in mu at a fixed light speed, the branch appears at a fold
    rows, flagged, fold = _sweep_summary(tmp_path, capsys, [
        "--system.mu", "0.01", "--system.q1", "0.98", "--system.cd", "10",
        "--job.variable", "mu", "--job.start", "1e-3", "--job.stop", "0.5",
        "--job.count", "20"])
    assert rows[3]["value"] < fold < rows[4]["value"]
    assert [row["status"] for row in rows[:4]] == ["no-equilibrium"] * 4
    assert flagged == 4
    assert all(row["status"] == "ok" for row in rows[4:])


@pytest.mark.parametrize("spacing", ["linear", "geometric"])
def test_sweep_with_repeated_grid_values(tmp_path, capsys, spacing):
    # start == stop repeats one value; the secant seed needs two
    out = str(tmp_path / "repeat.csv")
    assert main(["sweep", "--system.mu", "0.1", "--system.q1", "0.98",
                 "--system.w1", "0", "--job.variable", "w1",
                 "--job.spacing", spacing, "--job.start", "1e-3",
                 "--job.stop", "1e-3", "--job.count", "3",
                 "--output", out]) == 0
    assert capsys.readouterr().out == "sweep: 3 points, 0 flagged\n"
    _, rows = read_table(out)
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert len({(row["x_refined"], row["y_refined"]) for row in rows}) == 1


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "system": {"mu": 0.1, "q1": 0.98, "w1": 0.0},
        "job": {"type": "sweep", "variable": "w1", "start": -1e-4,
                "stop": 1e-2, "count": 5},
    })
    assert main(["sweep", "--config", cfg]) == 2
    cfg2 = _config(tmp_path, {
        "system": {"mu": 0.1, "q1": 0.98, "w1": 0.0},
        "job": {"type": "sweep", "variable": "cd",
                "start": 1e2, "stop": 1e4, "count": 5},
    }, name="var.json")
    assert main(["sweep", "--config", cfg2]) == 2


def test_zvc_writes_polylines_on_the_level(tmp_path):
    p = SystemParams(mu=0.1)
    level = jacobi_constant(p, PhaseState(0.4, SQRT3_2, 0.0, 0.0)) + 0.01
    out = str(tmp_path / "curve.csv")
    rc = main(["zvc", "--system.mu", "0.1", "--system.w1", "0",
               "--job.level_c", repr(level),
               "--job.xmin", "-1.5", "--job.xmax", "1.5",
               "--job.ymin", "-1.5", "--job.ymax", "1.5",
               "--job.resolution", "64", "--output", out])
    assert rc == 0
    columns, rows = read_table(out)
    assert columns == ["segment_id", "vertex_index", "x", "y"]
    assert rows
    for row in rows:
        g = conservative_gradient(p, row["x"], row["y"])
        scale = max(1.0, 2.0 * math.hypot(g.ax, g.ay))
        value = 2.0 * amended_potential(p, row["x"], row["y"])
        assert abs(value - level) < 1e-6 * scale


@pytest.mark.parametrize("precision", [3, 17])
def test_zvc_csv_matches_the_row_renderer(precision):
    # one format string per row gives the bytes of the row renderer, with
    # integer indices past 999 and -0.0 written as 0
    rng = np.random.default_rng(3)
    segments = tuple(tuple((float(x), float(y)) for x, y in
                           rng.standard_normal((k % 3 + 1, 2)))
                     for k in range(1003))
    segments += (((-0.0, 0.5), (0.25, -0.0)),)
    curve = ZeroVelocityCurve(3.0, segments)
    buf = io.StringIO()
    cli._write_vertex_csv(buf, curve, precision)
    rows = [(k, v, x, y) for k, seg in enumerate(segments)
            for v, (x, y) in enumerate(seg)]
    assert buf.getvalue() == _render_csv(
        ("segment_id", "vertex_index", "x", "y"), rows, precision)
    assert "\n1003,1,0.25,0\n" in buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zvc_writes_a_deterministic_sidecar(fmt, tmp_path):
    argv = ZVC + ["--format", fmt]
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert main(argv + ["--output",
                            str(tmp_path / name / f"curve.{fmt}")]) == 0
    for file in (f"curve.{fmt}", "curve.meta.json"):
        assert (tmp_path / "a" / file).read_bytes() \
            == (tmp_path / "b" / file).read_bytes()
    work = json.loads((tmp_path / "a" / "curve.meta.json").read_text())
    assert list(work) == ["grid_nodes", "nodes_evaluated",
                          "blocks_certified", "active_cells", "vertices",
                          "polish_probes", "polish_bisections"]
    assert work["grid_nodes"] == 32 * 32
    assert 0 < work["nodes_evaluated"] < work["grid_nodes"]
    assert work["vertices"] <= work["polish_probes"] <= 46 * work["vertices"]


def test_zvc_resolution_floor_exits_2(capsys):
    rc = main(["zvc", "--system.mu", "0.1", "--system.w1", "0",
               "--job.level_c", "3.0",
               "--job.xmin", "-1", "--job.xmax", "1",
               "--job.ymin", "-1", "--job.ymax", "1",
               "--job.resolution", "8"])
    assert rc == 2
    assert "resolution" in capsys.readouterr().err


EQUILIBRIA = ["equilibria", "--system.mu", "0.1", "--system.w1", "0"]
ZVC = ["zvc", "--system.mu", "0.1", "--system.w1", "0",
       "--job.level_c", "3", "--job.xmin=-1.5", "--job.xmax", "1.5",
       "--job.ymin=-1.5", "--job.ymax", "1.5", "--job.resolution", "32"]
SWEEP = ["sweep", "--system.mu", "0.1", "--system.q1", "0.98",
         "--system.w1", "0", "--job.variable", "w1", "--job.start", "1e-4",
         "--job.stop", "1e-2", "--job.count", "3"]
GRAIN = ["equilibria", "--system.mu", "0.01", "--system.w1", "0",
         "--system.grain.radius_a", "1", "--system.grain.density_rho", "1",
         "--system.grain.efficiency_chi", "1"]

PROBES = [
    (EQUILIBRIA + ["--job.tol", "-1"], "tol"),
    (SWEEP + ["--job.tol", "-1"], "tol"),
    (EQUILIBRIA + ["--job.tol", "nan"], "tol"),
    (SWEEP + ["--job.max_iter", "0"], "max_iter"),
    (SWEEP + ["--job.start", "nan"], "job.start"),
    (INTEGRATE + ["--job.t_end", "inf"], "t_end"),
    (INTEGRATE + ["--job.rtol", "nan"], "rtol"),
    (INTEGRATE + ["--job.x", "nan"], "s0.x"),
    (INTEGRATE + ["--job.collision_guard", "nan"], "collision_guard"),
    (ZVC + ["--job.level_c", "nan"], "level_c"),
    (ZVC + ["--job.xmax", "inf"], "window"),
    # every grid point is invalid (q1 = 1 admits no drag), so no library
    # call would see the options
    (SWEEP + ["--system.q1", "1.0", "--job.stop", "1e-3", "--job.tol", "-1",
              "--job.branch", "L6"], "branch"),
    # work bounds: the sample count overflows ceil, the grid is too fine
    (INTEGRATE + ["--job.t_end", "1e300", "--job.sample_dt", "1e-10"],
     "sample_dt"),
    (ZVC + ["--job.resolution", "4097"], "resolution"),
    # a NaN grain property fails the grain's own check, not q1's
    (GRAIN + ["--system.grain.radius_a", "nan"], "radius_a"),
    (GRAIN + ["--system.grain.efficiency_chi", "nan"], "efficiency_chi"),
]


@pytest.mark.parametrize("argv, field", PROBES,
                         ids=[f"{a[0]}{a[-2]}={a[-1]}" for a, _ in PROBES])
def test_invalid_argument_exits_2(argv, field, tmp_path):
    # a fresh interpreter with a timeout, so a hang or a traceback shows
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(prtbp.__file__).resolve().parent.parent),
        env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "prtbp.cli", *argv,
         "--output", str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert field in done.stderr
    assert "Traceback" not in done.stderr
