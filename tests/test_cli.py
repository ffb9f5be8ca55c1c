"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import inspect
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
    dop853, equilibrium_residual, jacobi_constant, jacobi_drift_rate
from prtbp.cli import JobConfig, build_config, main, read_table

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
# the library call of each integrate argv: params, s0, t_end, sample_dt
ORBITS = {
    "drag-free": (INTEGRATE, SystemParams(mu=0.01, w1=0.0),
                  PhaseState(0.49, 0.86, 0.0, 0.0), 1.0, 0.1),
    "drag": (INTEGRATE_DRAG, SystemParams(mu=0.01, q1=0.9, w1=1e-3),
             PhaseState(0.45, 0.8, 0.0, 1.3), 0.4, 0.01),
}
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


def _config(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rows_by_key(rows, *keys):
    return {tuple(r[k] for k in keys): r for r in rows}


def _render_csv(columns, rows, precision):
    """Reference bytes of a CSV table: the csv module, with each float
    through format() and -0.0 written as 0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None
                         else format(v + 0.0, f".{precision}g")
                         if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _render_json(columns, rows, precision):
    """Reference bytes of the JSON objects of rows, comma-separated: keys
    and str cells through json.dumps, each finite float through format()
    with -0.0 written as 0, and null for None, NaN and infinity."""
    def token(v):
        if isinstance(v, str):
            return json.dumps(v)
        if v is None or isinstance(v, float) and not math.isfinite(v):
            return "null"
        if isinstance(v, float):
            return format(v + 0.0, f".{precision}g")
        return str(v)

    return ", ".join(
        "{" + ", ".join(f"{json.dumps(k)}: {token(v)}"
                        for k, v in zip(columns, row)) + "}"
        for row in rows)


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
def test_integrate_sidecar_counts_the_stepper_work(argv, rejects, tmp_path,
                                                   monkeypatch):
    runs = []
    dense_steps = [0]
    solve_ivp, dense_rows = dynamics.solve_ivp, dop853._dense_rows

    def spy_solve_ivp(*args, **kwargs):
        runs.append(solve_ivp(*args, **kwargs))
        return runs[-1]

    def spy_dense_rows(*args):
        dense_steps[0] += 1
        return dense_rows(*args)

    monkeypatch.setattr(dynamics, "solve_ivp", spy_solve_ivp)
    monkeypatch.setattr(dop853, "_dense_rows", spy_dense_rows)
    out = str(tmp_path / "orbit.csv")
    assert main([*argv, "--output", out]) == 0
    with open(tmp_path / "orbit.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["steps"] > 0
    assert (meta["rejected_steps"] > 0) is rejects
    # 12 calls a step, 3 more for the dense output of a step that holds
    # a sample or locates the event
    assert meta["rhs_calls"] == (2 + 12 * (meta["steps"]
                                           + meta["rejected_steps"])
                                 + 3 * dense_steps[0])
    if not rejects:
        assert "event_time" not in meta
        return
    # the collision's time, after the last sample and within one interval
    sol, = runs
    assert sol.event == (0, meta["event_time"])
    _, rows = read_table(out)
    assert rows[-1]["t"] < meta["event_time"] <= rows[-1]["t"] + 0.002


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


@pytest.mark.parametrize("orbit, precision", [
    ("drag-free", 17), ("drag-free", 5), ("drag", 17), ("drag", 5),
], ids=["17", "5", "drag-17", "drag-5"])
def test_integrate_csv_matches_the_row_renderer(orbit, precision, tmp_path):
    # without drag most dCdt values are -0.0, which must print as 0; with
    # drag every one is nonzero and keeps the bits of jacobi_drift_rate
    argv, p, s0, t_end, sample_dt = ORBITS[orbit]
    out = str(tmp_path / "orbit.csv")
    assert main([*argv, "--output", out,
                 "--output.precision", str(precision)]) == 0
    traj = dynamics.integrate(p, s0, t_end=t_end, sample_dt=sample_dt)
    samples = traj.samples.tolist()
    dcdt = [jacobi_drift_rate(p, PhaseState(*row[1:5])) for row in samples]
    rows = [[*row, rate] for row, rate in zip(samples, dcdt)]
    if orbit == "drag-free":
        assert any(math.copysign(1.0, v) < 0 for v in dcdt)
    else:
        assert all(dcdt)
    expected = _render_csv(("t", "x", "y", "vx", "vy", "C", "dCdt"), rows,
                           precision)
    assert Path(out).read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("argv", [INTEGRATE, INTEGRATE_DRAG],
                         ids=["drag-free", "drag"])
def test_integrate_json_matches_the_payload_dump(argv, tmp_path):
    # the rows streamed one at a time have the bytes of the reference
    # rendering of the whole payload, with the CSV's values and -0.0
    # written as 0
    out = tmp_path / "orbit.json"
    assert main([*argv, "--output", str(out), "--format", "json"]) == 0
    # 17 digits read back the CSV's floats exactly
    assert main([*argv, "--output", str(tmp_path / "orbit.csv")]) == 0
    columns, rows = read_table(str(tmp_path / "orbit.csv"))
    assert any(v == 0.0 for row in rows for v in row.values())
    rendered = _render_json(columns, [row.values() for row in rows], 17)
    assert out.read_text(encoding="utf-8") == (
        f'{{"job": "integrate", "rows": [{rendered}]}}\n')


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
    def blow_up(fun, t_span, y0, events, **kwargs):
        return dop853.solve_ivp(lambda v: (v[0] * v[0], 0.0, 0.0, 0.0, 0.0),
                                t_span, y0, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", blow_up)
    out = str(tmp_path / "orbit.csv")
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "0.5", "--job.y", "0.5", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "3.0",
               "--job.sample_dt", "0.1", "--output", out])
    assert rc == 0
    _, rows = read_table(out)
    # the steps close on the pole at t = 2 before they fail, short of t_end
    assert rows[-1]["t"] <= 2.0
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


def test_integrate_start_too_near_a_primary_exits_3(tmp_path, capsys):
    # 1e-150 from the radiating primary, outside a guard of 1e-300, r1^3
    # underflows to 0
    out = str(tmp_path / "never.csv")
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "-0.01", "--job.y", "1e-150", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "1", "--job.sample_dt", "0.1",
               "--job.collision_guard", "1e-300", "--output", out])
    err = capsys.readouterr().err
    assert rc == 3
    assert "too near a primary" in err
    assert "Traceback" not in err


def test_integrate_start_whose_first_step_underflows_exits_0(tmp_path,
                                                             capsys):
    """1e-90 from the radiating primary the initial step estimate
    0.01 d0/d1 underflows to 0; it is raised to the stepping loop's
    smallest step, so the run ends on a termination of its own."""
    out = str(tmp_path / "near.csv")
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "-0.01", "--job.y", "1e-90", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "1", "--job.sample_dt", "0.1",
               "--job.collision_guard", "1e-300", "--output", out])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "near.meta.json", encoding="utf-8") as fh:
        assert json.load(fh)["termination"] in ("collision", "step-failure")


def test_integrate_next_to_a_primary_takes_steps(tmp_path, capsys):
    """1e-90 from the radiating primary the squares of the scaled error
    terms (~1e192) overflow; the error norm is formed from the terms
    scaled by the largest, so the run steps on rather than failing its
    first step on a NaN norm."""
    out = str(tmp_path / "near.csv")
    rc = main(["integrate", "--system.mu", "0.01", "--system.w1", "0",
               "--job.x", "-0.01", "--job.y", "1e-90", "--job.vx", "0",
               "--job.vy", "0", "--job.t_end", "1", "--job.sample_dt", "0.1",
               "--job.collision_guard", "1e-300", "--output", out])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(tmp_path / "near.meta.json", encoding="utf-8") as fh:
        assert json.load(fh)["steps"] >= 1


# a grid whose span is subnormal: the equilibria job walks w1 over
# {0, 5e-324}, the sweep a2 over three subnormal values
SUBNORMAL_SPANS = {
    "equilibria": ["equilibria", "--system.mu", "0.1", "--system.q1", "0.9",
                   "--system.w1", "5e-324"],
    "sweep": ["sweep", "--system.mu", "0.1", "--system.q1", "0.9",
              "--system.w1", "0", "--job.variable", "a2", "--job.start",
              "5e-324", "--job.stop", "1e-322", "--job.count", "3",
              "--job.spacing", "linear"],
}


@pytest.mark.parametrize("job", SUBNORMAL_SPANS)
def test_subnormal_span_refines_every_row(job, tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main([*SUBNORMAL_SPANS[job], "--output", out]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = read_table(out)[1]
    if job == "sweep":
        assert [row["status"] for row in rows] == ["ok"] * 3
    else:
        assert [row["method"] for row in rows].count("refined-numeric") == 2


def test_sweep_rows_with_a_nan_residual_read_refine_failed(tmp_path):
    """Past a2 ~ 1e72 the cubic seeds overflow to NaN, and so does the
    residual there, which Newton once took for converged (rows of
    nan,nan,nan,ok); such rows now read refine-failed, with no nan."""
    out = str(tmp_path / "rows.csv")
    assert main(["sweep", "--system.mu", "0.1", "--system.q1", "0.98",
                 "--system.w1", "0", "--job.variable", "a2", "--job.start",
                 "1e-3", "--job.stop", "1e300", "--job.count", "5",
                 "--output", out]) == 0
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert "nan" not in text
    statuses = [row["status"] for row in read_table(out)[1]]
    assert statuses == ["ok"] + ["refine-failed"] * 4


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
    # no residual reaches 1e-300, so every Newton solve fails
    rc = main(["equilibria", "--system.mu", "0.1",
               "--system.q1", "0.98", "--system.w1", "5e-2",
               "--job.max_iter", "1", "--job.tol", "1e-300"])
    assert rc == 4
    assert "solver error" in capsys.readouterr().err


def test_point_off_its_side_of_y_is_refined_from_the_base(tmp_path,
                                                         capsys):
    """At this drag the first-order L5 point lands above y = 0: the job
    skips it, still refines L5 along its branch and exits 0 quietly."""
    out = str(tmp_path / "points.csv")
    assert main(["equilibria", "--system.mu", "0.01", "--system.q1", "0.9",
                 "--system.w1", "0.075", "--output", out]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_table(out)
    base, refined = rows[-2:]
    assert [(row["branch"], row["method"]) for row in rows[-2:]] == [
        ("L5", "photogravitational-base"), ("L5", "refined-numeric")]
    assert refined["x"] == pytest.approx(0.896816175838735, abs=1e-12)
    assert refined["y"] == pytest.approx(-0.338101725484475, abs=1e-12)
    assert refined["residual_norm"] < 1e-12


@pytest.mark.parametrize("w1", ["7.1e-3", "7.15e-3"])
def test_point_job_just_below_the_fold_exits_0(w1, tmp_path, capsys):
    """L4 exists up to its fold at w1 = 7.159e-3, ~0.5 away from its
    first-order point; the job refines it and exits 0."""
    out = str(tmp_path / "points.csv")
    assert main(["equilibria", "--system.mu", "0.01", "--system.q1", "0.98",
                 "--system.w1", w1, "--output", out]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_table(out)
    l4 = [row for row in rows
          if (row["branch"], row["method"]) == ("L4", "refined-numeric")]
    assert len(l4) == 1 and l4[0]["y"] > 0.0
    assert l4[0]["residual_norm"] < 1e-12


def test_point_job_past_the_fold_writes_only_l5_refined(tmp_path):
    """L4 folds at w1 = 6.86695e-3 here: the job writes no refined L4
    row, and L5's refined row is the pinned point."""
    out = str(tmp_path / "points.csv")
    assert main(["equilibria", "--system.mu", "0.01", "--system.q1", "0.9",
                 "--system.w1", "0.075", "--output", out]) == 0
    _, rows = read_table(out)
    refined = [row for row in rows if row["method"] == "refined-numeric"]
    assert [row["branch"] for row in refined] == ["L5"]
    assert refined[0]["x"] == pytest.approx(0.8968161758387347, abs=1e-12)
    assert refined[0]["y"] == pytest.approx(-0.3381017254844751, abs=1e-12)


@pytest.mark.parametrize("count", [3, 4, 5, 6, 8])
def test_sweep_ending_just_below_the_fold_refines_its_last_row(count,
                                                              tmp_path,
                                                              capsys):
    """The grid ends 1.9e-7 below the fold of L4 at w1 = 7.159e-3: the
    cubic through the four solved points nearest it seeds the last row."""
    out = str(tmp_path / "edge.csv")
    assert main(["sweep", "--system.mu", "0.01", "--system.q1", "0.98",
                 "--system.w1", "0", "--job.variable", "w1",
                 "--job.spacing", "linear", "--job.start", "1e-4",
                 "--job.stop", "7.159e-3", "--job.count", str(count),
                 "--output", out]) == 0
    assert capsys.readouterr().out == f"sweep: {count} points, 0 flagged\n"
    _, rows = read_table(out)
    assert rows[-1]["value"] == 7.159e-3
    for row in rows:
        p = SystemParams(mu=0.01, q1=0.98, w1=row["value"])
        assert math.hypot(*equilibrium_residual(
            p, row["x_refined"], row["y_refined"])) < 1e-12


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
    # start == stop repeats one value: no arc is walked, and every row
    # after the first refines from the first row's point
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
def test_zvc_csv_matches_the_row_renderer(precision, tmp_path):
    # one format string per row gives the bytes of the row renderer, with
    # integer indices past 999 and -0.0 written as 0
    rng = np.random.default_rng(3)
    segments = tuple(tuple((float(x), float(y)) for x, y in
                           rng.standard_normal((k % 3 + 1, 2)))
                     for k in range(1003))
    segments += (((-0.0, 0.5), (0.25, -0.0)),)
    curve = ZeroVelocityCurve(3.0, segments)
    out = tmp_path / "curve.csv"
    cfg = JobConfig("zvc", SystemParams(mu=0.1), {}, str(out), "csv",
                    precision)
    columns = ("segment_id", "vertex_index", "x", "y")
    cli._write_table(cfg, columns, cli._vertex_rows(curve))
    rows = [(k, v, x, y) for k, seg in enumerate(segments)
            for v, (x, y) in enumerate(seg)]
    text = out.read_text(encoding="utf-8")
    assert text == _render_csv(columns, rows, precision)
    assert "\n1003,1,0.25,0\n" in text


def test_table_writer_matches_the_row_renderer_on_mixed_cells(tmp_path):
    # str, int, float and None cells, in changing orders of types, in
    # both formats
    rows = [("L4", 3, 0.1, None), ("L5", -2, None, 1e300),
            ("ok", 0, math.inf, math.nan), ("L4", 7, 2.5e-17, -1.0)]
    columns = ("a", "b", "c", "d")
    rendered = {"csv": _render_csv(columns, rows, 17),
                "json": f'{{"job": "sweep", "rows": '
                        f'[{_render_json(columns, rows, 17)}]}}\n'}
    for fmt, expected in rendered.items():
        out = tmp_path / f"table.{fmt}"
        cfg = JobConfig("sweep", SystemParams(mu=0.1), {}, str(out), fmt,
                        17)
        cli._write_table(cfg, columns, iter(rows))
        assert out.read_text(encoding="utf-8") == expected


def test_run_record_matches_the_json_renderer(tmp_path):
    # one JSON object with the record's keys, in order, as its columns
    record = {"termination": 'a "quoted" cause', "samples": 6285,
              "jacobi_audit": math.nan, "event_time": -0.0,
              "escape_time": math.inf, "drift": -math.inf, "ratio": 1 / 3}
    cfg = JobConfig("integrate", SystemParams(mu=0.1), {},
                    str(tmp_path / "orbit.csv"), "csv", 5)
    cli._write_meta(cfg, record)
    text = (tmp_path / "orbit.meta.json").read_text(encoding="utf-8")
    assert text == _render_json(tuple(record), [record.values()], 5) + "\n"
    assert text == ('{"termination": "a \\"quoted\\" cause", '
                    '"samples": 6285, "jacobi_audit": null, '
                    '"event_time": 0, "escape_time": null, "drift": null, '
                    '"ratio": 0.33333}\n')


@pytest.mark.parametrize("count", [10**6 + 1, 10**12])
def test_sweep_point_count_is_bounded(count):
    flags = {"system.mu": 0.1, "system.w1": 0.0, "job.variable": "w1",
             "job.start": 1e-4, "job.stop": 1e-2}
    assert build_config("sweep", None, {
        **flags, "job.count": cli.MAX_SWEEP_POINTS}).args["count"] == 10**6
    with pytest.raises(ValueError, match="job.count"):
        build_config("sweep", None, {**flags, "job.count": count})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writes_a_negative_zero_grid_end_as_0(fmt, tmp_path):
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--system.mu", "0.01", "--system.q1", "0.98",
                 "--system.cd", "1000", "--job.variable", "a2",
                 "--job.start", "1e-3", "--job.stop", "-0.0",
                 "--job.count", "3", "--job.spacing", "linear",
                 "--format", fmt, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    if fmt == "csv":
        last = text.splitlines()[-1].split(",")[0]
    else:
        last = re.findall(r'"value": ([^,]+),', text)[-1]
    assert last == "0"


@pytest.mark.parametrize("argv, fmt", [
    (ZVC, "csv"), (ZVC, "json"), (INTEGRATE, "csv"), (INTEGRATE, "json"),
    (SWEEP, "csv"),
], ids=["csv", "json", "integrate-csv", "integrate-json", "sweep-csv"])
def test_zvc_writes_a_deterministic_sidecar(argv, fmt, tmp_path, capsys):
    # a rerun writes the same bytes: table, run record (the sweep writes
    # none) and stdout
    files = [f"out.{fmt}"] + ([] if argv is SWEEP else ["out.meta.json"])
    printed = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert main([*argv, "--format", fmt, "--output",
                     str(tmp_path / name / files[0])]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    for file in files:
        assert (tmp_path / "a" / file).read_bytes() \
            == (tmp_path / "b" / file).read_bytes()
    if argv is not ZVC:
        return
    work = json.loads((tmp_path / "a" / "out.meta.json").read_text())
    assert list(work) == ["grid_nodes", "nodes_evaluated",
                          "blocks_certified", "active_cells", "vertices",
                          "polish_probes", "polish_bisections",
                          "blocks_scanned"]
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
    # 17 digits round-trip every double; more is rejected before any byte
    # is written
    (EQUILIBRIA + ["--output.precision", "3000000000"], "output.precision"),
    (INTEGRATE + ["--output.precision", "18"], "output.precision"),
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
    assert not (tmp_path / "out.csv").exists()


# subnormal mu or q1, where the first-order forms overflow or divide by 0
BREAKDOWNS = [
    ["equilibria", "--system.mu", "5e-324", "--system.q1", "0.9",
     "--system.w1", "1e-3"],
    ["sweep", "--system.mu", "5e-324", "--system.q1", "0.9", "--system.w1",
     "1e-3", "--job.variable", "a2", "--job.start", "1e-5", "--job.stop",
     "1e-3", "--job.count", "3"],
    ["equilibria", "--system.mu", "5e-324", "--system.q1", "1e-12",
     "--system.a2", "1e-6", "--system.w1", "1.0"],
    ["sweep", "--system.mu", "0.01", "--system.q1", "5e-324", "--system.w1",
     "0", "--job.variable", "a2", "--job.start", "1e-5", "--job.stop",
     "1e-3", "--job.count", "3"],
]


@pytest.mark.parametrize("argv", BREAKDOWNS, ids=[
    "equilibria-overflow", "sweep-overflow", "equilibria-mu-underflow",
    "sweep-q1-underflow"])
def test_first_order_breakdown_exits_0_with_finite_rows(argv, tmp_path):
    # the breakdown is no fault of the configuration: the point job leaves
    # the formula's row out, the sweep row has no analytic point
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(prtbp.__file__).resolve().parent.parent),
        env.get("PYTHONPATH"))))
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, "-m", "prtbp.cli", *argv, "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    for row in read_table(str(out))[1]:
        for key in ("x", "y", "x_analytic", "y_analytic"):
            assert row.get(key) is None or math.isfinite(row[key]), row


# each job's library call, whose defaults the job's optional fields take
LIBRARY_CALLS = {
    # just below the fold of L4 in w1, where Newton takes several steps
    "equilibria": (["equilibria", "--system.mu", "0.01", "--system.q1",
                    "0.98", "--system.w1", "7.1e-3"],
                   "equilibria", "triangular_points"),
    "sweep": (SWEEP, "equilibria", "follow_branch"),
    "integrate": (INTEGRATE_DRAG, "dynamics", "integrate"),
}


@pytest.mark.parametrize("job", list(LIBRARY_CALLS))
def test_cli_defaults_are_the_library_defaults(job, tmp_path, capsys,
                                               monkeypatch):
    # the job passes no optional field it was not given, and giving each
    # the library's default changes no byte
    argv, module, name = LIBRARY_CALLS[job]
    call = getattr(getattr(prtbp, module), name)
    signature = inspect.signature(call)
    defaults = {field: param.default
                for field, param in signature.parameters.items()
                if param.default is not param.empty}
    passed = []

    def spy(*args, **kwargs):
        passed.append(set(signature.bind(*args, **kwargs).arguments))
        return call(*args, **kwargs)

    monkeypatch.setattr(getattr(prtbp, module), name, spy)
    given = [arg for field, value in defaults.items()
             for arg in (f"--job.{field}", str(value))]
    outputs = []
    for run, extra in (("left-out", []), ("given", given)):
        (tmp_path / run).mkdir()
        assert main([*argv, *extra, "--output",
                     str(tmp_path / run / "out.csv")]) == 0
        outputs.append((capsys.readouterr(), {
            path.name: path.read_bytes()
            for path in sorted((tmp_path / run).iterdir())}))
    assert not passed[0] & set(defaults)
    assert passed[-1] >= set(defaults)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, name", [
    (EQUILIBRIA, "missing/x.csv"),
    (INTEGRATE, "missing/o.csv"),
    (ZVC, "."),
], ids=["equilibria", "integrate", "zvc-directory"])
def test_unwritable_output_exits_2(argv, name, tmp_path, capsys):
    path = str(tmp_path / name)
    assert main([*argv, "--output", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert path in err


def test_closed_stdout_exits_0_quietly():
    # the reader stops after the header, as `prtbp zvc ... | head -1`
    # does; the curve's rows are far more than a pipe's buffer holds
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(prtbp.__file__).resolve().parent.parent),
        env.get("PYTHONPATH"))))
    argv = ["zvc", "--system.mu", "0.1", "--system.w1", "0",
            "--job.level_c", "2.92", "--job.xmin=-1.5", "--job.xmax", "1.5",
            "--job.ymin=-1.5", "--job.ymax", "1.5", "--job.resolution",
            "1024"]
    proc = subprocess.Popen([sys.executable, "-m", "prtbp.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"segment_id,vertex_index,x,y\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
