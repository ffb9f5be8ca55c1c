"""Output checks that do not depend on the implementation's exact bits.

Every check recomputes a physical property of the written numbers with
the program's public functions:

- equilibria and sweep: each refined point meets the job's tolerance,
  recomputed with ``equilibrium_residual`` at the written coordinates;
  a sweep has ``count`` rows and its summary line's flagged count
  matches the rows whose status is not ``ok``;
- integrate: the run completed with one row per sample; a drag-free
  orbit keeps |C - C0| <= 1e-9 (acceptance criterion 5);
- zvc: the curve has vertices and each one satisfies |2 U1 - C| <= 1e-6,
  scaled as in acceptance criterion 9.

``check_job`` returns an error message, or None when the output passes.
"""

from __future__ import annotations

import csv
import json
import math
import re

from prtbp import (PhaseState, SystemParams, amended_potential,
                   conservative_gradient, equilibrium_residual,
                   jacobi_constant)
from workloads import meta_path, output_path

REFINE_TOL = 1e-12  # the CLI's default tolerance for equilibria and sweep
JACOBI_DRIFT_TOL = 1e-9
ZVC_RESIDUAL_TOL = 1e-6


def read_rows(job: dict, workdir: str) -> list[dict]:
    """Rows of a job's output as dicts of floats / strings / None."""
    path = output_path(job, workdir)
    with open(path, encoding="utf-8", newline="") as fh:
        if job["format"] == "json":
            return json.load(fh)["rows"]
        reader = csv.reader(fh)
        columns = next(reader)
        return [{key: _cell(cell) for key, cell in zip(columns, record)}
                for record in reader]


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _residual(p: SystemParams, x: float, y: float) -> float:
    return math.hypot(*equilibrium_residual(p, x, y))


def _check_equilibria(job: dict, workdir: str, stdout: str) -> str | None:
    p = SystemParams(**job["system"])
    refined = [r for r in read_rows(job, workdir)
               if r["method"] == "refined-numeric"]
    if sorted(r["branch"] for r in refined) != ["L4", "L5"]:
        return f"expected one refined point per branch, got {len(refined)}"
    for r in refined:
        rn = _residual(p, r["x"], r["y"])
        if not rn < job["args"].get("tol", REFINE_TOL):
            return f"{r['branch']} refined residual {rn:.3e} misses tol"
    return None


def _check_sweep(job: dict, workdir: str, stdout: str) -> str | None:
    a = job["args"]
    rows = read_rows(job, workdir)
    if len(rows) != a["count"]:
        return f"{len(rows)} rows for count {a['count']}"
    flagged = sum(r["status"] != "ok" for r in rows)
    summary = re.search(r"sweep: (\d+) points, (\d+) flagged", stdout)
    if summary is None or int(summary.group(2)) != flagged:
        return (f"summary {stdout.strip()!r} disagrees with {flagged} "
                "flagged rows")
    tol = a.get("tol", REFINE_TOL)
    for r in rows:
        if r["x_refined"] is None:
            continue
        p = SystemParams(**{**job["system"], a["variable"]: r["value"]})
        rn = _residual(p, r["x_refined"], r["y_refined"])
        if not rn < tol:
            return f"refined residual {rn:.3e} at {a['variable']}={r['value']}"
    return None


def _check_integrate(job: dict, workdir: str, stdout: str) -> str | None:
    with open(meta_path(job, workdir), encoding="utf-8") as fh:
        meta = json.load(fh)
    rows = read_rows(job, workdir)
    if meta["termination"] != "completed":
        return f"termination {meta['termination']!r}"
    if meta["samples"] != len(rows):
        return f"meta says {meta['samples']} samples, file has {len(rows)}"
    if job["system"].get("w1") == 0.0:
        p = SystemParams(**job["system"])
        c = [jacobi_constant(p, PhaseState(r["x"], r["y"], r["vx"], r["vy"]))
             for r in rows]
        drift = max(abs(ci - c[0]) for ci in c)
        if not drift <= JACOBI_DRIFT_TOL:
            return f"drag-free |C - C0| reached {drift:.3e}"
    return None


def _check_zvc(job: dict, workdir: str, stdout: str) -> str | None:
    p = SystemParams(**job["system"])
    level = job["args"]["level_c"]
    rows = read_rows(job, workdir)
    if not rows:
        return "no vertices"
    worst = 0.0
    for r in rows:
        g = conservative_gradient(p, r["x"], r["y"])
        scale = max(1.0, 2.0 * math.hypot(g.ax, g.ay))
        worst = max(worst,
                    abs(2.0 * amended_potential(p, r["x"], r["y"]) - level)
                    / scale)
    if not worst <= ZVC_RESIDUAL_TOL:
        return f"vertex residual {worst:.3e}"
    return None


_CHECKS = {"equilibria": _check_equilibria, "sweep": _check_sweep,
           "integrate": _check_integrate, "zvc": _check_zvc}


def check_job(job: dict, workdir: str, stdout: str) -> str | None:
    """Check one job's written output; None when it passes."""
    try:
        return _CHECKS[job["job"]](job, workdir, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def jacobi_audit_value(job: dict, workdir: str):
    """The ``jacobi_audit`` an integrate job wrote to its meta file."""
    with open(meta_path(job, workdir), encoding="utf-8") as fh:
        return json.load(fh).get("jacobi_audit")
