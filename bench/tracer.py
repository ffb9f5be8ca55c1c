"""Run a job list in-process through ``prtbp.cli.main`` and time its layers.

Usage: python3 bench/tracer.py SPEC.json RESULT.json  (with the package
on PYTHONPATH)

SPEC holds ``mode`` ("traced" or "plain") and ``jobs``, each with an
``id``, the ``argv`` for ``prtbp.cli.main`` and the ``outputs`` it
writes. The tracer imports the
CLI in a fresh interpreter, times that import, then runs every job.

In traced mode it replaces public names in the program's modules, at
the module where they are called, with wrappers that record a span per
call: calls, seconds, the seconds and calls of child spans, and the
exceptions raised. It edits no source. A name that a later change
removes or renames is listed as not observed and the run goes on; its
metrics read 0. Plain mode runs the same jobs without wrappers, so the
two give the tracing overhead.

RESULT receives the named per-layer metrics, the names not observed,
the total seconds spent in ``cli.main``, and each job's exit code,
stdout and stderr.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback
import warnings
from collections import defaultdict

# (module, name, span): wrapped where the CLI and the library call them
WRAPPED = (
    ("prtbp.cli", "build_config", "cli.build_config"),
    ("prtbp.cli", "refine_equilibrium", "equilibria.refine"),
    ("prtbp.cli", "analytic_triangular_point", "equilibria.analytic"),
    ("prtbp.equilibria", "equilibrium_residual", "equilibria.residual"),
    ("prtbp.cli", "integrate", "dynamics.integrate"),
    ("prtbp.dynamics", "solve_ivp", "dynamics.solve_ivp"),
    ("prtbp.dynamics", "jacobi_constant", "model.jacobi_constant"),
    ("prtbp.cli", "jacobi_drift_rate", "model.jacobi_drift_rate"),
    ("prtbp.dynamics", "jacobi_drift_rate", "model.jacobi_drift_rate"),
    ("prtbp.cli", "jacobi_audit", "dynamics.jacobi_audit"),
    ("prtbp.cli", "zero_velocity_curve", "zvc.curve"),
    ("prtbp.zvc", "brentq", "zvc.brentq"),
)

ROOT = "cli.main"


class Tracer:
    """Aggregated spans: totals per span and per (parent, child) pair."""

    def __init__(self):
        self.stack: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.child_calls: dict[tuple, int] = defaultdict(int)
        self.child_seconds: dict[tuple, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.not_observed: list[str] = []

    def span(self, name: str, fn, on_result=None):
        parent_of = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = parent_of[-1] if parent_of else None
            parent_of.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                parent_of.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                if parent is not None:
                    self.child_calls[parent, name] += 1
                    self.child_seconds[parent, name] += elapsed
            if on_result is not None:
                on_result(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        hooks = {"dynamics.solve_ivp": self._solve_ivp,
                 "dynamics.integrate": self._integrate,
                 "zvc.curve": self._curve}
        for module_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.not_observed.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(span, fn, hooks.get(span)))

    def _count(self, name: str, read):
        try:
            self.counts[name] += read()
        except (AttributeError, TypeError, KeyError):
            if name not in self.not_observed:
                self.not_observed.append(name)

    def _solve_ivp(self, fn, args, kwargs, sol):
        self._count("dynamics.rhs_calls", lambda: int(sol.nfev))
        self._count("dynamics.step_failures", lambda: int(sol.status == -1))

    def _integrate(self, fn, args, kwargs, traj):
        self._count("dynamics.samples", lambda: len(traj.samples))

    def _curve(self, fn, args, kwargs, curve):
        def nodes():
            bound = inspect.signature(fn).bind(*args, **kwargs)
            return int(bound.arguments["resolution"]) ** 2

        self._count("zvc.grid_nodes", nodes)
        self._count("zvc.vertices",
                    lambda: sum(len(seg) for seg in curve.segments))

    def self_seconds(self, name: str, children=None) -> float:
        """Seconds in ``name`` minus its child spans (or only ``children``)."""
        covered = sum(s for (parent, child), s in self.child_seconds.items()
                      if parent == name and (children is None
                                             or child in children))
        return self.seconds[name] - covered

    def metrics(self) -> dict:
        c, s, e = self.calls, self.seconds, self.errors
        refines = c["equilibria.refine"]
        in_refine = self.child_calls["equilibria.refine",
                                     "equilibria.residual"]
        nodes = self.counts["zvc.grid_nodes"]
        return {
            "cli.build_config_s": s["cli.build_config"],
            "cli.main_s": s[ROOT],
            "cli.self_s": self.self_seconds(ROOT),
            "model.jacobi_constant.calls": c["model.jacobi_constant"],
            "model.jacobi_constant.s": s["model.jacobi_constant"],
            "model.jacobi_drift_rate.calls": c["model.jacobi_drift_rate"],
            "model.jacobi_drift_rate.s": s["model.jacobi_drift_rate"],
            "dynamics.integrate.calls": c["dynamics.integrate"],
            "dynamics.integrate.s": s["dynamics.integrate"],
            "dynamics.integrate.self_s": self.self_seconds(
                "dynamics.integrate", ("dynamics.solve_ivp",)),
            "dynamics.samples": self.counts["dynamics.samples"],
            "dynamics.solve_ivp.s": s["dynamics.solve_ivp"],
            "dynamics.rhs_calls": self.counts["dynamics.rhs_calls"],
            "dynamics.step_failures": (self.counts["dynamics.step_failures"]
                                       + e["dynamics.solve_ivp"]),
            "dynamics.jacobi_audit.s": s["dynamics.jacobi_audit"],
            "equilibria.refine.calls": refines,
            "equilibria.refine.s": s["equilibria.refine"],
            "equilibria.refine.failed": e["equilibria.refine"],
            "equilibria.residual.calls": c["equilibria.residual"],
            "equilibria.residuals_per_refine": (in_refine / refines
                                                if refines else 0.0),
            "equilibria.analytic.s": s["equilibria.analytic"],
            "zvc.curve.calls": c["zvc.curve"],
            "zvc.curve.s": s["zvc.curve"],
            "zvc.curve.self_s": self.self_seconds("zvc.curve",
                                                  ("zvc.brentq",)),
            "zvc.grid_nodes": nodes,
            "zvc.vertices": self.counts["zvc.vertices"],
            "zvc.active_ratio": (self.counts["zvc.vertices"] / nodes
                                 if nodes else 0.0),
            "zvc.brentq.calls": c["zvc.brentq"],
            "zvc.brentq.s": s["zvc.brentq"],
            "zvc.polish_fallbacks": e["zvc.brentq"],
        }


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    import prtbp.cli
    import_s = time.perf_counter() - start
    scipy_modules = sum(1 for name in list(sys.modules)
                        if name == "scipy" or name.startswith("scipy."))

    tracer = Tracer()
    if spec["mode"] == "traced":
        tracer.install()
    # the root span: every traced call of a job runs inside it
    run_main = tracer.span(ROOT, prtbp.cli.main)
    jobs, out_bytes, warned = [], 0, 0
    for job in spec["jobs"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = run_main(job["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # a crash fails this job, as it would fail the process
                traceback.print_exc()
                rc = 1
        warned += sum(issubclass(w.category, UserWarning) for w in caught)
        out_bytes += sum(os.path.getsize(path) for path in job["outputs"]
                         if os.path.exists(path))
        jobs.append({"id": job["id"], "rc": rc, "stdout": stdout.getvalue(),
                     "stderr": stderr.getvalue()[-2000:]})

    metrics = tracer.metrics()
    metrics.update({"import.prtbp_s": import_s,
                    "import.scipy_modules": scipy_modules,
                    "cli.out_bytes": out_bytes,
                    "equilibria.warnings": warned})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"mode": spec["mode"], "metrics": metrics,
                   "not_observed": tracer.not_observed,
                   "main_s": tracer.seconds[ROOT], "jobs": jobs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
