"""Command-line interface.

Four subcommands cover the library surface: ``equilibria`` reports the
triangular points by every available route, ``integrate`` propagates one
trajectory, ``zvc`` extracts a zero-velocity curve, and ``sweep`` tracks
the analytic and refined points across a parameter grid, up to the fold
of their branch.

Configuration comes from an optional JSON file (``--config``) merged
with command-line flags named after the dotted field paths, for example
``--system.mu 0.01``. Outputs are deterministic: identical configuration
yields byte-identical files.

Each library entry point checks its own arguments; the CLI checks only
the fields no library function receives and maps exception types to exit
codes: 0 success, 2 invalid configuration or argument value
(``ValueError``), 3 a state within the collision guard
(``SingularityError``), 4 solver non-convergence (``ConvergenceError``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from .dynamics import integrate, jacobi_audit
from .equilibria import (BRANCHES, DegenerateFormulaError, EquilibriumPoint,
                         METHOD_BASE, _analytic_coords, _branch_fold,
                         _branch_sign, _check_newton_args, analytic_epsilons,
                         analytic_triangular_point, equilibrium_residual,
                         limiting_case_point, refine_equilibrium)
from .errors import ConfigError, ConvergenceError, SingularityError
from .model import (COLLISION_GUARD, ESCAPE_RADIUS, GrainProperties,
                    PhaseState, SystemParams, _drift_rate,
                    mass_reduction_from_grain)
from .zvc import zero_velocity_curve

_REQUIRED = object()

_SYSTEM_FIELDS = {
    "system.mu": float,
    "system.q1": float,
    "system.a2": float,
    "system.cd": float,
    "system.w1": float,
    "system.grain.radius_a": float,
    "system.grain.density_rho": float,
    "system.grain.efficiency_chi": float,
}

_OUTPUT_FIELDS = {
    "output.path": str,
    "output.format": str,
    "output.precision": int,
}

_JOB_FIELDS: dict[str, dict[str, tuple[type, object]]] = {
    "equilibria": {
        "job.tol": (float, 1e-12),
        "job.max_iter": (int, 50),
    },
    "integrate": {
        "job.x": (float, _REQUIRED),
        "job.y": (float, _REQUIRED),
        "job.vx": (float, _REQUIRED),
        "job.vy": (float, _REQUIRED),
        "job.t0": (float, 0.0),
        "job.t_end": (float, _REQUIRED),
        "job.sample_dt": (float, _REQUIRED),
        "job.rtol": (float, 1e-12),
        "job.atol": (float, 1e-12),
        "job.collision_guard": (float, COLLISION_GUARD),
        "job.escape_radius": (float, ESCAPE_RADIUS),
    },
    "zvc": {
        "job.level_c": (float, _REQUIRED),
        "job.xmin": (float, _REQUIRED),
        "job.xmax": (float, _REQUIRED),
        "job.ymin": (float, _REQUIRED),
        "job.ymax": (float, _REQUIRED),
        "job.resolution": (int, _REQUIRED),
    },
    "sweep": {
        "job.variable": (str, _REQUIRED),
        "job.start": (float, _REQUIRED),
        "job.stop": (float, _REQUIRED),
        "job.count": (int, _REQUIRED),
        "job.spacing": (str, "geometric"),
        "job.branch": (str, "L4"),
        "job.tol": (float, 1e-12),
        "job.max_iter": (int, 50),
    },
}

# allowed values of the string fields no library function receives
_CHOICES = {
    "output.format": ("csv", "json"),
    "job.variable": ("w1", "a2", "q1", "mu"),
    "job.spacing": ("linear", "geometric"),
}


@dataclass(frozen=True)
class JobConfig:
    """Validated configuration of one CLI job."""

    job: str
    system: SystemParams
    args: dict
    out_path: str | None
    out_format: str
    precision: int


def _flatten(obj: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in obj.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, path + "."))
        else:
            flat[path] = value
    return flat


def _coerce(path: str, value, typ: type):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _build_system(flat: dict) -> SystemParams:
    grain_keys = [k for k in flat if k.startswith("system.grain.")]
    if "system.mu" not in flat:
        raise ConfigError("system.mu: required field is missing")
    q1 = flat.get("system.q1")
    if grain_keys:
        if q1 is not None:
            raise ConfigError(
                "system.q1/system.grain: give an explicit mass reduction "
                "factor or grain properties, not both")
        for k in ("system.grain.radius_a", "system.grain.density_rho",
                  "system.grain.efficiency_chi"):
            if k not in flat:
                raise ConfigError(f"{k}: required with the grain block")
        q1 = mass_reduction_from_grain(GrainProperties(
            radius_a=flat["system.grain.radius_a"],
            density_rho=flat["system.grain.density_rho"],
            efficiency_chi=flat["system.grain.efficiency_chi"]))
    elif q1 is None:
        q1 = 1.0
    cd = flat.get("system.cd")
    w1 = flat.get("system.w1")
    if (cd is None) == (w1 is None):
        raise ConfigError(
            "system.cd/system.w1: exactly one of the two must be given")
    return SystemParams(mu=flat["system.mu"], q1=q1,
                        a2=flat.get("system.a2", 0.0), cd=cd, w1=w1)


def build_config(job: str, config_path: str | None,
                 overrides: dict) -> JobConfig:
    """Merge a JSON config file with flag overrides and validate.

    Checks only the fields that no library function receives; the job's
    library call checks the rest when the job runs.
    """
    flat: dict = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {config_path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {config_path} is not valid JSON: "
                              f"{exc}")
        if not isinstance(document, dict):
            raise ConfigError("config: top level must be a JSON object")
        flat = _flatten(document)
    flat.update(overrides)

    declared = flat.pop("job.type", None)
    if declared is not None and declared != job:
        raise ConfigError(
            f"job.type: config declares {declared!r} but the "
            f"{job!r} subcommand was invoked")

    fields = dict(_SYSTEM_FIELDS)
    fields.update(_OUTPUT_FIELDS)
    job_fields = _JOB_FIELDS[job]
    for path, (typ, _) in job_fields.items():
        fields[path] = typ
    for path in flat:
        if path not in fields:
            raise ConfigError(f"{path}: unknown field")
    flat = {path: _coerce(path, value, fields[path])
            for path, value in flat.items()}
    for path, allowed in _CHOICES.items():
        if path in flat and flat[path] not in allowed:
            raise ConfigError(
                f"{path}: must be one of {allowed}, got {flat[path]!r}")

    system = _build_system(flat)

    args = {}
    for path, (typ, default) in job_fields.items():
        if path in flat:
            args[path.removeprefix("job.")] = flat[path]
        elif default is _REQUIRED:
            raise ConfigError(f"{path}: required field is missing")
        else:
            args[path.removeprefix("job.")] = default

    if job == "sweep":
        start, stop, count = args["start"], args["stop"], args["count"]
        if count < 1:
            raise ConfigError(f"job.count: must be >= 1, got {count}")
        for path, value in (("job.start", start), ("job.stop", stop)):
            if not -math.inf < value < math.inf:
                raise ConfigError(f"{path}: must be finite, got {value}")
        if args["spacing"] == "geometric" and not start * stop > 0:
            raise ConfigError(
                "job.start/job.stop: geometric spacing needs nonzero "
                "same-sign endpoints")

    out_path = flat.get("output.path")
    if job == "integrate" and out_path is None:
        raise ConfigError("output.path: required for the integrate job")
    precision = flat.get("output.precision", 17)
    if precision < 1:
        raise ConfigError(f"output.precision: must be >= 1, got {precision}")
    return JobConfig(job=job, system=system, args=args, out_path=out_path,
                     out_format=flat.get("output.format", "csv"),
                     precision=precision)


def _fmt(value, precision: int) -> str:
    if value == 0.0:
        value = 0.0
    return format(value, f".{precision}g")


def _json_token(value, precision: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return _fmt(value, precision)
    return json.dumps(value)


def _dump_json(obj, precision: int) -> str:
    # fixed-order, fixed-precision serializer so outputs are byte-stable
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_dump_json(v, precision)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v, precision) for v in obj) + "]"
    return _json_token(obj, precision)


def _open_output(path: str | None):
    # the output file, or standard output when no path is given
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_table(cfg: JobConfig, columns: tuple[str, ...], rows) -> None:
    # JSON rows are written one at a time, with the bytes _dump_json gives
    # the whole {"job", "rows"} payload, so an iterator of rows streams
    with _open_output(cfg.out_path) as fh:
        if cfg.out_format == "csv":
            fh.write(_render_csv(columns, rows, cfg.precision))
            return
        fh.write(f'{{"job": {json.dumps(cfg.job)}, "rows": [')
        sep = ""
        for row in rows:
            fh.write(sep + _dump_json(dict(zip(columns, row)), cfg.precision))
            sep = ", "
        fh.write("]}\n")


def _render_csv(columns, rows, precision: int) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None
                         else _fmt(v, precision) if isinstance(v, float)
                         else v for v in row])
    return buf.getvalue()


def _write_float_csv(path: str, columns: tuple[str, ...], rows,
                     precision: int) -> None:
    # the bytes of _render_csv for tuples of floats without -0.0, from
    # one format string per row, streamed to the file row by row
    line = ",".join([f"%.{precision}g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)


def read_table(path: str) -> tuple[list[str], list[dict]]:
    """Read back a CSV file written by this module.

    Returns the header and one dict per row; numeric cells come back as
    floats and empty cells as ``None``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = []
        for record in reader:
            row: dict = {}
            for key, cell in zip(columns, record):
                if cell == "":
                    row[key] = None
                else:
                    try:
                        row[key] = float(cell)
                    except ValueError:
                        row[key] = cell
            rows.append(row)
    return columns, rows


def _point_row(point: EquilibriumPoint) -> tuple:
    return (point.label, point.method, point.x, point.y, point.residual_norm)


def run_equilibria(cfg: JobConfig) -> int:
    """Report base, analytic, refined and limiting-case points per branch."""
    p = cfg.system
    tol = cfg.args["tol"]
    max_iter = cfg.args["max_iter"]
    rows = []
    for branch in BRANCHES:
        terms = analytic_epsilons(p, branch)
        base_rn = math.hypot(*equilibrium_residual(p, terms.x0, terms.y0))
        rows.append((branch, METHOD_BASE, terms.x0, terms.y0, base_rn))
        guess = (terms.x0, terms.y0)
        try:
            analytic = analytic_triangular_point(p, branch)
            rows.append(_point_row(analytic))
            guess = (analytic.x, analytic.y)
        except DegenerateFormulaError:
            pass
        refined = refine_equilibrium(p, guess, tol=tol, max_iter=max_iter)
        rows.append(_point_row(refined))
        if p.w1 == 0.0:
            rows.append(_point_row(
                limiting_case_point(p, "oblate-only", branch)))
        if p.a2 == 0.0:
            try:
                rows.append(_point_row(
                    limiting_case_point(p, "drag-only", branch)))
            except DegenerateFormulaError:
                pass
        if p.w1 == 0.0 and p.a2 == 0.0 and p.q1 == 1.0:
            rows.append(_point_row(
                limiting_case_point(p, "classical", branch)))
    _write_table(cfg, ("branch", "method", "x", "y", "residual_norm"), rows)
    return 0


def run_integrate(cfg: JobConfig) -> int:
    """Propagate one trajectory and write samples plus a metadata sidecar."""
    p = cfg.system
    a = cfg.args
    s0 = PhaseState(x=a["x"], y=a["y"], vx=a["vx"], vy=a["vy"], t=a["t0"])
    traj = integrate(p, s0, t_end=a["t_end"], sample_dt=a["sample_dt"],
                     rtol=a["rtol"], atol=a["atol"],
                     collision_guard=a["collision_guard"],
                     escape_radius=a["escape_radius"])
    columns = ("t", "x", "y", "vx", "vy", "C", "dCdt")
    if cfg.out_format == "csv":
        _write_float_csv(cfg.out_path, columns, _sample_rows(traj),
                         cfg.precision)
    else:
        _write_table(cfg, columns, _sample_rows(traj))
    meta = {"termination": traj.termination,
            "samples": len(traj.drift_values),
            "jacobi_audit": jacobi_audit(traj),
            "rhs_calls": traj.rhs_calls,
            "steps": traj.steps,
            "rejected_steps": traj.rejected_steps}
    if traj.termination == "step-failure":
        meta["message"] = traj.message
    meta_path = _meta_path(cfg.out_path)
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_dump_json(meta, cfg.precision) + "\n")
    return 0


def _sample_rows(traj):
    # (t, x, y, vx, vy, C, dCdt) per sample, dCdt with the bits of
    # jacobi_drift_rate; + 0.0 turns -0.0 into 0.0, as _fmt does
    p = traj.params
    values = iter(traj.sample_values)
    for t, x, y, vx, vy, c in zip(values, values, values, values, values,
                                  values):
        yield (t + 0.0, x + 0.0, y + 0.0, vx + 0.0, vy + 0.0, c + 0.0,
               _drift_rate(p, x, y, vx, vy) + 0.0)


def _meta_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".meta.json"


def run_zvc(cfg: JobConfig) -> int:
    """Extract one zero-velocity curve as indexed polyline vertices."""
    a = cfg.args
    curve = zero_velocity_curve(
        cfg.system, a["level_c"],
        (a["xmin"], a["xmax"], a["ymin"], a["ymax"]), a["resolution"])
    if cfg.out_format == "csv":
        with _open_output(cfg.out_path) as fh:
            _write_vertex_csv(fh, curve, cfg.precision)
    else:
        _write_table(cfg, ("segment_id", "vertex_index", "x", "y"),
                     _vertex_rows(curve))
    if cfg.out_path is not None:
        with open(_meta_path(cfg.out_path), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(_dump_json(curve.work, cfg.precision) + "\n")
    return 0


def _vertex_rows(curve):
    # (segment_id, vertex_index, x, y) per vertex; + 0.0 turns -0.0 into
    # 0.0, as _fmt does
    for seg_id, segment in enumerate(curve.segments):
        for vertex_id, (x, y) in enumerate(segment):
            yield seg_id, vertex_id, x + 0.0, y + 0.0


def _write_vertex_csv(fh, curve, precision: int) -> None:
    # the bytes of _render_csv for the vertex rows, from one format string
    # per row; the indices are integers, so %d and not %g
    line = f"%d,%d,%.{precision}g,%.{precision}g\n"
    fh.write("segment_id,vertex_index,x,y\n")
    fh.writelines(line % row for row in _vertex_rows(curve))


def _linspace(start: float, stop: float, count: int) -> list[float]:
    # NumPy's linspace formula: start + i*step, the last point pinned
    step = (stop - start) / (count - 1) if count > 1 else 0.0
    grid = [start + i * step for i in range(count)]
    if count > 1:
        grid[-1] = stop
    return grid


def _sweep_grid(a: dict) -> list[float]:
    start, stop, count = a["start"], a["stop"], a["count"]
    if a["spacing"] == "linear":
        return _linspace(start, stop, count)
    # NumPy's geomspace formula: 10**v over the linear grid of the
    # exponents of |start| and |stop|, the sign put back, both ends pinned
    sign = math.copysign(1.0, start)
    exponents = _linspace(math.log10(sign * start), math.log10(sign * stop),
                          count)
    inner = [sign * 10.0 ** v for v in exponents[1:-1]]
    return [start, *inner, stop] if count > 1 else [start]


def _sweep_system(base: SystemParams, variable: str,
                  value: float) -> SystemParams:
    # the base keeps its drag spec, cd or w1, unless w1 is the variable
    drag = {"cd": base.cd} if base.cd is not None else {"w1": base.w1}
    fields = {"mu": base.mu, "q1": base.q1, "a2": base.a2, **drag}
    if variable == "w1":
        fields.pop("cd", None)
    return SystemParams(**{**fields, variable: value})


def _refine_first(p: SystemParams, seeds, tol: float,
                  max_iter: int) -> EquilibriumPoint | None:
    # the first seed whose Newton solve converges, or None; a seed inside
    # the collision guard fails like one that does not converge
    for seed in seeds:
        try:
            return refine_equilibrium(p, seed, tol=tol, max_iter=max_iter)
        except (ConvergenceError, SingularityError):
            continue
    return None


def run_sweep(cfg: JobConfig) -> int:
    """Follow the analytic and refined points over a parameter grid.

    The refined points seed the Newton solve of the next grid point, by
    the secant through the last two (the last alone where the two share
    a value); the first point, and the first after an ``invalid-params``
    gap, starts from the analytic guess, which is also the fallback when
    the continued seed does not converge. From the
    first refined point the branch is followed by pseudo-arclength steps
    to the end of the grid. Where det J changes sign along it the branch
    folds, and every row past the fold reads ``no-equilibrium`` without
    a solve. When rows before the first refined point failed, the branch
    is also followed from it back to the start of the grid, and those of
    them past a fold there read ``no-equilibrium`` as well. Failures on
    single grid points flag the row and the run continues; the summary
    line on stdout reports the flagged count and the folds.
    """
    a = cfg.args
    # checked here as well, since a grid of invalid points refines nothing
    _branch_sign(a["branch"])
    _check_newton_args(a["tol"], a["max_iter"])
    grid = _sweep_grid(a)

    def family(value: float) -> SystemParams:
        return _sweep_system(cfg.system, a["variable"], value)

    rows = []
    flagged = 0
    # the last two refined (value, x, y) since the last invalid row
    last = before = None
    # the folds toward the start and toward the end of the grid
    back = fold = None
    refined_any = False
    for value in grid:
        try:
            p = family(value)
        except ValueError:
            rows.append((value, None, None, None, None, None,
                         "invalid-params"))
            flagged += 1
            last = before = None
            continue
        # past the fold is on the side of it where the grid ends
        if fold is not None and (value - fold) * (grid[-1] - fold) > 0:
            rows.append((value, None, None, None, None, None,
                         "no-equilibrium"))
            flagged += 1
            continue
        xa = ya = None
        try:
            xa, ya = guess = _analytic_coords(p, a["branch"])
            status = "ok"
        except DegenerateFormulaError:
            terms = analytic_epsilons(p, a["branch"])
            guess = (terms.x0, terms.y0)
            status = "degenerate-analytic"
        seeds = [guess]
        if last is not None:
            seed = last[1:]
            if before is not None and last[0] != before[0]:
                # the secant through the last two refined points
                f = (value - last[0]) / (last[0] - before[0])
                seed = (last[1] + f * (last[1] - before[1]),
                        last[2] + f * (last[2] - before[2]))
            seeds.insert(0, seed)
        refined = _refine_first(p, seeds, a["tol"], a["max_iter"])
        if refined is None:
            rows.append((value, xa, ya, None, None, None, "refine-failed"))
            flagged += 1
            continue
        if last is None and fold is None:
            fold = _branch_fold(family, (refined.x, refined.y), value,
                                grid[-1])
        if not refined_any:
            refined_any = True
            if any(row[-1] == "refine-failed" for row in rows):
                back = _branch_fold(family, (refined.x, refined.y), value,
                                    grid[0])
                if back is not None:
                    rows = [(row[0], None, None, None, None, None,
                             "no-equilibrium")
                            if row[-1] == "refine-failed"
                            and (row[0] - back) * (grid[0] - back) > 0
                            else row for row in rows]
        before, last = last, (value, refined.x, refined.y)
        err = (math.hypot(xa - refined.x, ya - refined.y)
               if status == "ok" else None)
        if status != "ok":
            flagged += 1
        rows.append((value, xa, ya, refined.x, refined.y, err, status))
    _write_table(cfg, ("value", "x_analytic", "y_analytic", "x_refined",
                       "y_refined", "err_norm", "status"), rows)
    summary = f"sweep: {len(rows)} points, {flagged} flagged"
    for at in (back, fold):
        if at is not None:
            summary += (f", fold at {a['variable']} = "
                        f"{_fmt(at, cfg.precision)}")
    sys.stdout.write(summary + "\n")
    return 0


_RUNNERS = {
    "equilibria": run_equilibria,
    "integrate": run_integrate,
    "zvc": run_zvc,
    "sweep": run_sweep,
}


def _add_field_flags(parser: argparse.ArgumentParser, job: str) -> None:
    fields = dict(_SYSTEM_FIELDS)
    for path, (typ, _) in _JOB_FIELDS[job].items():
        fields[path] = typ
    for path, typ in sorted(fields.items()):
        parser.add_argument(f"--{path}", type=typ, default=None,
                            dest=path.replace(".", "__"), metavar="V",
                            help=f"override config field {path}")
    parser.add_argument("--output.precision", type=int, default=None,
                        dest="output__precision", metavar="N",
                        help="significant digits for floats (default 17)")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prtbp",
        description="Planar photogravitational restricted three-body "
                    "problem with drag and an oblate secondary")
    sub = parser.add_subparsers(dest="job", required=True)
    helps = {
        "equilibria": "locate the triangular equilibrium points",
        "integrate": "propagate a trajectory",
        "zvc": "extract a zero-velocity curve",
        "sweep": "track the triangular point over a parameter grid",
    }
    for job, text in helps.items():
        sp = sub.add_parser(job, help=text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
        sp.add_argument("--output", "--output.path", dest="output__path",
                        metavar="PATH", help="output file (default stdout)")
        sp.add_argument("--format", "--output.format", dest="output__format",
                        choices=_CHOICES["output.format"],
                        help="output format (default csv)")
        _add_field_flags(sp, job)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    overrides = {key.replace("__", "."): value
                 for key, value in vars(args).items()
                 if key not in ("job", "config") and value is not None}
    # SingularityError is a ValueError, so it is caught first
    try:
        cfg = build_config(args.job, args.config, overrides)
        return _RUNNERS[cfg.job](cfg)
    except SingularityError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
