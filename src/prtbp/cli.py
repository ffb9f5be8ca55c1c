"""Command-line interface.

Four subcommands cover the library surface: ``equilibria`` reports the
triangular points by every available route, ``integrate`` propagates one
trajectory, ``zvc`` extracts a zero-velocity curve, and ``sweep`` tracks
the analytic and refined points across a parameter grid.

Configuration comes from an optional JSON file (``--config``) merged
with command-line flags named after the dotted field paths, for example
``--system.mu 0.01``. Outputs are deterministic: identical configuration
yields byte-identical files.

Exit codes: 0 success, 2 configuration validation failure, 3 runtime
domain failure, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import ESCAPE_RADIUS, integrate, jacobi_audit
from .equilibria import (BRANCHES, DegenerateFormulaError, EquilibriumPoint,
                         METHOD_BASE, analytic_epsilons,
                         analytic_triangular_point, equilibrium_residual,
                         limiting_case_point, refine_equilibrium)
from .errors import ConfigError, ConvergenceError, SingularityError
from .model import (COLLISION_GUARD, GrainProperties, PhaseState,
                    SystemParams, jacobi_drift_rate, mass_reduction_from_grain)
from .zvc import MIN_RESOLUTION, zero_velocity_curve

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

_SWEEP_VARIABLES = ("w1", "a2", "q1", "mu")


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
        try:
            grain = GrainProperties(
                radius_a=flat["system.grain.radius_a"],
                density_rho=flat["system.grain.density_rho"],
                efficiency_chi=flat["system.grain.efficiency_chi"])
            q1 = mass_reduction_from_grain(grain)
        except ValueError as exc:
            raise ConfigError(f"system.grain: {exc}") from exc
    elif q1 is None:
        q1 = 1.0
    cd = flat.get("system.cd")
    w1 = flat.get("system.w1")
    if (cd is None) == (w1 is None):
        raise ConfigError(
            "system.cd/system.w1: exactly one of the two must be given")
    try:
        return SystemParams(mu=flat["system.mu"], q1=q1,
                            a2=flat.get("system.a2", 0.0), cd=cd, w1=w1)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def build_config(job: str, config_path: str | None,
                 overrides: dict) -> JobConfig:
    """Merge a JSON config file with flag overrides and validate."""
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

    system = _build_system(flat)

    args = {}
    for path, (typ, default) in job_fields.items():
        if path in flat:
            args[path.removeprefix("job.")] = flat[path]
        elif default is _REQUIRED:
            raise ConfigError(f"{path}: required field is missing")
        else:
            args[path.removeprefix("job.")] = default

    _validate_job_args(job, args)

    out_format = flat.get("output.format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(
            f"output.format: must be 'csv' or 'json', got {out_format!r}")
    precision = flat.get("output.precision", 17)
    if precision < 1:
        raise ConfigError(f"output.precision: must be >= 1, got {precision}")
    return JobConfig(job=job, system=system, args=args,
                     out_path=flat.get("output.path"),
                     out_format=out_format, precision=precision)


def _validate_job_args(job: str, args: dict) -> None:
    if job == "integrate":
        if args["t_end"] <= args["t0"]:
            raise ConfigError(
                f"job.t_end: must exceed job.t0, got t_end={args['t_end']} "
                f"with t0={args['t0']}")
        for key in ("sample_dt", "rtol", "atol", "collision_guard",
                    "escape_radius"):
            if args[key] <= 0:
                raise ConfigError(f"job.{key}: must be > 0, got {args[key]}")
    elif job == "zvc":
        if args["resolution"] < MIN_RESOLUTION:
            raise ConfigError(
                f"job.resolution: must be >= {MIN_RESOLUTION}, "
                f"got {args['resolution']}")
        if not (args["xmin"] < args["xmax"] and args["ymin"] < args["ymax"]):
            raise ConfigError(
                "job.xmin/xmax/ymin/ymax: window must satisfy xmin < xmax "
                "and ymin < ymax")
    elif job == "equilibria":
        if args["tol"] <= 0:
            raise ConfigError(f"job.tol: must be > 0, got {args['tol']}")
        if args["max_iter"] < 1:
            raise ConfigError(
                f"job.max_iter: must be >= 1, got {args['max_iter']}")


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


def _write_table(cfg: JobConfig, columns: tuple[str, ...],
                 rows: list[tuple]) -> None:
    if cfg.out_format == "csv":
        text = _render_csv(columns, rows, cfg.precision)
    else:
        payload = {"job": cfg.job,
                   "rows": [dict(zip(columns, row)) for row in rows]}
        text = _dump_json(payload, cfg.precision) + "\n"
    if cfg.out_path is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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
    if cfg.out_path is None:
        raise ConfigError("output.path: required for the integrate job")
    p = cfg.system
    a = cfg.args
    s0 = PhaseState(x=a["x"], y=a["y"], vx=a["vx"], vy=a["vy"], t=a["t0"])
    traj = integrate(p, s0, t_end=a["t_end"], sample_dt=a["sample_dt"],
                     rtol=a["rtol"], atol=a["atol"],
                     collision_guard=a["collision_guard"],
                     escape_radius=a["escape_radius"])
    dcdt = jacobi_drift_rate(p, PhaseState(*traj.arrays()[1:5]))
    rows = np.column_stack((traj.samples, dcdt)).tolist()
    _write_table(cfg, ("t", "x", "y", "vx", "vy", "C", "dCdt"), rows)
    try:
        audit = jacobi_audit(traj)
    except ValueError:
        audit = None
    meta = {"termination": traj.termination,
            "samples": len(traj.samples),
            "jacobi_audit": audit}
    meta_path = _meta_path(cfg.out_path)
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_dump_json(meta, cfg.precision) + "\n")
    return 0


def _meta_path(out_path: str) -> str:
    stem, dot, _ = out_path.rpartition(".")
    return (stem if dot else out_path) + ".meta.json"


def run_zvc(cfg: JobConfig) -> int:
    """Extract one zero-velocity curve as indexed polyline vertices."""
    a = cfg.args
    curve = zero_velocity_curve(
        cfg.system, a["level_c"],
        (a["xmin"], a["xmax"], a["ymin"], a["ymax"]), a["resolution"])
    rows = [(seg_id, vertex_id, x, y)
            for seg_id, segment in enumerate(curve.segments)
            for vertex_id, (x, y) in enumerate(segment)]
    _write_table(cfg, ("segment_id", "vertex_index", "x", "y"), rows)
    return 0


def _sweep_grid(a: dict) -> np.ndarray:
    if a["spacing"] == "linear":
        return np.linspace(a["start"], a["stop"], a["count"])
    if a["spacing"] != "geometric":
        raise ConfigError(
            f"job.spacing: must be 'linear' or 'geometric', "
            f"got {a['spacing']!r}")
    if a["start"] * a["stop"] <= 0:
        raise ConfigError(
            "job.start/job.stop: geometric spacing needs nonzero "
            "same-sign endpoints")
    return np.geomspace(a["start"], a["stop"], a["count"])


def _sweep_system(base: SystemParams, variable: str,
                  value: float) -> SystemParams:
    # the base keeps its drag spec, cd or w1, unless w1 is the variable
    drag = {"cd": base.cd} if base.cd is not None else {"w1": base.w1}
    fields = {"mu": base.mu, "q1": base.q1, "a2": base.a2, **drag}
    if variable == "w1":
        fields.pop("cd", None)
    return SystemParams(**{**fields, variable: value})


def run_sweep(cfg: JobConfig) -> int:
    """Track analytic and refined points over a parameter grid.

    Failures on single grid points flag the row and the run continues;
    the summary line on stdout reports the flagged count.
    """
    a = cfg.args
    if a["variable"] not in _SWEEP_VARIABLES:
        raise ConfigError(
            f"job.variable: must be one of {_SWEEP_VARIABLES}, "
            f"got {a['variable']!r}")
    if a["branch"] not in BRANCHES:
        raise ConfigError(
            f"job.branch: must be 'L4' or 'L5', got {a['branch']!r}")
    if a["count"] < 1:
        raise ConfigError(f"job.count: must be >= 1, got {a['count']}")
    grid = _sweep_grid(a)
    rows = []
    flagged = 0
    for value in grid:
        value = float(value)
        try:
            p = _sweep_system(cfg.system, a["variable"], value)
        except ValueError:
            rows.append((value, None, None, None, None, None,
                         "invalid-params"))
            flagged += 1
            continue
        xa = ya = None
        try:
            analytic = analytic_triangular_point(p, a["branch"])
            xa, ya = analytic.x, analytic.y
            guess = (xa, ya)
            status = "ok"
        except DegenerateFormulaError:
            terms = analytic_epsilons(p, a["branch"])
            guess = (terms.x0, terms.y0)
            status = "degenerate-analytic"
        try:
            refined = refine_equilibrium(p, guess, tol=a["tol"],
                                         max_iter=a["max_iter"])
        except ConvergenceError:
            rows.append((value, xa, ya, None, None, None, "refine-failed"))
            flagged += 1
            continue
        err = (math.hypot(xa - refined.x, ya - refined.y)
               if status == "ok" else None)
        if status != "ok":
            flagged += 1
        rows.append((value, xa, ya, refined.x, refined.y, err, status))
    _write_table(cfg, ("value", "x_analytic", "y_analytic", "x_refined",
                       "y_refined", "err_norm", "status"), rows)
    sys.stdout.write(
        f"sweep: {len(rows)} points, {flagged} flagged\n")
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
                        choices=("csv", "json"),
                        help="output format (default csv)")
        _add_field_flags(sp, job)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    overrides = {key.replace("__", "."): value
                 for key, value in vars(args).items()
                 if key not in ("job", "config") and value is not None}
    try:
        cfg = build_config(args.job, args.config, overrides)
        return _RUNNERS[cfg.job](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except (SingularityError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
