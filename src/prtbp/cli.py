"""Command-line interface.

Four subcommands cover the library surface: ``equilibria`` writes the
rows of ``equilibria.triangular_points``, ``integrate`` propagates one
trajectory, ``zvc`` extracts a zero-velocity curve, and ``sweep`` writes
the rows of ``equilibria.follow_branch``, which tracks the analytic and
refined points across a parameter grid, up to the fold of their branch.
Each runner builds the library call's arguments, calls it and formats
what it returns; the numerics live in the library. A runner imports the
library module it calls when it runs, so a job loads only its own.

Configuration comes from an optional JSON file (``--config``) merged
with command-line flags named after the dotted field paths, for example
``--system.mu 0.01``. Outputs are deterministic: identical configuration
yields byte-identical files; one rule formats every table row and run record.

Each library entry point checks its own arguments; the CLI checks only
the fields no library function receives and maps exception types to exit
codes: 0 success, or a reader that closed standard output early
(``BrokenPipeError``), 2 invalid configuration or argument value
(``ValueError``) or an output path that cannot be written (``OSError``),
3 a state within the collision guard (``SingularityError``), 4 solver
non-convergence (``ConvergenceError``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .errors import ConfigError, ConvergenceError, SingularityError
from .model import GrainProperties, PhaseState, SystemParams, _Record

_REQUIRED = object()

#: Most grid points a sweep job may ask for: its rows take ~0.55 KB each.
MAX_SWEEP_POINTS = 10**6

# the fields every job reads, with their types
_FIELDS = {
    "system.mu": float,
    "system.q1": float,
    "system.a2": float,
    "system.cd": float,
    "system.w1": float,
    "system.grain.radius_a": float,
    "system.grain.density_rho": float,
    "system.grain.efficiency_chi": float,
    "output.path": str,
    "output.format": str,
    "output.precision": int,
}

# allowed values of the string fields no library function receives
_CHOICES = {
    "output.format": ("csv", "json"),
    "job.spacing": ("linear", "geometric"),
}


def _field_types(own: dict) -> dict:
    # the type of every field a job reads: the shared ones and its own
    return {**_FIELDS, **{path: typ for path, (typ, _) in own.items()}}


class JobConfig(_Record):
    """Validated configuration of one CLI job."""

    _fields = ("job", "system", "args", "out_path", "out_format",
               "precision")

    def __init__(self, job: str, system: SystemParams, args: dict,
                 out_path: str | None, out_format: str, precision: int):
        self._freeze(job, system, args, out_path, out_format, precision)


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
    grain = None
    if grain_keys:
        if "system.q1" in flat:
            raise ConfigError(
                "system.q1/system.grain: give an explicit mass reduction "
                "factor or grain properties, not both")
        for k in ("system.grain.radius_a", "system.grain.density_rho",
                  "system.grain.efficiency_chi"):
            if k not in flat:
                raise ConfigError(f"{k}: required with the grain block")
        grain = GrainProperties(
            radius_a=flat["system.grain.radius_a"],
            density_rho=flat["system.grain.density_rho"],
            efficiency_chi=flat["system.grain.efficiency_chi"])
    cd = flat.get("system.cd")
    w1 = flat.get("system.w1")
    if (cd is None) == (w1 is None):
        raise ConfigError(
            "system.cd/system.w1: exactly one of the two must be given")
    fields = {"mu": flat["system.mu"], "a2": flat.get("system.a2", 0.0),
              "cd": cd, "w1": w1}
    if grain is None:
        return SystemParams(q1=flat.get("system.q1", 1.0), **fields)
    return SystemParams.from_grain(grain=grain, **fields)


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

    job_fields = _JOBS[job][2]
    fields = _field_types(job_fields)
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

    # a field without a default here is left to the job's library call
    args = {}
    for path, (_, default) in job_fields.items():
        if path in flat:
            args[path.removeprefix("job.")] = flat[path]
        elif default is _REQUIRED:
            raise ConfigError(f"{path}: required field is missing")
        elif default is not None:
            args[path.removeprefix("job.")] = default

    if job == "sweep":
        start, stop, count = args["start"], args["stop"], args["count"]
        if not 1 <= count <= MAX_SWEEP_POINTS:
            raise ConfigError(f"job.count: must be in [1, {MAX_SWEEP_POINTS}]"
                              f", got {count}")
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
    # 17 significant digits round-trip every double
    precision = flat.get("output.precision", 17)
    if not 1 <= precision <= 17:
        raise ConfigError(
            f"output.precision: must be in [1, 17], got {precision}")
    return JobConfig(job=job, system=system, args=args, out_path=out_path,
                     out_format=flat.get("output.format", "csv"),
                     precision=precision)


def _row_format(kinds: tuple[type, ...], precision: int,
                keys: tuple[str, ...] | None = None) -> str:
    # the % format of a row of cells of types kinds: a CSV line, or with
    # keys (fixed identifiers, free of %) a JSON object. A float prints at
    # precision significant digits, so it may not be -0.0, and None as an
    # empty cell; a JSON row comes through _json_cells
    cell = {float: f"%.{precision}g", int: "%d", str: "%s",
            type(None): "%.0s"}
    if keys is None:
        return ",".join(cell[kind] for kind in kinds)
    return "{" + ", ".join(f"{json.dumps(key)}: {cell[kind]}"
                           for key, kind in zip(keys, kinds)) + "}"


def _json_cells(cells) -> tuple:
    # cells as a JSON row takes them: + 0.0 turns -0.0 into 0.0, a
    # non-finite float and None are null, and a str goes through
    # json.dumps, so a quote cannot break the document
    return tuple([(v + 0.0 if -math.inf < v < math.inf else "null")
                  if v.__class__ is float else json.dumps(v)
                  if v.__class__ is str else "null" if v is None else v
                  for v in cells])


def _open_output(path: str | None):
    # the output file, or standard output when no path is given
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_table(cfg: JobConfig, columns: tuple[str, ...], rows) -> None:
    # rows stream one at a time, each through the _row_format of its
    # sequence of cell types, built once. A CSV row goes in as it is, so
    # its str cells are fixed identifiers that need no quoting; a JSON row
    # goes through _json_cells
    lines: dict[tuple[type, ...], str] = {}
    with _open_output(cfg.out_path) as fh:
        if cfg.out_format == "json":
            fh.write(f'{{"job": {json.dumps(cfg.job)}, "rows": [')
            sep = ""
            for row in rows:
                row = _json_cells(row)
                kinds = tuple(map(type, row))
                if kinds not in lines:
                    lines[kinds] = _row_format(kinds, cfg.precision, columns)
                fh.write(sep + lines[kinds] % row)
                sep = ", "
            fh.write("]}\n")
            return
        fh.write(",".join(columns) + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in lines:
                lines[kinds] = _row_format(kinds, cfg.precision) + "\n"
            fh.write(lines[kinds] % row)


def _point_row(point) -> tuple:
    # an EquilibriumPoint's cells; + 0.0 turns -0.0 into 0.0 for
    # _write_table
    return (point.label, point.method, point.x + 0.0, point.y + 0.0,
            point.residual_norm)


def run_equilibria(cfg: JobConfig) -> int:
    """Write the rows of ``equilibria.triangular_points``."""
    from .equilibria import triangular_points

    points = triangular_points(cfg.system)
    _write_table(cfg, ("branch", "method", "x", "y", "residual_norm"),
                 map(_point_row, points))
    return 0


def run_integrate(cfg: JobConfig) -> int:
    """Propagate one trajectory and write samples plus a metadata sidecar."""
    from .dynamics import integrate, jacobi_audit

    a = dict(cfg.args)
    s0 = PhaseState(x=a.pop("x"), y=a.pop("y"), vx=a.pop("vx"),
                    vy=a.pop("vy"), t=a.pop("t0"))
    traj = integrate(cfg.system, s0, **a)
    _write_table(cfg, ("t", "x", "y", "vx", "vy", "C", "dCdt"),
                 _sample_rows(traj))
    meta = {"termination": traj.termination,
            "samples": len(traj.drift_values),
            "jacobi_audit": jacobi_audit(traj),
            "rhs_calls": traj.rhs_calls,
            "steps": traj.steps,
            "rejected_steps": traj.rejected_steps}
    if traj.termination == "step-failure":
        meta["message"] = traj.message
    elif traj.event_time is not None:
        meta["event_time"] = traj.event_time
    _write_meta(cfg, meta)
    return 0


def _sample_rows(traj):
    # the seven floats of each sample as one row; + 0.0 turns -0.0 into
    # 0.0 for _write_table
    values = iter(traj.sample_values)
    for t, x, y, vx, vy, c, rate in zip(*[values] * 7):
        yield (t + 0.0, x + 0.0, y + 0.0, vx + 0.0, vy + 0.0, c + 0.0,
               rate + 0.0)


def _write_meta(cfg: JobConfig, record: dict) -> None:
    # the job's run record, next to its output file
    path = os.path.splitext(cfg.out_path)[0] + ".meta.json"
    cells = _json_cells(record.values())
    line = _row_format(tuple(map(type, cells)), cfg.precision, tuple(record))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line % cells + "\n")


def run_zvc(cfg: JobConfig) -> int:
    """Extract one zero-velocity curve as indexed polyline vertices."""
    from .zvc import zero_velocity_curve

    a = cfg.args
    curve = zero_velocity_curve(
        cfg.system, a["level_c"],
        (a["xmin"], a["xmax"], a["ymin"], a["ymax"]), a["resolution"])
    _write_table(cfg, ("segment_id", "vertex_index", "x", "y"),
                 _vertex_rows(curve))
    if cfg.out_path is not None:
        _write_meta(cfg, curve.work)
    return 0


def _vertex_rows(curve):
    # (segment_id, vertex_index, x, y) per vertex; + 0.0 turns -0.0 into
    # 0.0 for _write_table
    for seg_id, segment in enumerate(curve.segments):
        for vertex_id, (x, y) in enumerate(segment):
            yield seg_id, vertex_id, x + 0.0, y + 0.0


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


def run_sweep(cfg: JobConfig) -> int:
    """Write ``follow_branch``'s rows over the job's grid and a summary
    line, on stderr when the table itself goes to stdout."""
    from .equilibria import SweepRow, follow_branch

    a = dict(cfg.args)
    grid = _sweep_grid({key: a.pop(key)
                        for key in ("start", "stop", "count", "spacing")})
    rows, folds = follow_branch(cfg.system, grid=grid, **a)
    # + 0.0 turns a -0.0 grid value into 0.0 for _write_table
    _write_table(cfg, SweepRow._fields,
                 ((row.value + 0.0, *row[1:]) for row in rows))
    flagged = sum(row.status != "ok" for row in rows)
    fold = _row_format((float,), cfg.precision)
    summary = f"sweep: {len(rows)} points, {flagged} flagged" + "".join(
        f", fold at {a['variable']} = " + fold % (at + 0.0) for at in folds)
    print(summary, file=sys.stderr if cfg.out_path is None else sys.stdout)
    return 0


# each job's runner, help line and own fields: their types and defaults,
# None where the job's library call has the default
_JOBS = {
    "equilibria": (run_equilibria,
                   "locate the triangular equilibrium points", {}),
    "integrate": (run_integrate, "propagate a trajectory", {
        "job.x": (float, _REQUIRED),
        "job.y": (float, _REQUIRED),
        "job.vx": (float, _REQUIRED),
        "job.vy": (float, _REQUIRED),
        "job.t0": (float, 0.0),
        "job.t_end": (float, _REQUIRED),
        "job.sample_dt": (float, _REQUIRED),
        "job.rtol": (float, None),
        "job.atol": (float, None),
        "job.collision_guard": (float, None),
        "job.escape_radius": (float, None),
    }),
    "zvc": (run_zvc, "extract a zero-velocity curve", {
        "job.level_c": (float, _REQUIRED),
        "job.xmin": (float, _REQUIRED),
        "job.xmax": (float, _REQUIRED),
        "job.ymin": (float, _REQUIRED),
        "job.ymax": (float, _REQUIRED),
        "job.resolution": (int, _REQUIRED),
    }),
    "sweep": (run_sweep,
              "track the triangular point over a parameter grid", {
        "job.variable": (str, _REQUIRED),
        "job.start": (float, _REQUIRED),
        "job.stop": (float, _REQUIRED),
        "job.count": (int, _REQUIRED),
        "job.spacing": (str, "geometric"),
        "job.branch": (str, None),
    }),
}


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prtbp",
        description="Planar photogravitational restricted three-body "
                    "problem with drag and an oblate secondary")
    sub = parser.add_subparsers(dest="job", required=True)
    for job, (_, text, own) in _JOBS.items():
        sp = sub.add_parser(job, help=text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
        sp.add_argument("--output", "--output.path", dest="output.path",
                        metavar="PATH", help="output file (default stdout)")
        sp.add_argument("--format", "--output.format", dest="output.format",
                        choices=_CHOICES["output.format"],
                        help="output format (default csv)")
        # every other field's flag is its path; argparse keeps the dots
        for path, typ in sorted(_field_types(own).items()):
            if path not in ("output.path", "output.format"):
                sp.add_argument(f"--{path}", type=typ, metavar="V",
                                help=f"override config field {path}")
    return parser


def main(argv: list[str] | None = None) -> int:
    flags = vars(_make_parser().parse_args(argv))
    job, config = flags.pop("job"), flags.pop("config")
    overrides = {path: value for path, value in flags.items()
                 if value is not None}
    # SingularityError is a ValueError, so it is caught first
    try:
        cfg = build_config(job, config, overrides)
        return _JOBS[job][0](cfg)
    except SingularityError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout after the job's work was done; stdout
        # goes to devnull, so the flush at exit cannot fail on it again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
