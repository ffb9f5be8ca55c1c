"""Seeded job lists for the three benchmark workloads.

Each workload is a list of CLI jobs. A job is a plain dict:

    id        short name, unique within the workload
    job       CLI subcommand (equilibria, integrate, zvc, sweep)
    system    system fields (mu, q1, a2 and one of cd / w1)
    args      job fields, passed as ``--job.<name>`` flags or in a config
    format    "csv" or "json"
    config    True when the job reads its fields from a JSON config file

The same seed gives the same jobs. Parameters vary with the seed inside
narrow ranges, so the amount of work in a job list barely depends on it.
This module imports nothing from the program under test.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("equilibria", "orbits", "zvc")

TWO_PI = 2.0 * math.pi


def _base_point(mu: float, q1: float, branch: str) -> tuple[float, float]:
    # radiation-only triangular point: r1 = q1**(1/3), r2 = 1
    d = q1 ** (1.0 / 3.0)
    sign = 1.0 if branch == "L4" else -1.0
    return d * d / 2.0 - mu, sign * d * math.sqrt(1.0 - d * d / 4.0)


def _two_u(mu: float, q1: float, a2: float, x: float, y: float) -> float:
    # twice the amended potential, 2*U1, for the zero-velocity levels
    r1 = math.hypot(x + mu, y)
    r2 = math.hypot(x + mu - 1.0, y)
    n2 = 1.0 + 1.5 * a2
    return (n2 * (x * x + y * y) + 2.0 * (1.0 - mu) * q1 / r1
            + 2.0 * mu / r2 + mu * a2 / r2**3)


def _l1_abscissa(mu: float, q1: float, a2: float) -> float:
    # bisection on dU1/dx along the axis between the two primaries
    def slope(x: float) -> float:
        d1 = x + mu
        d2 = x + mu - 1.0
        return ((1.0 + 1.5 * a2) * x - (1.0 - mu) * q1 / (d1 * d1)
                + mu / (d2 * d2) + 1.5 * mu * a2 / d2**4)

    lo, hi = -mu + 1e-6, 1.0 - mu - 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _near_l(rng: random.Random, mu: float, q1: float, branch: str,
            offset: float) -> tuple[float, float]:
    # displaced away from the x axis: the direction sets how many steps
    # the integrator takes, so it is fixed and only the size varies
    x0, y0 = _base_point(mu, q1, branch)
    return x0, y0 + math.copysign(offset * rng.uniform(0.9, 1.1), y0)


def equilibria_jobs(rng: random.Random, toy: bool) -> list[dict]:
    """Point reports (short, start-up bound) and parameter sweeps.

    The w1 sweep at mu ~ 0.01, q1 ~ 0.98 runs up to w1 = 2e-2, past the
    fold where refinement fails, so Newton does most of its work there.
    """
    count = 40 if toy else 2000

    def drag_system():
        return {"mu": rng.uniform(0.005, 0.05), "q1": rng.uniform(0.97, 0.999),
                "a2": rng.uniform(0.0, 5e-4), "cd": rng.uniform(500.0, 5000.0)}

    jobs = [
        {"id": "points-csv", "job": "equilibria", "system": drag_system(),
         "args": {}, "format": "csv", "config": False},
        {"id": "points-json", "job": "equilibria",
         "system": {"mu": rng.uniform(0.005, 0.05),
                    "q1": rng.uniform(0.97, 0.999),
                    "a2": rng.uniform(0.0, 5e-4),
                    "w1": rng.uniform(1e-5, 1e-3)},
         "args": {}, "format": "json", "config": True},
        {"id": "sweep-w1-fold", "job": "sweep",
         "system": {"mu": 0.01 * rng.uniform(0.98, 1.02),
                    "q1": rng.uniform(0.979, 0.981), "a2": 0.0, "w1": 0.0},
         "args": {"variable": "w1", "start": 1e-4, "stop": 2e-2,
                  "count": count, "branch": "L4"},
         "format": "csv", "config": False},
    ]
    if toy:
        return jobs
    jobs += [
        {"id": "sweep-a2", "job": "sweep",
         "system": {"mu": rng.uniform(0.01, 0.05),
                    "q1": rng.uniform(0.97, 0.99),
                    "a2": 0.0, "cd": rng.uniform(500.0, 5000.0)},
         "args": {"variable": "a2", "start": 1e-5, "stop": 1e-2,
                  "count": count, "branch": "L5"},
         "format": "csv", "config": False},
        {"id": "sweep-q1", "job": "sweep",
         "system": {"mu": rng.uniform(0.01, 0.05), "q1": 0.95,
                    "a2": rng.uniform(0.0, 5e-4),
                    "cd": rng.uniform(500.0, 5000.0)},
         "args": {"variable": "q1", "start": 0.9, "stop": 0.999,
                  "count": count, "spacing": "linear", "branch": "L4"},
         "format": "json", "config": True},
        {"id": "sweep-mu", "job": "sweep",
         "system": {"mu": 0.01, "q1": rng.uniform(0.97, 0.99),
                    "a2": rng.uniform(0.0, 5e-4),
                    "cd": rng.uniform(500.0, 5000.0)},
         "args": {"variable": "mu", "start": 1e-3, "stop": 0.3,
                  "count": count, "branch": "L5"},
         "format": "csv", "config": False},
    ]
    return jobs


def orbits_jobs(rng: random.Random, toy: bool) -> list[dict]:
    """Orbits near L4/L5 with drag and oblateness, a drag-free orbit and
    the README drag orbit.

    The first three sample every 0.01 over ten revolutions, so per-sample
    work dominates; ``longrun-l4`` samples every 0.5 over fifty
    revolutions, so the integrator's steps dominate. Drag orbits start at
    rest near L4/L5, where the Jacobi audit is known to read 0.3 to 1.0.
    """
    revs = 0.5 if toy else 10.0

    def drag_system():
        return {"mu": rng.uniform(0.008, 0.012),
                "q1": rng.uniform(0.993, 0.997),
                "a2": rng.uniform(0.0, 2e-4), "cd": rng.uniform(800.0, 1200.0)}

    def rest_near(system, branch, offset):
        x, y = _near_l(rng, system["mu"], system["q1"], branch, offset)
        return {"x": x, "y": y, "vx": 0.0, "vy": 0.0}

    jobs = []
    for branch in ("L4", "L5"):
        system = drag_system()
        jobs.append({"id": f"drag-{branch.lower()}", "job": "integrate",
                     "system": system,
                     "args": {**rest_near(system, branch, 1.5e-3),
                              "t_end": revs * TWO_PI, "sample_dt": 0.01},
                     "format": "csv", "config": True})
    free = {"mu": rng.uniform(0.008, 0.012), "q1": 1.0,
            "a2": rng.uniform(0.0, 2e-4), "w1": 0.0}
    jobs.append({"id": "dragfree-l4", "job": "integrate", "system": free,
                 "args": {**rest_near(free, "L4", 5e-3),
                          "t_end": revs * TWO_PI, "sample_dt": 0.01},
                 "format": "csv", "config": True})
    jobs.append({"id": "readme-drag", "job": "integrate",
                 "system": {"mu": 0.01, "q1": 0.9, "a2": 0.0, "w1": 1e-3},
                 "args": {"x": 0.45, "y": 0.8, "vx": 0.0, "vy": 1.3,
                          "t_end": 2.0, "sample_dt": 0.001},
                 "format": "csv", "config": True})
    system = drag_system()
    jobs.append({"id": "longrun-l4", "job": "integrate", "system": system,
                 "args": {**rest_near(system, "L4", 1.5e-3),
                          "t_end": 5.0 * revs * TWO_PI, "sample_dt": 0.5},
                 "format": "csv", "config": False})
    return jobs


def zvc_jobs(rng: random.Random, toy: bool) -> list[dict]:
    """Zero-velocity curves at 256^2, 512^2 (twice) and 1024^2 grid nodes.

    Levels run from just above C(L4) to just above C(L1); every window
    holds both primaries.
    """
    # (resolution, level as a fraction of the way from C(L4) to C(L1));
    # the share of the grid inside the curve sets the work, so the level
    # and the window vary with the seed only a little
    grids = ((32, 0.4), (48, 1.05)) if toy else \
        ((256, 0.05), (512, 0.4), (512, 0.75), (1024, 1.05))
    jobs = []
    for k, (res, fraction) in enumerate(grids):
        mu = rng.uniform(0.09, 0.11)
        q1 = rng.uniform(0.97, 0.99)
        a2 = rng.uniform(0.0, 1e-4)
        c_l4 = _two_u(mu, q1, a2, *_base_point(mu, q1, "L4"))
        c_l1 = _two_u(mu, q1, a2, _l1_abscissa(mu, q1, a2), 0.0)
        level = c_l4 + (fraction + rng.uniform(-0.02, 0.02)) * (c_l1 - c_l4)
        jobs.append({"id": f"zvc{k}-{res}", "job": "zvc",
                     "system": {"mu": mu, "q1": q1, "a2": a2, "w1": 0.0},
                     "args": {"level_c": level,
                              "xmin": -rng.uniform(1.45, 1.55),
                              "xmax": rng.uniform(1.45, 1.55),
                              "ymin": -rng.uniform(1.45, 1.55),
                              "ymax": rng.uniform(1.45, 1.55),
                              "resolution": res},
                     "format": "csv", "config": k % 2 == 0})
    return jobs


_JOB_LISTS = {"equilibria": equilibria_jobs, "orbits": orbits_jobs,
             "zvc": zvc_jobs}


def make_jobs(workload: str, seed: int, toy: bool = False) -> list[dict]:
    """The job list of one workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    return _JOB_LISTS[workload](rng, toy)


def output_path(job: dict, workdir: str) -> str:
    return os.path.join(workdir, f"{job['id']}.{job['format']}")


def meta_path(job: dict, workdir: str) -> str:
    return os.path.join(workdir, f"{job['id']}.meta.json")


def cli_args(job: dict, workdir: str) -> list[str]:
    """Arguments for ``prtbp.cli.main``; writes the job's config if any."""
    args = [job["job"]]
    if job["config"]:
        path = os.path.join(workdir, f"{job['id']}.config.json")
        document = {"system": job["system"],
                    "job": {"type": job["job"], **job["args"]}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
        args += ["--config", path]
    else:
        for section in ("system", "job"):
            fields = job["system"] if section == "system" else job["args"]
            for key, value in fields.items():
                args += [f"--{section}.{key}", _flag(value)]
    args += ["--output", output_path(job, workdir), "--format", job["format"]]
    return args


def _flag(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)
