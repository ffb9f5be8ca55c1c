"""Every output byte of a fixed list of CLI jobs, pinned by its SHA-256.

Each job runs in process through ``cli.main`` in an empty directory, with
relative output paths, so no message names a machine's path. Its files
(tables, ``.meta.json``), stdout, stderr and exit code are hashed and
compared with ``tests/golden.json``. A change that alters output on
purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names each changed entry and its cause in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden.json")

CFG_ORBIT = {"system": {"mu": 0.01, "q1": 0.9, "w1": 1e-3},
             "job": {"type": "integrate", "x": 0.45, "y": 0.8, "vx": 0.0,
                     "vy": 1.3, "t_end": 2.0, "sample_dt": 0.01}}
CFG_Q1 = {"system": {"mu": 0.03, "q1": 0.95, "a2": 2e-4, "cd": 2000.0},
          "job": {"type": "sweep", "variable": "q1", "start": 0.9,
                  "stop": 1.05, "count": 40, "spacing": "linear"}}
FOLD_W1 = ["--system.mu", "0.01", "--system.q1", "0.98", "--system.w1",
           "0", "--job.variable", "w1"]
A2_FAR = ["--system.mu", "0.1", "--system.q1", "0.98", "--system.w1", "0",
          "--job.variable", "a2", "--job.start", "1e-3", "--job.stop",
          "1e6", "--job.count", "30"]

# (id, argv, config written to job.json or None); each output path is
# named after the id, and an --output of None leaves the table on stdout
JOBS = [
    # the README point job, in both formats, and to stdout
    ("points", ["equilibria", "--system.mu", "0.01", "--system.q1", "0.995",
                "--system.a2", "1e-4", "--system.cd", "1e3"], None),
    ("points-json", ["equilibria", "--system.mu", "0.01", "--system.q1",
                     "0.995", "--system.a2", "1e-4", "--system.cd", "1e3",
                     "--format", "json"], None),
    ("points-stdout", ["equilibria", "--system.mu", "0.3",
                       "--system.w1", "0", "--output.precision", "6",
                       "--output", None], None),
    # just below the w1 fold of L4, and past it, where L4 has no refined
    # point
    ("points-edge", ["equilibria", "--system.mu", "0.01", "--system.q1",
                     "0.98", "--system.w1", "7.1e-3"], None),
    ("points-past-fold", ["equilibria", "--system.mu", "0.01",
                          "--system.q1", "0.9", "--system.w1", "0.075"],
     None),
    # x0 = 0 and a subnormal mu: the first-order rows are left out
    ("points-degenerate", ["equilibria", "--system.mu",
                           "0.3149802624737183", "--system.q1", "0.5",
                           "--system.w1", "0"], None),
    ("points-subnormal", ["equilibria", "--system.mu", "5e-324",
                          "--system.q1", "0.9", "--system.w1", "1e-3"],
     None),
    ("points-grain", ["equilibria", "--system.mu", "0.01", "--system.w1",
                      "0", "--system.grain.radius_a", "1",
                      "--system.grain.density_rho", "1",
                      "--system.grain.efficiency_chi", "1"], None),
    # ok then no-equilibrium past the fold, ascending and descending
    ("sweep-fold", ["sweep", *FOLD_W1, "--job.start", "1e-4",
                    "--job.stop", "2e-2", "--job.count", "60"], None),
    ("sweep-fold-down", ["sweep", *FOLD_W1, "--job.start", "2e-2",
                         "--job.stop", "1e-4", "--job.count", "12",
                         "--format", "json"], None),
    # the mu branch appears at a fold before the first refined row
    ("sweep-mu", ["sweep", "--system.mu", "0.01", "--system.q1", "0.98",
                  "--system.cd", "10", "--job.variable", "mu",
                  "--job.start", "1e-3", "--job.stop", "0.5",
                  "--job.count", "40"], None),
    ("sweep-a2-l5", ["sweep", "--system.mu", "0.03", "--system.q1", "0.98",
                     "--system.cd", "2000", "--job.variable", "a2",
                     "--job.start", "1e-5", "--job.stop", "1e-2",
                     "--job.count", "40", "--job.branch", "L5"], None),
    # rows past q1 = 1 read invalid-params; the table goes to stdout
    ("sweep-q1", ["sweep", "--config", "job.json", "--format", "json",
                  "--output", None], CFG_Q1),
    # the last row sits at x0 = 0: degenerate-analytic
    ("sweep-degenerate", ["sweep", "--system.mu", "0.3149802624737183",
                          "--system.q1", "0.5", "--system.w1", "0",
                          "--job.variable", "mu", "--job.start", "0.3",
                          "--job.stop", "0.3149802624737183",
                          "--job.count", "3", "--job.spacing", "linear"],
     None),
    # a2 up to 1e6, L4 in CSV and L5 in JSON: past a2 ~ 5.3 the first-order
    # point is off its branch's side (degenerate-analytic), and from a2 ~
    # 386 Newton ends off it or fails (refine-failed)
    ("sweep-a2-far", ["sweep", *A2_FAR], None),
    ("sweep-a2-far-l5", ["sweep", *A2_FAR, "--job.branch", "L5",
                         "--format", "json"], None),
    # the README drag orbit, in both formats, and a drag-free one
    ("orbit", ["integrate", "--config", "job.json"], CFG_ORBIT),
    ("orbit-json", ["integrate", "--config", "job.json", "--format",
                    "json"], CFG_ORBIT),
    ("orbit-free", ["integrate", "--system.mu", "0.01", "--system.w1", "0",
                    "--job.x", "0.49", "--job.y", "0.86", "--job.vx", "0",
                    "--job.vy", "0", "--job.t_end", "6.283185307179586",
                    "--job.sample_dt", "0.05"], None),
    ("orbit-collision", ["integrate", "--system.mu", "0.01", "--system.w1",
                         "0", "--job.x", "0.995", "--job.y", "0",
                         "--job.vx", "0", "--job.vy", "0", "--job.t_end",
                         "1", "--job.sample_dt", "0.002"], None),
    ("orbit-escape", ["integrate", "--system.mu", "0.01", "--system.w1",
                      "0", "--job.x", "0.5", "--job.y", "0", "--job.vx",
                      "3", "--job.vy", "0", "--job.t_end", "5",
                      "--job.sample_dt", "0.05", "--job.escape_radius",
                      "3"], None),
    # exit 3: a start on the radiating primary; exit 2: no output path
    ("orbit-singular", ["integrate", "--system.mu", "0.01", "--system.w1",
                        "0", "--job.x", "-0.01", "--job.y", "0",
                        "--job.vx", "0", "--job.vy", "0", "--job.t_end",
                        "1", "--job.sample_dt", "0.1"], None),
    ("orbit-no-output", ["integrate", "--config", "job.json", "--output",
                         None], CFG_ORBIT),
    # 1e-90 from the radiating primary the squared error terms overflow;
    # the steps fall toward it until they are below 10 ulp of t, short of
    # a 1e-300 guard: step-failure
    ("orbit-near-primary", ["integrate", "--system.mu", "0.01",
                            "--system.w1", "0", "--job.x", "-0.01",
                            "--job.y", "1e-90", "--job.vx", "0", "--job.vy",
                            "0", "--job.t_end", "1", "--job.sample_dt",
                            "0.1", "--job.collision_guard", "1e-300"], None),
    ("zvc", ["zvc", "--system.mu", "0.1", "--system.w1", "0",
             "--job.level_c", "3.5", "--job.xmin=-1.5", "--job.xmax", "1.5",
             "--job.ymin=-1.5", "--job.ymax", "1.5", "--job.resolution",
             "128"], None),
    ("zvc-json", ["zvc", "--system.mu", "0.01", "--system.q1", "0.98",
                  "--system.a2", "1e-3", "--system.cd", "1e3",
                  "--job.level_c", "3.1", "--job.xmin=-1.5", "--job.xmax",
                  "1.5", "--job.ymin=-1.5", "--job.ymax", "1.5",
                  "--job.resolution", "96", "--format", "json"], None),
    # exit 4: at this oblateness Newton from the first-order L4 point
    # does not converge within its 50 iterations
    ("points-no-convergence", ["equilibria", "--system.mu", "0.026",
                               "--system.q1", "0.928", "--system.a2",
                               "1.28", "--system.w1", "0"], None),
    # exit 2: a grid the sweep cannot take
    ("sweep-bad-variable", ["sweep", *FOLD_W1[:6], "--job.variable", "cd",
                            "--job.start", "1", "--job.stop", "2",
                            "--job.count", "3"], None),
    # exit 2: a light speed whose w1 overflows, and a w1 whose light speed
    # underflows to 0; the message names the field given
    ("points-cd-subnormal", ["equilibria", "--system.mu", "0.1",
                             "--system.q1", "0.9", "--system.cd", "5e-324"],
     None),
    ("points-w1-huge", ["equilibria", "--system.mu", "0.1", "--system.q1",
                        "0.9999999999999999", "--system.w1", "1e308"], None),
]


def _digest(data: bytes) -> list:
    return [hashlib.sha256(data).hexdigest(), len(data)]


def run_job(argv: list, config: dict | None, name: str) -> dict:
    """Run one job in the current directory, and leave it empty; the
    SHA-256 and size of each of the job's outputs, and its exit code."""
    from prtbp.cli import main

    argv = list(argv)
    if config is not None:
        Path("job.json").write_text(json.dumps(config), encoding="utf-8")
    if "--output" in argv:
        argv = argv[:argv.index("--output")]
    else:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv \
            else "csv"
        argv += ["--output", f"{name}.{fmt}"]
    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = {"exit": code, "stdout": _digest(out.getvalue().encode()),
              "stderr": _digest(err.getvalue().encode())}
    for path in sorted(set(os.listdir(".")) - before):
        record[path] = _digest(Path(path).read_bytes())
        os.remove(path)
    if config is not None:
        os.remove("job.json")
    return record


def run_all() -> dict:
    """Every job's record, the jobs run in turn in one empty directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return {name: run_job(argv, config, name)
                    for name, argv, config in JOBS}
        finally:
            os.chdir(cwd)


def test_outputs_match_the_manifest():
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    records = run_all()
    assert list(records) == list(golden)
    changed = {name: sorted(key for key in {*record, *golden[name]}
                            if record.get(key) != golden[name].get(key))
               for name, record in records.items()}
    assert not any(changed.values()), {k: v for k, v in changed.items() if v}


def test_the_job_list_covers_every_outcome():
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert {record["exit"] for record in golden.values()} == {0, 2, 3, 4}
    assert len({name for name, _, _ in JOBS}) == len(JOBS)
    jobs = {argv[0] for _, argv, _ in JOBS}
    assert jobs == {"equilibria", "integrate", "zvc", "sweep"}


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(run_all(), indent=1) + "\n",
                        encoding="utf-8")
