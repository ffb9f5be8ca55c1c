"""Benchmark of the prtbp command line, run from the root of a checkout.

    python3 bench/run.py --workload {equilibria,orbits,zvc} --seed N
                         --seconds S --trace {0,1} [--size {full,toy}]

The load is a closed loop with one client: one job at a time, each a
fresh interpreter running ``python -m prtbp.cli <job>`` with the package
on PYTHONPATH=src. The seed makes the job list (see workloads.py); the
CLI receives only the generated configs and flags. Rounds of one
``import prtbp.cli`` set-up probe and the job list run until the next
process would end after ``--seconds``; the first round always runs
whole, and later rounds run the longest jobs first. Every job's output
is checked (see checks.py) and the first job is run once more at the
end: its output must be byte-identical.

A host probe (HOST_PROBE: NumPy and SciPy imports and a fixed scalar
loop in a fresh interpreter, without the program) runs before every
set-up probe and job. Other tenants of a shared host change its speed
by a third and more for tens of seconds, so every wall time below is
scaled by HOST_REF_S over the run's median host probe, and every CPU
time by HOST_REF_S over the probe's median CPU time: they are seconds
on a host where the probe takes HOST_REF_S. The raw times are printed and
kept in the run record.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s       median of the set-up probes
  batch_s       sum over the jobs of each job's median wall time
  batch_cpu_s   sum over the jobs of each job's median user+sys CPU time
  job_p50_s     median wall time of all jobs run, each job weighing the
                same
  peak_rss_mib  largest max-RSS of any job process
fail_frac (failed / attempted) is printed with them; the result line
carries it as ``failed`` and ``attempted``.

--trace 1 instead runs the job list in-process under tracer.py,
alternating traced and plain processes, and reports the per-layer
metrics: medians of seconds over the traced processes, and counts that
must repeat exactly in every traced process.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Work files and a run record go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

from workloads import WORKLOADS, cli_args, make_jobs, meta_path, output_path

# the host probe: a fresh interpreter that imports what the jobs import
# and runs a fixed scalar loop, with none of the program in it
HOST_PROBE = """\
import math
import numpy, scipy.integrate, scipy.optimize
s = 0.0
for i in range(500000):
    x = i * 1e-6
    s += 1.0 / math.sqrt(x * x + 1.0) + x * x
"""
HOST_REF_S = 1.2
PROCESS_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_", "NUMEXPR_",
               "VECLIB_MAXIMUM_THREADS", "PYTHON_CPU_COUNT")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Proc:
    """Exit code and resource use of one finished child process."""

    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def run_process(argv: list[str], env: dict, stdout_path: str,
                stderr_path: str) -> Proc:
    """Run one child to completion; kill it after PROCESS_TIMEOUT_S."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Run:
    """Shared state of one benchmark run: jobs, failures, checks."""

    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.jobs = make_jobs(args.workload, args.seed, args.size == "toy")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[str] = []
        self.audits: dict = {}
        sys.path.insert(0, os.path.abspath("src"))  # for the output checks

    def settle(self, job: dict, rc: int, stdout: str, stderr: str,
               workdir: str) -> bool:
        """Count one attempted job and check its exit code and output."""
        import checks
        self.attempted += 1
        if rc != 0:
            error = f"exit {rc}: {stderr.strip()[-300:]}"
        else:
            error = checks.check_job(job, workdir, stdout)
        if error is not None:
            self.failures.append(f"{job['id']}: {error}")
            return False
        if job["job"] == "integrate":
            self.audits[job["id"]] = checks.jacobi_audit_value(job, workdir)
        return True

    def deadline_passed(self, started: float, last: float) -> bool:
        return time.perf_counter() - started + last > self.args.seconds


def setup_probe(run: Run) -> float:
    """Wall time of one fresh interpreter running ``import prtbp.cli``."""
    return _probe(run, [sys.executable, "-c", "import prtbp.cli"], run.env,
                  "setup").wall_s


def host_probe(run: Run) -> Proc:
    """One HOST_PROBE, without the program on its path: the host's speed,
    not the program's."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return _probe(run, [sys.executable, "-c", HOST_PROBE], env, "host")


def _probe(run: Run, argv: list[str], env: dict, name: str) -> Proc:
    log = os.path.join(run.workdir, name)
    proc = run_process(argv, env, log + ".out", log + ".err")
    if proc.rc != 0:
        sys.exit(f"{name} probe failed: exit {proc.rc}: "
                 f"{_read(log + '.err').strip()[-500:]}")
    return proc


def run_job(run: Run, job: dict, workdir: str) -> tuple[Proc, bool]:
    """Run one CLI job in a fresh interpreter, then settle it."""
    argv = [sys.executable, "-m", "prtbp.cli", *cli_args(job, workdir)]
    base = os.path.join(workdir, job["id"])
    proc = run_process(argv, run.env, base + ".stdout", base + ".stderr")
    ok = run.settle(job, proc.rc, _read(base + ".stdout"),
                    _read(base + ".stderr"), workdir)
    return proc, ok


def measure_end_to_end(run: Run) -> dict:
    """Rounds of a set-up probe and the job list, each process after a
    host probe, until the deadline; times scaled as the module says."""
    setup_probe(run)  # warm-up: may compile bytecode
    host_probe(run)
    host, setup = [], []
    procs: dict[str, list[Proc]] = {job["id"]: [] for job in run.jobs}
    rounds, peak = 0, 0.0
    started = time.perf_counter()
    order = run.jobs
    while True:
        for job in [None, *order]:
            if rounds:
                last = setup[-1] if job is None \
                    else procs[job["id"]][-1].wall_s
                if run.deadline_passed(started, host[-1].wall_s + last):
                    break
            host.append(host_probe(run))
            if job is None:
                setup.append(setup_probe(run))
                continue
            proc = run_job(run, job, run.workdir)[0]
            procs[job["id"]].append(proc)
            peak = max(peak, proc.maxrss_mib)
        else:
            rounds += 1
            # longest first: when the deadline cuts a round short, the
            # jobs that weigh most in a job list have run once more
            order = sorted(run.jobs,
                           key=lambda j: -procs[j["id"]][-1].wall_s)
            continue
        break

    rerun_identical(run)
    # CPU time misses the time the hypervisor takes away, wall time does
    # not, so each is scaled by the host probe's own
    scale = HOST_REF_S / statistics.median(p.wall_s for p in host)
    cpu_scale = HOST_REF_S / statistics.median(p.cpu_s for p in host)
    wall = [scale * statistics.median(p.wall_s for p in runs)
            for runs in procs.values()]
    cpu = [cpu_scale * statistics.median(p.cpu_s for p in runs)
           for runs in procs.values()]
    return {"setup_s": scale * statistics.median(setup),
            "batch_s": sum(wall),
            "batch_cpu_s": sum(cpu),
            "job_p50_s": scale * job_median(
                [[p.wall_s for p in runs] for runs in procs.values()]),
            "peak_rss_mib": peak,
            "_details": {"rounds": rounds,
                         "jobs": sum(len(r) for r in procs.values()),
                         "host_probes": len(host),
                         "host_scale": scale, "host_cpu_scale": cpu_scale,
                         "host_probe_s": [p.wall_s for p in host],
                         "host_probe_cpu_s": [p.cpu_s for p in host],
                         "setup_s": setup,
                         "job_walls_s": {job_id: [p.wall_s for p in runs]
                                         for job_id, runs in procs.items()},
                         "job_cpu_s": {job_id: [p.cpu_s for p in runs]
                                       for job_id, runs in procs.items()}}}


def job_median(groups: list[list[float]]) -> float:
    """Median wall time of a job over all jobs run, each job weighing
    the same however often it ran."""
    points = sorted((t, 1.0 / len(g)) for g in groups for t in g)
    half, below = len(groups) / 2.0, 0.0
    for i, (t, weight) in enumerate(points):
        below += weight
        if below > half + 1e-9:
            return t
        if below > half - 1e-9:
            return (t + points[i + 1][0]) / 2.0
    raise ValueError("no job ran")


def rerun_identical(run: Run) -> None:
    """Run the first job again; its output files must not change."""
    job = run.jobs[0]
    rerun_dir = os.path.join(run.workdir, "rerun")
    os.makedirs(rerun_dir)
    if not run_job(run, job, rerun_dir)[1]:
        return
    for path in (output_path, meta_path):
        first, again = path(job, run.workdir), path(job, rerun_dir)
        if _bytes(first) != _bytes(again):
            run.failures.append(f"{job['id']}: rerun output "
                                f"{os.path.basename(again)} differs")
            return


def _bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def measure_layers(run: Run) -> dict:
    """Alternate traced and plain tracer processes until the deadline."""
    tracer = os.path.join(BENCH_DIR, "tracer.py")
    traced, plain = [], []
    started = time.perf_counter()
    while True:
        mode = "plain" if len(traced) > len(plain) else "traced"
        workdir = os.path.join(run.workdir, f"{mode}{len(traced)}")
        os.makedirs(workdir)
        spec = os.path.join(workdir, "spec.json")
        result = os.path.join(workdir, "result.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "jobs": [
                {"id": job["id"], "argv": cli_args(job, workdir),
                 "outputs": [output_path(job, workdir),
                             meta_path(job, workdir)]}
                for job in run.jobs]}, fh)
        proc = run_process([sys.executable, tracer, spec, result], run.env,
                           os.path.join(workdir, "tracer.out"),
                           os.path.join(workdir, "tracer.err"))
        if proc.rc != 0:
            sys.exit(f"tracer exited {proc.rc}: "
                     f"{_read(os.path.join(workdir, 'tracer.err'))[-500:]}")
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
        for job, outcome in zip(run.jobs, record["jobs"]):
            run.settle(job, outcome["rc"], outcome["stdout"],
                       outcome["stderr"], workdir)
        (traced if mode == "traced" else plain).append(record)
        if plain and run.deadline_passed(started, proc.wall_s):
            break

    metrics, first = {}, traced[0]["metrics"]
    for name, value in first.items():
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = statistics.median(r["metrics"][name]
                                              for r in traced)
        else:
            metrics[name] = value
            if any(r["metrics"][name] != value for r in traced[1:]):
                run.failures.append(f"trace: count {name} differs between "
                                    "traced processes of one seed")
    untraced = statistics.median(r["main_s"] for r in plain)
    metrics["cli.main_untraced_s"] = untraced
    metrics["trace.overhead_frac"] = metrics["cli.main_s"] / untraced - 1.0
    metrics["_details"] = {"traced": len(traced), "plain": len(plain),
                           "not_observed": traced[0]["not_observed"]}
    return metrics


def environment(args) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join("src", "prtbp"))):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join("src", "prtbp", name), "rb") as fh:
                digest.update(fh.read())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "commit": _commit(), "source_sha256": digest.hexdigest(),
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith(THREAD_VARS)}}


def _commit() -> str | None:
    # the checkout the benchmark runs in need not be a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath("."):
        return None
    return lines[1]


def _cpu_jiffies() -> list[int] | None:
    # the machine-wide "cpu" line of /proc/stat; steal is its 8th field
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor took from this machine's CPUs
    while the run measured; high values explain noisy timings."""
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: a few tiny jobs, for the smoke test")
    args = parser.parse_args(argv)

    for needed in ("BENCHMARK.json", os.path.join("src", "prtbp", "cli.py")):
        if not os.path.isfile(needed):
            print(f"bench: {needed} not found; run from the root of a prtbp "
                  "checkout", file=sys.stderr)
            return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workdir = os.path.join(".bench_out",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment(args)
    print("environment " + json.dumps(env))

    run = Run(args, workdir)
    cpu_before = _cpu_jiffies()
    measured = (measure_layers if args.trace else measure_end_to_end)(run)
    env["steal_frac"] = _steal_frac(cpu_before, _cpu_jiffies())
    details = measured.pop("_details")
    failed = len(run.failures)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}

    for message in run.failures:
        print(f"FAILED {message}")
    for name in details.get("not_observed", ()):
        print(f"not observed: {name} (its metrics read 0)")
    for job_id, walls in details.get("job_walls_s", {}).items():
        print(f"job {job_id} wall s " + " ".join(f"{w:.4f}" for w in walls)
              + " cpu s " + " ".join(f"{c:.4f}"
                                     for c in details["job_cpu_s"][job_id]))
    for job_id, audit in sorted(run.audits.items()):
        print(f"jacobi_audit {job_id} {audit!r}")
    print(f"{args.workload} seed {args.seed}: {len(run.jobs)} jobs per list, "
          + ", ".join(f"{k} {v}" for k, v in details.items()
                      if isinstance(v, int))
          + f", steal_frac {env['steal_frac']}")
    if "host_scale" in details:
        print(f"host probe s {statistics.median(details['host_probe_s']):.4f}"
              f" (median of {len(details['host_probe_s'])}); wall times "
              f"below are scaled by {details['host_scale']:.4f}, CPU times "
              f"by {details['host_cpu_scale']:.4f}")
    for name, m in metrics.items():
        value = m["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:34s} {shown} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_frac':34s} {failed / run.attempted:.6g} "
              f"({failed}/{run.attempted} jobs)")

    with open(os.path.join(workdir, "record.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "details": details, "metrics": metrics,
                   "attempted": run.attempted, "failures": run.failures,
                   "jacobi_audit": run.audits, "jobs": run.jobs}, fh,
                  indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
