"""No job loads SciPy, and only reading arrays loads NumPy.

SciPy is a test-only reference. NumPy is loaded by reading a
trajectory's samples as an array; importing the package and running the
``equilibria``, ``sweep``, ``integrate`` and ``zvc`` jobs use Python
floats only. Each case runs in a fresh interpreter, since this test
process has imported both itself, and reports which of them it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prtbp

SRC = str(Path(prtbp.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"

REPORT = """
import json, sys
{body}
print(json.dumps({{
    "scipy": sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
    "numpy": "numpy" in sys.modules}}))
"""

SYSTEM = ["--system.mu", "0.1", "--system.q1", "0.98", "--system.w1", "1e-4"]


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _loaded(body: str, cwd: Path) -> dict:
    done = _run(REPORT.format(body=body), cwd)
    return json.loads(done.stdout.splitlines()[-1])


def _main(argv: list[str]) -> str:
    return f"import prtbp.cli\nassert prtbp.cli.main({argv!r}) == 0"


SWEEP = ["sweep", *SYSTEM, "--job.variable", "w1", "--job.start", "1e-4",
         "--job.stop", "1e-3", "--job.count", "3", "--output", "sweep.csv"]

INTEGRATE = ["integrate", *SYSTEM, "--job.x", "0.4", "--job.y", "0.8",
             "--job.vx", "0.0", "--job.vy", "0.0", "--job.t_end", "0.5",
             "--job.sample_dt", "0.1", "--output", "orbit.csv"]

TRAJECTORY = """import prtbp
traj = prtbp.integrate(prtbp.SystemParams(mu=0.1, q1=0.98, w1=1e-4),
                       prtbp.PhaseState(0.4, 0.8, 0.0, 0.0), 0.5, 0.1)"""

# (id, body, whether it loads NumPy)
CASES = [
    ("import-prtbp", "import prtbp", False),
    ("import-cli", "import prtbp.cli", False),
    ("equilibria",
     _main(["equilibria", *SYSTEM, "--output", "points.csv"]), False),
    ("sweep", _main(SWEEP), False),
    ("sweep-linear", _main(SWEEP + ["--job.spacing", "linear"]), False),
    ("zvc", _main(["zvc", *SYSTEM, "--job.level_c", "3.2", "--job.xmin",
                   "-1.5", "--job.xmax", "1.5", "--job.ymin", "-1.5",
                   "--job.ymax", "1.5", "--job.resolution", "32",
                   "--output", "curve.csv"]), False),
    ("integrate", _main(INTEGRATE), False),
    ("integrate-json", _main(INTEGRATE + ["--format", "json"]), False),
    ("trajectory-samples", TRAJECTORY + "\ntraj.samples", True),
    ("trajectory-floats", TRAJECTORY + "\nprtbp.jacobi_audit(traj)", False),
]
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("body", [body for _, body, _ in CASES], ids=IDS)
def test_job_loads_no_scipy(body, tmp_path):
    assert _loaded(body, tmp_path)["scipy"] == []


@pytest.mark.parametrize("body, numpy", [case[1:] for case in CASES],
                         ids=IDS)
def test_numpy_loads_only_for_arrays(body, numpy, tmp_path):
    assert _loaded(body, tmp_path)["numpy"] is numpy


def test_readme_quick_start_runs_quietly_without_numpy(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    done = _run('import sys\nsys.modules["numpy"] = None\n' + block,
                tmp_path)
    assert done.stderr == ""
