"""No job loads SciPy: it is a test-only reference.

Each case runs in a fresh interpreter, since this test process has
imported SciPy itself, and reports which SciPy modules it loaded.
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

REPORT = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

SYSTEM = ["--system.mu", "0.1", "--system.q1", "0.98", "--system.w1", "1e-4"]


def _scipy_modules(body: str, cwd: Path) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", REPORT.format(body=body)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _main(argv: list[str]) -> str:
    return f"import prtbp.cli\nassert prtbp.cli.main({argv!r}) == 0"


@pytest.mark.parametrize("body", [
    "import prtbp",
    "import prtbp.cli",
    _main(["equilibria", *SYSTEM, "--output", "points.csv"]),
    _main(["sweep", *SYSTEM, "--job.variable", "w1", "--job.start", "1e-4",
           "--job.stop", "1e-3", "--job.count", "3", "--output",
           "sweep.csv"]),
    _main(["zvc", *SYSTEM, "--job.level_c", "3.2", "--job.xmin", "-1.5",
           "--job.xmax", "1.5", "--job.ymin", "-1.5", "--job.ymax", "1.5",
           "--job.resolution", "32", "--output", "curve.csv"]),
    _main(["integrate", *SYSTEM, "--job.x", "0.4", "--job.y", "0.8",
           "--job.vx", "0.0", "--job.vy", "0.0", "--job.t_end", "0.5",
           "--job.sample_dt", "0.1", "--output", "orbit.csv"]),
], ids=["import-prtbp", "import-cli", "equilibria", "sweep", "zvc",
        "integrate"])
def test_job_loads_no_scipy(body, tmp_path):
    assert _scipy_modules(body, tmp_path) == []
