"""No job loads SciPy, only reading arrays loads NumPy, and each job
loads only its own modules of the package.

SciPy is a test-only reference. NumPy is loaded by reading a
trajectory's samples as an array; importing the package and running the
``equilibria``, ``sweep``, ``integrate`` and ``zvc`` jobs use Python
floats only. ``import prtbp`` loads no module of the package, and each
job loads the CLI's own modules and the one library module it runs;
none loads ``dataclasses``. Each case runs in a fresh interpreter, since
this test process has imported all of them itself, and reports what it
loaded.
"""

from __future__ import annotations

import importlib
import inspect
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
    "numpy": "numpy" in sys.modules,
    "prtbp": sorted(m for m in sys.modules
                    if m == "prtbp" or m.startswith("prtbp.")),
    "dataclasses": "dataclasses" in sys.modules}}))
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

CLI = ("prtbp", "prtbp.cli", "prtbp.errors", "prtbp.model")
LIBRARY = ("prtbp", "prtbp.errors", "prtbp.model")
STEPPER = ("prtbp.dynamics", "prtbp.dop853")

# (id, body, whether it loads NumPy, the modules of the package it loads)
CASES = [
    ("import-prtbp", "import prtbp", False, ("prtbp",)),
    ("import-cli", "import prtbp.cli", False, CLI),
    ("equilibria",
     _main(["equilibria", *SYSTEM, "--output", "points.csv"]), False,
     (*CLI, "prtbp.equilibria")),
    ("sweep", _main(SWEEP), False, (*CLI, "prtbp.equilibria")),
    ("sweep-linear", _main(SWEEP + ["--job.spacing", "linear"]), False,
     (*CLI, "prtbp.equilibria")),
    ("zvc", _main(["zvc", *SYSTEM, "--job.level_c", "3.2", "--job.xmin",
                   "-1.5", "--job.xmax", "1.5", "--job.ymin", "-1.5",
                   "--job.ymax", "1.5", "--job.resolution", "32",
                   "--output", "curve.csv"]), False, (*CLI, "prtbp.zvc")),
    ("integrate", _main(INTEGRATE), False, (*CLI, *STEPPER)),
    ("integrate-json", _main(INTEGRATE + ["--format", "json"]), False,
     (*CLI, *STEPPER)),
    ("trajectory-samples", TRAJECTORY + "\ntraj.samples", True,
     (*LIBRARY, *STEPPER)),
    ("trajectory-floats", TRAJECTORY + "\nprtbp.jacobi_audit(traj)", False,
     (*LIBRARY, *STEPPER)),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("body", [case[1] for case in CASES], ids=IDS)
def test_job_loads_no_scipy(body, tmp_path):
    assert _loaded(body, tmp_path)["scipy"] == []


@pytest.mark.parametrize("body, numpy", [case[1:3] for case in CASES],
                         ids=IDS)
def test_numpy_loads_only_for_arrays(body, numpy, tmp_path):
    assert _loaded(body, tmp_path)["numpy"] is numpy


@pytest.mark.parametrize("body, modules",
                         [(body, modules) for _, body, _, modules in CASES],
                         ids=IDS)
def test_each_job_loads_only_its_own_modules(body, modules, tmp_path):
    loaded = _loaded(body, tmp_path)
    assert loaded["prtbp"] == sorted(modules)
    assert loaded["dataclasses"] is False


def test_package_modules_resolve_after_a_bare_import(tmp_path):
    body = ("import prtbp, types\n"
            "for name in ('errors', 'model', 'equilibria', 'dynamics', "
            "'zvc', 'dop853'):\n"
            "    module = getattr(prtbp, name)\n"
            "    assert isinstance(module, types.ModuleType), name\n"
            "    assert module.__name__ == 'prtbp.' + name, name")
    assert _loaded(body, tmp_path)["prtbp"] == [
        "prtbp", "prtbp.dop853", "prtbp.dynamics", "prtbp.equilibria",
        "prtbp.errors", "prtbp.model", "prtbp.zvc"]


def test_readme_quick_start_runs_quietly_without_numpy(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    done = _run('import sys\nsys.modules["numpy"] = None\n' + block,
                tmp_path)
    assert done.stderr == ""


# each public name of the package under the module that defines it
HOMES = {
    "errors": ("ConfigError", "ConvergenceError", "DegenerateFormulaError",
               "SingularityError", "SingularJacobianError"),
    "model": ("COLLISION_GUARD", "ESCAPE_RADIUS", "AccelVector",
              "GrainProperties", "PhaseState", "SystemParams",
              "amended_potential", "conservative_gradient",
              "drag_acceleration", "drag_coefficient", "equations_of_motion",
              "jacobi_constant", "jacobi_drift_rate",
              "mass_reduction_from_grain", "mean_motion",
              "oblateness_from_radii"),
    "equilibria": ("BRANCHES", "EquilibriumPoint", "PerturbationTerms",
                   "SweepRow", "analytic_epsilons",
                   "analytic_triangular_point", "equilibrium_residual",
                   "follow_branch", "limiting_case_point",
                   "refine_equilibrium", "triangular_points"),
    "dynamics": ("Trajectory", "integrate", "jacobi_audit"),
    "zvc": ("ZeroVelocityCurve", "zero_velocity_curve"),
}

# the parameter names of each public callable, so that a new option shows
# up here; None for an exception that keeps its builtin base's constructor
PARAMETERS = {
    "AccelVector": ("ax", "ay"),
    "ConfigError": None,
    "ConvergenceError": ("message", "x", "y", "residual_norm",
                         "iterations"),
    "DegenerateFormulaError": None,
    "EquilibriumPoint": ("x", "y", "label", "method", "residual_norm"),
    "GrainProperties": ("radius_a", "density_rho", "efficiency_chi"),
    "PerturbationTerms": ("eps1", "eps2", "x0", "y0"),
    "PhaseState": ("x", "y", "vx", "vy", "t"),
    "SingularJacobianError": ("message", "x", "y", "residual_norm",
                              "iterations"),
    "SingularityError": None,
    "SweepRow": ("value", "x_analytic", "y_analytic", "x_refined",
                 "y_refined", "err_norm", "status"),
    "SystemParams": ("mu", "q1", "a2", "cd", "w1"),
    "Trajectory": ("params", "sample_values", "drift_values", "termination",
                   "rhs_calls", "steps", "rejected_steps", "message",
                   "event_time"),
    "ZeroVelocityCurve": ("level_c", "segments", "work"),
    "amended_potential": ("p", "x", "y"),
    "analytic_epsilons": ("p", "branch"),
    "analytic_triangular_point": ("p", "branch"),
    "conservative_gradient": ("p", "x", "y"),
    "drag_acceleration": ("p", "s"),
    "drag_coefficient": ("mu", "q1", "cd"),
    "equations_of_motion": ("p", "s"),
    "equilibrium_residual": ("p", "x", "y"),
    "follow_branch": ("base", "variable", "grid", "branch"),
    "integrate": ("p", "s0", "t_end", "sample_dt", "rtol", "atol",
                  "collision_guard", "escape_radius"),
    "jacobi_audit": ("traj",),
    "jacobi_constant": ("p", "s"),
    "jacobi_drift_rate": ("p", "s"),
    "limiting_case_point": ("p", "case", "branch"),
    "mass_reduction_from_grain": ("grain",),
    "mean_motion": ("a2",),
    "oblateness_from_radii": ("equatorial", "polar", "separation"),
    "refine_equilibrium": ("p", "guess"),
    "triangular_points": ("p",),
    "zero_velocity_curve": ("p", "level_c", "window", "resolution"),
}


def _parameters(obj):
    # inspect cannot read a builtin exception's constructor on every
    # Python version
    if isinstance(obj, type) and issubclass(obj, BaseException) \
            and not hasattr(obj.__init__, "__code__"):
        return None
    return tuple(inspect.signature(obj).parameters)


def test_public_callables_take_the_pinned_parameters():
    found = {name: _parameters(getattr(prtbp, name))
             for name in prtbp.__all__ if callable(getattr(prtbp, name))}
    assert found == PARAMETERS


def test_public_names_are_the_objects_of_their_modules():
    assert prtbp.__all__ == sorted(
        name for names in HOMES.values() for name in names)
    for module, names in HOMES.items():
        home = importlib.import_module(f"prtbp.{module}")
        for name in names:
            assert getattr(prtbp, name) is getattr(home, name), name


def test_dir_and_star_import_cover_every_public_name(tmp_path):
    body = ("import prtbp\n"
            "assert set(prtbp.__all__) <= set(dir(prtbp))\n"
            "names = {}\n"
            "exec('from prtbp import *', names)\n"
            "assert set(names) - {'__builtins__'} == set(prtbp.__all__)")
    _loaded(body, tmp_path)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="module 'prtbp' has no attribute 'no_such'"):
        prtbp.no_such
    assert not hasattr(prtbp, "dataclass")
