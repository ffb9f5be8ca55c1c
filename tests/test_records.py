"""The public records: equality, hash, repr, immutability and validation.

Each record compares and hashes as the tuple of its fields in order,
prints them as ``Name(field=value, ...)`` and refuses assignment and
deletion with ``AttributeError``. ``Trajectory`` compares by identity,
and ``ZeroVelocityCurve.work`` takes no part in equality or repr.
"""

from __future__ import annotations

import copy
import math
import pickle
from array import array

import pytest

from prtbp import (AccelVector, EquilibriumPoint, GrainProperties,
                   PerturbationTerms, PhaseState, SystemParams, Trajectory,
                   ZeroVelocityCurve)
from prtbp.cli import JobConfig

CLASSICAL_REPR = ("SystemParams(mu=0.1, q1=1.0, a2=0.0, cd=None, w1=0.0, "
                  "n=1.0, delta=1.0)")

# (record, the same built by position, one that differs, its repr)
RECORDS = [
    (SystemParams(mu=0.01, q1=0.98, a2=1e-4, cd=1e3),
     SystemParams(0.01, 0.98, 1e-4, 1e3),
     SystemParams(mu=0.01, q1=0.98, a2=1e-4, cd=2e3),
     "SystemParams(mu=0.01, q1=0.98, a2=0.0001, cd=1000.0, "
     "w1=1.980000000000002e-05, n=1.000074997187711, "
     "delta=0.9932883883792687)"),
    (GrainProperties(radius_a=1e-3, density_rho=2.0, efficiency_chi=1.0),
     GrainProperties(1e-3, 2.0, 1.0),
     GrainProperties(1e-3, 2.0, 0.5),
     "GrainProperties(radius_a=0.001, density_rho=2.0, "
     "efficiency_chi=1.0)"),
    (PhaseState(x=0.4, y=0.8, vx=0.0, vy=1.3),
     PhaseState(0.4, 0.8, 0.0, 1.3, 0.0),
     PhaseState(0.4, 0.8, 0.0, 1.3, 1.0),
     "PhaseState(x=0.4, y=0.8, vx=0.0, vy=1.3, t=0.0)"),
    (AccelVector(ax=1.5, ay=-2.0), AccelVector(1.5, -2.0),
     AccelVector(1.5, 2.0), "AccelVector(ax=1.5, ay=-2.0)"),
    (PerturbationTerms(eps1=1e-3, eps2=-2e-3, x0=0.4, y0=0.8),
     PerturbationTerms(1e-3, -2e-3, 0.4, 0.8),
     PerturbationTerms(1e-3, -2e-3, 0.4, -0.8),
     "PerturbationTerms(eps1=0.001, eps2=-0.002, x0=0.4, y0=0.8)"),
    (EquilibriumPoint(x=0.4, y=-0.8, label="L5", method="refined-numeric",
                      residual_norm=1e-13),
     EquilibriumPoint(0.4, -0.8, "L5", "refined-numeric", 1e-13),
     EquilibriumPoint(0.4, -0.8, "L5", "refined-numeric", 2e-13),
     "EquilibriumPoint(x=0.4, y=-0.8, label='L5', "
     "method='refined-numeric', residual_norm=1e-13)"),
    (ZeroVelocityCurve(level_c=3.0, segments=(((0.0, 1.0), (1.0, 0.5)),)),
     ZeroVelocityCurve(3.0, (((0.0, 1.0), (1.0, 0.5)),), {"vertices": 2}),
     ZeroVelocityCurve(3.0, ()),
     "ZeroVelocityCurve(level_c=3.0, segments=(((0.0, 1.0), (1.0, 0.5)),))"),
    (JobConfig(job="zvc", system=SystemParams(mu=0.1),
               args={"resolution": 16}, out_path=None, out_format="csv",
               precision=17),
     JobConfig("zvc", SystemParams(0.1), {"resolution": 16}, None, "csv", 17),
     JobConfig("zvc", SystemParams(0.1), {"resolution": 32}, None, "csv", 17),
     f"JobConfig(job='zvc', system={CLASSICAL_REPR}, "
     "args={'resolution': 16}, out_path=None, out_format='csv', "
     "precision=17)"),
]
IDS = [type(record).__name__ for record, _, _, _ in RECORDS]

# the fields that take part in equality, hash and repr, in order
FIELDS = {
    "SystemParams": ("mu", "q1", "a2", "cd", "w1", "n", "delta"),
    "GrainProperties": ("radius_a", "density_rho", "efficiency_chi"),
    "PhaseState": ("x", "y", "vx", "vy", "t"),
    "AccelVector": ("ax", "ay"),
    "PerturbationTerms": ("eps1", "eps2", "x0", "y0"),
    "EquilibriumPoint": ("x", "y", "label", "method", "residual_norm"),
    "ZeroVelocityCurve": ("level_c", "segments"),
    "JobConfig": ("job", "system", "args", "out_path", "out_format",
                  "precision"),
}


def _values(record) -> tuple:
    return tuple(getattr(record, name)
                 for name in FIELDS[type(record).__name__])


def _trajectory() -> Trajectory:
    return Trajectory(SystemParams(0.1), array("d", [0.0] * 6),
                      array("d", [0.0]), "completed", 2, 0, 0)


@pytest.mark.parametrize("record, positional, other, text", RECORDS,
                         ids=IDS)
def test_record_equality_and_repr(record, positional, other, text):
    assert record == positional and not record != positional
    assert record != other and not record == other
    assert record != _values(record)
    assert repr(record) == repr(positional) == text


@pytest.mark.parametrize("record", [r for r, _, _, _ in RECORDS[:-1]],
                         ids=IDS[:-1])
def test_record_hash_is_the_hash_of_its_fields(record):
    assert hash(record) == hash(_values(record))


def test_job_config_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(RECORDS[-1][0])


@pytest.mark.parametrize("record", [r for r, _, _, _ in RECORDS] +
                         [_trajectory()], ids=IDS + ["Trajectory"])
def test_record_refuses_assignment(record):
    name = FIELDS.get(type(record).__name__, ("params",))[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field "
                                             f"'{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field "
                                             f"'{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field "
                                             "'extra'"):
        record.extra = 1.0
    assert getattr(record, name) is value


def test_record_defaults():
    p = SystemParams(0.1)
    assert (p.q1, p.a2, p.cd, p.w1, p.n, p.delta) == (1.0, 0.0, None, 0.0,
                                                      1.0, 1.0)
    assert PhaseState(1.0, 2.0, 3.0, 4.0).t == 0.0
    traj = _trajectory()
    assert traj.message is None and traj.event_time is None
    a, b = ZeroVelocityCurve(3.0, ()), ZeroVelocityCurve(3.0, ())
    assert a.work == {} and a.work is not b.work


def test_derived_fields_are_not_arguments():
    with pytest.raises(TypeError, match="missing 1 required positional "
                                        "argument: 'mu'"):
        SystemParams()
    for name in ("n", "delta"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument "
                                            f"'{name}'"):
            SystemParams(0.1, **{name: 1.0})


def test_trajectory_compares_by_identity():
    a, b = _trajectory(), _trajectory()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert repr(a) == (
        f"Trajectory(params={CLASSICAL_REPR}, sample_values=array('d', "
        "[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), drift_values=array('d', [0.0]), "
        "termination='completed', rhs_calls=2, steps=0, rejected_steps=0, "
        "message=None, event_time=None)")


def test_zero_velocity_curve_work_takes_no_part():
    a = ZeroVelocityCurve(3.0, (), {"vertices": 0})
    b = ZeroVelocityCurve(3.0, (), {"vertices": 5})
    assert a == b and hash(a) == hash(b) == hash((3.0, ()))
    assert repr(a) == "ZeroVelocityCurve(level_c=3.0, segments=())"
    assert b.work == {"vertices": 5}


@pytest.mark.parametrize("build, message", [
    (lambda: SystemParams(0.1, cd=1.0, w1=1e-3), "specify cd or w1, not both"),
    (lambda: SystemParams(0.1, a2=math.nan), "parameter a2 must not be nan"),
    (lambda: SystemParams(0.1, w1=math.inf), "parameter w1 must not be inf"),
    (lambda: SystemParams(0.6), r"mass parameter must be in \(0, 1/2\], "
                                "got 0.6"),
    (lambda: SystemParams(0.1, q1=0.0), r"mass reduction factor must be in "
                                        r"\(0, 1\], got 0.0"),
    (lambda: SystemParams(0.1, a2=-1.0), "oblateness coefficient a2 must be "
                                         "finite and >= 0, got -1.0"),
    (lambda: SystemParams(0.1, q1=0.9, w1=-1e-3),
     "drag strength must be >= 0, got -0.001"),
    (lambda: SystemParams(0.1, q1=1.0, w1=1e-3),
     "q1 = 1 radiates no pressure and admits no drag; w1 must be 0, "
     "got 0.001"),
    (lambda: SystemParams(0.1, q1=0.9, cd=-1.0),
     "dimensionless light speed cd must be > 0, got -1.0"),
    (lambda: SystemParams(0.1, q1=0.9, cd=5e-324),
     "light speed cd=5e-324 gives w1 = inf"),
    (lambda: SystemParams(0.1, q1=1.0 - 1e-16, w1=1e308),
     r"drag strength w1=1e\+308 gives cd = 0"),
    (lambda: GrainProperties(0.0, 1.0, 1.0),
     "grain radius_a must be finite and > 0, got 0.0"),
    (lambda: GrainProperties(1.0, math.inf, 1.0),
     "grain density_rho must be finite and > 0, got inf"),
    (lambda: GrainProperties(1.0, 1.0, -0.1),
     "grain efficiency_chi must be finite and >= 0, got -0.1"),
    (lambda: EquilibriumPoint(0.4, 0.8, "L5", "refined-numeric", 0.0),
     "label L5 disagrees with the sign of y=0.8"),
    (lambda: EquilibriumPoint(0.4, 0.0, "L4", "refined-numeric", 0.0),
     "label L4 disagrees with the sign of y=0.0"),
    (lambda: EquilibriumPoint(0.4, 0.8, "L6", "refined-numeric", 0.0),
     "branch must be 'L4' or 'L5', got 'L6'"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("positional", [p for _, p, _, _ in RECORDS],
                         ids=IDS)
def test_record_copies_and_pickles(positional):
    for clone in (copy.copy(positional), copy.deepcopy(positional),
                  pickle.loads(pickle.dumps(positional))):
        assert clone == positional
        assert vars(clone) == vars(positional)
