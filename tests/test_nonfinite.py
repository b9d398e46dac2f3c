"""Non-finite input is rejected, and a constraint that evaluates to NaN is
never counted as satisfied."""

import io
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipcert import expr as ex
from sipcert.cli import EXIT_INFEASIBLE, EXIT_VALIDATION, main
from sipcert.cq import (NONFINITE_ACTIVE, NONFINITE_EQUALITY, NONFINITE_GENERATOR, Verdict,
                        check_emfcq, check_nfmcq, check_pmfcq, cq_summary)
from sipcert.model import (
    ConstraintFamily,
    CountableIndexSet,
    FiniteIndexSet,
    InstanceError,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    feasibility_check,
    load_instance,
    loads_instance,
    scan_constraints,
)
from sipcert.optimality import NONFINITE_COLUMN, normal_cone, verify_kkt

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])

# exp(1000 x1) overflows for x1 > 0.71, and inf - inf is NaN
NAN_FIXED = """[problem]
vars = x1 x2
minimize = x2
[constraints]
h = x2 - 10
g = exp(1000*x1) - exp(1000*x1) - 1
"""

NAN_FAMILY = """[problem]
vars = x1 x2
minimize = x2
[index t]
kind = finite
values = 0 0.25 1
[constraints]
g(t) = exp(1000*t*x1) - exp(1000*t*x1) - 1
"""


@st.composite
def points_with_a_non_finite_component(draw):
    x = [draw(finite), draw(finite)]
    x[draw(st.integers(0, 1))] = draw(non_finite)
    return x


@settings(max_examples=50, deadline=None)
@given(points_with_a_non_finite_component())
def test_non_finite_point_rejected(x):
    inst = load_instance(INSTANCES / "countable_cubic.sip")
    with pytest.raises(InstanceError):
        scan_constraints(inst, np.array(x))
    point = ",".join(repr(v) for v in x)
    with redirect_stderr(io.StringIO()) as err:
        code = main(["analyze", str(INSTANCES / "countable_cubic.sip"), f"--point={point}"])
    assert code == EXIT_VALIDATION
    assert "non-finite" in err.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.75, max_value=1e3), finite)
def test_nan_fixed_constraint_is_a_violation(x1, x2):
    inst = loads_instance(NAN_FIXED)
    with np.errstate(over="ignore", invalid="ignore"):
        feas = feasibility_check(inst, np.array([x1, x2]))
    assert not feas.feasible
    assert feas.max_violation == float("inf")
    assert feas.worst.label == "g"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=3.0, max_value=1e3), finite)
def test_nan_family_row_is_a_violation(x1, x2):
    # t = 0 evaluates to -1; t = 0.25 and t = 1 overflow to NaN
    inst = loads_instance(NAN_FAMILY)
    with np.errstate(over="ignore", invalid="ignore"):
        feas = feasibility_check(inst, np.array([x1, x2]))
    assert not feas.feasible
    assert feas.max_violation == float("inf")
    assert feas.worst.label == "g(0.25)"


def test_nan_constraint_point_exits_infeasible(tmp_path, capsys):
    path = tmp_path / "nan.sip"
    path.write_text(NAN_FIXED)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["analyze", str(path), "--point=1,0"])
    assert code == EXIT_INFEASIBLE
    assert "at g" in capsys.readouterr().err


def _instance(problem_extra: str = "", index: str = "", constraint: str = "g = -x1 - 1") -> str:
    return (
        "[problem]\nvars = x1 x2\nminimize = x1 + x2\n" + problem_extra
        + index + "[constraints]\n" + constraint + "\n"
    )


FAMILY = "g(t) = -x1 - 1 + 0*t"
BAD_NUMBERS = {
    "infinite box": (_instance("box = -inf inf ; -1 1\n"), 4),
    "nan in finite values": (_instance(index="[index t]\nkind = finite\nvalues = 0 nan 1\n",
                                       constraint=FAMILY), 6),
    "inf in finite values": (_instance(index="[index t]\nkind = finite\nvalues = 0 inf\n",
                                       constraint=FAMILY), 6),
    "infinite interval end": (_instance(index="[index t]\nkind = interval\na = -inf\n",
                                        constraint=FAMILY), 6),
    "limit ray of the wrong length": (
        _instance(index="[index t]\nkind = countable\nstart = 1\nlimit_ray = 0 -1 5\n",
                  constraint=FAMILY), 7),
    "zero limit ray": (
        _instance(index="[index t]\nkind = countable\nstart = 1\nlimit_ray = 0 0\n",
                  constraint=FAMILY), 7),
}


@pytest.mark.parametrize("text,line", BAD_NUMBERS.values(), ids=list(BAD_NUMBERS))
def test_bad_number_in_instance_rejected_with_its_line(text, line, tmp_path, capsys):
    with pytest.raises(InstanceError) as err:
        loads_instance(text)
    assert err.value.line == line
    path = tmp_path / "bad.sip"
    path.write_text(text)
    for argv in (["analyze", str(path), "--point=-1,-1"], ["solve", str(path)]):
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(f"(line {line})\n")


NAN = float("nan")
INF = float("inf")
BAD_DESCRIPTORS = {
    "zero limit ray": lambda: CountableIndexSet(start=1, limit_ray=(0.0, 0.0)),
    "nan in limit ray": lambda: CountableIndexSet(start=1, limit_ray=(NAN, 1.0)),
    "inf in limit ray": lambda: CountableIndexSet(start=1, limit_ray=(0.0, -INF)),
    "nan in finite values": lambda: FiniteIndexSet((NAN,)),
    "inf in finite values": lambda: FiniteIndexSet((0.0, INF)),
    "infinite interval end": lambda: IntervalGridIndexSet(-INF, 0.0),
    "nan interval end": lambda: IntervalGridIndexSet(0.0, NAN),
}


@pytest.mark.parametrize("make", BAD_DESCRIPTORS.values(), ids=list(BAD_DESCRIPTORS))
def test_bad_number_in_descriptor_rejected(make):
    with pytest.raises(InstanceError):
        make()


def _api_instance(**kw):
    fam = ConstraintFamily("g", "t", ex.parse("-x1 - 1 + 0*t"))
    kw.setdefault("families", ((fam, CountableIndexSet(start=1)),))
    return SipInstance(dim=2, cost=SmoothCost(ex.parse("x1 + x2")), **kw)


BAD_INSTANCES = {
    "infinite box": {"box": ((-INF, INF), (-1.0, 1.0))},
    "nan box": {"box": ((-1.0, 1.0), (NAN, 1.0))},
    "empty box range": {"box": ((1.0, 1.0), (-1.0, 1.0))},
    "limit ray of the wrong length": {"families": (
        (ConstraintFamily("g", "t", ex.parse("-x1 - 1 + 0*t")),
         CountableIndexSet(start=1, limit_ray=(0.0, -1.0, 5.0))),
    )},
}


@pytest.mark.parametrize("kw", BAD_INSTANCES.values(), ids=list(BAD_INSTANCES))
def test_bad_number_in_instance_object_rejected(kw):
    _api_instance()  # the same instance without the bad field is fine
    with pytest.raises(InstanceError):
        _api_instance(**kw)


BAD_SCHEDULES = {"empty": (), "nan": (NAN,), "inf": (0.1, INF), "negative": (-0.1,),
                 "zero": (0.1, 0.0), "non-numeric entry": (0.1, "0.01"),
                 # normal_cone(inst, x, "perturbed") puts a variant in the schedule's place
                 "variant name": "perturbed"}


@pytest.mark.parametrize("schedule", BAD_SCHEDULES.values(), ids=list(BAD_SCHEDULES))
def test_bad_eps_schedule_rejected_by_the_library(schedule):
    # the CLI's rule, with its message, also guards the library entry points
    inst = load_instance(INSTANCES / "countable_cubic.sip")
    x = np.array([-1.0, 0.0])
    cq = cq_summary(inst, x)
    message = "eps schedule must be finite positive numbers"
    with pytest.raises(InstanceError, match=message):
        check_pmfcq(inst, x, schedule)
    for variant in ("perturbed", "unperturbed", "normalized"):
        with pytest.raises(InstanceError, match=message):
            normal_cone(inst, x, schedule, variant, cq=cq)


def test_infinite_active_gradient_reads_unknown():
    # g1 is active at the origin with gradient (inf, -1): no LP may run over it
    inst = loads_instance("[problem]\nvars = x1 x2\nminimize = x1^2 + x2\n\n"
                          "[constraints]\ng1 = x1*1e308*1e308 - x2\n")
    x = np.zeros(2)
    assert not np.isfinite(scan_constraints(inst, x).grad).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [check(inst, x) for check in (check_emfcq, check_pmfcq, check_nfmcq)]
    for res in results:
        assert res.verdict == Verdict.UNKNOWN and res.reason == NONFINITE_ACTIVE


def test_infinite_equality_jacobian_entry_reads_unknown():
    # h's x1 partial is inf at the origin: no rank test may read that as rank deficiency
    inst = loads_instance("[problem]\nvars = x1 x2 x3\nminimize = x1^2 + x2^2 + x3^2\n\n"
                          "[constraints]\ng1 = x3 - 1\n\n[equalities]\nh = x1*1e308*1e308 + x2\n")
    x = np.zeros(3)
    assert inst.eq_jacobian(x).tolist() == [[np.inf, 1.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [check(inst, x) for check in (check_emfcq, check_pmfcq)]
    for res in results:
        assert res.verdict == Verdict.UNKNOWN and res.reason == NONFINITE_EQUALITY


def _infinite_gradient_instance(body: str):
    # at the origin x1*1e308*1e308 reads 0 and its x1 partial is inf
    return loads_instance("[problem]\nvars = x1 x2\nminimize = x1^2 + x2\n\n"
                          f"[constraints]\ng1 = {body}\n")


def test_inactive_infinite_gradient_leaves_no_lp_a_column():
    # g1 reads -1 at the origin, so only NFMCQ, whose cone takes every row, reads it
    inst = _infinite_gradient_instance("x1*1e308*1e308 - x2 - 1")
    x = np.zeros(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emfcq, pmfcq, nfmcq = (check(inst, x) for check in (check_emfcq, check_pmfcq, check_nfmcq))
    assert emfcq.verdict == Verdict.HOLDS and pmfcq.verdict == Verdict.HOLDS
    assert nfmcq.verdict == Verdict.UNKNOWN and nfmcq.reason == NONFINITE_GENERATOR


@pytest.mark.parametrize("variant", ["perturbed", "unperturbed", "normalized"])
def test_cone_with_an_infinite_column_answers_no_probe(variant):
    inst = _infinite_gradient_instance("x1*1e308*1e308 - x2")
    x = np.zeros(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = normal_cone(inst, x, variant=variant)
        answers = [rep.member(v) for v in ([0.0, -1.0], [1.0, 0.0], [0.0, 0.0])]
        kkt = verify_kkt(inst, x)
    assert answers == [False, False, False]
    assert f"{NONFINITE_COLUMN}; every probe reads as outside the cone" in rep.warnings
    assert kkt.outcome == "inconclusive" and kkt.notes == [NONFINITE_COLUMN]
