"""Non-finite input is rejected, and a constraint that evaluates to NaN is
never counted as satisfied."""

import io
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipcert.cli import EXIT_INFEASIBLE, EXIT_VALIDATION, main
from sipcert.model import (
    InstanceError,
    feasibility_check,
    load_instance,
    loads_instance,
    scan_constraints,
)

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
