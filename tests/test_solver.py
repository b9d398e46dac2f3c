import math
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.model import (
    ConstraintFamily,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    feasibility_check,
    load_instance,
    loads_instance,
)
from sipcert.optimality import verify_kkt
from sipcert.solver import SolverConfig, most_violated_index, solve

from test_model import countable_cubic, interval_ramp

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# exp(x1) overflows on the whole box, so the equality residual is NaN
# wherever the solver looks
NAN_EQUALITY = """[problem]
vars = x1 x2
minimize = x2
box = 800 900; -2 2

[constraints]
g = -x2 - 1

[equalities]
h = exp(x1)*0 + x2
"""


class TestMostViolated:
    def test_cubic_at_origin(self):
        idx, viol = most_violated_index(countable_cubic(), np.zeros(2))
        assert idx.label == "g1"
        assert viol == pytest.approx(1.0)

    def test_feasible_point_nonpositive(self):
        idx, viol = most_violated_index(countable_cubic(), np.array([-1.0, 0.0]))
        assert viol <= 0.0

    def test_tie_broken_by_lowest_index(self):
        # family value constant in t at this point
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("t*x1 - x2^3")),
                    IntervalGridIndexSet(0.0, 1.0, include_lower=False, resolution=33,
                                         refinements=1),
                ),
            ),
        )
        idx, viol = most_violated_index(inst, np.array([0.0, -1.0]))
        assert viol == pytest.approx(1.0)
        assert idx.family == "g"
        # lowest materialized t wins the tie
        assert idx.value <= 1.0 / 32 + 1e-12

    def test_block_order_breaks_cross_family_ties(self):
        inst = interval_ramp()
        idx, viol = most_violated_index(inst, np.array([0.0, -1.0]))
        assert viol == pytest.approx(1.0)
        assert idx.label == "g0"


class TestSolve:
    def test_convex_toy(self):
        inst = load_instance(INSTANCES / "convex_toy.sip")
        x, trace = solve(inst, SolverConfig(seed=1))
        assert trace.status == "converged"
        np.testing.assert_allclose(x, [-0.5, -0.5], atol=1e-6)
        report = verify_kkt(inst, x)
        assert report.outcome == "certificate"
        assert report.certificate.lam[0] == pytest.approx(1.0, abs=1e-6)

    def test_countable_cubic(self):
        inst = countable_cubic()
        x, trace = solve(inst, SolverConfig(seed=0))
        assert trace.status == "converged"
        np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-6)
        assert feasibility_check(inst, x).feasible

    def test_unconstrained_quadratic(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("(x1-0.3)^2 + (x2+0.7)^2")),
            box=((-2.0, 2.0), (-2.0, 2.0)),
        )
        x, trace = solve(inst, SolverConfig(seed=2))
        assert trace.status == "converged"
        np.testing.assert_allclose(x, [0.3, -0.7], atol=1e-8)

    def test_deterministic(self):
        inst = load_instance(INSTANCES / "convex_toy.sip")
        runs = [solve(inst, SolverConfig(seed=7)) for _ in range(2)]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert len(runs[0][1].records) == len(runs[1][1].records)
        for a, b in zip(runs[0][1].records, runs[1][1].records):
            np.testing.assert_array_equal(a.x, b.x)
            assert a.working == b.working

    def test_accepted_violations_nonincreasing(self):
        inst = countable_cubic()
        _, trace = solve(inst, SolverConfig(seed=3))
        accepted = [r.max_violation for r in trace.records if r.accepted]
        for a, b in zip(accepted, accepted[1:]):
            assert b <= a + 1e-15

    def test_iteration_limit_status(self):
        inst = countable_cubic()
        x, trace = solve(inst, SolverConfig(max_outer=1, multistart=2, penalty_stages=2,
                                            max_inner=10, polish=False, seed=0))
        assert trace.status in ("converged", "iteration_limit")
        # with a crippled budget on this instance the limit must be reported
        if trace.status == "converged":
            assert feasibility_check(inst, x).feasible

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_equality_residual_never_converges(self):
        inst = loads_instance(NAN_EQUALITY)
        x, trace = solve(inst, SolverConfig(multistart=2, max_outer=3, polish=False))
        assert trace.status == "iteration_limit"
        assert all(r.max_violation == math.inf for r in trace.records)
        assert not feasibility_check(inst, x).feasible

    def test_convex_grid_search_oracle(self):
        inst = load_instance(INSTANCES / "convex_toy.sip")
        x, trace = solve(inst, SolverConfig(seed=4))
        xs = np.linspace(-2.0, 2.0, 161)
        best = math.inf
        for x1 in xs:
            for x2 in xs:
                if x1 + x2 + 1.0 <= 0.0:
                    best = min(best, x1 * x1 + x2 * x2)
        assert inst.cost_value(x) <= best + 1e-4

    def test_ramp_instance_reports_honestly(self):
        # the family gradient vanishes like x2^2 near the minimizer, so the
        # penalty floor keeps the candidate ~1e-4 violated; the solver must
        # say so rather than claim convergence
        inst = interval_ramp()
        x, trace = solve(inst, SolverConfig(seed=5, max_outer=8, multistart=4))
        res = feasibility_check(inst, x)
        if trace.status == "converged":
            assert res.max_violation <= 1e-8
        else:
            assert trace.status == "iteration_limit"
            assert res.max_violation <= 1e-3
        np.testing.assert_allclose(x[0], -1.0, atol=1e-3)
