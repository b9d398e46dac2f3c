import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert import solver
from sipcert.cli import EXIT_VALIDATION, main
from sipcert.model import (
    ConstraintFamily,
    FiniteIndexSet,
    InstanceError,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    feasibility_check,
    scan_constraints,
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

# a max-type cost, an equality, a fixed constraint and an interval family, so
# every term of the penalty is exercised
MAX_COST = """[problem]
vars = x1 x2 x3
minimize_max = x1^2 + x2; x3 - x1; sin(x2)*x3
box = -2 2; -2 2; -2 2

[index t]
kind = interval
a = 0
b = 1
resolution = 17

[constraints]
f = x1 + x2 + x3 - 1
g(t) = t*x1 - x2^3 + x3*t^2

[equalities]
h = x1*x2 - 2*x3 + 0.1
"""

# exp(x1) overflows on the whole box, so g is NaN (0 * inf) wherever the
# solver looks, while f stays finite
NAN_CONSTRAINT = """[problem]
vars = x1 x2
minimize = x2
box = 800 900; -2 2

[constraints]
g = exp(x1)*0 + x2
f = -x2 - 1
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
        x, trace = solve(inst, SolverConfig(max_outer=1, multistart=2, seed=0))
        assert trace.status in ("converged", "iteration_limit")
        # with a crippled budget on this instance the limit must be reported
        if trace.status == "converged":
            assert feasibility_check(inst, x).feasible

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_equality_residual_never_converges(self):
        inst = loads_instance(NAN_EQUALITY)
        x, trace = solve(inst, SolverConfig(multistart=2, max_outer=3))
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


def two_families(second: str) -> str:
    """g(n) = -x1 - n over n in {1, 2} and <second>(t) = -x2 - t over t in {5}."""
    return f"""[problem]
vars = x1 x2
minimize = x1 + x2
box = -2 2 ; -2 2

[index n]
kind = finite
values = 1 2

[index t]
kind = finite
values = 5

[constraints]
g(n) = -x1 - n
{second}(t) = -x2 - t
"""


class TestConstraintNames:
    # with one name for both families the solver bound g(5) to -x1 - 5 and
    # ended at its iteration limit far outside the box
    def test_repeated_family_name_rejected(self):
        fams = (
            (ConstraintFamily("g", "n", ex.parse("-x1 - n")), FiniteIndexSet((1.0, 2.0))),
            (ConstraintFamily("g", "t", ex.parse("-x2 - t")), FiniteIndexSet((5.0,))),
        )
        with pytest.raises(InstanceError, match="constraint name 'g'"):
            SipInstance(dim=2, cost=SmoothCost(ex.parse("x1 + x2")), families=fams)
        with pytest.raises(InstanceError, match="constraint name 'g'"):
            loads_instance(two_families("g"))

    def test_fixed_and_family_name_clash_rejected(self):
        with pytest.raises(InstanceError, match="constraint name 'g'"):
            loads_instance(two_families("g").replace("g(n) = -x1 - n", "g = -x1 - 1"))

    def test_solve_cli_exits_validation(self, tmp_path, capsys):
        path = tmp_path / "dup.sip"
        path.write_text(two_families("g"))
        assert main(["solve", str(path), "--seed=0"]) == EXIT_VALIDATION
        assert "constraint name 'g'" in capsys.readouterr().err

    def test_distinct_names_solve(self):
        x, trace = solve(loads_instance(two_families("h")), SolverConfig(seed=0))
        assert trace.status == "converged"
        np.testing.assert_allclose(x, [-1.0, -5.0], atol=1e-6)


def _reference_penalty(inst, terms, x, rho):
    """Reference penalty from the public eval_value / eval_grad, term for term
    in the order the solver must keep: (value, value of the gradient pass,
    gradient). ``terms`` holds the (body, index bindings) of the working
    constraints."""
    val = inst.cost_value(x)
    for body, env in terms:
        v = float(ex.eval_value(body, x, env))
        if v > 0:
            val += rho * v * v
    for comp in inst.equalities.components:
        v = float(ex.eval_value(comp, x))
        val += rho * v * v
    gval = inst.cost_value(x)
    if isinstance(inst.cost, SmoothCost):
        grad = ex.eval_grad(inst.cost.body, x)[1].copy()
    else:
        vals = [float(ex.eval_value(p, x)) for p in inst.cost.pieces]
        grad = ex.eval_grad(inst.cost.pieces[int(np.argmax(vals))], x)[1].copy()
    for body, env in terms:
        v, g = ex.eval_grad(body, x, env)
        v, g = float(v), np.asarray(g, dtype=float)
        if v > 0:
            gval += rho * v * v
            grad += 2.0 * rho * v * g
    for comp in inst.equalities.components:
        v, g = ex.eval_grad(comp, x)
        gval += rho * float(v) ** 2
        grad += 2.0 * rho * float(v) * g
    return val, gval, grad


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


PENALTY_CASES = {
    **{name: lambda name=name: load_instance(INSTANCES / f"{name}.sip")
       for name in ("convex_toy", "countable_cubic", "interval_ramp", "parabola_band")},
    "max_cost": lambda: loads_instance(MAX_COST),
    "nan_constraint": lambda: loads_instance(NAN_CONSTRAINT),
}


def test_square_is_the_float_power_until_it_overflows():
    rng = np.random.default_rng(0)
    draws = rng.normal(size=50) * 10.0 ** rng.integers(-160, 150, 50)
    for v in [0.0, -3.0, 1.1e154, -1.34e154, *draws]:
        assert solver._square(float(v)) == float(v) ** 2
    assert solver._square(1.35e154) == solver._square(-1e200) == math.inf


@pytest.mark.parametrize("name", sorted(PENALTY_CASES))
def test_bound_penalty_is_bit_identical_to_eval_path(name):
    inst = PENALTY_CASES[name]()
    lo, hi = inst.box_bounds()
    scan = scan_constraints(inst, 0.5 * (lo + hi))
    rows = np.unique(np.linspace(0, len(scan.value) - 1, 7).astype(int))
    ids = [scan.index_id(int(r)) for r in rows]
    working = [solver._constraint_for(inst, idx) for idx in ids]
    terms = []
    for idx in ids:
        if idx.family is None:
            terms.append((inst.fixed[idx.block][1], None))
        else:
            fam = next(f for f, _ in inst.families if f.name == idx.family)
            terms.append((fam.body, {fam.index_name: idx.value}))
    prob = solver._Bound(inst)
    rng = np.random.default_rng(7)
    violated = 0
    for x in rng.uniform(lo, hi, size=(20, inst.dim)):
        for rho in (10.0, 2.5e4):
            with np.errstate(over="ignore", invalid="ignore"):  # as inside solve()
                val, gval, grad = _reference_penalty(inst, terms, x, rho)
                got_val = solver._penalty(prob, working, x.tolist(), rho, False)
                got_gval, got_grad = solver._penalty(prob, working, x.tolist(), rho, True)
            assert _bits(got_val) == _bits(val)
            assert _bits(got_gval) == _bits(gval)
            assert _bits(got_grad) == _bits(grad)
        with np.errstate(over="ignore", invalid="ignore"):
            values = [float(ex.eval_value(b, x, env)) for b, env in terms]
        violated += any(v > 0 for v in values)
    assert violated > 0
    if name == "nan_constraint":
        # g is NaN and never penalized (NaN > 0 is False); f = -x2 - 1 is
        # violated only for x2 < -1
        assert math.isnan(values[0])
        x = np.array([850.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            assert solver._penalty(prob, working, x.tolist(), 10.0, False) == 0.5
            assert solver._penalty(prob, working, x.tolist(), 10.0, True)[0] == 0.5


def test_penalty_gradient_pass_skips_satisfied_constraints():
    inst = interval_ramp()
    lo, hi = inst.box_bounds()
    scan = scan_constraints(inst, 0.5 * (lo + hi))
    rows = np.unique(np.linspace(0, len(scan.value) - 1, 7).astype(int))
    calls = []

    def counted(wc):
        def grad(xs):
            calls.append(wc.label)
            return wc.grad(xs)

        return dataclasses.replace(wc, grad=grad)

    working = [counted(solver._constraint_for(inst, scan.index_id(int(r)))) for r in rows]
    prob = solver._Bound(inst)
    # g0 = x1 + 1 and g(t) = t*x1 - x2^3 with t in (0, 1]: (-2, 1) satisfies
    # every working constraint, and (0, 1) violates g0 alone
    for xs, n_violated in (([-2.0, 1.0], 0), ([0.0, 1.0], 1)):
        violated = [wc.label for wc in working if wc.value(xs) > 0]
        assert len(violated) == n_violated
        calls.clear()
        solver._penalty(prob, working, xs, 10.0, True)
        assert calls == violated
