import gc
import io
import math
import re
import tokenize
import weakref
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert import solver
from sipcert.cli import EXIT_VALIDATION, main
from sipcert.model import (
    ConstraintFamily,
    FiniteIndexSet,
    IndexId,
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

from oracles import penalty_descent_reference
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


def finite_family(body: str, values: str, box: str = "-2 2; -2 2") -> str:
    """x1^2 + x2 subject to g(t) = <body> over the finite index ``values``."""
    return f"""[problem]
vars = x1 x2
minimize = x1^2 + x2
box = {box}

[index t]
kind = finite
values = {values}

[constraints]
g(t) = {body}
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

    def test_converged_means_feasible_with_an_equality(self):
        # the Newton polish skips max-type costs, so the penalty alone sets the
        # equality residual; it once stopped at 5.3e-9, above the feasibility gate
        inst = loads_instance(
            "[problem]\nvars = x1 x2 x3\nminimize_max = x1 + x2 ; x2 - x3 ; x1^2\n"
            "convex = true\n\n[constraints]\ng1 = x1^2 + x2^2 + x3^2 - 1\n\n"
            "[equalities]\nh1 = x1 + x2 + x3\naffine = true\n")
        x, trace = solve(inst, SolverConfig(max_outer=3, multistart=2))
        assert trace.status == "converged"
        assert feasibility_check(inst, x).feasible

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

    def test_converged_candidate_is_the_minimizer_on_every_seed(self):
        # a descent run to MAX_INNER in every stage leaves nine of these seeds
        # (35, 40, 63, ...) converged at feasible points 7e-5 to 1.7e-4 away (max norm)
        inst = load_instance(INSTANCES / "convex_toy.sip")
        off = []
        for seed in range(200):
            x, trace = solve(inst, SolverConfig(seed=seed))
            if trace.status == "converged" and np.max(np.abs(x + 0.5)) > 1e-6:
                off.append(seed)
        assert off == []

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


def _watch_descents(monkeypatch, watch):
    """Calls ``watch(xs, passes)`` with what every penalty descent that solve() runs returns."""
    descent_of = solver._penalty_descent

    def watched_descent(inst, working):
        descent = descent_of(inst, working)

        def watched(xs):
            out = descent(xs)
            watch(*out)
            return out

        return watched

    monkeypatch.setattr(solver, "_penalty_descent", watched_descent)


# gradient passes of one solve under perfbench's solve-exchange configuration; the
# stall stop makes 1,221 / 1,540 / 2,636 / 7,593, and running every stage of every
# start to MAX_INNER would make 5,760 / 5,760 / 8,565 / 20,160
@pytest.mark.parametrize("name, cap", [("convex_toy", 2000), ("parabola_band", 2000),
                                       ("countable_cubic", 3500), ("interval_ramp", 9000)])
def test_gradient_passes_per_solve_are_capped(monkeypatch, name, cap):
    passes = []
    _watch_descents(monkeypatch, lambda xs, n: passes.append(n))
    solve(load_instance(INSTANCES / f"{name}.sip"), SolverConfig(multistart=4, max_outer=6, seed=1))
    assert 0 < sum(passes) <= cap


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


def _ruled(fn, body, x, env):
    """fn(body, x, env), or the solver's reading of a point the expression
    rejects: value +inf, and NaN partials from eval_grad."""
    try:
        return fn(body, x, env)
    except ex.ExprError:
        return math.inf if fn is ex.eval_value else (math.inf, np.full(len(x), math.nan))


def _reference_penalty(inst, terms, x, rho):
    """Reference penalty from the public eval_value / eval_grad, term for term
    in the order the solver must keep: (value, value of the gradient pass,
    gradient). ``terms`` holds the (body, index bindings) of the working
    constraints."""
    val = inst.cost_value(x)
    for body, env in terms:
        v = float(_ruled(ex.eval_value, body, x, env))
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
        v, g = _ruled(ex.eval_grad, body, x, env)
        v, g = float(v), np.asarray(g, dtype=float)
        if v > 0:
            gval += rho * v * v
            grad += 2.0 * rho * v * g
    for comp in inst.equalities.components:
        v, g = ex.eval_grad(comp, x)
        v = float(v)
        gval += rho * v * v
        grad += 2.0 * rho * v * g
    return val, gval, grad


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


PENALTY_CASES = {
    **{name: lambda name=name: load_instance(INSTANCES / f"{name}.sip")
       for name in ("convex_toy", "countable_cubic", "interval_ramp", "parabola_band")},
    "max_cost": lambda: loads_instance(MAX_COST),
    "nan_constraint": lambda: loads_instance(NAN_CONSTRAINT),
    # an index used as an exponent stays on the exp/log path when its value is
    # folded in, although t = 1, 2, 3 are integral
    "index_exponent": lambda: loads_instance(finite_family("x1^t - x2", "1 2 3", "0.25 2; -2 2")),
    # at t = 0.3 the folded binding makes log(t - 0.5) raise at every x
    "rejected_everywhere": lambda: loads_instance(finite_family("log(t - 0.5)*x1 - x2", "0.3 1")),
    # at t = 0.3 the zero base of (t - 0.3)^-2 is rejected at every x, though
    # the body runs on to the number -inf, which the penalty would not count
    "rejected_to_a_number": lambda: loads_instance(finite_family("x2 - (t - 0.3)^-2", "0.3 1")),
    # log(x1) rejects the starts with x1 <= 0, where the cost alone reads a
    # number; a trial step may still leave the rejected region
    "partly_rejected": lambda: loads_instance(finite_family("log(x1 + t) - x2 - 2", "0 0.5")),
    "named": lambda: loads_instance(NAMED),
}


def _penalty_bodies(inst, working):
    """The descent's two bodies, each as a function f(xs, rho) that reads NaN
    where it rejects a term: the value, and the value with the gradient."""
    def body(grad):
        lw = ex._Lowering(inst.dim, masked=True)
        lw.line("r2 = 2.0 * rho")
        solver._penalty(lw, inst, working, grad, "x", "val")
        return lw.function("xs, rho", "val", [f"g{j}" for j in range(inst.dim)] if grad else (),
                           _max=max, _argmax=np.argmax)

    return body(False), body(True)


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
    descent = solver._penalty_descent(inst, working)
    value_body, grad_body = _penalty_bodies(inst, working)
    value, gradient = _reference_pair(inst, terms)

    rng = np.random.default_rng(7)
    violated = rejected = 0
    for i, x in enumerate(rng.uniform(lo, hi, size=(20, inst.dim))):
        for rho in (10.0, 2.5e4):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
                val, gval, grad = _reference_penalty(inst, terms, x, rho)
                got_val = value_body(x.tolist(), rho)
                got_gval, got_grad = grad_body(x.tolist(), rho)
            start_rejected = val == gval == math.inf and np.isnan(grad).all()
            if start_rejected:  # a rejected term: the value and every partial NaN
                rejected += 1
                assert math.isnan(got_val) and math.isnan(got_gval)
                assert len(got_grad) == inst.dim and all(map(math.isnan, got_grad))
            else:
                assert _bits(got_val) == _bits(val)
                assert _bits(got_gval) == _bits(gval)
                assert _bits(got_grad) == _bits(grad)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if i < 8:  # the whole descent, on the eval path's 18 stages a slow reference
                got = descent(x.tolist())
                want = penalty_descent_reference(inst, working, value, gradient, x.tolist())
                assert [_bits(a) for a in got] == [_bits(a) for a in want]  # iterate, passes
                if start_rejected:  # every stage ends where it starts, and none is the last
                    assert _bits(got[0]) == _bits(x) and got[1] == solver.PENALTY_STAGES
            values = [float(_ruled(ex.eval_value, b, x, env)) for b, env in terms]
        violated += any(v > 0 for v in values)
    assert violated > 0
    # read term by term, a rejected term is +inf with NaN partials; the bodies
    # read NaN, and either way the descent ends where it starts
    assert rejected == {"rejected_everywhere": 40, "rejected_to_a_number": 40,
                        "partly_rejected": 20}.get(name, 0)
    if name == "nan_constraint":
        # g is NaN and never penalized (NaN > 0 is False); f = -x2 - 1 is
        # violated only for x2 < -1, so from x2 = 0.5 the descent moves x2
        # alone until f holds it near -1 - 1/(2 rho); g's NaN fails every
        # stage-end test, so all the stages run
        assert math.isnan(values[0])
        x = np.array([850.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            assert value_body(x.tolist(), 10.0) == 0.5
            assert grad_body(x.tolist(), 10.0)[0] == 0.5
            (x1, x2), passes = descent(x.tolist())
            rhos = _reference_with_stages(inst, working, value, gradient, x.tolist())[1]
        assert x1 == 850.0 and -1.0001 < x2 < -1.0 and passes > solver.PENALTY_STAGES
        assert rhos[-1] == solver.PENALTY0 * solver.PENALTY_GROWTH ** (solver.PENALTY_STAGES - 1)


def _reference_pair(inst, terms):
    """``value(x, rho)`` and ``gradient(x, rho)`` of ``_reference_penalty``, as the
    reference descent reads them."""
    def value(x, rho):
        return _reference_penalty(inst, terms, np.array(x), rho)[0]

    def gradient(x, rho):
        return _reference_penalty(inst, terms, np.array(x), rho)[1:]

    return value, gradient


def _reference_with_stages(inst, working, value, gradient, x):
    """``penalty_descent_reference`` from ``x``, and the rho of each stage it ran."""
    rhos = []

    def watched(x, rho):
        if rho not in rhos:
            rhos.append(rho)
        return gradient(x, rho)

    return penalty_descent_reference(inst, working, value, watched, x), rhos


# the descent's early exit once rho > 1e4, through each kind of stage-end test
EARLY_EXIT = {
    # g never binds, so the exit fires after the first stage with rho > 1e4
    "inactive": """[problem]
vars = x1 x2
minimize = (x1 - 0.5)^2 + (x2 + 0.25)^2

[constraints]
g = x1 + x2 - 3
""",
    # the cost's minimizer lies on h = 0, so |h| falls within FEAS_TOL
    "equality": """[problem]
vars = x1 x2
minimize = (x1 - 1)^2 + (x2 - 1)^2

[constraints]
g = x1 - 4

[equalities]
h = x1 - x2
""",
}


@pytest.mark.parametrize("name", sorted(EARLY_EXIT))
def test_descent_early_exit_is_bit_identical_to_reference(name):
    inst = loads_instance(EARLY_EXIT[name])
    working = [solver._constraint_for(inst, IndexId(i, 0.0, label))
               for i, (label, _) in enumerate(inst.fixed)]
    terms = [(body, None) for _, body in inst.fixed]
    descent = solver._penalty_descent(inst, working)
    value, gradient = _reference_pair(inst, terms)
    last = solver.PENALTY0 * solver.PENALTY_GROWTH ** (solver.PENALTY_STAGES - 1)
    exits = 0
    for x in np.random.default_rng(3).uniform(-2.0, 2.0, size=(8, 2)):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
            got = descent(x.tolist())
            want, rhos = _reference_with_stages(inst, working, value, gradient, x.tolist())
        assert [_bits(a) for a in got] == [_bits(a) for a in want]  # iterate, passes
        assert rhos[-1] > 1e4 and rhos == rhos[:1] + [2.0 * r for r in rhos[:-1]]
        exits += rhos[-1] < last
    assert exits > 0


def test_penalty_gradient_pass_skips_satisfied_constraints():
    # sqrt(x1) has no gradient at x1 = 0; the gradient body takes a working
    # constraint's gradient only where it is violated, so the descent steps down
    # x2 from where it holds, a unit step each pass, and ends after the first
    # stage with rho > 1e4 (the eleventh); where it is violated every stage stops
    # at once and none ends the descent
    for body, xs, violated in (("sqrt(x1) - 5", [0.0, 0.0], False),
                               ("sqrt(x1) + x2", [0.0, 1.0], True)):
        inst = loads_instance(f"[problem]\nvars = x1 x2\nminimize = x1^2 + x2\n"
                              f"[constraints]\ng1 = {body}\n")
        working = [solver._constraint_for(inst, IndexId(0, 0.0, "g1"))]
        descent = solver._penalty_descent(inst, working)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
            got = descent(xs)
        if violated:  # the sqrt gradient at zero rejects the point
            assert got == (xs, solver.PENALTY_STAGES)
        else:  # the gradient is (0, 1) all the way
            assert got == ([0.0, -880.0], 11 * solver.MAX_INNER)


ZERO_TANGENT = re.compile(r"\b0\.0 \*|[-+*] 0\.0\b")


def _generated_sources(monkeypatch) -> list:
    """The source of every function lowered from now on, in order."""
    sources, source_of = [], ex._Lowering.source
    monkeypatch.setattr(ex._Lowering, "source",
                        lambda lowering, *args: sources.append(source_of(lowering, *args))
                        or sources[-1])
    return sources


def _descents_of(insts):
    """The penalty descent of each instance on 7 constraints spread over its scan."""
    for inst in insts:
        lo, hi = inst.box_bounds()
        scan = scan_constraints(inst, 0.5 * (lo + hi))
        rows = np.unique(np.linspace(0, len(scan.value) - 1, 7).astype(int))
        solver._penalty_descent(inst, [solver._constraint_for(inst, scan.index_id(int(r)))
                                       for r in rows])


def test_no_generated_line_operates_on_a_zero_tangent(monkeypatch):
    # a structurally zero partial drops out of every sum and product, so no
    # kernel of a bundled body and no penalty descent multiplies or adds +0.0
    sources = _generated_sources(monkeypatch)
    for path in sorted(INSTANCES.glob("*.sip")):
        inst = load_instance(path)
        bodies = [inst.cost.body, *(b for _, b in inst.fixed),
                  *(f.body for f, _ in inst.families), *inst.equalities.components]
        for body in bodies:
            for grad in (False, True):
                for masked in (False, True):
                    ex._compile(body, inst.dim, grad, masked)
    _descents_of(map(load_instance, sorted(INSTANCES.glob("*.sip"))))
    assert sum(text.startswith("def kernel(xs):") for text in sources) == 4
    for text in sources:
        assert not ZERO_TANGENT.search(text), text


ONE_FACTOR = re.compile(r"\* 1\.0(?![\d.e])|(?<![-\w.])1\.0 \*")


def test_no_generated_stage_line_multiplies_by_one(monkeypatch):
    # a partial of 1.0 scales the penalty's 2 * rho * v as it is: v * 1.0 == v exactly
    sources = _generated_sources(monkeypatch)
    _descents_of([*map(load_instance, sorted(INSTANCES.glob("*.sip"))),
                  *map(loads_instance, (MAX_COST, NAMED))])
    descents = [text for text in sources if text.startswith("def kernel(xs):")]
    assert len(descents) == 6
    for text in descents:
        assert not ONE_FACTOR.search(text), text


def test_working_constraint_reads_a_nan_value_as_inf():
    # a NaN value reads +inf whether or not a check rejects the point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
        overflow = solver._bind("g", ex.parse("exp(x1)*0 + x2"), 2, {})
        assert overflow.value([850.0, 0.5]) == overflow.grad([850.0, 0.5])[0] == math.inf
        rejected = solver._bind("g", ex.parse("log(x1) - x2"), 2, {})
        assert rejected.value([-1.0, 0.0]) == math.inf
        value, partials = rejected.grad([-1.0, 0.0])
        assert value == math.inf and len(partials) == 2 and all(map(math.isnan, partials))


def test_max_violation_is_the_same_in_any_working_order():
    # g is NaN at x (exp(850) * 0) and f = 0.5, so a NaN-blind max depends on the order
    inst = loads_instance(NAN_CONSTRAINT)
    g, f = (solver._constraint_for(inst, IndexId(i, 0.0, name)) for i, name in enumerate("gf"))
    x = np.array([850.0, -1.5])
    with np.errstate(over="ignore", invalid="ignore"):  # as inside solve()
        assert solver._max_violation([g, f], x) == solver._max_violation([f, g], x) == math.inf


def test_solve_compiles_only_masked_kernels_of_a_checked_body():
    # x1^3/(3*n) has a division check, so its raising and masked kernels are
    # different functions; the scan and the solver both read it masked
    inst = countable_cubic()
    solve(inst, SolverConfig(max_outer=2, multistart=1))
    kernels = vars(inst.families[0][0].body)["_kernels"]
    assert sorted(kernels) == [(2, False, True), (2, True, True)]
    assert len({id(k) for k in kernels.values()}) == 2


def test_descent_from_a_rejected_start_returns_it_bit_for_bit():
    # at t = 0.3 log(t - 0.5) raises at every x, so every stage stops at the start
    inst = loads_instance(finite_family("log(t - 0.5)*x1 - x2", "0.3"))
    working = [solver._constraint_for(inst, IndexId(0, 0.3, "g(0.3)", "g"))]
    x0 = [0.1234567, -1.9876543]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
        x, passes = solver._penalty_descent(inst, working)(x0)
    assert _bits(x) == _bits(x0) and x is not x0 and passes == solver.PENALTY_STAGES


def test_descent_whose_gradient_norm_overflows_returns_its_start():
    # each partial squares to 1e308 and their sum overflows, on which math.fsum
    # raises; the norm reads inf, so no step is accepted, as when numpy summed it
    inst = loads_instance(finite_family("x1 - 9", "0").replace("x1^2 + x2", "1e154*(x1 + x2)"))
    x0 = [0.25, -0.5]
    assert 1e154**2 * 2 == math.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
        x, passes = solver._penalty_descent(inst, [])(x0)
    assert x == x0 and passes == 11  # with nothing to hold, the eleventh stage ends it


def test_descent_iterates_on_python_floats(monkeypatch):
    # sin's partials are numpy scalars, which must not leak into the iterate
    seen = set()
    _watch_descents(monkeypatch, lambda xs, n: seen.update(map(type, xs)))
    solve(loads_instance(MAX_COST), SolverConfig(max_outer=2, multistart=1, seed=0))
    assert seen == {float}


# interval_ramp with an equality and names unlike anything the code generator
# writes; its working set grows once in 6 outer iterations
NAMED = """[problem]
vars = x1 x2
minimize = (x1+1)^2 + x2
box = -3 3; -3 3

[index tau]
kind = interval
a = 0
b = 1
include_a = false
resolution = 33
refinements = 2

[constraints]
floor_guard = x1 + 1
ceiling_band(tau) = sqrt(tau + 1)*tau*x1 - x2^3

[equalities]
balance_eq = x1 - 2*x2 + 1
"""

GENERATED_NAME = re.compile(r"(def|if|not|and|for|in|break|try|except|return|True|False|kernel"
                            r"|xs|rho|step|passes|val|trial|gnorm|t|stalled|r2|k|bad|np|sin|cos"
                            r"|exp|log|sqrt|[xvgcd]\d+|_\w*)$")


def test_penalty_descent_lives_with_the_instance_and_holds_no_names(monkeypatch):
    # a descent is kept on its instance, so a second solve compiles no working
    # set again; it holds neither the instance nor a working constraint
    descents, compiled, refs = [], [], []
    descent_of, function_of = solver._penalty_descent, ex._Lowering.function
    sources = _generated_sources(monkeypatch)

    def recording_descent(inst, working):
        descent = descent_of(inst, working)
        kernels = [f for wc in working for f in (wc.value, wc.grad)]
        descents.append(weakref.ref(descent))
        refs.extend(weakref.ref(obj) for obj in (*working, *kernels))
        return descent

    def recording_function(lowering, params, *args, **extra):
        compiled.append(params)
        return function_of(lowering, params, *args, **extra)

    monkeypatch.setattr(solver, "_penalty_descent", recording_descent)
    monkeypatch.setattr(ex._Lowering, "function", recording_function)
    inst = loads_instance(NAMED)
    records = [r for seed in (0, 1)
               for r in solve(inst, SolverConfig(max_outer=6, multistart=2, seed=seed))[1].records]
    distinct = {tuple(r.working) for r in records}
    assert compiled.count("xs") == len(distinct) >= 2 and len(records) > len(distinct)
    assert sorted(vars(inst)["_descents"]) == sorted(distinct)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)  # gone with the solves
    assert None not in [ref() for ref in descents]
    owner = weakref.ref(inst)
    del inst  # no cycle holds it: the descents refer to no instance
    assert owner() is None and [ref() for ref in descents] == [None] * len(descents)
    texts = [text for text in sources if text.startswith("def kernel(xs):")]
    assert len(texts) == len(distinct)
    for text in texts:
        assert not any(name in text for name in ("floor_guard", "ceiling_band", "tau",
                                                 "balance_eq"))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                assert GENERATED_NAME.match(tok.string), tok.string


def _reference_polish(inst, working, x, trials=7):
    """The numpy Newton polish that ``solver._polish`` must repeat bit for bit:
    arrays throughout, each near value from its own value kernel call. Each
    step tries ``trials`` damping factors t = 1, 1/2, ...; the polish stops
    when none of them lowers the residual's peak."""
    if not isinstance(inst.cost, SmoothCost):
        return None
    n, m, xs = len(x), len(inst.equalities), x.tolist()
    cost = solver._bind("cost", inst.cost.body, n, {})
    eqs = [solver._bind("h", c, n, {}) for c in inst.equalities.components]
    near = [wc for wc in working if abs(wc.value(xs)) <= 1e-4 * max(1.0, float(np.linalg.norm(x)))]
    near = near[: max(0, n - m)]
    k = len(near)

    def jacobian_t(xs):
        return np.vstack([h.grad(xs)[1] for h in eqs]).T

    def lagr_grad(xs, lam, y):
        g = np.array(cost.grad(xs)[1])
        for lam_i, wc in zip(lam, near):
            g = g + lam_i * np.array(wc.grad(xs)[1])
        if m:
            g = g + jacobian_t(xs) @ y
        return g

    def residual(z):
        xs, lam, y = z[:n].tolist(), z[n : n + k], z[n + k :]
        parts = [lagr_grad(xs, lam, y)]
        parts.append(np.array([wc.value(xs) for wc in near]))
        if m:
            parts.append(np.array([h.value(xs) for h in eqs]))
        return np.concatenate([p for p in parts if len(p)])

    G = np.column_stack([wc.grad(xs)[1] for wc in near]) if k else np.zeros((n, 0))
    rhs = -np.array(cost.grad(xs)[1])
    M = np.hstack([G, jacobian_t(xs)]) if m else G
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        return None
    if M.size:
        mult, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        lam0, y0 = np.maximum(mult[:k], 0.0), mult[k:]
    else:
        lam0, y0 = np.zeros(0), np.zeros(0)
    z = np.concatenate([x, lam0, y0])
    fz = residual(z)
    scale = max(1.0, float(np.max(np.abs(fz))))
    h = 1e-7
    for _ in range(solver.POLISH_ITERS):
        norm0 = float(np.max(np.abs(fz)))
        if norm0 <= 1e-12 * scale:
            break
        Jf = np.zeros((len(fz), len(z)))
        for j in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            Jf[:, j] = (residual(zp) - residual(zm)) / (2 * h)
        try:
            delta = np.linalg.solve(Jf, -fz)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(trials):
            cand = z + t * delta
            fc = residual(cand)
            if float(np.max(np.abs(fc))) < norm0:
                z, fz = cand, fc
                break
            t *= 0.5
        else:
            break
    if float(np.max(np.abs(fz))) > 1e-9 * scale:
        return None
    lam = z[n : n + k]
    if np.any(lam < -1e-8):
        return None
    return z[:n]


def _three_vars(cost: str, constraints: str, equalities: str = "") -> SipInstance:
    text = f"[problem]\nvars = x1 x2 x3\nminimize = {cost}\n\n[constraints]\n{constraints}\n"
    return loads_instance(text + (f"\n[equalities]\n{equalities}\n" if equalities else ""))


# (instance, points) for _polish over the instance's fixed constraints
POLISH_CASES = {
    # non-affine equalities; with two of them numpy may fuse the two products of
    # the equality term, and a float sum of them changes the polished points
    "one_equality": (_three_vars("x1^2 + x2^2 + x3 + sin(x1)", "g = x1 + x2^2 - 0.75",
                                 "h = x1*x2 + x3 - 0.5"),
                     [[0.5, 0.5, 0.25], [0.5, 0.5 + 3e-6, 0.25], [0.45, 0.55, 0.2]]),
    "two_equalities": (_three_vars("x1^2 + x2^2 + x3 + sin(x1)", "g = x1 + x2^2 - 0.75",
                                   "h1 = x1*x2 + x3 - 0.5\nh2 = x1^2 - x3"),
                       [[0.5, 0.5, 0.25], [0.513, 0.487, 0.314], [0.501, 0.4946, 0.2536],
                        [0.5013, 0.50095, 0.2493], [0.500137, 0.499933, 0.250035]]),
    # central differences and trial points step to x1 < 0, which sqrt and log reject
    "sqrt_rejects": (_three_vars("(x1 + 1)^2 + x2^2 + x3^2", "g = sqrt(x1) - x2\nf = x3 - 5"),
                     [[1e-8, 1e-4, 0.0], [4e-8, 2e-4, 0.1], [1e-10, 1e-5, 0.0],
                      # x1 - 1e-7 is 0.0, where only the gradient kernel rejects sqrt
                      [1e-7, math.sqrt(1e-7), 0.0]]),
    "log_rejects": (_three_vars("(x1 + 1)^2 + (x2 - 1)^2 + x3^2",
                                "g = x2 + 0.1*log(x1) - 1 + 0.1*log(1/5e-8)"),
                    [[5e-8, 1.0, 0.0], [2e-7, 1.0 + 0.1*math.log(4), 0.0]]),
    # for 0.7029 < x3 < 0.7098 the x3 partial of exp(1000*x3) - exp(1000*x3) is
    # inf - inf while the rest stays finite, so the first Newton step lands on a
    # residual (0, 0, NaN); read without its NaN it would pass for converged
    "nan_entry": (_three_vars("(exp(1000*x3) - exp(1000*x3)) + x1^2 + x2^2 + (x3 - 0.705)^2",
                              "g = x1 + x2 - 10"),
                  [[0.3, -0.2, 0.70], [0.1, 0.4, 0.69]]),
}


def _recorded_polish_inputs():
    """(instance, working set, x) of every _polish call that solve() makes on
    the bundled instances, as the benchmark's solves configure it."""
    calls, polish = [], solver._polish

    def recording(inst, working, x):
        calls.append((inst, list(working), x.copy()))
        return polish(inst, working, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_polish", recording)
        for name in ("convex_toy", "countable_cubic", "interval_ramp", "parabola_band"):
            inst = load_instance(INSTANCES / f"{name}.sip")
            for seed in range(3):
                solve(inst, SolverConfig(multistart=4, max_outer=6, seed=seed))
    return calls


def test_polish_is_bit_identical_to_the_numpy_reference():
    calls = _recorded_polish_inputs()
    for inst, points in POLISH_CASES.values():
        working = [solver._constraint_for(inst, IndexId(i, 0.0, name))
                   for i, (name, _) in enumerate(inst.fixed)]
        calls += [(inst, working, np.array(p)) for p in points]
    outcomes = []
    for inst, working, x in calls:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
            want = _reference_polish(inst, working, x)
            got = solver._polish(inst, working, x)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()
        outcomes.append(want is not None)
    assert len(calls) > 60 and 0 < sum(outcomes) < len(outcomes)


def test_polish_stops_at_the_damping_floor(polish_steps):
    # interval_ramp's failing polishes need steps damped to 1/32 and below;
    # without a floor they run all POLISH_ITERS = 40 steps before failing
    inst = load_instance(INSTANCES / "interval_ramp.sip")
    for seed in range(5):
        solve(inst, SolverConfig(multistart=4, max_outer=6, seed=seed))
    assert len(polish_steps) > 60 and max(p.steps for p in polish_steps) <= 8
    converged = 0
    for p in polish_steps:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as inside solve()
            halvings25 = _reference_polish(*p.inputs, trials=25)
        if halvings25 is not None:  # what converged with 25 halvings converges alike
            assert p.result is not None and p.result.tobytes() == halvings25.tobytes()
            converged += 1
    assert 0 < converged < len(polish_steps)
