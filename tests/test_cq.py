import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert import cq as cq_module
from sipcert import model
from sipcert.cones import Closedness, ClosednessVerdict
from sipcert.cq import (
    EmfcqResult,
    NfmcqResult,
    PmfcqResult,
    SscResult,
    Verdict,
    check_emfcq,
    check_nfmcq,
    check_pmfcq,
    check_ssc,
    cq_summary,
)
from sipcert import linsolve
from sipcert.model import (
    FEAS_TOL,
    ConstraintFamily,
    CountableIndexSet,
    EqualityBlock,
    FiniteIndexSet,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    load_instance,
    scan_constraints,
    with_grid,
)
from sipcert.optimality import normal_cone

from test_model import GOLDEN_POINTS, countable_cubic, interval_ramp, open_interval

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
XBAR = np.array([-1.0, 0.0])


def parabola_band():
    return load_instance(INSTANCES / "parabola_band.sip")


def opposed_pair():
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        fixed=(("a", ex.parse("x1")), ("b", ex.parse("-x1"))),
    )


class TestEmfcq:
    def test_countable_cubic_holds(self):
        res = check_emfcq(countable_cubic(), XBAR)
        assert res.verdict == Verdict.HOLDS
        assert res.witness[0] == pytest.approx(-1.0, abs=1e-9)
        assert res.margin > 0.5

    def test_interval_ramp_holds(self):
        res = check_emfcq(interval_ramp(), XBAR)
        assert res.verdict == Verdict.HOLDS

    def test_opposed_gradients_fail(self):
        res = check_emfcq(opposed_pair(), np.zeros(2))
        assert res.verdict == Verdict.FAILS
        assert res.margin <= 1e-6

    def test_witness_reverifies(self):
        inst = countable_cubic()
        res = check_emfcq(inst, XBAR)
        # active set is just the fixed constraint with gradient (1, 0)
        assert res.witness @ np.array([1.0, 0.0]) <= -res.margin + 1e-9

    def test_interior_point_vacuous(self):
        inst = countable_cubic()
        res = check_emfcq(inst, np.array([-2.0, 1.0]))
        assert res.verdict == Verdict.HOLDS
        assert res.margin == math.inf


class TestPmfcq:
    def test_countable_cubic_holds(self):
        res = check_pmfcq(countable_cubic(), XBAR)
        assert res.verdict == Verdict.HOLDS
        assert res.stabilized_eps is not None
        assert res.margin > 0.5
        # witness pairs negatively with the whole eps-active slice
        w = res.witness
        assert w @ np.array([1.0, 0.0]) <= -0.5
        for n in (4, 10, 100, 10_000):
            assert w @ np.array([1.0 / n, -1.0]) <= -0.5

    def test_interval_ramp_fails_with_decaying_trace(self):
        res = check_pmfcq(interval_ramp(), XBAR)
        assert res.verdict == Verdict.FAILS
        decaying = [t for t in res.traces if t.status == "decaying"]
        assert decaying
        tr = decaying[0]
        # margin at each refinement level is the smallest grid point, halving
        assert len(tr.margins) >= 4
        tail = [m for m in tr.margins if math.isfinite(m)]
        for a, b in zip(tail[-3:], tail[-2:]):
            assert b <= 0.6 * a

    def test_small_eps_censored_on_ramp(self):
        res = check_pmfcq(interval_ramp(), XBAR)
        censored = [t for t in res.traces if t.status == "censored"]
        assert censored
        assert min(t.eps for t in censored) <= 1e-7

    def test_member_censor_at_an_unresolved_peak(self):
        # the grid holds the peak t = 0.5 of x1 - (t - 0.5)^2, an active member
        # at every eps, but its second difference leaves a value resolution
        # delta of about 1e-6: an eps of at most 10 delta is censored there
        inst = _family_instance("x1 - (t - 0.5)^2", "t",
                                IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3))
        scan = scan_constraints(inst, np.zeros(2))
        res = check_pmfcq(inst, np.zeros(2), scan=scan)
        vals = scan.value[scan.grid(block=scan.families[0].block)]
        delta = cq_module._value_resolution(vals)
        assert np.max(vals) == 0.0 and 1e-6 < delta < 1e-5
        for tr in res.traces:
            assert tr.status == ("censored" if tr.eps <= 10.0 * delta else "stable")
            assert tr.margins == ([] if tr.status == "censored" else [1.0] * 4)
        assert [t.status for t in res.traces].count("censored") == 4
        assert res.verdict == Verdict.HOLDS and res.stabilized_eps == 0.1

    def test_tail_censor_beyond_the_truncation(self):
        # x1 - 1/n over n <= 10 peaks at -0.1 on the grid, an eps-active member
        # only at eps = 0.1; below that only the tail ladders' limit 0 is
        # eps-active, and no value resolution reaches it (the argmax is the
        # last row), so each smaller eps is censored by the ladders alone
        inst = _countable_instance("x1 - 1/n", 10)
        scan = scan_constraints(inst, np.zeros(2))
        fam = scan.families[0]
        vals = scan.value[scan.grid(block=fam.block)]
        assert np.max(vals) == -0.1 and cq_module._value_resolution(vals) == 0.0
        limits = [scan.tail_limit(rows) for rows in fam.ladders]
        assert limits and all(ok and abs(v) < 1e-9 for v, ok in limits)
        for eps in cq_module.EPS_SCHEDULE:
            assert cq_module._family_censored(scan, fam, eps) == (eps < 0.1)
        res = check_pmfcq(inst, np.zeros(2), scan=scan)
        assert [t.status for t in res.traces] == ["stable"] + ["censored"] * 7
        assert res.traces[0].margins == [1.0]
        assert res.verdict == Verdict.HOLDS and res.stabilized_eps == 0.1

    def test_two_value_family_has_no_value_resolution_gap(self):
        # with fewer than three grid rows there is no second difference: the
        # grid reads the family exactly, and no eps is censored
        inst = _family_instance("x1 - t", "t", FiniteIndexSet((0.0, 1.0)))
        scan = scan_constraints(inst, np.zeros(2))
        vals = scan.value[scan.grid(block=scan.families[0].block)]
        assert vals.tolist() == [0.0, -1.0] and cq_module._value_resolution(vals) == 0.0
        res = check_pmfcq(inst, np.zeros(2), scan=scan)
        assert [t.status for t in res.traces] == ["stable"] * len(cq_module.EPS_SCHEDULE)
        assert res.verdict == Verdict.HOLDS and res.stabilized_eps == 0.1 and res.margin == 1.0

    @pytest.mark.parametrize("case", ["ambiguous", "beyond_truncation"])
    def test_inconclusive_traces_give_unknown(self, case):
        if case == "ambiguous":
            # the gradient turns by 2 rad in a bump of width 1e-4 about the
            # peak, which only the finest level's parabolic vertex reaches: the
            # margin drops there from 1 to about 0.64, a single step that
            # neither holds steady nor decays over three levels
            th = "2*exp(-((t - 0.4137)/0.0001)^2)"
            inst = _family_instance(f"x1*cos({th}) + x2*sin({th}) - (t - 0.4137)^2", "t",
                                    IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3))
            want = ["ambiguous"] * 5 + ["censored"] * 3
        else:
            # -10/n stays below -1 on the grid and tends to 0 on the ladder
            inst = _countable_instance("x1 - 10/n", 10)
            want = ["censored"] * 8
        res = check_pmfcq(inst, np.zeros(2))
        assert [t.status for t in res.traces] == want
        for tr in res.traces[:want.count("ambiguous")]:
            assert tr.margins[1:3] == pytest.approx([1.0, 1.0], abs=1e-5)
            assert 0.6 < tr.margins[3] < 0.7
        assert res.verdict == Verdict.UNKNOWN and res.witness is None
        assert res.reason == "margin traces are not conclusive within the refinement budget"

    def test_single_constraint_margin_one(self):
        inst = SipInstance(dim=2, cost=SmoothCost(ex.parse("x1")), fixed=(("a", ex.parse("x1")),))
        res = check_pmfcq(inst, np.zeros(2))
        assert res.verdict == Verdict.HOLDS
        assert res.margin == pytest.approx(1.0, abs=1e-9)

    def test_opposed_gradients_fail(self):
        res = check_pmfcq(opposed_pair(), np.zeros(2))
        assert res.verdict == Verdict.FAILS

    def test_holds_implies_emfcq_holds(self):
        for inst, x in [
            (countable_cubic(), XBAR),
            (interval_ramp(), XBAR),
            (parabola_band(), np.zeros(2)),
            (opposed_pair(), np.zeros(2)),
        ]:
            p = check_pmfcq(inst, x)
            e = check_emfcq(inst, x)
            if p.verdict == Verdict.HOLDS:
                assert e.verdict == Verdict.HOLDS


class TestNfmcq:
    def test_interval_ramp_holds(self):
        res = check_nfmcq(interval_ramp(), XBAR)
        assert res.verdict == Verdict.HOLDS

    def test_countable_cubic_fails(self):
        res = check_nfmcq(countable_cubic(), XBAR)
        assert res.verdict == Verdict.FAILS
        assert res.closedness.witness_separator is not None

    def test_parabola_band_holds(self):
        res = check_nfmcq(parabola_band(), np.zeros(2))
        assert res.verdict == Verdict.HOLDS

    def test_no_constraints_generate_the_trivial_cone(self):
        inst = SipInstance(dim=2, cost=SmoothCost(ex.parse("x1^2 + x2^2")))
        res = check_nfmcq(inst, np.zeros(2))
        assert res.verdict == Verdict.HOLDS and res.closedness.status == Closedness.CLOSED
        assert res.reason == res.closedness.reason == "no generators; trivial cone"

    def test_open_interval_gives_a_ray_per_end(self, monkeypatch):
        # lifts (t, 1-t, 0) over t in (0, 1): the ladders toward 0 and 1 end
        # at (0, 1, 0) and (1, 0, 0), and both reach the closedness check
        seen = []
        diagnose = cq_module.closedness_diagnostic

        def spy(cols, rays, **kw):
            seen.append(rays)
            return diagnose(cols, rays, **kw)

        monkeypatch.setattr(cq_module, "closedness_diagnostic", spy)
        res = check_nfmcq(open_interval("t*x1 + (1-t)*x2"), np.zeros(2))
        (rays,) = seen
        assert len(rays) == 2
        np.testing.assert_allclose(rays[0].direction, [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rays[1].direction, [1.0, 0.0, 0.0], atol=1e-12)
        assert not any(r.attained for r in rays)
        assert res.verdict == Verdict.FAILS

    def test_an_early_plateau_is_no_limit_ray(self):
        # the gradient (1, b(t)) has b(1) = 0 and b -> 0 as t -> 0, with a
        # plateau b = 1 only near t = 1e-8 to 1e-5, between the grid and the
        # ladder's last rows; the lift's limit (1, 0, 1) is attained at t = 1,
        # so the plateau must not read as an unattained limit direction
        inst = model.loads_instance(
            "[problem]\nvars = x1 x2\nminimize = x1^2 + x2^2\nbox = -2 2 ; -2 2\n\n"
            "[index t]\nkind = interval\na = 0\nb = 1\ninclude_a = false\n\n"
            "[constraints]\n"
            "g(t) = x1 + x2*(1 - t)/((1 + (10000*t)^20)*(1 + (0.0000000001/t)^20)) - 1\n"
        )
        res = check_nfmcq(inst, np.zeros(2))
        assert res.verdict == Verdict.HOLDS
        assert res.closedness.witness_separator is None
        assert res.reason.startswith("normalized generators are compact")
        assert normal_cone(inst, np.zeros(2), variant="unperturbed").valid

    def test_equality_block_labelled(self):
        inst = SipInstance(
            dim=3,
            cost=SmoothCost(ex.parse("x1")),
            fixed=(("a", ex.parse("x1")),),
            equalities=EqualityBlock((ex.parse("x2 + x3"),), affine=True, names=("h1",)),
        )
        res = check_nfmcq(inst, np.zeros(3))
        assert res.inequality_part_only


def equivalence_instance():
    """Convex, with no Slater point: at the origin every index is active and
    the gradients (t - 0.5, 0) vanish toward t = 0.5."""
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        convex=True,
        families=(
            (
                ConstraintFamily("g", "t", ex.parse("(t - 0.5)*x1 + 0.1*(x1^2 + x2^2)")),
                IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=4),
            ),
        ),
    )


def count_scans(monkeypatch):
    """Count the `scan_constraints` calls made through any sipcert module."""
    calls = {"scans": 0}
    name, original = "scan_constraints", model.scan_constraints

    def counting(*args, **kwargs):
        calls["scans"] += 1
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "sipcert" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


ORIGIN_REJECTED = "the projected origin is rejected: no finite cut at its worst row ({})"
LP_FAILURE = "slater cut LP ended with status iteration_limit"


def failing_lp(*args, **kwargs):
    raise linsolve.LpFailure(LP_FAILURE)


def recheck_cuts(inst, ssc, tol=1e-12):
    """Problems with a cut witness, re-checked with numpy from the instance:
    each cut's value and gradient at its point and index by the lone masked
    kernels, convex weights, a weighted gradient sum in the row space of the
    equality Jacobian, and the bound the weights give on the equality set."""
    problems = []
    w = np.array([cut.weight for cut in ssc.cuts])
    points = np.array([cut.point for cut in ssc.cuts])
    vals, grads = [], []
    for cut in ssc.cuts:
        if cut.index.family is None:
            body, env = inst.fixed[cut.index.block][1], None
        else:
            fam = next(f for f, _ in inst.families if f.name == cut.index.family)
            body, env = fam.body, {fam.index_name: np.array([cut.index.value])}
        vals.append(np.reshape(ex.eval_value(body, cut.point, env, masked=True), -1)[0])
        grads.append(np.reshape(ex.eval_grad(body, cut.point, env, masked=True)[1], -1))
    vals, grads = np.array(vals), np.array(grads)
    if np.any(w < 0) or abs(w.sum() - 1.0) > tol:
        problems.append(f"weights {w.tolist()} are not convex")
    total = w @ grads
    J, c0 = inst.eq_jacobian(np.zeros(inst.dim)), inst.eq_values(np.zeros(inst.dim))
    mu = np.linalg.lstsq(J.T, -total, rcond=None)[0] if len(J) else np.zeros(0)
    residual = np.abs(total + J.T @ mu).sum()
    if residual > tol:
        problems.append(f"weighted gradients leave a residual {residual:.3e}")
    bound = w @ (vals - np.sum(grads * points, axis=1)) + mu @ c0
    if bound < -FEAS_TOL:
        problems.append(f"the cuts bound the supremum by {bound:.3e} only")
    if abs(bound - ssc.lower_bound) > tol:
        problems.append(f"bound {bound!r} differs from the reported {ssc.lower_bound!r}")
    return problems


def vanishing_gradient_instance():
    """The small batch's convex interval family with a vanishing active
    gradient: active at the origin only at t = 0.52, where the gradient is 0."""
    return _family_instance(
        "(0.43 + 0.21*t)^2*(x1^2 + x2^2) + 0.8*(t - 0.52)*x1 - 0.6*(t - 0.52)*x2"
        " - 1.1*(t - 0.52)^2", "t", IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3))


CUT_CASES = {
    "equivalence": equivalence_instance,
    "vanishing_gradient": vanishing_gradient_instance,
}


class TestSlaterCuts:
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_certified_fails_rechecks_without_coarse_scans(self, case, monkeypatch):
        inst = CUT_CASES[case]()
        pm = check_pmfcq(inst, np.zeros(2))
        assert pm.verdict == Verdict.FAILS
        calls = count_scans(monkeypatch)
        res = check_ssc(inst, pmfcq=pm)
        assert res.verdict == Verdict.FAILS and res.cuts
        assert recheck_cuts(inst, res) == []
        assert calls["scans"] == len(res.cuts)
        assert res.lower_bound >= -FEAS_TOL

    def test_bound_above_zero(self):
        # no point is within 0.1 of every t: min over x of sup_t is 0.24, at
        # x1 = 0.5 inside the box; the cuts stop at the first bound >= -FEAS_TOL
        inst = _family_instance("(x1 - t)^2 + x2^2 - 0.01", "t",
                                IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3))
        res = check_ssc(inst, pmfcq=PmfcqResult(Verdict.FAILS, [], None, None, None, 0, 0))
        assert res.verdict == Verdict.FAILS and recheck_cuts(inst, res) == []
        assert 0.0 < res.lower_bound <= 0.24

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_a_changed_weight_fails_the_recheck(self, case):
        inst = CUT_CASES[case]()
        res = check_ssc(inst, pmfcq=check_pmfcq(inst, np.zeros(2)))
        for k in range(len(res.cuts)):
            changed = copy.deepcopy(res)
            changed.cuts[k].weight += 0.25
            assert recheck_cuts(inst, changed) != []

    @pytest.mark.parametrize("end", ["budget", "lp_failure"])
    def test_no_certificate_runs_the_search(self, end, monkeypatch):
        # the equivalence instance needs more than one cut: with a budget of
        # one, or when the cut LP fails, the search ends without a verdict,
        # and Fails comes from the equivalence, with no witness
        inst = equivalence_instance()
        pm = check_pmfcq(inst, np.zeros(2))
        if end == "budget":
            monkeypatch.setattr(cq_module, "_SSC_CUTS", 1)
        else:
            monkeypatch.setattr(linsolve, "_elastic_fit", failing_lp)
        calls = count_scans(monkeypatch)
        res = check_ssc(inst, pmfcq=pm)
        assert res.verdict == Verdict.FAILS and res.cuts is None
        assert "perturbed margin" in res.reason
        assert calls["scans"] == 1

    @pytest.mark.parametrize("fixed", ["1/x1 - 3", "x1^2 + x2^2 - 1"])
    def test_no_cut_gives_the_search_result(self, fixed):
        # 1/x1 is rejected at the origin, which then gives no cut and ends the
        # search: Fails from the equivalence when PMFCQ fails, Unknown naming
        # the row when it does not. The ball's origin is a Slater point.
        inst = SipInstance(dim=2, cost=SmoothCost(ex.parse("x1")), convex=True,
                           box=((-2.0, 2.0), (-2.0, 2.0)), fixed=(("a", ex.parse(fixed)),))
        failing = PmfcqResult(Verdict.FAILS, [], None, None, None, 0, 0)
        got, want = check_ssc(inst, pmfcq=failing), check_ssc(inst)
        assert got.cuts is None and want.cuts is None
        if fixed == "1/x1 - 3":
            assert got.verdict == Verdict.FAILS and "perturbed margin" in got.reason
            assert want.verdict == Verdict.UNKNOWN and want.reason == ORIGIN_REJECTED.format("a")
        else:
            assert got.verdict == want.verdict == Verdict.HOLDS
            assert got.slater_point.tolist() == want.slater_point.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("term, where", [("sqrt(x1)", "the origin"),
                                             ("log(0.4 - x1)", "the projected box center")])
    def test_equality_rejected_where_the_search_projects(self, term, where):
        # h is defined at the feasible point (0.3, 0.7), but its gradient
        # (sqrt) or its value (log) is rejected where the search reads it:
        # Unknown naming the place, or Fails from the equivalence
        inst = SipInstance(dim=2, cost=SmoothCost(ex.parse("x1^2 + x2^2")), convex=True,
                           box=((-2.0, 2.0), (-2.0, 2.0)), fixed=(("g1", ex.parse("x1 - 1.5")),),
                           equalities=EqualityBlock((ex.parse(f"x1 + x2 - 1 + 0*{term}"),),
                                                    affine=True, names=("h",)))
        res = check_ssc(inst)
        assert res.verdict == Verdict.UNKNOWN and res.slater_point is None
        assert res.reason == (f"an equality is rejected or not finite at {where}, so the "
                              "Slater search cannot project onto the equality set")
        failing = PmfcqResult(Verdict.FAILS, [], None, None, None, 0, 0)
        assert check_ssc(inst, pmfcq=failing).verdict == Verdict.FAILS
        assert cq_summary(inst, np.array([0.3, 0.7])).pmfcq.verdict == Verdict.HOLDS

    def test_cut_bound_agrees_with_highs(self):
        # min s s.t. <f_k, z> + b_k <= s, |z|_inf <= 1, H^T z = 0, against HiGHS
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(32)
        for _ in range(200):
            d, k = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            m = int(rng.integers(0, d))
            F, b, H = rng.normal(size=(d, k)), rng.normal(size=k), rng.normal(size=(d, m))
            if rng.random() < 0.25:
                F[:, : k // 2] = 0.0
            *_, obj, a = linsolve._elastic_fit(F, np.zeros((d, 0)), H, np.zeros(d), "slater cut",
                                               cost=-b)
            res = linprog(np.r_[np.zeros(d), 1.0], A_ub=np.c_[F.T, -np.ones(k)], b_ub=-b,
                          A_eq=np.c_[H.T, np.zeros(m)] if m else None,
                          b_eq=np.zeros(m) if m else None,
                          bounds=[(-1.0, 1.0)] * d + [(None, None)], method="highs")
            assert res.status == 0
            assert abs(-obj - res.fun) <= 1e-9
            z = a[:d]
            assert np.max(np.abs(z)) <= 1.0 + 1e-9 and np.max(F.T @ z + b) <= -obj + 1e-9


def _countable_instance(body, truncation):
    return _family_instance(body, "n", CountableIndexSet(start=1, truncation=truncation))


class TestSsc:
    def test_parabola_band_with_candidate(self):
        res = check_ssc(parabola_band(), x_hat=[0.0, 1.0])
        assert res.verdict == Verdict.HOLDS
        assert res.sup_value == pytest.approx(-1.0, abs=1e-12)

    def test_parabola_band_search(self):
        res = check_ssc(parabola_band())
        assert res.verdict == Verdict.HOLDS
        assert res.sup_value < -1e-9

    def test_nonconvex_unknown(self):
        res = check_ssc(countable_cubic())
        assert res.verdict == Verdict.UNKNOWN
        assert "convex" in res.reason

    def test_fails_via_pmfcq_equivalence(self):
        # convex instance that fails the perturbed margin criterion:
        # active gradients vanish toward the active index
        inst = equivalence_instance()
        pm = check_pmfcq(inst, np.zeros(2))
        assert pm.verdict == Verdict.FAILS
        res = check_ssc(inst, pmfcq=pm)
        assert res.verdict == Verdict.FAILS

    def test_search_failure_alone_is_unknown(self, monkeypatch):
        # x1^2 + x2^2 has no Slater point: the cut at the origin, the constant
        # 0, certifies Fails; without a certificate the search ends Unknown
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            fixed=(("a", ex.parse("x1^2 + x2^2")),),
        )
        res = check_ssc(inst)
        assert res.verdict == Verdict.FAILS and recheck_cuts(inst, res) == []
        assert res.lower_bound == 0.0 and len(res.cuts) == 1
        monkeypatch.setattr(linsolve, "_elastic_fit", failing_lp)
        res = check_ssc(inst)
        assert res.verdict == Verdict.UNKNOWN and res.cuts is None

    @pytest.mark.parametrize("end", ["budget", "origin", "lp_failure"])
    def test_unknown_says_why_the_search_ended(self, end, monkeypatch):
        inst = equivalence_instance()
        want = {
            "budget": "no verdict within the budget of 3 cut steps",
            "origin": ORIGIN_REJECTED.format("g(0)"),
            "lp_failure": LP_FAILURE,
        }[end]
        if end == "budget":
            monkeypatch.setattr(cq_module, "_SSC_CUTS", 3)
        elif end == "origin":  # t = 0 is the worst row, and log(t) is rejected there
            inst = _family_instance("(t - 0.5)*x1 + 0.1*(x1^2 + x2^2) + 0*log(t)", "t",
                                    IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=4))
        else:
            monkeypatch.setattr(linsolve, "_elastic_fit", failing_lp)
        res = check_ssc(inst)
        assert res.verdict == Verdict.UNKNOWN and res.reason == want
        res = check_ssc(inst, x_hat=[1.0, 1.0])
        assert res.reason == "supplied point is not strongly feasible; " + want

    def test_slater_point_beyond_the_box(self):
        # 2 - x1 < 0 only for x1 > 2, outside the default box [-1, 1]^2: the
        # box pins the cut model's minimum, so it doubles until it holds one
        inst = SipInstance(dim=2, cost=SmoothCost(ex.parse("x1")), convex=True,
                           fixed=(("a", ex.parse("2 - x1")),))
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS and res.slater_point[0] > 2.0
        assert res.sup_value == 2.0 - res.slater_point[0]

    def test_truncated_countable_family_fails_with_cuts(self):
        # no point is within 0.1 of 1/n for every n: the cuts at n = 1 and at
        # the tail ladder's far rows (1/n -> 0) bound the supremum above 0
        inst = with_grid(_countable_instance("(x1 - 1/n)^2 + x2^2 - 0.01", 10_000), truncation=50)
        res = check_ssc(inst)
        assert res.verdict == Verdict.FAILS and recheck_cuts(inst, res) == []
        assert res.lower_bound > 0.0

    def test_an_index_beyond_the_truncation_does_not_steer_the_search(self):
        # the only violation is at n = 300, where every point of the box is
        # violated; outside the run's set n <= 50 it reads 0 (exp underflows),
        # so the search runs as on the same set without it
        inst = _countable_instance("x1 - 1 + 10*exp(-(n - 300)^2)*(3 - x2)", 10_000)
        plain = _countable_instance("x1 - 1 + 0*n", 10_000)
        got, want = (check_ssc(with_grid(i, truncation=50)) for i in (inst, plain))
        assert got.verdict == want.verdict == Verdict.HOLDS
        assert got.slater_point.tolist() == want.slater_point.tolist()
        assert got.sup_value == want.sup_value
        assert cq_module._sup_inequalities(inst, got.slater_point) > 0.0  # n = 300

    @staticmethod
    def _sqrt_instance(**kw):
        # sqrt's gradient is undefined at x1 = 0, t = 0, so that row keeps its
        # value, sqrt(0) - 2 = -2, with a NaN gradient wherever x1 = 0
        return SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            box=((-2.0, 2.0), (-2.0, 2.0)),
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("sqrt(x1^2 + t) - 2")),
                    IntervalGridIndexSet(0.0, 1.0, resolution=9, refinements=1),
                ),
            ),
            **kw,
        )

    def test_search_iterate_domain_error_ends_the_start(self):
        # the origin's rows read sqrt(t) - 2, at most -1, though t = 0 has a
        # NaN gradient; the projected origin is strongly feasible at once
        inst = self._sqrt_instance()
        scan = scan_constraints(inst, np.zeros(2))
        assert scan.argmax() == (-1.0, len(scan.value) - 1)
        assert np.isnan(scan.grad[0]).all() and np.isfinite(scan.grad[1:]).all()
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS
        assert res.slater_point.tolist() == [0.0, 0.0] and res.sup_value == -1.0

    def test_no_start_point_verified_is_unknown(self):
        # the equality x1 = 0 projects every iterate onto the line where t = 0
        # has a NaN gradient; its value, -2, is defined, so the rows read
        # sqrt(t) - 2 <= -1 there, and the projected origin is a Slater point
        inst = self._sqrt_instance(
            equalities=EqualityBlock((ex.parse("x1"),), affine=True)
        )
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS
        assert res.slater_point.tolist() == [0.0, 0.0] and res.sup_value == -1.0

    def test_search_iterate_domain_error_skips_the_start(self):
        # the whole box has x1 < -1.5, where the log is undefined; the search
        # starts at the origin, outside the box, and holds there
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            box=((-3.0, -1.6), (-2.0, 2.0)),
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("log(x1 + 1.5) - 2 + t*x2")),
                    IntervalGridIndexSet(0.0, 1.0, resolution=9, refinements=1),
                ),
            ),
        )
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS
        assert res.slater_point.tolist() == [0.0, 0.0]

    def test_non_finite_gradient_ends_the_start(self):
        # exp(800*x1) overflows for x1 > 0.89: the value is inf - inf = NaN
        # (counted as +inf) and so is the gradient, which gives no cut; the
        # search backs off toward the origin, whose cut it has
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            box=((0.9, 2.0), (-2.0, 2.0)),
            fixed=(("a", ex.parse("exp(800*x1) - exp(800*x1) + x2")),),
        )
        assert scan_constraints(inst, np.array([1.0, 0.0])).argmax()[0] == math.inf
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS
        assert scan_constraints(inst, res.slater_point).argmax()[0] < 0.0

    def test_search_scans_only_to_verify(self, monkeypatch):
        # no point is strongly feasible: each full scan verifies an iterate
        # and gives its cut, and the cuts certify Fails
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("(x1 - t)^2 + x2^2 - 0.01")),
                    IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3),
                ),
            ),
        )
        calls = count_scans(monkeypatch)
        res = check_ssc(inst)
        assert res.verdict == Verdict.FAILS and recheck_cuts(inst, res) == []
        assert calls["scans"] == len(res.cuts)


def lone_row(inst, scan, row):
    """A scan row evaluated alone by its masked kernels: (value, gradient),
    a family row's index bound as a one-element array."""
    nf = len(inst.fixed)
    b = int(scan.block[row])
    if b < nf:
        body, env = inst.fixed[b][1], None
    else:
        fam = inst.families[b - nf][0]
        body, env = fam.body, {fam.index_name: scan.t[row : row + 1]}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = ex.eval_value(body, scan.x, env, masked=True)
        grad = ex.eval_grad(body, scan.x, env, masked=True)[1]
    return np.reshape(value, -1)[0], np.reshape(grad, (-1, inst.dim))[0]


def assert_same_bits(got, want):
    """Equal arrays, NaN counted equal, with equal sign bits."""
    assert np.array_equal(got, want, equal_nan=True)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


def _family_instance(body, index, desc, fixed=()):
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        convex=True,
        box=((-2.0, 2.0), (-2.0, 2.0)),
        fixed=tuple((name, ex.parse(src)) for name, src in fixed),
        families=((ConstraintFamily("g", index, ex.parse(body)), desc),),
    )


COARSE_CASES = {
    **{name: (lambda name=name: load_instance(INSTANCES / f"{name}.sip"), [point])
       for name, point in GOLDEN_POINTS.items()},
    "convex_interval": (lambda: _family_instance(
        "(0.55 - 0.13*t)^2*(x1^2 + x2^2) + 0.36*x1 + 0.87*x2 - 0.59 - 0.75*(t - 0.43)^2",
        "t", IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3)), [(0.0, 0.0)]),
    "finite": (lambda: _family_instance(
        "cos(t)*x1 + sin(t)*x2 - 1", "t", FiniteIndexSet((2.5, 0.0, 1.2, -0.7, 4.0))),
        [(0.0, 0.0)]),
    "fixed_affine_equality": (lambda: SipInstance(
        dim=3,
        cost=SmoothCost(ex.parse("x1")),
        convex=True,
        fixed=(("a", ex.parse("x1^2 + x2^2 - 1")), ("b", ex.parse("exp(x1 + x3) - 2"))),
        equalities=EqualityBlock((ex.parse("x1 + x2 + x3 - 0.5"),), affine=True),
    ), [(0.0, 0.0, 0.5)]),
    "countable_start_beyond_512": (lambda: _family_instance(
        "x1^3/(3*n) - x2 + sin(n)*x1/n", "n", CountableIndexSet(start=600, truncation=10_000)),
        [(-1.0, 0.0)]),
    "countable_truncated_to_512": (lambda: _family_instance(
        "x1/(1 + n) + cos(n)*x2/100 - 0.5",
        "n", CountableIndexSet(start=3, truncation=2000, limit_ray=(1.0, 0.0))), [(0.0, 0.0)]),
    "body_without_index": (lambda: _family_instance(
        "x1 + 2*x2 - 1", "t", IntervalGridIndexSet(0.0, 1.0, resolution=5)), [(0.0, 0.0)]),
    # at x1 = 0 and x2 <= 0 the fixed row and the family rows all read 0:
    # the fixed row comes first, and within the family t = 0 does
    "fixed_ties_family": (lambda: _family_instance(
        "t*x2", "t", IntervalGridIndexSet(0.0, 1.0, resolution=33, refinements=2),
        fixed=(("a", "x1"),)), [(0.0, 0.0), (0.0, -1.0), (0.0, -1e-300), (-0.0, -0.0)]),
    # equal values with different gradients: the first fixed row wins
    "fixed_ties_fixed": (lambda: SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        fixed=(("a", ex.parse("x1")), ("b", ex.parse("x2")), ("c", ex.parse("x1 - 1"))),
    ), [(0.0, 0.0), (0.5, 0.5), (-1.0, -1.0)]),
    "open_endpoints": (lambda: _family_instance(
        "sin(3*t*x1) - x2*t^2 + sqrt(1 + x1^2 + t) - 1.5",
        "t", IntervalGridIndexSet(0.0, 1.0, include_lower=False, include_upper=False,
                                  resolution=257, refinements=4)), [(0.0, 0.0)]),
    # NaN (inf - inf) for x1 > 0.89, counted as +inf; its gradient is NaN too
    "nan_body": (lambda: _family_instance(
        "exp(800*x1) - exp(800*x1) + t*x2 - 1",
        "t", IntervalGridIndexSet(0.0, 1.0, resolution=17, refinements=2),
        fixed=(("a", "x1 - 3"),)), [(1.0, 0.0), (0.0, 0.0)]),
    "no_constraints": (lambda: SipInstance(dim=2, cost=SmoothCost(ex.parse("x1"))),
                       [(0.0, 0.0)]),
    # 1/x1 is rejected at x1 = 0: the fixed row is NaN there, counted as +inf
    "fixed_rejected": (lambda: _family_instance(
        "t*x2 - 1", "t", IntervalGridIndexSet(0.0, 1.0, resolution=9, refinements=1),
        fixed=(("a", "1/x1 - 3"),)), [(0.0, 0.0), (0.0, 5.0)]),
    # log(t - 0.5) is rejected for t <= 0.5, so those rows are NaN and t = 0 is worst
    "family_partly_rejected": (lambda: _family_instance(
        "log(t - 0.5)*x1 - x2", "t", IntervalGridIndexSet(0.0, 1.0, resolution=33, refinements=2)),
        [(0.0, 0.0), (1.0, -1.0)]),
}


def worst_row(case, k):
    """(value, gradient) at the worst row of the full scan at a case's k-th point."""
    build, points = COARSE_CASES[case]
    scan = scan_constraints(build(), np.array(points[k], dtype=float))
    best, row = scan.argmax()
    return best, scan.grad[row]


class TestCoarseStep:
    """What a cut reads of a full scan, `argmax` and the gradient at its row,
    against lone rows."""

    @pytest.mark.parametrize("case", sorted(COARSE_CASES))
    def test_bit_equal_to_scan(self, case):
        build, points = COARSE_CASES[case]
        # each countable family cut to 512 indices (never below its start),
        # so that evaluating every row alone stays cheap
        inst = with_grid(build(), truncation=512)
        lo, hi = inst.box_bounds()
        rng = np.random.default_rng(sorted(COARSE_CASES).index(case))
        points = [np.array(p, dtype=float) for p in points]
        points += [rng.uniform(1.5 * lo, 1.5 * hi) for _ in range(20)]
        for x in points:
            scan = scan_constraints(inst, x)
            lone = [lone_row(inst, scan, row) for row in range(len(scan.value))]
            values = np.array([v for v, _ in lone])
            assert_same_bits(scan.value, values)
            assert_same_bits(scan.grad, np.array([g for _, g in lone]).reshape(-1, inst.dim))
            worst = np.where(np.isnan(values), math.inf, values)
            if not len(worst) or worst.max() == -math.inf:
                assert scan.argmax() == (-math.inf, None)
                continue
            row = int(np.argmax(worst))
            assert scan.argmax() == (worst[row], row)
            assert_same_bits(scan.grad[row], lone[row][1])

    def test_cases_reach_nan_and_ties(self):
        # every row is NaN (inf - inf), so the first, t = 0, is the worst: its
        # x1 partial is NaN too, and its x2 partial is t, exactly +0.0
        v, g = worst_row("nan_body", 0)
        assert v == math.inf and math.isnan(g[0])
        assert g[1] == 0.0 and not np.signbit(g[1])
        v, g = worst_row("fixed_ties_family", 1)
        assert v == 0.0 and g.tolist() == [1.0, 0.0]
        v, g = worst_row("fixed_ties_fixed", 1)
        assert v == 0.5 and g.tolist() == [1.0, 0.0]
        for case in ("fixed_rejected", "family_partly_rejected"):
            v, g = worst_row(case, 0)
            assert v == math.inf and np.all(np.isnan(g))

    def test_a_start_at_a_rejected_row_ends_and_the_others_search_on(self, monkeypatch):
        # sqrt(x1 + 1.5) is rejected for x1 < -1.5. The origin's cut 1 + y1
        # puts the next iterate at x1 = -2, which gives no cut, so the search
        # goes on from the midpoint with the origin, x1 = -1, whose cut sends
        # it back to -2; the midpoint with -1, x1 = -1.5, reads -0.5 and holds
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            box=((-2.0, 2.0), (-2.0, 2.0)),
            fixed=(("a", ex.parse("x1 + 1 + 0*sqrt(x1 + 1.5)")),),
        )
        seen = []
        original = model.scan_constraints

        def recording(inst, x):
            seen.append(float(x[0]))
            return original(inst, x)

        monkeypatch.setattr(cq_module, "scan_constraints", recording)
        res = check_ssc(inst)
        assert seen == [0.0, -2.0, -1.0, -2.0, -1.5]
        assert res.verdict == Verdict.HOLDS and res.slater_point[0] == -1.5
        assert res.sup_value == -0.5

    @pytest.mark.parametrize("x", [np.zeros(3), np.array([0.0, math.nan])])
    def test_point_checks(self, x):
        with pytest.raises(model.InstanceError):
            check_ssc(COARSE_CASES["finite"][0](), x_hat=x)


def _stub_checks(monkeypatch, emfcq, pmfcq, nfmcq, ssc):
    """Make the four checks cq_summary calls return the given verdicts."""
    monkeypatch.setattr(cq_module, "check_emfcq",
                        lambda *a, **k: EmfcqResult(emfcq, 1.0, None, 0, 0))
    monkeypatch.setattr(cq_module, "check_pmfcq",
                        lambda *a, **k: PmfcqResult(pmfcq, [], None, None, None, 0, 0))
    monkeypatch.setattr(cq_module, "check_nfmcq", lambda *a, **k: NfmcqResult(
        nfmcq, ClosednessVerdict(Closedness.UNKNOWN, ""), False))
    monkeypatch.setattr(cq_module, "check_ssc", lambda *a, **k: SscResult(ssc, None, None))


H, F, U = Verdict.HOLDS, Verdict.FAILS, Verdict.UNKNOWN

# (convex, verdicts emfcq/pmfcq/nfmcq/ssc as checked, diagnostic, verdicts after)
CONFLICTS = {
    "perturbed_without_exact": (
        False, (F, H, H, U),
        "inconsistency: perturbed margin holds while the exact-active margin does not; "
        "both downgraded", (U, U, H, U)),
    "finite_margin_with_nonclosed_cone": (
        False, (H, H, F, U),
        "inconsistency: finite index set with a strict-margin direction cannot have a "
        "non-closed coefficient cone; closedness downgraded", (H, H, U, U)),
    "slater_holds_margin_fails": (
        True, (H, F, H, H),
        "inconsistency: strong Slater and perturbed margin verdicts disagree on a convex "
        "instance; both downgraded", (H, U, H, U)),
    "slater_fails_margin_holds": (
        True, (H, H, H, F),
        "inconsistency: strong Slater and perturbed margin verdicts disagree on a convex "
        "instance; both downgraded", (H, U, H, U)),
}


class TestSummary:
    @pytest.mark.parametrize("case", sorted(CONFLICTS))
    def test_conflicting_verdicts_are_downgraded(self, monkeypatch, case):
        convex, checked, diagnostic, after = CONFLICTS[case]
        _stub_checks(monkeypatch, *checked)
        inst = SipInstance(dim=2, cost=SmoothCost(ex.parse("x1")), convex=convex,
                           fixed=(("a", ex.parse("x1 - 1")),))
        rep = cq_summary(inst, np.zeros(2))
        assert rep.diagnostics == [diagnostic]
        assert (rep.emfcq.verdict, rep.pmfcq.verdict, rep.nfmcq.verdict, rep.ssc.verdict) == after

    def test_dependent_equalities_fail_both_margin_criteria(self):
        inst = SipInstance(
            dim=3,
            cost=SmoothCost(ex.parse("x3")),
            fixed=(("a", ex.parse("x3 - 1")),),
            equalities=EqualityBlock((ex.parse("x1 + x2"), ex.parse("2*x1 + 2*x2"))),
        )
        rep = cq_summary(inst, np.zeros(3))
        for res in (rep.emfcq, rep.pmfcq):
            assert res.verdict == Verdict.FAILS
            assert res.reason == "equality Jacobian is not surjective"
            assert (res.rank, res.eq_count) == (1, 2)
        assert not rep.surjective and rep.diagnostics == []

    def test_countable_cubic_summary(self):
        rep = cq_summary(countable_cubic(), XBAR)
        assert rep.emfcq.verdict == Verdict.HOLDS
        assert rep.pmfcq.verdict == Verdict.HOLDS
        assert rep.nfmcq.verdict == Verdict.FAILS
        assert rep.ssc.verdict == Verdict.UNKNOWN
        assert rep.diagnostics == []

    def test_interval_ramp_summary(self):
        rep = cq_summary(interval_ramp(), XBAR)
        assert rep.emfcq.verdict == Verdict.HOLDS
        assert rep.pmfcq.verdict == Verdict.FAILS
        assert rep.nfmcq.verdict == Verdict.HOLDS
        assert rep.ssc.verdict == Verdict.UNKNOWN

    def test_finite_pair_all_hold(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1 + x2")),
            fixed=(("a", ex.parse("x1")), ("b", ex.parse("x2"))),
        )
        rep = cq_summary(inst, np.zeros(2))
        assert rep.emfcq.verdict == Verdict.HOLDS
        assert rep.pmfcq.verdict == Verdict.HOLDS
        assert rep.nfmcq.verdict == Verdict.HOLDS

    def test_parabola_band_summary(self):
        rep = cq_summary(parabola_band(), np.zeros(2))
        assert rep.pmfcq.verdict == Verdict.HOLDS
        assert rep.nfmcq.verdict == Verdict.HOLDS
        assert rep.ssc.verdict == Verdict.HOLDS
        assert rep.diagnostics == []

    def test_finite_with_mfcq_implies_nfmcq(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = 3
            k = int(rng.integers(1, 5))
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            fixed = []
            for i in range(k):
                a = rng.normal(size=n)
                a -= (a @ u + abs(a @ u) + 0.2) * u  # force <a, u> < 0
                src = "+".join(f"({float(a[j])!r})*x{j + 1}" for j in range(n))
                fixed.append((f"c{i}", ex.parse(src)))
            inst = SipInstance(dim=n, cost=SmoothCost(ex.parse("x1")), fixed=tuple(fixed))
            rep = cq_summary(inst, np.zeros(n))
            assert rep.emfcq.verdict == Verdict.HOLDS
            assert rep.nfmcq.verdict == Verdict.HOLDS
