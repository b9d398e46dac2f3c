import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert import cq as cq_module
from sipcert import model
from sipcert.cq import (
    Verdict,
    _coarse_sup_and_gradient,
    check_emfcq,
    check_nfmcq,
    check_pmfcq,
    check_ssc,
    cq_summary,
)
from sipcert.model import (
    ConstraintFamily,
    CountableIndexSet,
    EqualityBlock,
    FiniteIndexSet,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    load_instance,
    scan_constraints,
)

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

    def test_equality_block_labelled(self):
        inst = SipInstance(
            dim=3,
            cost=SmoothCost(ex.parse("x1")),
            fixed=(("a", ex.parse("x1")),),
            equalities=EqualityBlock((ex.parse("x2 + x3"),), affine=True, names=("h1",)),
        )
        res = check_nfmcq(inst, np.zeros(3))
        assert res.inequality_part_only


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
        inst = SipInstance(
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
        pm = check_pmfcq(inst, np.zeros(2))
        assert pm.verdict == Verdict.FAILS
        res = check_ssc(inst, pmfcq=pm)
        assert res.verdict == Verdict.FAILS

    def test_search_failure_alone_is_unknown(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            fixed=(("a", ex.parse("x1^2 + x2^2")),),
        )
        res = check_ssc(inst)
        assert res.verdict == Verdict.UNKNOWN


    @staticmethod
    def _sqrt_instance(**kw):
        # sqrt's gradient is undefined at x1 = 0, t = 0, so the full scan
        # raises wherever x1 = 0; the search's grid values there are negative
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
        # the best coarse point is the origin, where the full scan raises; the
        # next starts' best points are verified in turn, and one holds
        inst = self._sqrt_instance()
        with pytest.raises(ex.ExprError):
            scan_constraints(inst, np.zeros(2))
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS
        assert scan_constraints(inst, res.slater_point).argmax()[0] < 0.0

    def test_no_start_point_verified_is_unknown(self):
        # the equality x1 = 0 projects every start onto the line where the
        # full scan raises, so no start's best point can be verified
        inst = self._sqrt_instance(
            equalities=EqualityBlock((ex.parse("x1"),), affine=True)
        )
        res = check_ssc(inst)
        assert res.verdict == Verdict.UNKNOWN
        assert "6 coarse search point(s) could not be evaluated" in res.reason

    def test_search_iterate_domain_error_skips_the_start(self):
        # every random start has x1 < -1.5, where the log is undefined; the
        # start at the origin alone is evaluated, and holds
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
        # (counted as +inf) and so is the gradient, which gives no step
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            convex=True,
            box=((0.9, 2.0), (-2.0, 2.0)),
            fixed=(("a", ex.parse("exp(800*x1) - exp(800*x1) + x2")),),
        )
        assert _coarse_sup_and_gradient(inst, np.array([1.0, 0.0]))[0] == math.inf
        res = check_ssc(inst)
        assert res.verdict == Verdict.HOLDS
        assert scan_constraints(inst, res.slater_point).argmax()[0] < 0.0

    def test_search_scans_only_to_verify(self, monkeypatch):
        # no point is strongly feasible, so all 6 x 80 iterates run
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
        calls = {"scan_constraints": 0, "worst_row": 0}
        for name in calls:
            original = getattr(model, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] == "sipcert" and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting)
        res = check_ssc(inst)
        assert res.verdict == Verdict.UNKNOWN
        assert calls["worst_row"] == 480
        assert calls["scan_constraints"] <= 1


def scan_coarse_sup_and_gradient(inst, x):
    """The reference coarse step: a full scan of the thinned grid, values and
    gradients of every row, then the gradient of the first worst row."""
    x = np.asarray(x, dtype=float)
    scan = scan_constraints(inst, x, truncation=512, resolution=65, refinements=2, tail=False)
    best, row = scan.argmax(tail=False)
    if row is None:
        return 0.0, np.zeros(inst.dim)
    return best, scan.grad[row]


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
}


class TestCoarseStep:
    """The value-only coarse step against the scan-based reference."""

    @pytest.mark.parametrize("case", sorted(COARSE_CASES))
    def test_bit_equal_to_scan(self, case):
        build, points = COARSE_CASES[case]
        inst = build()
        lo, hi = inst.box_bounds()
        rng = np.random.default_rng(sorted(COARSE_CASES).index(case))
        points = [np.array(p, dtype=float) for p in points]
        points += [rng.uniform(1.5 * lo, 1.5 * hi) for _ in range(20)]
        for x in points:
            got_v, got_g = _coarse_sup_and_gradient(inst, x)
            want_v, want_g = scan_coarse_sup_and_gradient(inst, x)
            assert np.array_equal(got_v, want_v)
            assert np.array_equal(got_g, want_g, equal_nan=True)
            assert np.signbit(got_g).tolist() == np.signbit(want_g).tolist()

    def test_cases_reach_nan_and_ties(self):
        build, points = COARSE_CASES["nan_body"]
        v, g = _coarse_sup_and_gradient(build(), np.array(points[0]))
        assert v == math.inf and np.all(np.isnan(g))
        build, points = COARSE_CASES["fixed_ties_family"]
        v, g = _coarse_sup_and_gradient(build(), np.array(points[1]))
        assert v == 0.0 and g.tolist() == [1.0, 0.0]
        build, points = COARSE_CASES["fixed_ties_fixed"]
        v, g = _coarse_sup_and_gradient(build(), np.array(points[1]))
        assert v == 0.5 and g.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("x", [np.zeros(3), np.array([0.0, math.nan])])
    def test_point_checks(self, x):
        with pytest.raises(model.InstanceError):
            _coarse_sup_and_gradient(COARSE_CASES["finite"][0](), x)


class TestSummary:
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
