import math
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.cq import (
    Verdict,
    check_emfcq,
    check_nfmcq,
    check_pmfcq,
    check_ssc,
    cq_summary,
)
from sipcert.model import (
    ConstraintFamily,
    EqualityBlock,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    load_instance,
)

from test_model import countable_cubic, interval_ramp

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
