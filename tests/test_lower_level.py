"""The scan's lower-level maxima: sup_t g(x, t) on interval families.

The corpus is the convex interval family of the small analyze batch, built
here from seeded parameters in three variants, at the origin:

* variant 0: (c1 + c2 t)^2 (x1^2 + x2^2) + a1 x1 + a2 x2 - q0 - q1 (t - q2)^2,
  strictly feasible;
* variant 1: the same without q0, active at t = q2 with gradient (a1, a2);
* variant 2: (c1 + c2 t)^2 (x1^2 + x2^2) + (t - q2)(e1 x1 + e2 x2)
  - q1 (t - q2)^2, active at t = q2 with a vanishing gradient.

No grid point is q2, so a scan that only samples reads the active index as
inactive: EMFCQ then holds vacuously on variant 2, where it fails.
"""

import random

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.cq import Verdict, cq_summary
from sipcert.model import (ACT_TOL, FEAS_TOL, ConstraintFamily, IntervalGridIndexSet, SipInstance,
                           SmoothCost, active_set, scan_constraints)

from test_cq import recheck_cuts

SEEDS = range(8)


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def convex_interval(seed: int, variant: int):
    """(instance, body as a Python function of (x, t), q2) of one corpus entry."""
    rng = random.Random(f"lower-level/{seed}/{variant}")
    c1, c2 = _draw(rng, 0.2, 0.8), _draw(rng, -0.5, 0.5)
    q1, q2 = _draw(rng, 0.5, 1.5), _draw(rng, 0.3, 0.7)
    quad = f"({c1} + {c2}*t)^2*(x1^2 + x2^2)"
    if variant == 2:
        e1, e2 = (_draw(rng, 0.4, 1.2) * rng.choice((-1, 1)) for _ in range(2))
        text = f"{quad} + ({e1})*(t - {q2})*x1 + ({e2})*(t - {q2})*x2 - {q1}*(t - {q2})^2"

        def body(x, t):
            return ((c1 + c2 * t) ** 2 * (x[0] ** 2 + x[1] ** 2)
                    + (t - q2) * (e1 * x[0] + e2 * x[1]) - q1 * (t - q2) ** 2)
    else:
        q0 = _draw(rng, 0.2, 1.0) if variant == 0 else 0.0
        a1, a2 = (_draw(rng, 0.5, 1.5) * rng.choice((-1, 1)) for _ in range(2))
        text = f"{quad} + ({a1})*x1 + ({a2})*x2 - {q0} - {q1}*(t - {q2})^2"

        def body(x, t):
            return ((c1 + c2 * t) ** 2 * (x[0] ** 2 + x[1] ** 2)
                    + a1 * x[0] + a2 * x[1] - q0 - q1 * (t - q2) ** 2)
    inst = SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        convex=True,
        box=((-2.0, 2.0), (-2.0, 2.0)),
        families=((ConstraintFamily("g", "t", ex.parse(text)),
                   IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3)),),
    )
    return inst, body, q2


def _points(seed: int):
    rng = np.random.default_rng(seed)
    return [np.zeros(2)] + [rng.uniform(-1.0, 1.0, 2) for _ in range(3)]


def oracle_maxima(body, x, desc):
    """(t, g) of the local maxima of g(x, .) on [lower, upper]: bounded Brent
    searches over the two cells beside every local maximum of the base grid."""
    optimize = pytest.importorskip("scipy.optimize")
    ts = np.linspace(desc.lower, desc.upper, desc.resolution)
    vals = np.array([body(x, t) for t in ts])
    found = []
    for i in range(len(ts)):
        if (i > 0 and vals[i] < vals[i - 1]) or (i < len(ts) - 1 and vals[i] < vals[i + 1]):
            continue
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        res = optimize.minimize_scalar(lambda t: -body(x, t), bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-12})
        found += [(float(res.x), -float(res.fun)), (float(ts[i]), float(vals[i]))]
    return found


@pytest.mark.parametrize("variant", [0, 1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_scan_maximum_matches_the_oracle(seed, variant):
    inst, body, _ = convex_interval(seed, variant)
    desc = inst.families[0][1]
    for x in _points(seed):
        scan = scan_constraints(inst, x)
        maxima = oracle_maxima(body, x, desc)
        sup = max(g for _, g in maxima)
        assert abs(scan.argmax()[0] - sup) <= 1e-12
        active_t = scan.t[scan.active()]
        for t, g in maxima:
            if g >= -ACT_TOL / 10:
                assert np.min(np.abs(active_t - t), initial=np.inf) <= 1e-6, (x, t, g)


@pytest.mark.parametrize("seed", SEEDS)
def test_active_index_at_q2_is_found(seed):
    """Variant 1: EMFCQ holds with a finite margin and an active entry at q2.
    Variant 2: EMFCQ fails (the active gradient vanishes), and SSC fails with
    a cut witness that re-checks from the instance."""
    x = np.zeros(2)
    for variant in (1, 2):
        inst, _, q2 = convex_interval(seed, variant)
        rep = cq_summary(inst, x)
        entries = active_set(inst, x).active
        assert any(abs(e.id.value - q2) <= 1e-12 for e in entries)
        if variant == 1:
            assert rep.emfcq.verdict == Verdict.HOLDS and rep.emfcq.margin < np.inf
        else:
            assert rep.emfcq.verdict == Verdict.FAILS
            assert rep.ssc.verdict == Verdict.FAILS and rep.ssc.cuts
            assert recheck_cuts(inst, rep.ssc) == []
            assert rep.ssc.lower_bound >= -FEAS_TOL
