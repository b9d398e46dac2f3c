"""Acceptance suite: golden reproductions of the worked instances plus the
property checks, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.cq import Verdict, check_emfcq, check_nfmcq, check_pmfcq, check_ssc, cq_summary
from sipcert.linsolve import (
    FeasibilityCertificate,
    LpStatus,
    cone_feasibility,
)
from sipcert.model import (
    ConstraintFamily,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    load_instance,
)
from sipcert.optimality import (
    convex_global_check,
    normal_cone,
    verify_kkt,
    verify_perturbed_stationarity,
)
from sipcert.solver import SolverConfig, solve

from oracles import LpProblem, empirical_normal_cone_probe, simplex_solve
from test_expr import _random_ast, central_diff
from test_linsolve import brute_force_lp
from test_model import countable_cubic, interval_ramp

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
XBAR = np.array([-1.0, 0.0])

COMPASS = [
    np.array([math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)])
    for k in range(16)
]


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}")


# The CQ runs below are module-scoped fixtures so that each runs once: criteria
# 1-5 check them, and criterion 6 checks PMFCQ => EMFCQ over all of them.


def _timed_cq(inst, x):
    start = time.perf_counter()
    cq = cq_summary(inst, x)
    return inst, cq, time.perf_counter() - start


@pytest.fixture(scope="module")
def cubic_cq():
    """countable_cubic at XBAR with the seconds its cq_summary took."""
    return _timed_cq(countable_cubic(truncation=10_000), XBAR)


@pytest.fixture(scope="module")
def ramp_cq():
    """interval_ramp at XBAR with the seconds its cq_summary took."""
    return _timed_cq(interval_ramp(), XBAR)


@pytest.fixture(scope="module")
def stabilized_cone():
    """The stabilized perturbed cone of countable_cubic at XBAR, and for each
    COMPASS direction whether it is a member at tolerance 1e-6."""
    inst = countable_cubic()
    cq = cq_summary(inst, XBAR)
    pert = normal_cone(inst, XBAR, variant="perturbed", cq=cq)
    in_cone = [pert.members([v], 1e-6)[0] for v in COMPASS]
    return inst, cq, pert, in_cone


@pytest.fixture(scope="module")
def parabola_cq():
    inst = load_instance(INSTANCES / "parabola_band.sip")
    return inst, cq_summary(inst, np.zeros(2))


def test_criterion_01_countable_cubic_pipeline(cubic_cq):
    with criterion(1, "countable cubic pipeline (verdicts, KKT refutation, limit-ray "
                      "stationarity, < 5 s)"):
        inst, cq, cq_seconds = cubic_cq
        start = time.perf_counter()
        kkt = verify_kkt(inst, XBAR)
        pert = verify_perturbed_stationarity(inst, XBAR, cq=cq)
        elapsed = cq_seconds + time.perf_counter() - start

        assert cq.emfcq.verdict == Verdict.HOLDS
        assert cq.pmfcq.verdict == Verdict.HOLDS
        assert cq.nfmcq.verdict == Verdict.FAILS
        witness = cq.nfmcq.closedness
        assert witness.witness_separator is not None
        assert witness.witness_ray is not None

        assert kkt.outcome == "refuted"
        a = kkt.separator
        assert abs(a[0]) <= 1e-9 and abs(abs(a[1]) - 1.0) <= 1e-9

        assert pert.outcome == "certificate"
        assert pert.certificate.uses_limit_rays
        ray_support = [s for s in pert.certificate.support if "ray" in s]
        assert ray_support

        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_02_interval_ramp_pipeline(ramp_cq):
    with criterion(2, "interval ramp pipeline (margin decay, closed cone, probe vs "
                      "emitted cone, < 5 s)"):
        inst, cq, cq_seconds = ramp_cq
        start = time.perf_counter()
        rep = normal_cone(inst, XBAR, variant="perturbed", cq=cq)
        elapsed = cq_seconds + time.perf_counter() - start

        assert cq.emfcq.verdict == Verdict.HOLDS
        assert cq.pmfcq.verdict == Verdict.FAILS
        decaying = [t for t in cq.pmfcq.traces if t.status == "decaying"]
        assert decaying
        finite = [m for m in decaying[0].margins if math.isfinite(m)]
        assert len(finite) >= 4
        ratios = [b / a for a, b in zip(finite, finite[1:]) if a > 0]
        assert len(ratios) >= 3
        for r in ratios[-3:]:
            assert r == pytest.approx(0.5, abs=0.1)

        assert cq.nfmcq.verdict == Verdict.HOLDS

        assert not rep.valid and rep.warnings
        down = np.array([0.0, -1.0])
        probe = empirical_normal_cone_probe(inst, XBAR, down, samples=2000,
                                            radius=1e-3, seed=2)
        assert probe.status == "ok"
        assert probe.quotient <= 1e-3
        assert not rep.members([down], 1e-6)[0]

        assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_03_cone_equality_probes(stabilized_cone):
    with criterion(3, "stabilized perturbed cone equals the closed fourth quadrant on "
                      "16 probes; unperturbed equals the half-line"):
        inst, cq, pert, in_cone = stabilized_cone
        unpert = normal_cone(inst, XBAR, variant="unperturbed", cq=cq)
        tol = 1e-6
        for v, got in zip(COMPASS, in_cone):
            in_quadrant = v[0] >= -tol and v[1] <= tol
            assert got == in_quadrant, f"perturbed disagrees at {v}"
            on_halfline = v[0] >= -tol and abs(v[1]) <= tol
            assert unpert.members([v], tol)[0] == on_halfline, (
                f"unperturbed disagrees at {v}"
            )
        for v in ([1.0, -1.0], [0.0, -1.0]):
            v = np.asarray(v)
            assert pert.members([v], tol)[0]
            assert not unpert.members([v], tol)[0]


def test_criterion_04_parabola_band(parabola_cq):
    with criterion(4, "parabola band: PMFCQ, NFMCQ, and strong Slater at (0,1) with "
                      "supremum -1; conjugate comparison documented"):
        inst, cq = parabola_cq
        assert cq.pmfcq.verdict == Verdict.HOLDS
        assert cq.nfmcq.verdict == Verdict.HOLDS
        ssc = check_ssc(inst, x_hat=[0.0, 1.0])
        assert ssc.verdict == Verdict.HOLDS
        assert ssc.sup_value == pytest.approx(-1.0, abs=1e-12)
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert "conjugate" in readme.lower()


def _random_convex_family(seed: int) -> SipInstance:
    rng = np.random.default_rng(1000 + seed)
    c1, c2 = rng.uniform(0.2, 0.8), rng.uniform(-0.5, 0.5)
    q1 = rng.uniform(0.5, 1.5)
    q2 = rng.uniform(0.3, 0.7)
    case = seed % 3
    if case == 0:
        # strictly feasible at the origin
        q0 = rng.uniform(0.2, 1.0)
        a = rng.uniform(-1, 1, size=2)
        lin = f"({float(a[0])!r})*x1 + ({float(a[1])!r})*x2"
        body = (
            f"(({c1!r}) + ({c2!r})*t)^2*(x1^2 + x2^2) + {lin} "
            f"- ({q0!r}) - ({q1!r})*(t - ({q2!r}))^2"
        )
    elif case == 1:
        # active at the origin with a nonvanishing gradient
        a = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        lin = f"({float(a[0])!r})*x1 + ({float(a[1])!r})*x2"
        body = (
            f"(({c1!r}) + ({c2!r})*t)^2*(x1^2 + x2^2) + {lin} "
            f"- ({q1!r})*(t - ({q2!r}))^2"
        )
    else:
        # active at the origin with the gradient vanishing at the active index
        e = rng.uniform(0.4, 1.2, size=2) * rng.choice([-1.0, 1.0], size=2)
        lin = (f"({float(e[0])!r})*(t - ({q2!r}))*x1 + "
               f"({float(e[1])!r})*(t - ({q2!r}))*x2")
        body = (
            f"(({c1!r}) + ({c2!r})*t)^2*(x1^2 + x2^2) + {lin} "
            f"- ({q1!r})*(t - ({q2!r}))^2"
        )
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        convex=True,
        families=(
            (
                ConstraintFamily("g", "t", ex.parse(body)),
                IntervalGridIndexSet(0.0, 1.0, resolution=65, refinements=3),
            ),
        ),
        box=((-1.5, 1.5), (-1.5, 1.5)),
    )


@pytest.fixture(scope="module")
def random_family_margins():
    """(instance, PMFCQ result, EMFCQ result) at the origin for seeds 0-49."""
    runs = []
    for seed in range(50):
        inst = _random_convex_family(seed)
        x0 = np.zeros(2)
        runs.append((inst, check_pmfcq(inst, x0), check_emfcq(inst, x0)))
    return runs


def test_criterion_05_slater_margin_equivalence_suite(random_family_margins):
    with criterion(5, "50 random convex families: strong Slater and perturbed margin "
                      "verdicts agree in every decided case"):
        disagreements = []
        decided = 0
        for seed, (inst, pm, _) in enumerate(random_family_margins):
            ssc = check_ssc(inst, pmfcq=pm)
            # search success must never coincide with a failing margin criterion
            if ssc.slater_point is not None:
                assert pm.verdict != Verdict.FAILS, f"seed {seed}"
            if Verdict.UNKNOWN in (pm.verdict, ssc.verdict):
                continue
            decided += 1
            if pm.verdict != ssc.verdict:
                disagreements.append((seed, pm.verdict, ssc.verdict))
        assert disagreements == []
        assert decided >= 30  # the suite must actually decide most cases


def test_criterion_06_implication_suite(cubic_cq, ramp_cq, stabilized_cone, parabola_cq,
                                       random_family_margins):
    with criterion(6, "perturbed margin implies exact-active margin on all runs; "
                      "finite systems with a margin direction have closed cones"):
        worked = [cubic_cq[1], ramp_cq[1], stabilized_cone[1], parabola_cq[1]]
        pairs = [(cq.pmfcq.verdict, cq.emfcq.verdict) for cq in worked]
        pairs += [(pm.verdict, em.verdict) for _, pm, em in random_family_margins]
        for pm, em in pairs:
            if pm == Verdict.HOLDS:
                assert em == Verdict.HOLDS
        rng = np.random.default_rng(99)
        for trial in range(20):
            n = 3
            k = int(rng.integers(1, 6))
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            fixed = []
            for i in range(k):
                a = rng.normal(size=n)
                a -= (a @ u + abs(a @ u) + 0.2) * u  # forces <a, u> <= -0.2
                src = "+".join(f"({float(a[j])!r})*x{j + 1}" for j in range(n))
                quad = f"({float(rng.uniform(0, 0.5))!r})*(x1^2 + x2^2 + x3^2)"
                fixed.append((f"c{i}", ex.parse(src + "+" + quad)))
            inst = SipInstance(dim=n, cost=SmoothCost(ex.parse("x1")), fixed=tuple(fixed))
            em = check_emfcq(inst, np.zeros(n))
            assert em.verdict == Verdict.HOLDS, f"construction broke at trial {trial}"
            nf = check_nfmcq(inst, np.zeros(n))
            assert nf.verdict == Verdict.HOLDS, f"trial {trial}"


def test_criterion_07_ad_against_central_differences():
    with criterion(7, "automatic differentiation matches central differences on 100 "
                      "expressions x 10 points"):
        rng = np.random.default_rng(777)
        n = 3
        expr_count = 0
        while expr_count < 100:
            ast = _random_ast(rng, int(rng.integers(1, 7)), n)
            points = []
            tries = 0
            while len(points) < 10 and tries < 200:
                tries += 1
                x = rng.uniform(-1.5, 1.5, size=n)
                try:
                    _, g = ex.eval_grad(ast, x)
                    fd = central_diff(ast, x)
                    fd2 = central_diff(ast, x, h=1e-5)
                except ex.ExprError:
                    continue
                if not (np.all(np.isfinite(g)) and np.all(np.isfinite(fd))):
                    continue
                if np.max(np.abs(g)) > 1e4:
                    continue
                # keep only points where the difference oracle itself converged
                if np.max(np.abs(fd - fd2)) > 1e-8 * (np.max(np.abs(fd)) + 1.0):
                    continue
                points.append((x, g, fd))
            if len(points) < 10:
                continue  # expression too wild for the oracle; draw another
            expr_count += 1
            for x, g, fd in points:
                err = np.abs(g - fd)
                rel_ok = err <= 1e-6 * np.maximum(np.abs(g), 1e-30)
                abs_ok = err <= 1e-9
                assert np.all(rel_ok | abs_ok), f"{ex.to_source(ast)} at {x}"
        assert expr_count == 100


def test_criterion_08_lp_and_cone_kernel():
    with criterion(8, "simplex matches vertex enumeration on 50 LPs; certificates verify "
                      "and are basic"):
        rng = np.random.default_rng(4242)
        for trial in range(50):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(n, 4) + 1))
            A = np.round(rng.normal(size=(m, n)), 3)
            xfeas = rng.uniform(-1, 1, size=n)
            b = A @ xfeas
            c = np.round(rng.normal(size=n), 3)
            lower = np.floor(xfeas) - rng.integers(0, 3, size=n)
            upper = np.ceil(xfeas) + rng.integers(0, 3, size=n)
            sol = simplex_solve(LpProblem(c=c, A=A, b=b, lower=lower, upper=upper))
            ref = brute_force_lp(c, A, b, lower, upper)
            assert sol.status == LpStatus.OPTIMAL and ref is not None
            assert sol.objective == pytest.approx(ref, abs=1e-8)

        for trial in range(40):
            d = int(rng.integers(2, 6))
            mg = int(rng.integers(d + 1, d + 8))
            G = rng.normal(size=(d, mg))
            lam_true = rng.uniform(0.0, 2.0, size=mg)
            v = G @ lam_true
            out = cone_feasibility(G, None, v, tol=1e-9)
            assert isinstance(out, FeasibilityCertificate)
            # a basic solution: at most d positive multipliers
            assert int(np.sum(out.lam > 0)) <= d
            assert out.residual <= 1e-8
            assert np.max(np.abs(G @ out.lam - v)) <= 1e-8
            assert np.all(out.lam >= 0)


def test_criterion_09_probe_oracle_on_stabilized_members(stabilized_cone):
    with criterion(9, "every stabilized-cone member direction passes the feasible-set "
                      "probe at quotient 1e-3"):
        inst, _, _, in_cone = stabilized_cone
        members = [v for v, got in zip(COMPASS, in_cone) if got]
        assert members, "the stabilized cone contains no compass direction"
        for v in members:
            res = empirical_normal_cone_probe(
                inst, XBAR, v, samples=2000, radius=1e-3, seed=17
            )
            assert res.status == "ok"
            assert res.quotient <= 1e-3, f"direction {v}: quotient {res.quotient}"


def test_criterion_10_solver():
    with criterion(10, "solver reaches both reference minimizers with certified "
                       "multipliers, deterministically"):
        inst = countable_cubic()
        x1, trace1 = solve(inst, SolverConfig(seed=5))
        assert trace1.status == "converged"
        np.testing.assert_allclose(x1, [-1.0, 0.0], atol=1e-6)

        toy = load_instance(INSTANCES / "convex_toy.sip")
        x2, trace2 = solve(toy, SolverConfig(seed=5))
        assert trace2.status == "converged"
        np.testing.assert_allclose(x2, [-0.5, -0.5], atol=1e-6)
        kkt = verify_kkt(toy, x2)
        assert kkt.outcome == "certificate"
        assert kkt.certificate.lam[0] == pytest.approx(1.0, abs=1e-6)
        glob = convex_global_check(toy, x2)
        assert glob.outcome == "certificate" and glob.global_optimal is True

        x1b, trace1b = solve(inst, SolverConfig(seed=5))
        x2b, _ = solve(toy, SolverConfig(seed=5))
        np.testing.assert_array_equal(x1, x1b)
        np.testing.assert_array_equal(x2, x2b)
        assert [r.working for r in trace1.records] == [r.working for r in trace1b.records]
