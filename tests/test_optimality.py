import math
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.cq import Verdict, cq_summary
from sipcert.model import (
    ConstraintFamily,
    CountableIndexSet,
    SipInstance,
    SmoothCost,
    ConvexMaxCost,
    active_set,
    estimate_moduli,
    load_instance,
    loads_instance,
)
from sipcert.optimality import (
    empirical_normal_cone_probe,
    convex_global_check,
    linear_specialization,
    membership_residual_trace,
    normal_cone,
    verify_kkt,
    verify_perturbed_stationarity,
)

from test_model import countable_cubic, interval_ramp

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
XBAR = np.array([-1.0, 0.0])

COMPASS = [
    np.array([math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)])
    for k in range(16)
]


def convex_toy():
    return load_instance(INSTANCES / "convex_toy.sip")


def in_quadrant(v, tol=1e-6):
    return v[0] >= -tol and v[1] <= tol


class TestNormalCone:
    def test_cubic_perturbed_matches_quadrant(self):
        inst = countable_cubic()
        rep = normal_cone(inst, XBAR, variant="perturbed")
        assert rep.valid
        for v in COMPASS:
            assert rep.member(v, tol=1e-6).is_member == in_quadrant(v)

    def test_cubic_unperturbed_is_halfline(self):
        inst = countable_cubic()
        rep = normal_cone(inst, XBAR, variant="unperturbed")
        assert not rep.valid  # closedness qualification fails here
        for v in COMPASS:
            expected = v[0] >= -1e-6 and abs(v[1]) <= 1e-6
            assert rep.member(v, tol=1e-6).is_member == expected

    def test_variants_disagree_on_two_probes(self):
        inst = countable_cubic()
        pert = normal_cone(inst, XBAR, variant="perturbed")
        unpert = normal_cone(inst, XBAR, variant="unperturbed")
        for v in ([1.0, -1.0], [0.0, -1.0]):
            assert pert.member(np.array(v)).is_member
            assert not unpert.member(np.array(v)).is_member

    def test_ramp_perturbed_carries_warning_and_misses_normal(self):
        inst = interval_ramp()
        rep = normal_cone(inst, XBAR, variant="perturbed")
        assert not rep.valid
        assert rep.warnings
        # (0,-1) is a true normal but the emitted cone refuses it
        assert not rep.member(np.array([0.0, -1.0]), tol=1e-6).is_member

    def test_generator_sets_nested_in_eps(self):
        inst = countable_cubic()
        rep = normal_cone(inst, XBAR, variant="perturbed")
        sizes = [cone.generators.shape[1] for _, cone in rep.per_eps]
        assert sizes == sorted(sizes, reverse=True)
        labels_small = set(rep.per_eps[-1][1].labels)
        labels_large = set(rep.per_eps[0][1].labels)
        assert labels_small <= labels_large

    def test_regular_flag_from_moduli(self):
        inst = countable_cubic(truncation=200)
        moduli = estimate_moduli(inst, XBAR, etas=(0.005, 0.1), samples_per_eta=150)
        rep = normal_cone(inst, XBAR, variant="perturbed", moduli=moduli)
        assert rep.regular is True

    def test_normalized_variant_runs(self):
        inst = countable_cubic()
        rep = normal_cone(inst, XBAR, variant="normalized")
        assert rep.member(np.array([1.0, -1.0])).is_member

    def test_infeasible_point_raises(self):
        with pytest.raises(ValueError):
            normal_cone(countable_cubic(), np.array([0.0, 0.0]))


class TestProbe:
    def test_true_normal_small_quotient(self):
        inst = countable_cubic()
        res = empirical_normal_cone_probe(inst, XBAR, np.array([1.0, -1.0]), seed=3)
        assert res.status == "ok"
        assert res.quotient <= 1e-3

    def test_zero_vector(self):
        res = empirical_normal_cone_probe(countable_cubic(), XBAR, np.zeros(2), seed=3)
        assert res.status == "ok"
        assert abs(res.quotient) <= 1e-12

    def test_interior_direction_rejected(self):
        res = empirical_normal_cone_probe(
            countable_cubic(), XBAR, np.array([-1.0, 0.0]), seed=3
        )
        assert res.quotient >= 0.5

    def test_ramp_true_normal(self):
        res = empirical_normal_cone_probe(
            interval_ramp(), XBAR, np.array([0.0, -1.0]), seed=5
        )
        assert res.status == "ok"
        assert res.quotient <= 1e-3


class TestVerifyKkt:
    def test_cubic_refuted_with_axis_separator(self):
        report = verify_kkt(countable_cubic(), XBAR)
        assert report.outcome == "refuted"
        a = report.separator
        assert abs(a[0]) <= 1e-9
        assert abs(abs(a[1]) - 1.0) <= 1e-9

    def test_convex_toy_certificate(self):
        report = verify_kkt(convex_toy(), np.array([-0.5, -0.5]))
        assert report.outcome == "certificate"
        cert = report.certificate
        assert cert.support == ["g1"]
        assert cert.lam[0] == pytest.approx(1.0, abs=1e-9)
        assert cert.residual <= 1e-9

    def test_unconstrained_minimum(self):
        inst = SipInstance(dim=1, cost=SmoothCost(ex.parse("x1^2")))
        report = verify_kkt(inst, np.zeros(1))
        assert report.outcome == "certificate"
        assert report.certificate.support == []

    def test_max_cost_certificate(self):
        # minimize max(x1, -x1) + x2 over x2 >= 0 at the kink
        inst = SipInstance(
            dim=2,
            cost=ConvexMaxCost((ex.parse("x1 + x2"), ex.parse("-x1 + x2"))),
            fixed=(("p", ex.parse("-x2")),),
            convex=True,
        )
        report = verify_kkt(inst, np.zeros(2))
        assert report.outcome == "certificate"
        w = report.certificate.cost_weights
        assert w is not None
        assert np.sum(w) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)


    def test_support_label_matches_active_set_label(self):
        inst = loads_instance(
            "[problem]\nvars = x1 x2\nminimize = x1 + x2^2\n"
            "[index t]\nkind = finite\nvalues = 1000000000000\n"
            "[constraints]\ng(t) = t/1000000000000 - x1\n"
        )
        x = np.array([1.0, 0.0])
        active = [e.id.label for e in active_set(inst, x).active]
        rep = verify_kkt(inst, x)
        assert active == ["g(1000000000000)"]
        assert rep.outcome == "certificate"
        assert rep.certificate.support == active


class TestPerturbedStationarity:
    def test_cubic_certificate_via_limit_ray(self):
        report = verify_perturbed_stationarity(countable_cubic(), XBAR)
        assert report.outcome == "certificate"
        assert report.certificate.uses_limit_rays
        assert any("ray" in s for s in report.certificate.support)
        assert all(flag for _, flag in report.eps_trace)

    def test_unperturbed_implies_perturbed(self):
        inst = convex_toy()
        x = np.array([-0.5, -0.5])
        assert verify_kkt(inst, x).outcome == "certificate"
        assert verify_perturbed_stationarity(inst, x).outcome == "certificate"

    def test_infeasible_point_raises(self):
        with pytest.raises(ValueError):
            verify_perturbed_stationarity(countable_cubic(), np.zeros(2))


class TestConvexGlobal:
    def test_toy_global_at_minimizer(self):
        report = convex_global_check(convex_toy(), np.array([-0.5, -0.5]))
        assert report.outcome == "certificate"
        assert report.global_optimal is True

    def test_toy_refuted_at_suboptimal_boundary(self):
        report = convex_global_check(convex_toy(), np.array([-1.0, 0.0]))
        assert report.outcome == "refuted"
        assert report.global_optimal is False

    def test_parabola_band_origin_global(self):
        inst = load_instance(INSTANCES / "parabola_band.sip")
        report = convex_global_check(inst, np.zeros(2))
        assert report.outcome == "certificate"
        assert report.global_optimal is True
        # brute-force grid search over the box confirms the cost bound
        xs = np.linspace(-2, 2, 81)
        best = math.inf
        for x1 in xs:
            for x2 in xs:
                sup = max(t * x1 * x1 - x2 for t in np.linspace(0.01, 0.99, 25))
                if sup <= 1e-12:
                    best = min(best, x2)
        assert best >= -1e-9

    def test_nonconvex_inconclusive(self):
        report = convex_global_check(countable_cubic(), XBAR)
        assert report.outcome == "inconclusive"


class TestLinearSpecialization:
    def test_single_halfspace(self):
        inst = SipInstance(
            dim=2, cost=SmoothCost(ex.parse("x1")), fixed=(("a", ex.parse("x1")),), convex=True
        )
        rep = linear_specialization(inst, np.zeros(2))
        assert rep.member(np.array([1.0, 0.0])).is_member
        assert not rep.member(np.array([0.0, 1.0])).is_member
        assert not rep.member(np.array([-1.0, 0.0])).is_member

    def test_countable_affine_coefficients(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            families=(
                (
                    ConstraintFamily("g", "n", ex.parse("x1/n - x2")),
                    CountableIndexSet(start=1, truncation=2000),
                ),
            ),
            convex=True,
        )
        rep = linear_specialization(inst, np.zeros(2))
        # every coefficient (1/n, -1) is active at the origin
        assert rep.member(np.array([1.0, -1.0])).is_member
        assert not rep.member(np.array([0.0, 1.0])).is_member

    def test_nonaffine_rejected(self):
        with pytest.raises(ValueError):
            linear_specialization(countable_cubic(), XBAR)


class TestResidualTrace:
    def test_residual_decays_with_truncation(self):
        inst = countable_cubic()
        trace = membership_residual_trace(
            inst, XBAR, np.array([0.0, -1.0]), truncations=(100, 1000, 10_000)
        )
        residuals = [r for _, r in trace]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] == pytest.approx(1e-4, rel=0.2)
