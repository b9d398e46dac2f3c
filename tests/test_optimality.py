import math
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.cli import probe_directions
from sipcert.cones import GeneratedCone, membership
from sipcert.linsolve import FeasibilityCertificate
from sipcert.model import (
    SipInstance,
    SmoothCost,
    ConvexMaxCost,
    active_set,
    estimate_moduli,
    load_instance,
    loads_instance,
)
from sipcert import linsolve, optimality
from sipcert.optimality import (
    _cone,
    _family_rays,
    _stationarity,
    convex_global_check,
    normal_cone,
    verify_kkt,
    verify_perturbed_stationarity,
)

from oracles import empirical_normal_cone_probe, membership_residual_trace
from test_model import countable_cubic, interval_ramp, open_interval

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
XBAR = np.array([-1.0, 0.0])

COMPASS = [
    np.array([math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)])
    for k in range(16)
]

# the bundled instances at the points of their golden reports
GOLDEN_POINTS = {
    "countable_cubic": (-1.0, 0.0),
    "interval_ramp": (-1.0, 0.0),
    "parabola_band": (0.0, 1.0),
    "convex_toy": (-0.5, -0.5),
}

nested_cases = pytest.mark.parametrize(
    "name,variant",
    [(name, variant) for name in GOLDEN_POINTS for variant in ("perturbed", "normalized")],
)


def golden_cone(name, variant):
    inst = load_instance(INSTANCES / f"{name}.sip")
    return inst, normal_cone(inst, np.array(GOLDEN_POINTS[name]), variant=variant)


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
            assert rep.member(v, tol=1e-6) == in_quadrant(v)

    def test_cubic_unperturbed_is_halfline(self):
        inst = countable_cubic()
        rep = normal_cone(inst, XBAR, variant="unperturbed")
        assert not rep.valid  # closedness qualification fails here
        for v in COMPASS:
            expected = v[0] >= -1e-6 and abs(v[1]) <= 1e-6
            assert rep.member(v, tol=1e-6) == expected

    def test_variants_disagree_on_two_probes(self):
        inst = countable_cubic()
        pert = normal_cone(inst, XBAR, variant="perturbed")
        unpert = normal_cone(inst, XBAR, variant="unperturbed")
        for v in ([1.0, -1.0], [0.0, -1.0]):
            assert pert.member(np.array(v))
            assert not unpert.member(np.array(v))

    def test_ramp_perturbed_carries_warning_and_misses_normal(self):
        inst = interval_ramp()
        rep = normal_cone(inst, XBAR, variant="perturbed")
        assert not rep.valid
        assert rep.warnings
        # (0,-1) is a true normal but the emitted cone refuses it
        assert not rep.member(np.array([0.0, -1.0]), tol=1e-6)

    @nested_cases
    def test_generator_sets_nested_in_eps(self, name, variant):
        _, rep = golden_cone(name, variant)
        _, mask, rays = rep.per_eps[-1]
        np.testing.assert_array_equal(rep.cone.generators, rep.scan.grad[mask].T)
        assert [r.label for r in rep.cone.limit_rays] == [r.label for r in rays]
        for (eps, big, big_rays), (small_eps, small, small_rays) in zip(rep.per_eps,
                                                                        rep.per_eps[1:]):
            assert small_eps < eps
            assert np.all(small <= big)
            assert {r.label for r in small_rays} <= {r.label for r in big_rays}

    def test_columns_copied_when_the_cone_is_first_read(self, monkeypatch):
        built = []
        init = GeneratedCone.__post_init__
        monkeypatch.setattr(GeneratedCone, "__post_init__",
                            lambda cone: built.append(cone) or init(cone))
        rep = normal_cone(countable_cubic(), XBAR, variant="perturbed")
        assert built == []
        assert rep.cone is rep.cone
        assert len(built) == 1 and built[0] is rep.cone

    @nested_cases
    def test_member_matches_every_eps_loop(self, name, variant):
        # the reference asks every scheduled cone; the smallest must agree
        inst, rep = golden_cone(name, variant)
        for v in probe_directions(inst.dim, 16, 0):
            every_eps = all(
                isinstance(membership(_cone(rep.scan, mask, rep.lineality, rays), v, 1e-6),
                           FeasibilityCertificate)
                for _, mask, rays in rep.per_eps
            )
            assert rep.member(v, tol=1e-6) == every_eps

    def test_regular_flag_from_moduli(self):
        inst = countable_cubic(truncation=200)
        moduli = estimate_moduli(inst, XBAR, etas=(0.005, 0.1), samples_per_eta=150)
        assert moduli.regular is True
        assert estimate_moduli(inst, XBAR, etas=(), samples_per_eta=150).regular is None

    def test_normalized_variant_runs(self):
        inst = countable_cubic()
        rep = normal_cone(inst, XBAR, variant="normalized")
        assert rep.member(np.array([1.0, -1.0]))

    def test_infeasible_point_raises(self):
        with pytest.raises(ValueError):
            normal_cone(countable_cubic(), np.array([0.0, 0.0]))


class TestOpenIntervalRays:
    """An interval open at both ends has a tail ladder toward each end; the
    two share their parameters, and each end's limit ray must survive."""

    def test_both_active_ends_give_rays(self):
        # gradients (t, 1-t), all active at the origin: the cone is the quadrant
        rep = normal_cone(open_interval("t*x1 + (1-t)*x2"), np.zeros(2), variant="perturbed")
        rays = rep.cone.limit_rays
        assert len(rays) == 2
        np.testing.assert_allclose(rays[0].direction, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rays[1].direction, [1.0, 0.0], atol=1e-12)
        assert [r.value_limit for r in rays] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert rep.member(np.array([1.0, 0.0])) is True
        assert rep.member(np.array([0.0, 1.0])) is True

    def test_inactive_end_ray_keeps_its_value_limit(self):
        # (0, 1) is the limit at the end t -> 0 where g -> -1, so it is not
        # qualified at any scheduled eps; (1, 0) is the active end's limit
        inst = open_interval("t*x1 + (1-t)*x2 - (1-t)^2")
        rep = normal_cone(inst, np.zeros(2), variant="perturbed")
        rays = _family_rays(rep.scan, rep.scan.grad[rep.scan.grid()])
        assert len(rays) == 2
        np.testing.assert_allclose(rays[0].direction, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rays[1].direction, [1.0, 0.0], atol=1e-12)
        assert rays[0].value_limit == pytest.approx(-1.0)
        assert rays[1].value_limit == pytest.approx(0.0, abs=1e-12)
        assert [r.label for r in rep.cone.limit_rays] == [rays[1].label]
        assert rep.member(np.array([1.0, 0.0])) is True
        assert rep.member(np.array([0.0, 1.0])) is False


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

    def test_ray_free_certificate_with_ray_in_labels(self):
        # constraint names that contain "ray" do not make a certificate use a limit ray
        inst = loads_instance(
            "[problem]\nvars = x1 x2\nminimize = x1 + x2\nconvex = true\n"
            "[constraints]\ngray1 = -x1 - 1\ngray2 = -x2 - 1\n"
        )
        x = np.array([-1.0, -1.0])
        reports = [
            verify_kkt(inst, x),
            verify_perturbed_stationarity(inst, x),
            convex_global_check(inst, x),
        ]
        for report in reports:
            assert report.outcome == "certificate"
            assert sorted(report.certificate.support) == ["gray1", "gray2"]
            assert not report.certificate.uses_limit_rays

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

    # the golden points, plus a convex_toy point refuted at eps = 0.01 only
    TRACE_POINTS = [*GOLDEN_POINTS.items(), ("convex_toy", (-0.525, -0.525))]

    @pytest.mark.parametrize("name,point", TRACE_POINTS)
    def test_matches_every_eps_loop(self, name, point):
        inst, x = load_instance(INSTANCES / f"{name}.sip"), np.array(point)
        got, want = verify_perturbed_stationarity(inst, x), every_eps_stationarity(inst, x)
        assert got.eps_trace == want.eps_trace
        assert (got.condition, got.outcome, got.notes) == (want.condition, want.outcome,
                                                          want.notes)
        assert (got.certificate is None) == (want.certificate is None)
        if got.certificate is not None:
            for key in ("support", "residual", "uses_limit_rays"):
                assert getattr(got.certificate, key) == getattr(want.certificate, key)
            for key in ("lam", "y", "cost_weights"):
                np.testing.assert_array_equal(getattr(got.certificate, key),
                                              getattr(want.certificate, key))
        np.testing.assert_array_equal(got.separator, want.separator)

    @pytest.mark.parametrize("name,point,flags,lps", [
        ("countable_cubic", (-1.0, 0.0), [True] * 8, 1),  # certified on the smallest cone
        ("parabola_band", (0.0, 1.0), [False], 1),  # every scheduled cone is the smallest
        ("convex_toy", (-0.525, -0.525), [True, False], 2),  # eps = 0.01 reuses it
    ])
    def test_trace_and_hull_lp_count(self, name, point, flags, lps, monkeypatch):
        calls = []
        original = linsolve.hull_plus_cone_feasibility
        monkeypatch.setattr(linsolve, "hull_plus_cone_feasibility",
                            lambda *a: calls.append(a) or original(*a))
        inst = load_instance(INSTANCES / f"{name}.sip")
        report = verify_perturbed_stationarity(inst, np.array(point))
        assert [flag for _, flag in report.eps_trace] == flags
        assert len(calls) == lps


def every_eps_stationarity(inst, x):
    """The reference rule: one LP per scheduled eps, largest first, ending at
    the first cone without a certificate."""
    rep = normal_cone(inst, x, variant="perturbed")
    trace = []
    for eps, mask, rays in rep.per_eps:
        cone = _cone(rep.scan, mask, rep.lineality, rays)
        report = _stationarity(inst, x, cone, "perturbed-stationarity")
        trace.append((eps, report.outcome == "certificate"))
        if report.outcome != "certificate":
            break
    report.eps_trace = trace
    report.notes = rep.warnings + report.notes
    return report


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

    @pytest.mark.parametrize("point", [(-0.5, -0.5), (-1.0, 0.0)])
    def test_given_kkt_report_is_left_unchanged(self, point):
        inst, x = convex_toy(), np.array(point)
        kkt = verify_kkt(inst, x)
        before = (kkt.condition, list(kkt.notes), kkt.global_optimal)
        report = convex_global_check(inst, x, kkt=kkt)
        assert report.condition == "convex-global" and report.global_optimal is not None
        assert (kkt.condition, kkt.notes, kkt.global_optimal) == before

    @pytest.mark.parametrize("point", [(-0.5, -0.5), (-1.0, 0.0)])
    def test_perturbed_check_leaves_the_given_kkt_report_unchanged(self, point):
        inst, x = convex_toy(), np.array(point)
        kkt = verify_kkt(inst, x)
        before = (kkt.condition, list(kkt.notes), list(kkt.eps_trace))
        report = verify_perturbed_stationarity(inst, x, kkt=kkt)
        assert report.condition == "perturbed-stationarity" and report.eps_trace
        assert (kkt.condition, kkt.notes, kkt.eps_trace) == before


class TestPrebuiltCones:
    @pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
    def test_stationarity_on_a_prebuilt_cone_matches_a_fresh_one(self, name):
        inst, x = load_instance(INSTANCES / f"{name}.sip"), np.array(GOLDEN_POINTS[name])
        kkt = verify_kkt(inst, x, rep=normal_cone(inst, x, variant="unperturbed"))
        pert = verify_perturbed_stationarity(inst, x, rep=normal_cone(inst, x))
        for got, want in ((kkt, verify_kkt(inst, x)), (pert, verify_perturbed_stationarity(inst, x))):
            assert (got.outcome, got.eps_trace, got.notes) == (want.outcome, want.eps_trace, want.notes)

    def test_wrong_variant_is_rejected(self):
        inst = countable_cubic()
        with pytest.raises(ValueError):
            verify_kkt(inst, XBAR, rep=normal_cone(inst, XBAR, variant="perturbed"))
        with pytest.raises(ValueError):
            verify_perturbed_stationarity(inst, XBAR, rep=normal_cone(inst, XBAR, variant="normalized"))


def test_certificates_are_basic(monkeypatch):
    """Every certificate at the golden points, of the two fixtures, at a
    convex_toy point certified at eps = 0.1 only and of an instance with an
    equality: its support gradients and the equality columns where y != 0
    are linearly independent."""
    seen = []  # (cone, certificate) for each certificate made
    original = optimality._certificate_from_hull

    def recording(out, cone):
        seen.append((cone, original(out, cone)))
        return seen[-1][1]

    monkeypatch.setattr(optimality, "_certificate_from_hull", recording)
    cases = [(load_instance(INSTANCES / f"{name}.sip"), point)
             for name, point in [*GOLDEN_POINTS.items(), ("convex_toy", (-0.525, -0.525))]]
    # -(1, 2) = 0.75 (-2, -2) + 0.5 (1, -1): a multiplier on the equality too
    with_equality = loads_instance(
        "[problem]\nvars = x1 x2\nminimize = x1 + 2*x2\n\n"
        "[constraints]\ng = x1^2 + x2^2 - 2\n\n[equalities]\nh = x1 - x2\n")
    for inst, x in [*cases, (countable_cubic(), XBAR), (interval_ramp(), XBAR),
                    (with_equality, (-1.0, -1.0))]:
        verify_kkt(inst, np.array(x))
        verify_perturbed_stationarity(inst, np.array(x))
    assert len(seen) == 7 and sum(np.any(cert.y != 0) for _, cert in seen) == 2
    for cone, cert in seen:
        columns = cone.columns()
        index = {cone.label(j): j for j in range(columns.shape[1])}
        assert len(index) == columns.shape[1]
        M = np.hstack([columns[:, [index[s] for s in cert.support]],
                       cone.lineality[:, cert.y != 0]])
        assert M.shape[1] <= cone.dim
        assert np.linalg.matrix_rank(M) == M.shape[1]


class TestResidualTrace:
    def test_residual_decays_with_truncation(self):
        inst = countable_cubic()
        trace = membership_residual_trace(
            inst, XBAR, np.array([0.0, -1.0]), truncations=(100, 1000, 10_000)
        )
        residuals = [r for _, r in trace]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] == pytest.approx(1e-4, rel=0.2)
