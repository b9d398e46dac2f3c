import dataclasses
import itertools
import math

import numpy as np
import pytest

from sipcert.cones import (
    Closedness,
    GeneratedCone,
    Ray,
    accumulation_rays,
    augmented_generators,
    closedness_diagnostic,
    declared_rays,
    family_rays,
    membership,
)
from sipcert.linsolve import ConeRefutation, FeasibilityCertificate
from sipcert.model import FamilyScan, scan_constraints, unit_vectors
from sipcert.optimality import _family_rays

from oracles import caratheodory_reduce
from test_model import countable_cubic, interval_ramp, open_interval


def quadrant_like_cone(n_tail=50, with_ray=True):
    gens = [np.array([1.0, 0.0])] + [np.array([1.0 / n, -1.0]) for n in range(2, n_tail)]
    labels = ["g1"] + [f"g({n})" for n in range(2, n_tail)]
    rays = [Ray(np.array([0.0, -1.0]), "extrapolated", False, "limit-ray")] if with_ray else []
    return GeneratedCone(
        dim=2,
        labels=labels,
        generators=np.column_stack(gens),
        lineality=np.zeros((2, 0)),
        limit_rays=rays,
    )


class TestMembership:
    def test_two_generator_combination(self):
        cone = GeneratedCone(
            dim=2,
            labels=["a", "b"],
            generators=np.array([[1.0, 0.5], [0.0, -1.0]]),
            lineality=np.zeros((2, 0)),
        )
        out = membership(cone, [1.0, -1.0])
        assert isinstance(out, FeasibilityCertificate)
        np.testing.assert_allclose(out.lam, [0.5, 1.0], atol=1e-9)

    def test_zero_vector_member(self):
        cone = quadrant_like_cone()
        out = membership(cone, [0.0, 0.0])
        assert isinstance(out, FeasibilityCertificate)
        assert np.max(out.lam) <= 1e-12

    def test_limit_ray_closes_the_gap(self):
        cone = quadrant_like_cone(n_tail=100, with_ray=True)
        with_ray = membership(cone, [0.0, -1.0], tol=1e-9)
        without = membership(dataclasses.replace(cone, limit_rays=[]), [0.0, -1.0], tol=1e-9)
        assert isinstance(with_ray, FeasibilityCertificate)
        assert isinstance(without, ConeRefutation)
        # the refutation margin shrinks like the truncation level
        assert 0 < without.value <= 2.0 / 98

    def test_membership_and_separation_exclusive(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            cone = GeneratedCone(
                dim=d,
                labels=[f"c{i}" for i in range(m)],
                generators=rng.normal(size=(d, m)),
                lineality=np.zeros((d, 0)),
            )
            v = rng.normal(size=d)
            out = membership(cone, v)
            if isinstance(out, FeasibilityCertificate):
                G = cone.columns()
                assert np.max(np.abs(G @ out.lam - v)) <= 1e-8
                assert np.all(out.lam >= -1e-12)
            else:
                assert out.separator @ v > 1e-9
                G = cone.columns()
                assert np.all(G.T @ out.separator <= 1e-9)


class TestCaratheodory:
    def test_small_support_fixed_point(self):
        cone = GeneratedCone(
            dim=2,
            labels=["a", "b"],
            generators=np.array([[1.0, 0.0], [0.0, 1.0]]),
            lineality=np.zeros((2, 0)),
        )
        cert = membership(cone, [1.0, 1.0])
        red = caratheodory_reduce(cert, cone, [1.0, 1.0])
        np.testing.assert_allclose(red.lam, cert.lam, atol=1e-12)

    def test_dense_combination_reduces(self):
        G = np.array([[1.0, 2.0, 1.0, 1.0], [0.0, 0.0, 1.0, -1.0]])
        cone = GeneratedCone(dim=2, labels=list("abcd"), generators=G, lineality=np.zeros((2, 0)))
        lam = np.array([0.5, 0.5, 0.5, 0.5])
        v = G @ lam
        cert = FeasibilityCertificate(lam=lam, y=np.zeros(0), residual=0.0)
        red = caratheodory_reduce(cert, cone, v)
        support = np.flatnonzero(red.lam > 1e-12)
        assert len(support) <= 3
        assert red.residual <= 1e-9
        # brute-force: some support of size <= 3 reproduces v
        found = False
        for size in (1, 2, 3):
            for idx in itertools.combinations(range(4), size):
                sub = G[:, idx]
                sol, res, *_ = np.linalg.lstsq(sub, v, rcond=None)
                if np.all(sol >= -1e-9) and np.max(np.abs(sub @ sol - v)) < 1e-9:
                    found = True
        assert found

    def test_zero_vector_empty_support(self):
        cone = quadrant_like_cone(n_tail=10)
        cert = membership(cone, [0.0, 0.0])
        red = caratheodory_reduce(cert, cone, [0.0, 0.0])
        assert np.max(red.lam) <= 1e-12

    def test_never_increases_residual_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(d + 2, d + 7))
            G = rng.normal(size=(d, m))
            lam = rng.uniform(0.1, 1.0, size=m)
            v = G @ lam
            cone = GeneratedCone(
                dim=d, labels=[str(i) for i in range(m)], generators=G, lineality=np.zeros((d, 0))
            )
            cert = FeasibilityCertificate(lam=lam, y=np.zeros(0), residual=0.0)
            red = caratheodory_reduce(cert, cone, v)
            assert np.sum(red.lam > 1e-10) <= d + 1
            assert red.residual <= 1e-8
            assert np.all(red.lam >= 0)


def tail_rays(samples):
    """`accumulation_rays` on the arrays of (parameter, vector) pairs, with
    attainment judged against the samples' own directions."""
    params = np.array([p for p, _ in samples])
    vectors = np.array([v for _, v in samples], dtype=float)
    own = unit_vectors(vectors)
    return accumulation_rays(params, vectors, attained_dirs=own[~np.isnan(own[:, 0])])


class TestAccumulationRays:
    def test_reciprocal_tail(self):
        samples = [(1.0 / n, np.array([1.0 / n, -1.0])) for n in range(2, 200)]
        rays, ok = tail_rays(samples)
        assert ok and len(rays) == 1
        np.testing.assert_allclose(rays[0].direction, [0.0, -1.0], atol=1e-6)
        assert not rays[0].attained
        assert rays[0].provenance == "extrapolated"

    def test_constant_sequence_attained(self):
        samples = [(1.0 / n, np.array([1.0, 0.0])) for n in range(2, 40)]
        rays, ok = tail_rays(samples)
        assert ok and len(rays) == 1
        np.testing.assert_allclose(rays[0].direction, [1.0, 0.0], atol=1e-9)
        assert rays[0].attained

    def test_scaling_family_attained_direction(self):
        ts = np.linspace(1e-3, 1.0, 60)[::-1]
        samples = [(t, np.array([t, 0.0])) for t in ts]
        rays, ok = tail_rays(samples)
        assert ok and len(rays) == 1
        np.testing.assert_allclose(rays[0].direction, [1.0, 0.0], atol=1e-9)
        assert rays[0].attained

    @pytest.mark.parametrize(
        "v", [[0.2941325, 0.02842224, 0.54671299], [0.21327155, 0.45899312, 0.08724998]]
    )
    def test_direction_attained_against_itself(self, v):
        # u.u can round below 1, and acos(1 - 1 ulp) = 1.5e-8 exceeds attain_tol
        v = np.array(v)
        rays = declared_rays(FamilyScan("g", 0, [], False, declared_ray=v), 0.0, [v])
        assert len(rays) == 1
        assert rays[0].attained

    def test_declared_hint_passes_through(self):
        # the declared ray stands for the family: its tail is not extrapolated
        inst = countable_cubic(truncation=8)
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        scan.families[0].declared_ray = np.array([0.0, -2.0])
        rays = _family_rays(scan, scan.grad[scan.grid()])
        assert len(rays) == 1
        np.testing.assert_allclose(rays[0].direction, [0.0, -1.0])
        assert rays[0].provenance == "declared"

    def test_declared_ray_whose_norm_overflows_is_kept(self):
        # |(0, -1e308)| overflows to inf; the ray still has the direction (0, -1)
        inst = countable_cubic(truncation=100)
        fam, desc = inst.families[0]
        desc = dataclasses.replace(desc, limit_ray=(0.0, -1e308))
        inst = dataclasses.replace(inst, families=((fam, desc),))
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        rays = _family_rays(scan, scan.grad[scan.grid()])
        assert [r.direction.tolist() for r in rays] == [[0.0, -1.0]]
        assert rays[0].provenance == "declared"

    def test_oscillating_tail_inconclusive(self):
        samples = [
            (1.0 / n, np.array([math.cos(n * 2.0), math.sin(n * 2.0)])) for n in range(2, 60)
        ]
        rays, ok = tail_rays(samples)
        assert rays == [] and not ok

    def test_too_few_samples(self):
        rays, ok = tail_rays([(0.5, np.array([1.0, 0.0]))])
        assert rays == [] and not ok

    def test_two_estimates_must_agree(self):
        # the two Richardson estimates sit about 5e-4 rad apart, far above
        # residual_tol, so the cluster is not corroborated
        turn = [math.cos(2.5e-4), math.sin(2.5e-4)]
        samples = [(1.0, [1.0, 0.0]), (0.5, [1.0, 0.0]), (0.25, turn)]
        assert tail_rays(samples) == ([], False)
        rays, ok = tail_rays([(1.0, [1.0, 0.0]), (0.5, [1.0, 0.0]), (0.25, [1.0, 0.0])])
        assert ok and len(rays) == 1
        np.testing.assert_allclose(rays[0].direction, [1.0, 0.0])


class TestFamilyRays:
    def test_one_ray_per_end_with_its_own_value_limit(self):
        # g(t) -> x2 - 1 as t -> 0 (value limit -1) and -> x1 as t -> 1 (0)
        inst = open_interval("t*x1 + (1-t)*x2 - (1-t)^2")
        scan = scan_constraints(inst, np.zeros(2))
        fam = scan.families[0]
        rays, ok = family_rays(scan, fam, scan.grad[scan.tail], [0, 1], scan.grad[scan.grid()])
        assert ok and len(rays) == 2
        np.testing.assert_allclose(rays[0].direction, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(rays[1].direction, [1.0, 0.0], atol=1e-12)
        assert rays[0].value_limit == pytest.approx(-1.0)
        assert rays[1].value_limit == pytest.approx(0.0, abs=1e-12)
        assert [r.label for r in rays] == ["g:limit-ray-0", "g:limit-ray-1"]

    def test_close_rays_merge_with_the_larger_value_limit(self):
        # both ends have gradient (0, -1); the value limits are 0 and -1
        inst = open_interval("-t*x2 - t")
        scan = scan_constraints(inst, np.zeros(2))
        fam = scan.families[0]
        assert [tl.value_limit for tl in fam.tails] == pytest.approx([0.0, -1.0], abs=1e-12)
        for order in ([0, 1], [1, 0]):
            rays, ok = family_rays(scan, fam, scan.grad[scan.tail], order, scan.grad[scan.grid()])
            assert ok and len(rays) == 1
            np.testing.assert_allclose(rays[0].direction, [0.0, -1.0], atol=1e-12)
            assert rays[0].value_limit == pytest.approx(0.0, abs=1e-12)

    def test_ok_needs_every_ladder(self):
        inst = open_interval("t*x1 + (1-t)*x2")
        scan = scan_constraints(inst, np.zeros(2))
        fam = scan.families[0]
        scan.grad[(scan.block == fam.block) & (scan.ladder == 1)] = 0.0
        rays, ok = family_rays(scan, fam, scan.grad[scan.tail], [0, 1], scan.grad[scan.grid()])
        assert not ok and len(rays) == 1
        np.testing.assert_allclose(rays[0].direction, [0.0, 1.0], atol=1e-12)


class TestAugmentedGenerators:
    def test_interval_ramp_lift(self):
        inst = interval_ramp(resolution=9, refinements=0)
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        cols, lift = augmented_generators(scan)
        assert cols.shape[0] == 3
        np.testing.assert_allclose(cols[:, 0], [1.0, 0.0, -1.0], atol=1e-12)
        # family columns are (t, 0, 0)
        for j in range(1, cols.shape[1]):
            t = cols[0, j]
            np.testing.assert_allclose(cols[:, j], [t, 0.0, 0.0], atol=1e-12)
        # the tail-ladder rows' lift, (t, 0, 0) with t -> 0
        assert lift.shape == (np.count_nonzero(scan.tail), 3) and len(lift)
        np.testing.assert_array_equal(lift[:, 0], scan.t[scan.tail])
        np.testing.assert_allclose(lift[:, 1:], 0.0, atol=1e-12)

    def test_countable_cubic_lift(self):
        inst = countable_cubic(truncation=10)
        cols, _ = augmented_generators(scan_constraints(inst, np.array([-1.0, 0.0])))
        np.testing.assert_allclose(cols[:, 0], [1.0, 0.0, -1.0], atol=1e-12)
        for j, n in enumerate(range(2, 11), start=1):
            np.testing.assert_allclose(
                cols[:, j], [1.0 / n, -1.0, -2.0 / (3.0 * n)], atol=1e-12
            )

    def test_parabola_band_lift(self):
        from sipcert.model import load_instance
        from pathlib import Path

        inst = load_instance(
            Path(__file__).resolve().parent.parent / "instances" / "parabola_band.sip"
        )
        cols, _ = augmented_generators(scan_constraints(inst, np.zeros(2)))
        for j in range(cols.shape[1]):
            np.testing.assert_allclose(cols[:, j], [0.0, -1.0, 0.0], atol=1e-12)


class TestClosedness:
    def _aug_cone(self, inst, x):
        scan = scan_constraints(inst, np.asarray(x, dtype=float))
        cols, lift = augmented_generators(scan)
        all_rays = []
        ok_all = True
        for fam in scan.families:
            rays, ok = family_rays(scan, fam, lift, range(len(fam.tails)), cols.T)
            all_rays.extend(rays)
            ok_all = ok_all and ok
        complete = all(f.complete for f in scan.families)
        return cols, all_rays, complete, ok_all

    def test_interval_ramp_closed(self):
        inst = interval_ramp()
        cols, rays, complete, ok = self._aug_cone(inst, [-1.0, 0.0])
        verdict = closedness_diagnostic(cols, rays, complete=complete, extrapolation_ok=ok)
        assert verdict.status == Closedness.CLOSED

    def test_countable_cubic_not_closed(self):
        inst = countable_cubic()
        cols, rays, complete, ok = self._aug_cone(inst, [-1.0, 0.0])
        verdict = closedness_diagnostic(cols, rays, complete=complete, extrapolation_ok=ok)
        assert verdict.status == Closedness.NOT_CLOSED
        a = verdict.witness_separator
        ray = verdict.witness_ray.direction
        # witness re-verifies: strictly positive on the ray, nonpositive on generators
        assert a @ ray > 1e-9
        assert np.all(cols.T @ a <= 1e-9)

    def test_parabola_band_closed(self):
        from sipcert.model import load_instance
        from pathlib import Path

        inst = load_instance(
            Path(__file__).resolve().parent.parent / "instances" / "parabola_band.sip"
        )
        cols, rays, complete, ok = self._aug_cone(inst, [0.0, 0.0])
        verdict = closedness_diagnostic(cols, rays, complete=complete, extrapolation_ok=ok)
        assert verdict.status == Closedness.CLOSED

    def test_finite_sets_always_closed(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            verdict = closedness_diagnostic(
                rng.normal(size=(d, m)),
                [],
                complete=True,
            )
            assert verdict.status == Closedness.CLOSED

    def test_generator_norm_past_the_float_range_is_unknown(self):
        # each entry is finite but its square overflows, so the norm reads inf;
        # the RuntimeWarning filter of the suite turns a warning into a failure
        cols = np.array([[-2.6e154, -2.6e154], [-1.0, -1.0], [0.0, 0.0]])
        verdict = closedness_diagnostic(cols, [], complete=False)
        assert verdict.status == Closedness.UNKNOWN
        assert verdict.reason == "generator norms spread outside the compactness band"

    def test_monotone_information(self):
        # adding an extrapolated ray can refine Unknown but never flips a
        # definite verdict on the worked instances
        inst = countable_cubic()
        cols, rays, complete, ok = self._aug_cone(inst, [-1.0, 0.0])
        without = closedness_diagnostic(cols, [], complete=False, extrapolation_ok=False)
        with_rays = closedness_diagnostic(cols, rays, complete=False, extrapolation_ok=ok)
        assert without.status == Closedness.UNKNOWN
        assert with_rays.status == Closedness.NOT_CLOSED

    def test_inconclusive_extrapolation_gives_unknown(self):
        verdict = closedness_diagnostic(
            np.array([[1.0, 0.9], [0.1, 0.2]]),
            [],
            complete=False,
            extrapolation_ok=False,
        )
        assert verdict.status == Closedness.UNKNOWN
