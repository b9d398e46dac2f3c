import math
from pathlib import Path

import numpy as np
import pytest

from sipcert import expr as ex
from sipcert.model import (
    ActiveSetReport,
    ConstraintFamily,
    CountableIndexSet,
    EqualityBlock,
    FiniteIndexSet,
    InstanceError,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    active_set,
    estimate_moduli,
    feasibility_check,
    gradient_bound_check,
    load_instance,
    loads_instance,
    scan_constraints,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def countable_cubic(truncation=10_000):
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("(x1+1)^2 + x2")),
        fixed=(("g1", ex.parse("x1 + 1")),),
        families=(
            (
                ConstraintFamily("g", "n", ex.parse("x1^3/(3*n) - x2")),
                CountableIndexSet(start=2, truncation=truncation, limit_ray=(0.0, -1.0)),
            ),
        ),
    )


def interval_ramp(resolution=257, refinements=4):
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("(x1+1)^2 + x2")),
        fixed=(("g0", ex.parse("x1 + 1")),),
        families=(
            (
                ConstraintFamily("g", "t", ex.parse("t*x1 - x2^3")),
                IntervalGridIndexSet(0.0, 1.0, include_lower=False, include_upper=True,
                                     resolution=resolution, refinements=refinements),
            ),
        ),
    )


class TestLoading:
    def test_countable_instance_file(self):
        inst = load_instance(INSTANCES / "countable_cubic.sip")
        assert inst.dim == 2
        assert len(inst.fixed) == 1
        fam, desc = inst.families[0]
        assert isinstance(desc, CountableIndexSet)
        assert desc.start == 2
        assert desc.limit_ray == (0.0, -1.0)

    def test_too_many_equalities_rejected(self):
        text = """
[problem]
vars = x1 x2
minimize = x1

[equalities]
h1 = x1
h2 = x2
"""
        with pytest.raises(InstanceError):
            loads_instance(text)

    def test_empty_constraint_section_is_fine(self):
        inst = loads_instance("[problem]\nvars = x1\nminimize = x1^2\n")
        assert inst.fixed == () and inst.families == ()
        assert feasibility_check(inst, [3.0]).feasible

    def test_undeclared_index_rejected(self):
        text = """
[problem]
vars = x1
minimize = x1

[constraints]
g(t) = t*x1
"""
        with pytest.raises(InstanceError) as err:
            loads_instance(text)
        assert "undeclared" in str(err.value)

    def test_error_carries_line(self):
        text = "[problem]\nvars = x1\nminimize = x1 +\n"
        with pytest.raises(InstanceError) as err:
            loads_instance(text)
        assert "line 3" in str(err.value)

    def test_max_cost(self):
        inst = loads_instance(
            "[problem]\nvars = x1 x2\nminimize_max = x1 ; x2 ; x1+x2\n"
        )
        assert len(inst.cost.pieces) == 3
        assert inst.cost_value([2.0, 1.0]) == pytest.approx(3.0)


class TestFeasibility:
    def test_minimizer_is_feasible(self):
        inst = countable_cubic()
        res = feasibility_check(inst, [-1.0, 0.0])
        assert res.feasible
        assert res.max_violation <= 1e-9

    def test_origin_infeasible(self):
        inst = countable_cubic()
        res = feasibility_check(inst, [0.0, 0.0])
        assert not res.feasible
        assert res.max_violation == pytest.approx(1.0)
        assert res.worst.label == "g1"

    def test_tail_ladder_catches_negative_x2(self):
        # with only 10^4 materialized indices, x2 slightly below zero looks
        # feasible; the tail ladder rejects it
        inst = countable_cubic()
        res_no_tail = feasibility_check(inst, [-1.0, -1e-5], tail=False)
        res_tail = feasibility_check(inst, [-1.0, -1e-5], tail=True)
        assert res_no_tail.feasible
        assert not res_tail.feasible

    def test_equalities_enter_residual(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            equalities=EqualityBlock((ex.parse("x1 + x2 - 1"),), affine=True, names=("h1",)),
        )
        res = feasibility_check(inst, [0.0, 0.0])
        assert not res.feasible and res.eq_residual == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_equality_residual_is_infinite(self):
        # exp(800) overflows and inf * 0 is NaN
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x2")),
            equalities=EqualityBlock((ex.parse("exp(x1)*0 + x2"),), names=("h",)),
        )
        assert math.isnan(inst.eq_values([800.0, 0.5])[0])
        assert inst.eq_residual([800.0, 0.5]) == math.inf
        res = feasibility_check(inst, [800.0, 0.5])
        assert not res.feasible and res.eq_residual == math.inf
        assert inst.eq_residual([1.0, -0.5]) == 0.5


class TestBox:
    def test_declared_box(self):
        inst = loads_instance("[problem]\nvars = x1 x2\nminimize = x1\nbox = 800 900; -2 2\n")
        lo, hi = inst.box_bounds()
        np.testing.assert_array_equal(lo, [800.0, -2.0])
        np.testing.assert_array_equal(hi, [900.0, 2.0])

    def test_default_box(self):
        lo, hi = loads_instance("[problem]\nvars = x1 x2\nminimize = x1\n").box_bounds()
        np.testing.assert_array_equal(lo, [-1.0, -1.0])
        np.testing.assert_array_equal(hi, [1.0, 1.0])


class TestActiveSets:
    def test_countable_eps_active_matches_scan(self):
        inst = countable_cubic()
        rep = active_set(inst, [-1.0, 0.0], eps=0.05)
        active_labels = [e.id.label for e in rep.active]
        assert active_labels == ["g1"]
        # brute-force oracle: g_n(-1, 0) = -1/(3n) >= -0.05 iff n >= 7
        expected = {"g1"} | {f"g({n})" for n in range(7, 10_001)}
        got = {e.id.label for e in rep.eps_active}
        assert got == expected

    def test_interval_eps_active(self):
        inst = interval_ramp()
        rep = active_set(inst, [-1.0, 0.0], eps=0.5)
        labels = {e.id.label for e in rep.eps_active}
        assert "g0" in labels
        family_ts = [e.id.value for e in rep.eps_active if e.id.family == "g"]
        assert family_ts
        assert max(family_ts) <= 0.5 + 1e-9
        assert min(family_ts) > 0.0

    def test_eps_zero_coincides_with_active(self):
        inst = countable_cubic()
        rep = active_set(inst, [-1.0, 0.0], eps=0.0)
        assert [e.id for e in rep.eps_active] == [e.id for e in rep.active]

    def test_monotone_in_eps(self):
        inst = countable_cubic(truncation=500)
        r1 = active_set(inst, [-1.0, 0.0], eps=0.01)
        r2 = active_set(inst, [-1.0, 0.0], eps=0.1)
        s1 = {e.id for e in r1.eps_active}
        s2 = {e.id for e in r2.eps_active}
        assert s1 <= s2

    def test_listed_indices_verify_inequality(self):
        inst = countable_cubic(truncation=500)
        rep = active_set(inst, [-1.0, 0.0], eps=0.03)
        for e in rep.eps_active:
            assert e.value >= -0.03 - 1e-12

    def test_finite_gap_collapse(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            fixed=(("a", ex.parse("x1 - 1")), ("b", ex.parse("x2 - 2"))),
        )
        rep = active_set(inst, [0.0, 0.0], eps=0.4)
        assert rep.eps_active == rep.active == []

    def test_grid_refinement_never_drops_indices(self):
        coarse = interval_ramp(refinements=1)
        fine = interval_ramp(refinements=4)
        rc = active_set(coarse, [-1.0, 0.0], eps=0.2)
        rf = active_set(fine, [-1.0, 0.0], eps=0.2)
        assert {e.id.value for e in rc.eps_active} <= {e.id.value for e in rf.eps_active}

    def test_normalized_set(self):
        inst = countable_cubic(truncation=200)
        rep = active_set(inst, [-1.0, 0.0], eps=0.05)
        # |grad g_n| = sqrt(1/n^2 + 1) ~ 1, so the normalized set is close to
        # the plain eps-active set here
        norm_labels = {e.id.label for e in rep.normalized_eps_active}
        plain_labels = {e.id.label for e in rep.eps_active}
        assert "g1" in norm_labels
        assert norm_labels >= plain_labels

    def test_gradient_bound(self):
        inst = countable_cubic(truncation=100)
        rep = active_set(inst, [-1.0, 0.0], eps=0.0)
        bound, ok, trigger = gradient_bound_check(rep)
        assert ok
        assert bound == pytest.approx(math.sqrt(1.0 + 0.25), abs=1e-12)
        assert not trigger


class TestScan:
    def test_tail_limits_countable(self):
        inst = countable_cubic()
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        tail = scan.families[0].tails[0]
        assert tail.ok
        assert tail.value_limit == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(tail.grad_limit, [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(tail.ray, [0.0, -1.0], atol=1e-12)

    def test_tail_limits_interval_open_endpoint(self):
        inst = interval_ramp()
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        tail = scan.families[0].tails[0]
        assert tail.ok
        assert tail.value_limit == pytest.approx(0.0, abs=1e-12)
        # gradient (t, 0) vanishes but its direction is stable
        np.testing.assert_allclose(tail.grad_limit, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(tail.ray, [1.0, 0.0], atol=1e-9)

    def test_refinement_halves_smallest_grid_point(self):
        inst = interval_ramp(refinements=3)
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        block = scan.families[0].block
        mins = [scan.t[scan.grid(level, block)][0] for level in range(scan.n_levels)]
        for a, b in zip(mins, mins[1:]):
            assert b == pytest.approx(a / 2.0)


class TestModuli:
    def test_affine_family_has_zero_moduli(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("t*x1 + (1-t)*x2 - 1")),
                    IntervalGridIndexSet(0.0, 1.0, resolution=33, refinements=1),
                ),
            ),
        )
        mod = estimate_moduli(inst, [0.0, 0.0], etas=(0.1, 0.2), samples_per_eta=100)
        assert np.all(mod.s_est <= 1e-10)
        assert np.all(mod.r_est <= 1e-10)

    def test_cubic_family_moduli(self):
        inst = countable_cubic(truncation=200)
        mod = estimate_moduli(
            inst, [-1.0, 0.0], etas=(0.01, 0.02, 0.05, 0.1), samples_per_eta=400, seed=1
        )
        # worst curvature sits at n = 2; dense-pair oracle puts r(0.1) near 0.105
        r_at = dict(zip(mod.etas, mod.r_est))
        assert 0.0 < r_at[0.1] <= 0.25
        # monotone in eta, s below r
        assert np.all(np.diff(mod.s_est) >= -1e-15)
        assert np.all(np.diff(mod.r_est) >= -1e-15)
        assert np.all(mod.s_est <= mod.r_est + 1e-12)

    def test_moduli_shrink_with_eta(self):
        inst = countable_cubic(truncation=100)
        mod = estimate_moduli(
            inst, [-1.0, 0.0], etas=(0.001, 0.1), samples_per_eta=300, seed=2
        )
        assert mod.r_est[0] < mod.r_est[1]
        assert mod.r_est[0] <= 0.01

    def test_dense_oracle_cross_check(self):
        # the sharpest pair quotient for the n = 2 member on the 0.1-ball:
        # |(x^2 + x x' + x'^2)/6 - 1/2| maximized at x = x' = -1.1
        analytic = (3 * 1.1**2 - 3.0) / 6.0
        rng = np.random.default_rng(0)
        x0 = np.array([-1.0, 0.0])
        pts = x0 + 0.1 * rng.uniform(-1, 1, size=(400_000, 2)) / np.sqrt(2)
        pts = pts[np.linalg.norm(pts - x0, axis=1) <= 0.1]
        q = pts[:, 0] ** 3 / 6.0 - pts[:, 1]
        g0 = np.array([0.5, -1.0])
        half = len(pts) // 2
        a, b = pts[:half], pts[half : 2 * half]
        va, vb = q[:half], q[half : 2 * half]
        d = a - b
        nn = np.linalg.norm(d, axis=1)
        keep = nn > 1e-9
        quot = np.abs(va[keep] - vb[keep] - d[keep] @ g0) / nn[keep]
        oracle = float(np.max(quot))
        inst = countable_cubic(truncation=50)
        mod = estimate_moduli(inst, x0, etas=(0.1,), samples_per_eta=800, seed=3)
        # both are lower estimates of the same supremum and must stay below it
        assert oracle <= analytic + 1e-9
        assert mod.r_est[0] <= analytic + 1e-9
        assert mod.r_est[0] >= 0.3 * analytic
