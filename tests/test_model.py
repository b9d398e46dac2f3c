import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sipcert import expr as ex
from sipcert.model import (
    _REFINE_SITES,
    ConstraintFamily,
    CountableIndexSet,
    EqualityBlock,
    InstanceError,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    _refine_once,
    active_set,
    estimate_moduli,
    feasibility_check,
    gradient_bound_check,
    load_instance,
    loads_instance,
    scan_constraints,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
GOLDEN_POINTS = {
    "countable_cubic": (-1.0, 0.0),
    "interval_ramp": (-1.0, 0.0),
    "parabola_band": (0.0, 1.0),
    "convex_toy": (-0.5, -0.5),
}


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


def open_interval(body):
    """One family g(t) = body over t in the interval (0, 1), open at both ends."""
    return loads_instance(
        "[problem]\nvars = x1 x2\nminimize = x2\nbox = -2 2 ; -2 2\n\n"
        "[index t]\nkind = interval\na = 0\nb = 1\ninclude_a = false\ninclude_b = false\n\n"
        f"[constraints]\ng(t) = {body}\n"
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

    def test_hand_built_body_deeper_than_the_limit_rejected(self):
        body = ex.Var(1)
        for _ in range(ex.MAX_DEPTH - 1):
            body = ex.Neg(body)
        SipInstance(dim=1, cost=SmoothCost(ex.Var(1)), fixed=(("g", body),))
        with pytest.raises(InstanceError) as err:
            SipInstance(dim=1, cost=SmoothCost(ex.Var(1)), fixed=(("g", ex.Neg(body)),))
        assert str(err.value) == f"'g' is nested deeper than {ex.MAX_DEPTH} levels"

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

    def test_nan_cost_piece_is_infinite_in_any_order(self):
        # exp(850) * 0 is NaN, so a NaN-blind max of the pieces depends on their order
        for pieces in ("exp(x1)*0 + x2; x2", "x2; exp(x1)*0 + x2"):
            inst = loads_instance(f"[problem]\nvars = x1 x2\nminimize_max = {pieces}\n")
            assert inst.cost_value([850.0, 0.5]) == math.inf


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


def _ids(rep, rows):
    return [rep.scan.index_id(int(i)) for i in rows]


class TestActiveSets:
    def test_countable_eps_active_matches_scan(self):
        inst = countable_cubic()
        rep = active_set(inst, [-1.0, 0.0], eps=0.05)
        active_labels = [e.id.label for e in rep.active]
        assert active_labels == ["g1"]
        # brute-force oracle: g_n(-1, 0) = -1/(3n) >= -0.05 iff n >= 7
        expected = {"g1"} | {f"g({n})" for n in range(7, 10_001)}
        got = {i.label for i in _ids(rep, rep.eps_active_rows)}
        assert got == expected

    def test_interval_eps_active(self):
        inst = interval_ramp()
        rep = active_set(inst, [-1.0, 0.0], eps=0.5)
        ids = _ids(rep, rep.eps_active_rows)
        labels = {i.label for i in ids}
        assert "g0" in labels
        family_ts = [i.value for i in ids if i.family == "g"]
        assert family_ts
        assert max(family_ts) <= 0.5 + 1e-9
        assert min(family_ts) > 0.0

    def test_eps_zero_coincides_with_active(self):
        inst = countable_cubic()
        rep = active_set(inst, [-1.0, 0.0], eps=0.0)
        assert _ids(rep, rep.eps_active_rows) == [e.id for e in rep.active]

    def test_monotone_in_eps(self):
        inst = countable_cubic(truncation=500)
        r1 = active_set(inst, [-1.0, 0.0], eps=0.01)
        r2 = active_set(inst, [-1.0, 0.0], eps=0.1)
        s1 = set(_ids(r1, r1.eps_active_rows))
        s2 = set(_ids(r2, r2.eps_active_rows))
        assert s1 <= s2

    def test_listed_indices_verify_inequality(self):
        inst = countable_cubic(truncation=500)
        rep = active_set(inst, [-1.0, 0.0], eps=0.03)
        assert len(rep.eps_active_rows)
        for i in rep.eps_active_rows:
            assert rep.scan.value[i] >= -0.03 - 1e-12

    def test_finite_gap_collapse(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            fixed=(("a", ex.parse("x1 - 1")), ("b", ex.parse("x2 - 2"))),
        )
        rep = active_set(inst, [0.0, 0.0], eps=0.4)
        assert _ids(rep, rep.eps_active_rows) == rep.active == []

    def test_grid_refinement_never_drops_indices(self):
        coarse = interval_ramp(refinements=1)
        fine = interval_ramp(refinements=4)
        rc = active_set(coarse, [-1.0, 0.0], eps=0.2)
        rf = active_set(fine, [-1.0, 0.0], eps=0.2)
        coarse_ts = {i.value for i in _ids(rc, rc.eps_active_rows)}
        assert coarse_ts <= {i.value for i in _ids(rf, rf.eps_active_rows)}

    def test_normalized_set(self):
        inst = countable_cubic(truncation=200)
        rep = active_set(inst, [-1.0, 0.0], eps=0.05)
        # |grad g_n| = sqrt(1/n^2 + 1) ~ 1, so the normalized set is close to
        # the plain eps-active set here
        norm_labels = {i.label for i in _ids(rep, rep.normalized_rows)}
        plain_labels = {i.label for i in _ids(rep, rep.eps_active_rows)}
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
    def test_index_free_rejection_fills_every_row_at_once(self, monkeypatch):
        # log(x1 + 1.5) is rejected at x1 = -2 whatever n is: one call per segment
        inst = loads_instance(
            "[problem]\nvars = x1 x2\nminimize = x1\n[index n]\nkind = countable\n"
            "start = 0\ntruncation = 10000\n[constraints]\ng(n) = log(x1 + 1.5) - x2/(n+1)\n")
        calls = []
        original = ex.eval_grad
        monkeypatch.setattr(ex, "eval_grad",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        x = np.array([-2.0, 0.0])
        scan = scan_constraints(inst, x)
        segments = 1 + len(scan.families[0].tails)  # the grid and its one ladder
        assert len(calls) <= 2 * segments
        # the table a row-by-row evaluation gives: every grid row NaN, and the
        # ladder rows dropped as not finite
        assert scan.t.tolist() == list(range(10_001)) and not scan.tail.any()
        assert np.isnan(scan.value).all() and np.isnan(scan.grad).all()
        body = inst.families[0][0].body
        for t in (0.0, 5000.0, 10_000.0):
            with pytest.raises(ex.DomainError):
                original(body, x, {"n": np.array([t])})

    def test_tail_limits_countable(self):
        inst = countable_cubic()
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        tail = scan.families[0].tails[0]
        assert tail.ok
        assert tail.value_limit == pytest.approx(0.0, abs=1e-12)

    def test_tail_limits_interval_open_endpoint(self):
        inst = interval_ramp()
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        tail = scan.families[0].tails[0]
        assert tail.ok
        assert tail.value_limit == pytest.approx(0.0, abs=1e-12)

    def test_refinement_halves_smallest_grid_point(self):
        inst = interval_ramp(refinements=3)
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        block = scan.families[0].block
        mins = [scan.t[scan.grid(level, block)][0] for level in range(scan.n_levels)]
        for a, b in zip(mins, mins[1:]):
            assert b == pytest.approx(a / 2.0)


def union_refine_once(desc, ts, vals):
    """The reference refinement: the grid merged with the bisection points
    around local maximizers, cut to the index set. Callers kept only the new
    points, with np.setdiff1d against ts."""
    m = len(ts)
    is_max = np.ones(m, dtype=bool)
    if m > 1:
        is_max[1:] &= vals[1:] >= vals[:-1]
        is_max[:-1] &= vals[:-1] >= vals[1:]
    order = np.argsort(-vals, kind="stable")
    sites = order[is_max[order]][:_REFINE_SITES]
    new_pts = []
    for i in sites:
        if i > 0:
            new_pts.append(0.5 * (ts[i - 1] + ts[i]))
        elif not desc.include_lower:
            new_pts.append(0.5 * (desc.lower + ts[0]))
        if i < m - 1:
            new_pts.append(0.5 * (ts[i] + ts[i + 1]))
        elif not desc.include_upper:
            new_pts.append(0.5 * (ts[-1] + desc.upper))
    merged = np.union1d(ts, np.array(new_pts))
    lo_ok = merged > desc.lower if not desc.include_lower else merged >= desc.lower
    up_ok = merged < desc.upper if not desc.include_upper else merged <= desc.upper
    return merged[lo_ok & up_ok]


def _float_steps(v: float, k: int) -> float:
    """v moved k floats up."""
    for _ in range(k):
        v = float(np.nextafter(v, math.inf))
    return v


@st.composite
def refine_cases(draw):
    """An interval, a sorted grid inside it and values on the grid. Some
    intervals are a few floats wide, and grids hold runs of adjacent floats,
    so that midpoints round onto grid points and endpoints."""
    lower = draw(st.floats(-100.0, 100.0))
    if draw(st.booleans()):
        upper = _float_steps(lower, draw(st.integers(1, 12)))
    else:
        upper = lower + draw(st.floats(1e-6, 100.0))
    assume(lower < upper)
    desc = IntervalGridIndexSet(lower, upper, include_lower=draw(st.booleans()),
                                include_upper=draw(st.booleans()))
    pts = draw(st.lists(st.one_of(st.floats(lower, upper), st.sampled_from([lower, upper])),
                        min_size=1, max_size=24))
    pts += [_float_steps(p, draw(st.integers(1, 3))) for p in pts[: draw(st.integers(0, 6))]]
    ts = np.unique(np.array(pts))
    ts = ts[(ts > lower if not desc.include_lower else ts >= lower)
            & (ts < upper if not desc.include_upper else ts <= upper)]
    assume(len(ts) > 0)
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(allow_nan=True))
    vals = np.array(draw(st.lists(value, min_size=len(ts), max_size=len(ts))), dtype=float)
    return desc, ts, vals


class TestRefinement:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(refine_cases())
    def test_new_points_equal_union_minus_grid(self, case):
        desc, ts, vals = case
        got = _refine_once(desc, ts, vals)
        want = np.setdiff1d(union_refine_once(desc, ts, vals), ts)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_midpoint_of_adjacent_floats_is_not_new(self):
        t0 = 0.5
        t1 = float(np.nextafter(t0, 1.0))
        desc = IntervalGridIndexSet(0.0, 1.0)
        got = _refine_once(desc, np.array([0.25, t0, t1, 0.75]), np.array([0.0, 1.0, 1.0, 0.0]))
        assert got.tolist() == [0.375, 0.625]


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

    def test_body_without_decision_variables(self):
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            fixed=(("c", ex.parse("-1")),),
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("t - 2")),
                    IntervalGridIndexSet(0.0, 1.0, resolution=9, refinements=1),
                ),
            ),
        )
        mod = estimate_moduli(inst, [0.0, 0.0], samples_per_eta=10)
        assert np.all(mod.s_est == 0.0) and np.all(mod.r_est == 0.0)


def _interval_family(dim, body):
    return SipInstance(
        dim=dim,
        cost=SmoothCost(ex.parse("x1")),
        fixed=(("c", ex.parse("sqrt(2 + x1^2) - exp(x2)")),),
        families=(
            (
                ConstraintFamily("g", "t", ex.parse(body)),
                IntervalGridIndexSet(0.0, 1.0, resolution=33, refinements=1),
            ),
        ),
    )


def _extrapolated_cubic():
    return SipInstance(
        dim=2,
        cost=SmoothCost(ex.parse("x1")),
        families=(
            (
                ConstraintFamily("g", "n", ex.parse("x1^3/(3*n) - x2")),
                CountableIndexSet(start=2, truncation=300),
            ),
        ),
    )


MODULI_CASES = {
    **{name: (lambda name=name: load_instance(INSTANCES / f"{name}.sip"), point)
       for name, point in GOLDEN_POINTS.items()},
    "declared_ray": (lambda: countable_cubic(truncation=300), (-1.0, 0.0)),
    "extrapolated_ray": (_extrapolated_cubic, (-1.0, 0.0)),
    "trig_3d": (
        lambda: _interval_family(3, "sin(t*x1) * exp(x2) - cos(x3 + t) + sqrt(1 + t + x1^2)"),
        (0.1, -0.2, 0.3),
    ),
    "log_domain": (lambda: _interval_family(2, "log(1.1 - t + x1) - x2"), (0.0, 0.0)),
}


class TestModuliBatch:
    """The batched estimate_moduli against the per-row reference loop."""

    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("samples", [1, 2, 3, 7, 120])
    @pytest.mark.parametrize("case", sorted(MODULI_CASES))
    def test_bit_equal_to_row_loop(self, case, samples, seed):
        build, point = MODULI_CASES[case]
        inst, x = build(), np.array(point)
        got = estimate_moduli(inst, x, samples_per_eta=samples, seed=seed)
        s_want, r_want = row_by_row_moduli(inst, x, samples_per_eta=samples, seed=seed)
        assert np.array_equal(got.s_est, s_want)
        assert np.array_equal(got.r_est, r_want)

    @pytest.mark.parametrize("case", ["declared_ray", "extrapolated_ray"])
    def test_tail_ladder_rows_are_sampled(self, case):
        build, point = MODULI_CASES[case]
        assert scan_constraints(build(), np.array(point)).tail.any()

    def test_rejected_entries_read_nan_without_a_raise(self, monkeypatch):
        build, point = MODULI_CASES["log_domain"]
        inst, x = build(), np.array(point)
        s_want, r_want = row_by_row_moduli(inst, x, samples_per_eta=50, seed=0)
        batches, raised = [], []
        original = ex.eval_value

        def spy(ast, pts, index=None, **kwargs):
            try:
                out = original(ast, pts, index, **kwargs)
            except ex.ExprError:
                raised.append(np.ndim(pts))
                raise
            batches.append(np.isnan(out).any())
            return out

        monkeypatch.setattr(ex, "eval_value", spy)
        got = estimate_moduli(inst, x, samples_per_eta=50, seed=0)
        # the batch held rejected entries and no call raised
        assert any(batches) and not raised
        assert np.array_equal(got.s_est, s_want)
        assert np.array_equal(got.r_est, r_want)


def row_by_row_moduli(inst, x, etas=(0.2, 0.1, 0.05, 0.02, 0.01), samples_per_eta=200,
                      seed=0):
    """The reference loop: one eval_value call per (eta, sampled row), drawing
    each row's directions and radii just before its call."""
    x = np.asarray(x, dtype=float)
    n = inst.dim
    rng = np.random.default_rng(seed)
    scan = scan_constraints(inst, x)
    nf = len(scan.fixed_names)
    pool = [np.arange(nf)]
    for fam in scan.families:
        grid = np.flatnonzero(scan.grid(block=fam.block))
        if len(grid) > 48:
            grid = grid[np.unique(np.linspace(0, len(grid) - 1, 48).astype(int))]
        pool.append(grid)
        pool.extend(
            np.flatnonzero((scan.block == fam.block) & (scan.ladder == k))[-3:]
            for k in range(len(fam.tails))
        )
    base = []
    for i in np.concatenate(pool):
        b = int(scan.block[i])
        if b < nf:
            body, env = inst.fixed[b][1], None
        else:
            fam = inst.families[b - nf][0]
            body, env = fam.body, {fam.index_name: float(scan.t[i])}
        base.append((body, env, float(scan.value[i]), scan.grad[i]))
    etas_sorted = sorted(etas)
    s_est, r_est = np.zeros(len(etas_sorted)), np.zeros(len(etas_sorted))
    s_run, r_run = 0.0, 0.0
    for k, eta in enumerate(etas_sorted):
        for body, env, v0, g0 in base:
            u = rng.normal(size=(samples_per_eta, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radii = eta * rng.uniform(0.05, 1.0, size=(samples_per_eta, 1)) ** (1.0 / n)
            pts = x + radii * u
            try:
                vals = np.asarray(ex.eval_value(body, pts, env), dtype=float)
            except ex.ExprError:
                continue
            diffs = pts - x
            norms = np.linalg.norm(diffs, axis=1)
            s_run = max(s_run, float(np.max(np.abs(vals - v0 - diffs @ g0) / norms)))
            half = samples_per_eta // 2
            pa, pb = pts[:half], pts[half : 2 * half]
            va, vb = vals[:half], vals[half : 2 * half]
            d2 = pa - pb
            n2 = np.linalg.norm(d2, axis=1)
            keep = n2 > 1e-12
            if np.any(keep):
                quot_r = np.abs(va[keep] - vb[keep] - d2[keep] @ g0) / n2[keep]
                r_run = max(r_run, float(np.max(quot_r)))
            r_run = max(r_run, s_run)
        s_est[k], r_est[k] = s_run, r_run
    return s_est, r_est
