import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sipcert import cq
from sipcert import expr as ex
from sipcert.model import (
    _REFINE_SITES,
    FEAS_TOL,
    ConstraintFamily,
    CountableIndexSet,
    EqualityBlock,
    FiniteIndexSet,
    InstanceError,
    IntervalGridIndexSet,
    SipInstance,
    SmoothCost,
    _refine_once,
    active_set,
    estimate_moduli,
    feasibility_check,
    gradient_bound_check,
    kronecker,
    load_instance,
    loads_instance,
    row_norms,
    scan_constraints,
    unit_vectors,
    with_grid,
)
from sipcert.solver import most_violated_index

from oracles import unit_vectors_reference

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
        x = np.array([-1.0, -1e-5])
        scan = scan_constraints(inst, x)
        assert np.max(scan.value[scan.grid()]) <= FEAS_TOL
        assert not feasibility_check(inst, x, scan=scan).feasible

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


def test_with_grid_sets_each_family_grid():
    both = loads_instance(
        "[problem]\nvars = x1 x2\nminimize = x2\n\n[index n]\nkind = countable\nstart = 2\n"
        "limit_ray = 0 -1\n\n[index t]\nkind = interval\na = 0\nb = 1\ninclude_a = false\n"
        "resolution = 9\nrefinements = 0\n\n"
        "[constraints]\ng(n) = x1/n - x2\nh(t) = t*x1 - x2\n")
    assert with_grid(both) is both
    grid = with_grid(both, truncation=1)
    countable, interval = (desc for _, desc in grid.families)
    assert countable.truncation == 2  # never below the set's start
    assert interval is both.families[1][1]
    assert countable.limit_ray == (0.0, -1.0)
    scan = scan_constraints(grid, np.zeros(2))
    assert scan.grid().sum() == 1 + 8  # n = 2, t = 1/8 .. 1


OPEN_END_CASES = {
    # (interval lines, body, point, excluded end, direction of the set from it)
    "upper": ("a = 0\nb = 1\ninclude_a = false\ninclude_b = false\nresolution = 17\n",
              "t*x1 + x2 - 1", (1.0, 0.0), 1.0, 0.0),
    "lower": ("a = 1\nb = 2\ninclude_a = false\n", "-t*x1 + x2 + 1", (2.0, 0.0), 1.0, 2.0),
}


class TestScan:
    def test_scan_of_minus_inf_values_has_no_worst_row(self):
        # -exp(800) overflows to -inf: no row exceeds -inf, so none is the worst
        inst = loads_instance("[problem]\nvars = x1 x2\nminimize = x1^2 + x2^2\n"
                              "box = 799 801; -1 1\n\n[constraints]\ng1 = -exp(x1)\n")
        x = np.array([800.0, 0.0])
        scan = scan_constraints(inst, x)
        assert scan.value.tolist() == [-math.inf] and scan.argmax() == (-math.inf, None)
        assert most_violated_index(inst, x) == (None, 0.0)

    @pytest.mark.parametrize("case", sorted(OPEN_END_CASES))
    def test_open_end_ladder_stays_inside(self, case):
        # the ladder's rows end + width*s with s down to 1e-300 round onto the
        # excluded end once width*s is below half an ulp of it
        lines, body, x, end, toward = OPEN_END_CASES[case]
        inst = loads_instance("[problem]\nvars = x1 x2\nminimize = x2\n\n[index t]\n"
                              f"kind = interval\n{lines}\n[constraints]\ng(t) = {body}\n")
        scan = scan_constraints(inst, np.array(x))
        rows = scan.families[0].ladders[-1]  # the ladder toward this end
        ts, params = scan.t[rows], scan.param[rows]
        nearest = np.nextafter(end, toward)
        assert end not in ts and ts[-1] == nearest and len(set(ts.tolist())) == len(ts)
        assert np.all(np.diff(params) < 0) and params[-1] > 0.0
        # the supremum is approached at the excluded end, never attained
        worst = feasibility_check(inst, x, scan=scan).worst
        assert worst.value == nearest

    @pytest.mark.parametrize("case", sorted(OPEN_END_CASES))
    def test_open_end_row_label_is_not_the_end(self, case):
        # the worst row is the float next to the excluded end, and its label
        # reads back as that float, not as the end
        lines, body, x, end, toward = OPEN_END_CASES[case]
        inst = loads_instance("[problem]\nvars = x1 x2\nminimize = x2\n\n[index t]\n"
                              f"kind = interval\n{lines}\n[constraints]\ng(t) = {body}\n")
        worst = feasibility_check(inst, x).worst
        assert worst.label == {"upper": "g(0.9999999999999999)",
                               "lower": "g(1.0000000000000002)"}[case]
        assert float(worst.label[2:-1]) == worst.value == np.nextafter(end, toward)

    def test_rows_one_ulp_apart_have_distinct_labels(self):
        t = 0.3
        inst = SipInstance(dim=1, cost=SmoothCost(ex.parse("x1")), families=(
            (ConstraintFamily("g", "t", ex.parse("t*x1")),
             FiniteIndexSet((t, float(np.nextafter(t, 1.0))))),))
        scan = scan_constraints(inst, np.zeros(1))
        labels = [scan.label(row) for row in range(len(scan.t))]
        assert labels == ["g(0.3)", "g(0.30000000000000004)"]
        assert [float(label[2:-1]) for label in labels] == scan.t.tolist()

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
        segments = 1 + len(scan.families[0].ladders)  # the grid and its one ladder
        assert len(calls) <= 2 * segments
        # the table a row-by-row evaluation gives: every grid row NaN, and the
        # ladder rows dropped as not finite
        assert scan.t.tolist() == list(range(10_001)) and not (scan.ladder >= 0).any()
        assert np.isnan(scan.value).all() and np.isnan(scan.grad).all()
        body = inst.families[0][0].body
        for t in (0.0, 5000.0, 10_000.0):
            with pytest.raises(ex.DomainError):
                original(body, x, {"n": np.array([t])})

    def test_gradients_are_made_on_first_read_only(self, monkeypatch):
        runs = []  # the grad flag of every kernel run
        original = ex.kernel

        def counting(ast, n, grad, masked=False):
            run = original(ast, n, grad, masked)
            return lambda *a: runs.append(grad) or run(*a)

        monkeypatch.setattr(ex, "kernel", counting)
        # a fixed constraint, a refined interval grid and a finite grid: no tail ladders
        inst = loads_instance(
            "[problem]\nvars = x1 x2\nminimize = x1\n[index t]\nkind = interval\n"
            "resolution = 17\nrefinements = 2\n[index s]\nkind = finite\nvalues = 1 2 3\n"
            "[constraints]\na = x1 - 3\ng(t) = t*x1 - x2^2\nh(s) = s*x2 - 1\n")
        x = np.array([0.5, -0.5])
        most_violated_index(inst, x)
        cq._sup_inequalities(inst, x)
        scan = scan_constraints(inst, x)
        assert runs and not any(runs)
        runs.clear()
        assert scan.grad.shape == (len(scan.value), 2)
        assert runs == [True] * len(scan.segments) == [True] * 3
        assert scan.grad is scan.grad and len(runs) == 3
        # a tail ladder's rows are chosen by their values; its gradients wait for a read
        runs.clear()
        inst, x = countable_cubic(), np.array([-1.0, 0.0])
        scan = scan_constraints(inst, x)
        assert runs == [False, False, False]  # g1, the grid, then its one ladder
        scan.grad
        assert runs == [False, False, False, True, True, True]
        runs.clear()
        most_violated_index(inst, x)
        cq._sup_inequalities(inst, x)
        assert runs and not any(runs)

    def test_tail_limits_countable(self):
        inst = countable_cubic()
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        value_limit, ok = scan.tail_limit(scan.families[0].ladders[0])
        assert ok
        assert value_limit == pytest.approx(0.0, abs=1e-12)

    def test_tail_limits_interval_open_endpoint(self):
        inst = interval_ramp()
        scan = scan_constraints(inst, np.array([-1.0, 0.0]))
        value_limit, ok = scan.tail_limit(scan.families[0].ladders[0])
        assert ok
        assert value_limit == pytest.approx(0.0, abs=1e-12)

    def test_tail_limits_skip_a_rejected_gradient_row(self):
        # at x1 = 1 the ladder's last finite row, n = 1e120, has a rejected
        # gradient (sqrt at 0); the rows beyond it overflow and are dropped
        inst = loads_instance(
            "[problem]\nvars = x1 x2\nminimize = x1\n[index n]\nkind = countable\n"
            "start = 1\ntruncation = 100\n[constraints]\n"
            "g(n) = 1e-240*sqrt((x1*n - 1e120)^2) - x2 - 1000/n\n")
        x = np.array([1.0, 0.0])
        scan = scan_constraints(inst, x)
        rows = scan.families[0].ladders[0]
        last = rows.stop - 1
        # the row stays in the table with its value, and its gradient is NaN
        assert scan.t[last] == 1e120 and np.isfinite(scan.value[last])
        assert np.isnan(scan.grad[last]).all() and scan.grad_finite[rows.start : last].all()
        # the reference: row by row, the last two rows whose value and gradient are finite
        body, kept = inst.families[0][0].body, []
        for t in scan.t[rows]:
            try:
                value, grad = ex.eval_grad(body, x, {"n": np.array([t])})
            except ex.DomainError:
                continue
            if np.isfinite(value).all() and np.isfinite(grad).all():
                kept.append((float(value[0]), grad[0]))
        (v0, g0), (v1, g1) = kept[-2:]
        ok = abs(v1 - v0) <= 1e-6 and np.max(np.abs(g1 - g0)) <= 1e-6
        assert scan.tail_limit(rows) == (v1, ok)
        assert ok and v1 == scan.value[last - 1]

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

    @pytest.mark.parametrize("seed", range(20))
    def test_quadratic_body_is_regular(self, seed):
        # one ball serves every eta, so r(0.01) / r(0.2) of a quadratic body is
        # 0.05 up to rounding: the threshold must not sit at that ratio
        inst = load_instance(INSTANCES / "parabola_band.sip")
        assert estimate_moduli(inst, [0.0, 1.0], samples_per_eta=120, seed=seed).regular

    def test_kink_at_the_open_end_is_not_regular(self):
        # sqrt(t^2 + x1^2) tends to |x1| as t -> 0, so r is 1 at every eta
        inst = SipInstance(
            dim=2,
            cost=SmoothCost(ex.parse("x1")),
            families=(
                (
                    ConstraintFamily("g", "t", ex.parse("sqrt(t^2 + x1^2) - 2 + x2")),
                    IntervalGridIndexSet(0.0, 1.0, include_lower=False),
                ),
            ),
        )
        mod = estimate_moduli(inst, [0.0, 0.0])
        assert np.allclose(mod.r_est, 1.0, rtol=0.0, atol=1e-4)
        assert mod.regular is False

    def test_one_eta_has_no_regularity(self):
        inst = load_instance(INSTANCES / "parabola_band.sip")
        assert estimate_moduli(inst, [0.0, 1.0], etas=(0.1,)).regular is None


class TestKronecker:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**53 + 3])
    @pytest.mark.parametrize("dim", [1, 3, 17])
    def test_equals_the_points_on_python_floats(self, dim, seed):
        got = kronecker(300, dim, seed)
        assert got.shape == (300, dim)
        assert got.tolist() == kronecker_on_floats(1, 300, dim, seed)

    @pytest.mark.parametrize("m", [0, 1, 5, 299])
    def test_a_shorter_call_is_a_prefix(self, m):
        assert np.array_equal(kronecker(m, 4, 3), kronecker(300, 4, 3)[:m])

    def test_a_second_call_has_the_same_bits(self):
        first = kronecker(1000, 17, 5)
        assert first.tobytes() == kronecker(1000, 17, 5).tobytes()

    def test_points_lie_in_the_unit_cube(self):
        for seed in (0, 1, 2**31):
            q = kronecker(5000, 17, seed)
            assert np.all((q >= 0.0) & (q < 1.0))

    def test_seeds_shift_the_points(self):
        a, b = kronecker(100, 3, 0), kronecker(100, 3, 1)
        assert np.all(a != b)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_small_seeds_keep_the_unreduced_shift(self, seed):
        # seed a[::-1] is below 1 here, so reducing it first changes no bit
        a = kronecker(1, 17, 0)[0].tolist()
        want = [[(k * a[j] + float(seed) * a[16 - j]) % 1.0 for j in range(17)]
                for k in range(1, 1001)]
        assert kronecker(1000, 17, seed).tolist() == want

    def test_a_huge_seed_keeps_every_point(self):
        q = kronecker(1000, 17, 2**56)
        assert all(len(np.unique(q[:, j])) == 1000 for j in range(17))


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
        assert (scan_constraints(build(), np.array(point)).ladder >= 0).any()

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


def _dot(d, g):
    """d @ g for a (samples, n) matrix, summed coordinate by coordinate in
    ascending order, as estimate_moduli sums it."""
    acc = d[:, 0] * g[0]
    for j in range(1, len(g)):
        acc += d[:, j] * g[j]
    return acc


def kronecker_on_floats(first, count, dim, seed):
    """The points k a + s (mod 1), k = first .. first + count - 1, on Python
    floats, with a_j = sqrt(p_j) mod 1 over the first dim primes and the
    shift s = seed a[::-1] mod 1 reduced in rationals."""
    a = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                      53, 59)[:dim]]
    shift = [float(seed * Fraction(a[dim - 1 - j]) % 1) for j in range(dim)]
    return [[(k * a[j] + shift[j]) % 1.0 for j in range(dim)]
            for k in range(first, first + count)]


def row_by_row_moduli(inst, x, etas=(0.2, 0.1, 0.05, 0.02, 0.01), samples_per_eta=200,
                      seed=0):
    """The reference loop: one eval_value call per (eta, sampled row), on the
    row's slice of the Kronecker sequence rebuilt on Python floats. Only the
    radius's n-th root is taken by numpy, whose power may take a SIMD path
    whose last bit differs from libm's."""
    x = np.asarray(x, dtype=float)
    n = inst.dim
    scan = scan_constraints(inst, x)
    nf = len(scan.fixed_names)
    pool = [np.arange(nf)]
    for fam in scan.families:
        grid = np.flatnonzero(scan.grid(block=fam.block))
        if len(grid) > 48:
            grid = grid[np.unique(np.linspace(0, len(grid) - 1, 48).astype(int))]
        pool.append(grid)
        pool.extend(
            np.flatnonzero((scan.block == fam.block) & (scan.ladder == k) & scan.grad_finite)[-3:]
            for k in range(len(fam.ladders))
        )
    base = []
    for j, i in enumerate(np.concatenate(pool)):
        b = int(scan.block[i])
        if b < nf:
            body, env = inst.fixed[b][1], None
        else:
            fam = inst.families[b - nf][0]
            body, env = fam.body, {fam.index_name: float(scan.t[i])}
        qs = kronecker_on_floats(j * samples_per_eta + 1, samples_per_eta, n + 1, seed)
        radii = (np.array([0.05 + 0.95 * q[n] for q in qs]) ** (1.0 / n)).tolist()
        ball = []
        for q, radius in zip(qs, radii):
            u = [2.0 * qj - 1.0 for qj in q[:n]]
            sq = 0.0
            for uj in u:
                sq += uj * uj
            ball.append([radius * (uj / math.sqrt(sq)) for uj in u])
        base.append((body, env, float(scan.value[i]), scan.grad[i], np.array(ball)))
    etas_sorted = sorted(etas)
    s_est, r_est = np.zeros(len(etas_sorted)), np.zeros(len(etas_sorted))
    s_run, r_run = 0.0, 0.0
    for k, eta in enumerate(etas_sorted):
        for body, env, v0, g0, ball in base:
            pts = x + eta * ball
            try:
                vals = np.asarray(ex.eval_value(body, pts, env), dtype=float)
            except ex.ExprError:
                continue
            diffs = pts - x
            norms = np.linalg.norm(diffs, axis=1)
            s_run = max(s_run, float(np.max(np.abs(vals - v0 - _dot(diffs, g0)) / norms)))
            half = samples_per_eta // 2
            pa, pb = pts[:half], pts[half : 2 * half]
            va, vb = vals[:half], vals[half : 2 * half]
            d2 = pa - pb
            n2 = np.linalg.norm(d2, axis=1)
            keep = n2 > 1e-12
            if np.any(keep):
                quot_r = np.abs(va[keep] - vb[keep] - _dot(d2[keep], g0)) / n2[keep]
                r_run = max(r_run, float(np.max(quot_r)))
            r_run = max(r_run, s_run)
        s_est[k], r_est[k] = s_run, r_run
    return s_est, r_est


SPECIAL_ENTRIES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e-300, -1e300]


def special_rows(d, seed=0):
    """410 seeded rows of d coordinates: normals, each row scaled by a power
    of ten from 1e-300 to 1e300, a quarter of the entries replaced by a
    special entry, then one row of each special entry alone."""
    rng = np.random.default_rng([seed, d])
    v = rng.standard_normal((400, d)) * 10.0 ** rng.integers(-300, 301, (400, 1))
    special = rng.random((400, d)) < 0.25
    v[special] = rng.choice(SPECIAL_ENTRIES, np.count_nonzero(special))
    alone = np.repeat(np.array(SPECIAL_ENTRIES + [1.0])[:, None], d, axis=1)
    return np.vstack([v, alone])


def layouts(v):
    """v as C-ordered rows, as the transposed view of a (d, m) array, and as
    an (R, S, d) stack."""
    return {"rows": v, "transposed": np.ascontiguousarray(v.T).T,
            "stacked": v.reshape(-1, 10, v.shape[1])}


def same_bits(a, b):
    """Bit equality, with every NaN read as the same NaN."""
    a, b = (np.where(np.isnan(z), np.nan, z) for z in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRowNorms:
    """The coordinate passes against numpy's reduces over the last axis, bit
    for bit, with no RuntimeWarning under the default errstate."""

    @pytest.mark.parametrize("layout", ["rows", "transposed", "stacked"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_row_norms_equal_linalg_norm(self, d, layout):
        v = layouts(special_rows(d))[layout]
        with np.errstate(over="ignore"):
            want = np.linalg.norm(v, axis=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_norms(v)
        assert same_bits(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_one_vector_is_a_float_with_the_bits_of_linalg_norm(self, d):
        # Python floats for one vector: 0, -0, +-inf, NaN, subnormals and
        # 1e+-300 in every coordinate, alone and mixed into scaled normals
        rows = special_rows(d)
        rows = np.vstack([rows, -rows[-len(SPECIAL_ENTRIES) - 1 :], np.full((1, d), 1e300)])
        with np.errstate(over="ignore"):
            want = [np.linalg.norm(row, axis=-1) for row in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [row_norms(row) for row in rows]
        assert all(type(g) is float for g in got)
        assert same_bits(np.array(got), np.array(want))

    @pytest.mark.parametrize("layout", ["rows", "transposed", "stacked"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unit_vectors_equal_the_reference(self, d, layout):
        v = layouts(special_rows(d))[layout]
        want = unit_vectors_reference(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unit_vectors(v)
            single = [unit_vectors(row) for row in v.reshape(-1, d)[::7]]
        assert same_bits(got, want)
        assert all(same_bits(u, w) for u, w in zip(single, want.reshape(-1, d)[::7]))
