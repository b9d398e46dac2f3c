import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sipcert.linsolve import (
    ConeRefutation,
    FeasibilityCertificate,
    HullFeasibility,
    HullRefutation,
    LpStatus,
    cone_feasibility,
    hull_plus_cone_feasibility,
    max_margin_direction,
    rank_nullspace,
)

from oracles import LpProblem, simplex_solve


class TestRankNullspace:
    def test_single_row(self):
        rank, basis = rank_nullspace(np.array([[1.0, 1.0]]), 1e-9)
        assert rank == 1
        assert len(basis) == 1
        v = basis[0]
        # spans {(1,-1)}/sqrt(2) up to sign
        assert abs(abs(v @ np.array([1.0, -1.0]) / math.sqrt(2)) - 1.0) < 1e-12

    def test_identity(self):
        rank, basis = rank_nullspace(np.eye(2), 1e-9)
        assert rank == 2 and basis == []

    def test_zero_matrix(self):
        rank, basis = rank_nullspace(np.zeros((1, 3)), 1e-9)
        assert rank == 0 and len(basis) == 3

    def test_kernel_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            M = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 6)))
            rank, basis = rank_nullspace(M, 1e-9)
            bound = 10 * 1e-9 * max(1.0, np.max(np.abs(M)))
            for v in basis:
                assert np.max(np.abs(M @ v)) <= bound


class TestSimplex:
    def test_box_minimum(self):
        p = LpProblem(c=[-1.0], A=np.zeros((0, 1)), b=[], lower=[0.0], upper=[1.0])
        sol = simplex_solve(p)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible_equalities(self):
        p = LpProblem(
            c=[0.0, 0.0],
            A=[[1.0, 1.0], [1.0, 1.0]],
            b=[1.0, 2.0],
            lower=[-math.inf, -math.inf],
            upper=[math.inf, math.inf],
        )
        assert simplex_solve(p).status == LpStatus.INFEASIBLE

    def test_unbounded(self):
        p = LpProblem(c=[-1.0], A=np.zeros((0, 1)), b=[], lower=[0.0], upper=[math.inf])
        assert simplex_solve(p).status == LpStatus.UNBOUNDED

    def test_equality_with_bounds(self):
        # min x1 + x2 s.t. x1 + x2 = 1, 0 <= x <= 1
        p = LpProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
        sol = simplex_solve(p)
        assert sol.status == LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-10)


def brute_force_lp(c, A, b, lower, upper):
    """Enumerate candidate vertices: equality rows active plus bounds."""
    n = len(c)
    m = A.shape[0]
    best = None
    for basic in itertools.combinations(range(n), m):
        nonbasic = [j for j in range(n) if j not in basic]
        for pattern in itertools.product((0, 1), repeat=len(nonbasic)):
            x = np.zeros(n)
            ok = True
            for j, side in zip(nonbasic, pattern):
                x[j] = lower[j] if side == 0 else upper[j]
                if not math.isfinite(x[j]):
                    ok = False
                    break
            if not ok:
                continue
            if m:
                B = A[:, list(basic)]
                rhs = b - A[:, nonbasic] @ x[nonbasic] if nonbasic else b
                try:
                    xb = np.linalg.solve(B, rhs)
                except np.linalg.LinAlgError:
                    continue
                x[list(basic)] = xb
            if np.any(x < lower - 1e-9) or np.any(x > upper + 1e-9):
                continue
            if m and np.max(np.abs(A @ x - b)) > 1e-8:
                continue
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


class TestSimplexAgainstEnumeration:
    def test_random_small_lps(self):
        rng = np.random.default_rng(42)
        agreements = 0
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
            assert sol.status == LpStatus.OPTIMAL
            assert ref is not None
            assert sol.objective == pytest.approx(ref, abs=1e-8)
            # primal feasibility and complementary slackness at the reported point
            assert np.max(np.abs(A @ sol.x - b)) <= 1e-9 * max(1, np.max(np.abs(b)))
            rc = c - sol.dual @ A
            for j in range(n):
                slack_lo = sol.x[j] - lower[j]
                slack_up = upper[j] - sol.x[j]
                if rc[j] > 1e-7:
                    assert slack_lo <= 1e-7
                if rc[j] < -1e-7:
                    assert slack_up <= 1e-7
            agreements += 1
        assert agreements == 50

    def test_detects_infeasible_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(2, n))
            A[1] = A[0]
            b = np.array([1.0, 2.0])
            sol = simplex_solve(
                LpProblem(c=np.zeros(n), A=A, b=b, lower=np.full(n, -5.0), upper=np.full(n, 5.0))
            )
            assert sol.status == LpStatus.INFEASIBLE


class TestConeFeasibility:
    def test_hand_combination(self):
        G = np.array([[1.0, 0.5], [0.0, -1.0]])
        out = cone_feasibility(G, None, [1.0, -1.0])
        assert isinstance(out, FeasibilityCertificate)
        np.testing.assert_allclose(out.lam, [0.5, 1.0], atol=1e-9)
        assert out.residual <= 1e-9

    def test_zero_vector(self):
        G = np.array([[1.0], [0.0]])
        out = cone_feasibility(G, None, [0.0, 0.0])
        assert isinstance(out, FeasibilityCertificate)
        np.testing.assert_allclose(out.lam, [0.0], atol=1e-12)
        assert out.residual <= 1e-12

    def test_refutation_by_inspection(self):
        G = np.array([[1.0], [0.0]])
        out = cone_feasibility(G, None, [0.0, 1.0])
        assert isinstance(out, ConeRefutation)
        a = out.separator
        assert a @ np.array([0.0, 1.0]) > 1e-9
        assert a @ np.array([1.0, 0.0]) <= 1e-9
        assert np.max(np.abs(a)) == pytest.approx(1.0, abs=1e-12)

    def test_lineality_absorbs(self):
        G = np.zeros((2, 0))
        H = np.array([[1.0], [1.0]])
        out = cone_feasibility(G, H, [2.0, 2.0])
        assert isinstance(out, FeasibilityCertificate)
        assert out.y[0] == pytest.approx(2.0, abs=1e-9)

    def test_soundness_random(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            mg = int(rng.integers(1, 6))
            G = rng.normal(size=(d, mg))
            if rng.random() < 0.5:
                lam = rng.uniform(0, 2, size=mg)
                v = G @ lam
            else:
                v = rng.normal(size=d)
            out = cone_feasibility(G, None, v)
            if isinstance(out, FeasibilityCertificate):
                assert np.all(out.lam >= -1e-12)
                assert np.max(np.abs(G @ out.lam - v)) <= 1e-8
            else:
                a = out.separator
                assert a @ v > 1e-9
                assert np.all(G.T @ a <= 1e-9)


class TestMaxMargin:
    def test_single_generator(self):
        res = max_margin_direction(np.array([[1.0], [0.0]]), None)
        assert res.margin == pytest.approx(1.0, abs=1e-9)
        assert res.direction[0] == pytest.approx(-1.0, abs=1e-9)
        assert np.max(np.abs(res.direction)) <= 1.0 + 1e-12

    def test_opposed_generators(self):
        res = max_margin_direction(np.array([[1.0, -1.0], [0.0, 0.0]]), None)
        assert res.margin <= 1e-9

    def test_grid_margin_equals_smallest_entry(self):
        ts = np.array([0.25, 0.5, 0.75, 1.0])
        G = np.vstack([ts, np.zeros_like(ts)])
        res = max_margin_direction(G, None)
        assert res.margin == pytest.approx(0.25, abs=1e-9)

    def test_empty_generators(self):
        res = max_margin_direction(np.zeros((2, 0)), None)
        assert res.margin == math.inf

    def test_witness_invariants_random(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            mg = int(rng.integers(1, 7))
            G = rng.normal(size=(d, mg))
            k = int(rng.integers(0, 2))
            H = rng.normal(size=(d, k)) if k else None
            res = max_margin_direction(G, H)
            x = res.direction
            assert np.max(np.abs(x)) <= 1.0 + 1e-12
            assert np.all(G.T @ x <= -res.margin + 1e-9)
            if H is not None:
                assert np.max(np.abs(H.T @ x)) <= 1e-9

    def test_equality_restriction(self):
        # gradient (1, 0), kernel of h = span{(1, 1)}: no strictly negative direction
        # against (1,0) inside the kernel of H^T... kernel of H-col (1,-1) is x1=x2
        G = np.array([[1.0], [0.0]])
        H = np.array([[1.0], [-1.0]])
        res = max_margin_direction(G, H)
        # x must satisfy x1 - x2 = 0, so best is x = (-1,-1), margin 1
        assert res.margin == pytest.approx(1.0, abs=1e-9)
        assert res.direction[0] == pytest.approx(res.direction[1], abs=1e-9)

    def test_wide_lp_allocates_no_tableau(self):
        # the kernel keeps B^{-1} and the basic values and reads the LP
        # matrix in place: past the elastic fit's own (d+1) x (m+2d) matrix
        # only length-(n+m) pricing vectors are allocated
        G = np.random.default_rng(13).normal(size=(3, 10**5))
        tracemalloc.start()
        try:
            max_margin_direction(G, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * G.nbytes


def check_hull_answer(out, F, G, H, tol=1e-9):
    """Certificate or separator invariants of hull_plus_cone_feasibility."""
    if isinstance(out, HullFeasibility):
        assert np.all(out.weights >= -1e-12) and np.all(out.lam >= -1e-12)
        assert np.sum(out.weights) == pytest.approx(1.0, abs=1e-9)
        assert out.residual <= tol
        assert np.max(np.abs(F @ out.weights + G @ out.lam + H @ out.y)) <= 1e-8
    else:
        assert isinstance(out, HullRefutation)
        a = out.separator
        assert np.max(np.abs(a)) == pytest.approx(1.0, abs=1e-12)
        assert out.gap > tol
        assert np.all(F.T @ a <= -out.gap + 1e-9)
        assert np.all(G.T @ a <= 1e-9)
        assert np.all(np.abs(H.T @ a) <= 1e-9)


class TestHullPlusCone:
    def test_zero_between_hull_points(self):
        F = np.array([[1.0, -1.0], [0.0, 0.0]])
        out = hull_plus_cone_feasibility(F, None, None)
        assert isinstance(out, HullFeasibility)
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=1e-9)

    def test_cone_part_closes_the_gap(self):
        F = np.array([[1.0], [2.0]])
        G = np.array([[-1.0], [-2.0]])
        out = hull_plus_cone_feasibility(F, G, None)
        assert isinstance(out, HullFeasibility)
        assert out.lam[0] == pytest.approx(1.0, abs=1e-9)

    def test_lineality_absorbs(self):
        F = np.array([[1.0], [1.0]])
        H = np.array([[2.0], [2.0]])
        out = hull_plus_cone_feasibility(F, None, H)
        assert isinstance(out, HullFeasibility)
        assert out.y[0] == pytest.approx(-0.5, abs=1e-9)

    def test_separated_hull_reports_its_gap(self):
        # co{(1, 0), (2, 0)} + cone{(0, 1)} misses 0 by 1 along x1
        F = np.array([[1.0, 2.0], [0.0, 0.0]])
        G = np.array([[0.0], [1.0]])
        out = hull_plus_cone_feasibility(F, G, None)
        assert isinstance(out, HullRefutation)
        np.testing.assert_allclose(out.separator, [-1.0, 0.0], atol=1e-9)
        assert out.gap == pytest.approx(1.0, abs=1e-9)

    def test_needs_a_hull_column(self):
        with pytest.raises(ValueError):
            hull_plus_cone_feasibility(np.zeros((2, 0)), np.eye(2), None)

    def test_invariants_random(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(60):
            d = int(rng.integers(1, 5))
            F = rng.normal(size=(d, int(rng.integers(1, 5))))
            G = rng.normal(size=(d, int(rng.integers(0, 4))))
            H = rng.normal(size=(d, int(rng.integers(0, 2))))
            out = hull_plus_cone_feasibility(F, G, H)
            check_hull_answer(out, F, G, H)
            kinds.add(type(out))
        assert kinds == {HullFeasibility, HullRefutation}


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def highs_fit(linprog, F, G, H, v):
    """Optimal min |F w + G lam + H y - v|_1 over convex w (when F has
    columns), lam >= 0 and free y, by HiGHS in epigraph form: variables
    (w, lam, y, t) with -t <= F w + G lam + H y - v <= t."""
    d = len(v)
    M = np.hstack([F, G, H])
    k = M.shape[1]
    eye = np.eye(d)
    A_ub = np.block([[M, -eye], [-M, -eye]])
    b_ub = np.concatenate([v, -v])
    A_eq = b_eq = None
    if F.shape[1]:
        A_eq = np.concatenate([np.ones(F.shape[1]), np.zeros(k - F.shape[1] + d)])[None, :]
        b_eq = [1.0]
    bounds = [(0, None)] * (F.shape[1] + G.shape[1]) + [(None, None)] * H.shape[1] + [(0, None)] * d
    c = np.concatenate([np.zeros(k), np.ones(d)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0
    return res.fun


def highs_margin_primal(linprog, G, H):
    """max s subject to G^T x + s <= 0, H^T x = 0, |x|_inf <= 1, by HiGHS."""
    d, mg = G.shape
    A_ub = np.hstack([G.T, np.ones((mg, 1))])
    A_eq = np.hstack([H.T, np.zeros((H.shape[1], 1))]) if H.shape[1] else None
    b_eq = np.zeros(H.shape[1]) if H.shape[1] else None
    c = np.zeros(d + 1)
    c[d] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(mg), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(-1, 1)] * d + [(None, None)], method="highs")
    assert res.status == 0
    return -res.fun


def random_cone_data(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    F = rng.normal(size=(d, int(rng.integers(1, 5))))
    G = rng.normal(size=(d, int(rng.integers(0, 6))))
    H = rng.normal(size=(d, int(rng.integers(0, min(d, 3)))))
    if seed % 2:
        v = G @ rng.uniform(0, 2, G.shape[1]) + H @ rng.normal(size=H.shape[1])
    else:
        v = rng.normal(size=d)
    return F, G, H, v


ORACLE_SEEDS = range(80)


def close(a, b):
    return abs(a - b) <= 1e-8 + 1e-7 * abs(b)


class TestAgainstHighs:
    """Differential oracle: every entry point against the same LP solved by
    scipy's HiGHS in a different (epigraph) formulation."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_cone_feasibility(self, linprog, seed):
        F, G, H, v = random_cone_data(seed)
        best = highs_fit(linprog, np.zeros((len(v), 0)), G, H, v)
        out = cone_feasibility(G, H, v)
        if best <= 1e-9:
            assert isinstance(out, FeasibilityCertificate)
            assert out.residual <= 1e-8
        else:
            assert isinstance(out, ConeRefutation)
            # the optimal dual is scaled to the box edge, so value = objective
            assert close(out.value, best)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_hull_plus_cone(self, linprog, seed):
        F, G, H, _ = random_cone_data(seed)
        best = highs_fit(linprog, F, G, H, np.zeros(len(F)))
        out = hull_plus_cone_feasibility(F, G, H)
        check_hull_answer(out, F, G, H)
        if best <= 1e-9:
            assert isinstance(out, HullFeasibility)
        else:
            assert isinstance(out, HullRefutation)
            assert close(out.gap, best)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_max_margin_duality(self, linprog, seed):
        G, _, H, _ = random_cone_data(seed)  # the hull part has at least one column
        fit = highs_fit(linprog, G, np.zeros((len(G), 0)), H, np.zeros(len(G)))
        primal = highs_margin_primal(linprog, G, H)
        assert close(primal, fit)
        res = max_margin_direction(G, H)
        assert close(res.margin, primal)
        assert (res.margin > 1e-9) == (primal > 1e-9)
        x = res.direction
        assert np.max(np.abs(x)) <= 1.0 + 1e-12
        assert np.all(G.T @ x <= -res.margin + 1e-9)
        assert np.all(np.abs(H.T @ x) <= 1e-9)
