"""Discretization (exchange) solver producing candidate minimizers.

Outer loop: solve a finite subproblem over the working index set, then add
the most violated materialized index until the full materialization (tail
ladders included) is satisfied. The finite subproblem runs multistart
penalized gradient descent with Armijo backtracking; for smooth costs a
square Newton polish on the working-set stationarity system sharpens the
candidate to tight tolerances. Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr as ex
from .model import IndexId, SipInstance, SmoothCost, scan_constraints

INITIAL_WORKING = 8
VIOLATION_TOL = 1e-8
PENALTY0 = 10.0
PENALTY_GROWTH = 2.0
ARMIJO = 1e-4
STEP0 = 1.0
PENALTY_STAGES = 18
MAX_INNER = 80
POLISH_ITERS = 40


@dataclass
class SolverConfig:
    max_outer: int = 60
    multistart: int = 8
    seed: int = 0

    def __post_init__(self):
        if min(self.max_outer, self.multistart) <= 0:
            raise ValueError("solver config counts must be positive")


@dataclass
class OuterRecord:
    working: list[str]
    x: np.ndarray
    max_violation: float
    cost: float
    accepted: bool


@dataclass
class SolverTrace:
    records: list[OuterRecord] = field(default_factory=list)
    status: str = "converged"  # converged | iteration_limit


@dataclass(frozen=True)
class WorkingConstraint:
    """A constraint with its kernels and index binding bound once. Both take the
    coordinate list ``xs``; ``grad`` gives (value, the kernel's tuple of partials)."""

    label: str
    value: Callable[[list], float]
    grad: Callable[[list], tuple[float, tuple]]


def _bind(label: str, body: ex.ExprAst, n: int, env: dict) -> WorkingConstraint:
    value_kernel, grad_kernel = ex.kernel(body, n, False), ex.kernel(body, n, True)

    def grad(xs):
        v, partials = grad_kernel(xs, env, body)
        return float(v), partials

    return WorkingConstraint(label, lambda xs: float(value_kernel(xs, env, body)), grad)


class _Bound:
    """An instance with its cost pieces (one for a smooth cost) and equality
    components bound, once per solve()."""

    def __init__(self, inst: SipInstance):
        self.inst = inst
        pieces = (inst.cost.body,) if isinstance(inst.cost, SmoothCost) else inst.cost.pieces
        self.pieces = [_bind("cost", p, inst.dim, {}) for p in pieces]
        self.eqs = [_bind("h", c, inst.dim, {}) for c in inst.equalities.components]

    def cost(self, xs, grad: bool):
        """(cost, partials or None); a max-type cost takes the gradient of the
        first piece attaining the maximum (a valid subgradient)."""
        if grad and isinstance(self.inst.cost, SmoothCost):
            return self.pieces[0].grad(xs)
        vals = [p.value(xs) for p in self.pieces]
        return max(vals), self.pieces[int(np.argmax(vals))].grad(xs)[1] if grad else None


def most_violated_index(inst: SipInstance, x) -> tuple[IndexId | None, float]:
    """Argmax of the constraint values over the materialization and tail
    ladders, ties broken by block order then lowest index value."""
    scan = scan_constraints(inst, np.asarray(x, dtype=float))
    value, row = scan.argmax(tail=True)
    if row is None:
        return None, 0.0
    return scan.index_id(row), value


def _constraint_for(inst: SipInstance, idx: IndexId) -> WorkingConstraint:
    if idx.family is None:
        return _bind(idx.label, inst.fixed[idx.block][1], inst.dim, {})
    fam = next(f for f, _ in inst.families if f.name == idx.family)
    # converted once, as expr._bind converts a scalar, so each kernel call takes it as is
    return _bind(idx.label, fam.body, inst.dim, {fam.index_name: float(idx.value)})


def _square(v: float) -> float:
    """v ** 2, or inf where the float power overflows (it raises, unlike *)."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _penalty(prob: _Bound, working, xs, rho, grad: bool):
    """Cost plus rho * v^2 for each violated working constraint (its gradient is
    taken only then) and each equality residual at the coordinates ``xs``; with
    ``grad``, (value, gradient as a sequence of floats)."""
    val, g = prob.cost(xs, grad)
    for wc in working:
        v = wc.value(xs)
        if v > 0:
            val += rho * v * v
            if grad:
                g = [gj + 2.0 * rho * v * pj for gj, pj in zip(g, wc.grad(xs)[1])]
    for h in prob.eqs:
        v, partials = h.grad(xs) if grad else (h.value(xs), None)
        val += rho * _square(v) if grad else rho * v * v  # kept: the passes round differently
        if grad:
            g = [gj + 2.0 * rho * v * pj for gj, pj in zip(g, partials)]
    return (val, g) if grad else val


def _max_violation(working, x) -> float:
    xs = x.tolist()
    return max((wc.value(xs) for wc in working), default=0.0)


def _penalty_descent(prob: _Bound, working, x0):
    """Penalty stages from x0 on coordinate lists; arrays only between stages."""
    x = x0.tolist()
    rho = PENALTY0
    step = STEP0
    for _ in range(PENALTY_STAGES):
        for _ in range(MAX_INNER):
            val, grad = _penalty(prob, working, x, rho, True)
            grad = np.array(grad)
            gnorm = math.sqrt(grad.dot(grad))  # np.linalg.norm of a 1-D array, without its overhead
            if gnorm <= 1e-10 * max(1.0, abs(val)):
                break
            d = [-gj / gnorm for gj in grad.tolist()]
            t = step
            improved = False
            for _ in range(40):
                cand = [xj + t * dj for xj, dj in zip(x, d)]
                if _penalty(prob, working, cand, rho, False) <= val - ARMIJO * t * gnorm:
                    x = cand
                    step = min(t * 1.5, STEP0)
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        xa = np.array(x)
        eq = prob.inst.eq_residual(xa)
        if max(_max_violation(working, xa), eq) <= VIOLATION_TOL and rho > 1e4:
            break
        rho *= PENALTY_GROWTH
    return np.array(x)


def _polish(prob: _Bound, working, x):
    """Square Newton solve of the working-set stationarity system (gradients
    of the Lagrangian, near-active working constraints, equalities). The
    Hessian block comes from central differences of the analytic gradients."""
    if not isinstance(prob.inst.cost, SmoothCost):
        return None
    n, m, xs = len(x), len(prob.eqs), x.tolist()
    near = [wc for wc in working if abs(wc.value(xs)) <= 1e-4 * max(1.0, float(np.linalg.norm(x)))]
    near = near[: max(0, n - m)]
    k = len(near)

    def jacobian_t(xs):
        return np.vstack([h.grad(xs)[1] for h in prob.eqs]).T

    def lagr_grad(xs, lam, y):
        g = np.array(prob.cost(xs, True)[1])
        for lam_i, wc in zip(lam, near):
            g = g + lam_i * np.array(wc.grad(xs)[1])
        if m:
            g = g + jacobian_t(xs) @ y
        return g

    def residual(z):
        xs, lam, y = z[:n].tolist(), z[n : n + k], z[n + k :]
        parts = [lagr_grad(xs, lam, y)]
        parts.append(np.array([wc.value(xs) for wc in near]))
        if m:
            parts.append(np.array([h.value(xs) for h in prob.eqs]))
        return np.concatenate([p for p in parts if len(p)])

    G = np.column_stack([wc.grad(xs)[1] for wc in near]) if k else np.zeros((n, 0))
    rhs = -np.array(prob.cost(xs, True)[1])
    M = np.hstack([G, jacobian_t(xs)]) if m else G
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        return None
    if M.size:
        mult, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        lam0, y0 = np.maximum(mult[:k], 0.0), mult[k:]
    else:
        lam0, y0 = np.zeros(0), np.zeros(0)
    z = np.concatenate([x, lam0, y0])
    fz = residual(z)
    scale = max(1.0, float(np.max(np.abs(fz))))
    h = 1e-7
    for _ in range(POLISH_ITERS):
        norm0 = float(np.max(np.abs(fz)))
        if norm0 <= 1e-12 * scale:
            break
        Jf = np.zeros((len(fz), len(z)))
        for j in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            Jf[:, j] = (residual(zp) - residual(zm)) / (2 * h)
        try:
            delta = np.linalg.solve(Jf, -fz)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(25):
            cand = z + t * delta
            fc = residual(cand)
            if float(np.max(np.abs(fc))) < norm0:
                z, fz = cand, fc
                break
            t *= 0.5
        else:
            break
    if float(np.max(np.abs(fz))) > 1e-9 * scale:
        return None
    lam = z[n : n + k]
    if np.any(lam < -1e-8):
        return None
    return z[:n]


def _solve_subproblem(prob: _Bound, working, config, rng, warm):
    lo, hi = prob.inst.box_bounds()
    starts = [] if warm is None else [warm.copy()]
    starts += [rng.uniform(lo, hi) for _ in range(config.multistart if warm is None else 1)]
    candidates = []
    for s in starts:
        x = _penalty_descent(prob, working, s)
        polished = _polish(prob, working, x)
        if polished is not None:
            pv = _max_violation(working, polished)
            if pv <= max(_max_violation(working, x), VIOLATION_TOL):
                x = polished
        viol = max(_max_violation(working, x), prob.inst.eq_residual(x))
        candidates.append((viol, prob.inst.cost_value(x), tuple(x), x))
    feasible = [c for c in candidates if c[0] <= VIOLATION_TOL]
    pool = feasible or candidates
    pool.sort(key=lambda c: (c[1], c[2]) if feasible else (c[0], c[1], c[2]))
    return pool[0][3]


def solve(inst: SipInstance, config: SolverConfig | None = None):
    """Exchange loop. Returns (candidate, trace); the trace status is
    'iteration_limit' when the outer budget runs out before the full
    materialization is satisfied. Non-finite values count as violations, silently."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        config = config or SolverConfig()
        prob = _Bound(inst)
        rng = np.random.default_rng(config.seed)
        lo, hi = inst.box_bounds()
        center = 0.5 * (lo + hi)

        # seeds: every fixed constraint and the largest grid values of each family
        scan0 = scan_constraints(inst, center)
        grid = np.flatnonzero(scan0.grid())
        by_block = grid[np.lexsort((-scan0.value[grid], scan0.block[grid]))]
        blocks = scan0.block[by_block]
        rank = np.arange(len(blocks)) - np.searchsorted(blocks, blocks)
        seeds = by_block[rank < INITIAL_WORKING // 2]
        seeds = seeds[np.argsort(-scan0.value[seeds], kind="stable")[:INITIAL_WORKING]]
        working_ids: list[IndexId] = []
        for idx in map(scan0.index_id, seeds):
            if idx not in working_ids:
                working_ids.append(idx)
        working = [_constraint_for(inst, idx) for idx in working_ids]

        trace = SolverTrace()
        best_x = None
        best_viol = math.inf
        warm = None
        for outer in range(config.max_outer):
            x = _solve_subproblem(prob, working, config, rng, warm)
            warm = x
            idx, viol = most_violated_index(inst, x)
            eq = inst.eq_residual(x)
            total_viol = max(viol, eq)
            accepted = total_viol < best_viol - 1e-15 or best_x is None
            if accepted:
                best_x, best_viol = x.copy(), total_viol
            trace.records.append(
                OuterRecord(
                    working=[w.label for w in working],
                    x=x.copy(),
                    max_violation=total_viol,
                    cost=inst.cost_value(x),
                    accepted=accepted,
                )
            )
            if total_viol <= VIOLATION_TOL:
                trace.status = "converged"
                return x, trace
            if idx is not None and idx not in working_ids:
                working_ids.append(idx)
                working.append(_constraint_for(inst, idx))
            else:
                # the worst index is already in the working set: warm-start from the
                # best candidate. The penalty restarts at PENALTY0 on the same schedule,
                # so this does not tighten the subproblem and often repeats its result.
                warm = best_x
        trace.status = "iteration_limit"
        return (best_x if best_x is not None else warm), trace
