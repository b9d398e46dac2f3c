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

import numpy as np

from . import expr as ex
from .model import (
    ConstraintScan,
    IndexId,
    SipInstance,
    SmoothCost,
    scan_constraints,
)


@dataclass
class SolverConfig:
    initial_working: int = 8
    max_outer: int = 60
    violation_tol: float = 1e-8
    multistart: int = 8
    penalty0: float = 10.0
    penalty_growth: float = 2.0
    penalty_stages: int = 18
    max_inner: int = 80
    armijo: float = 1e-4
    step0: float = 1.0
    seed: int = 0
    polish: bool = True
    polish_iters: int = 40

    def __post_init__(self):
        if min(self.initial_working, self.max_outer, self.multistart, self.penalty_stages,
               self.max_inner, self.polish_iters) <= 0:
            raise ValueError("solver config counts must be positive")
        if min(self.violation_tol, self.penalty0, self.armijo, self.step0) <= 0:
            raise ValueError("solver config tolerances must be positive")


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
    label: str
    body: ex.ExprAst
    index_name: str | None = None
    index_value: float | None = None

    def value_grad(self, x):
        env = {self.index_name: self.index_value} if self.index_name else None
        v, g = ex.eval_grad(self.body, x, env)
        return float(v), np.asarray(g, dtype=float)


def most_violated_index(
    inst: SipInstance, x, *, scan: ConstraintScan | None = None
) -> tuple[IndexId | None, float]:
    """Argmax of the constraint values over the materialization and tail
    ladders, ties broken by block order then lowest index value."""
    scan = scan or scan_constraints(inst, np.asarray(x, dtype=float))
    value, row = scan.argmax(tail=True)
    if row is None:
        return None, 0.0
    return scan.index_id(row), value


def _constraint_for(inst: SipInstance, idx: IndexId) -> WorkingConstraint:
    if idx.family is None:
        name, body = inst.fixed[idx.block]
        return WorkingConstraint(idx.label, body)
    fam = next(f for f, _ in inst.families if f.name == idx.family)
    return WorkingConstraint(idx.label, fam.body, fam.index_name, idx.value)


def _box(inst: SipInstance):
    if inst.box is not None:
        lo = np.array([b[0] for b in inst.box])
        hi = np.array([b[1] for b in inst.box])
    else:
        lo, hi = -np.ones(inst.dim), np.ones(inst.dim)
    return lo, hi


def _penalty_value(inst, working, x, rho):
    val = inst.cost_value(x)
    for wc in working:
        env = {wc.index_name: wc.index_value} if wc.index_name else None
        v = float(ex.eval_value(wc.body, x, env))
        if v > 0:
            val += rho * v * v
    for comp in inst.equalities.components:
        v = float(ex.eval_value(comp, x))
        val += rho * v * v
    return val


def _penalty_value_grad(inst, working, x, rho):
    val = inst.cost_value(x)
    grad = inst.cost_grad(x).copy()
    for wc in working:
        v, g = wc.value_grad(x)
        if v > 0:
            val += rho * v * v
            grad += 2.0 * rho * v * g
    for comp in inst.equalities.components:
        v, g = ex.eval_grad(comp, x)
        val += rho * float(v) ** 2
        grad += 2.0 * rho * float(v) * g
    return val, grad


def _penalty_descent(inst, working, x0, config: SolverConfig):
    x = x0.copy()
    rho = config.penalty0
    step = config.step0
    for _ in range(config.penalty_stages):
        for _ in range(config.max_inner):
            val, grad = _penalty_value_grad(inst, working, x, rho)
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= 1e-10 * max(1.0, abs(val)):
                break
            d = -grad / gnorm
            t = step
            improved = False
            for _ in range(40):
                cand = x + t * d
                if _penalty_value(inst, working, cand, rho) <= val - config.armijo * t * gnorm:
                    x = cand
                    step = min(t * 1.5, config.step0)
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        viol = max((wc.value_grad(x)[0] for wc in working), default=0.0)
        eq = max(
            (abs(float(ex.eval_value(c, x))) for c in inst.equalities.components), default=0.0
        )
        if max(viol, eq) <= config.violation_tol and rho > 1e4:
            break
        rho *= config.penalty_growth
    return x


def _polish(inst, working, x, config: SolverConfig):
    """Square Newton solve of the working-set stationarity system (gradients
    of the Lagrangian, near-active working constraints, equalities). The
    Hessian block comes from central differences of the analytic gradients."""
    if not isinstance(inst.cost, SmoothCost):
        return None
    n = inst.dim
    near = [wc for wc in working if abs(wc.value_grad(x)[0]) <= 1e-4 * max(1.0, float(np.linalg.norm(x)))]
    near = near[: max(0, n - len(inst.equalities))]
    m = len(inst.equalities)
    k = len(near)

    def lagr_grad(xx, lam, y):
        g = inst.cost_grad(xx)
        for lam_i, wc in zip(lam, near):
            g = g + lam_i * wc.value_grad(xx)[1]
        if m:
            g = g + inst.eq_jacobian(xx).T @ y
        return g

    def residual(z):
        xx, lam, y = z[:n], z[n : n + k], z[n + k :]
        parts = [lagr_grad(xx, lam, y)]
        parts.append(np.array([wc.value_grad(xx)[0] for wc in near]))
        if m:
            parts.append(inst.eq_values(xx))
        return np.concatenate([p for p in parts if len(p)])

    G = np.column_stack([wc.value_grad(x)[1] for wc in near]) if k else np.zeros((n, 0))
    J = inst.eq_jacobian(x)
    rhs = -inst.cost_grad(x)
    M = np.hstack([G, J.T]) if m else G
    if M.size:
        mult, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        lam0, y0 = np.maximum(mult[:k], 0.0), mult[k:]
    else:
        lam0, y0 = np.zeros(0), np.zeros(0)
    z = np.concatenate([x, lam0, y0])
    fz = residual(z)
    scale = max(1.0, float(np.max(np.abs(fz))))
    h = 1e-7
    for _ in range(config.polish_iters):
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


def _solve_subproblem(inst, working, config, rng, warm):
    lo, hi = _box(inst)
    starts = []
    if warm is not None:
        starts.append(warm.copy())
    count = config.multistart if warm is None else 1
    for _ in range(count):
        starts.append(rng.uniform(lo, hi))
    candidates = []
    for s in starts:
        x = _penalty_descent(inst, working, s, config)
        if config.polish:
            polished = _polish(inst, working, x, config)
            if polished is not None:
                pv = max((wc.value_grad(polished)[0] for wc in working), default=0.0)
                xv = max((wc.value_grad(x)[0] for wc in working), default=0.0)
                if pv <= max(xv, config.violation_tol):
                    x = polished
        viol = max((wc.value_grad(x)[0] for wc in working), default=0.0)
        eq = max(
            (abs(float(ex.eval_value(c, x))) for c in inst.equalities.components), default=0.0
        )
        candidates.append((max(viol, eq), inst.cost_value(x), tuple(x), x))
    feasible = [c for c in candidates if c[0] <= config.violation_tol]
    pool = feasible or candidates
    pool.sort(key=lambda c: (c[1], c[2]) if feasible else (c[0], c[1], c[2]))
    return pool[0][3]


def solve(inst: SipInstance, config: SolverConfig | None = None):
    """Exchange loop. Returns (candidate, trace); the trace status is
    'iteration_limit' when the outer budget runs out before the full
    materialization is satisfied."""
    config = config or SolverConfig()
    rng = np.random.default_rng(config.seed)
    lo, hi = _box(inst)
    center = 0.5 * (lo + hi)

    # seeds: every fixed constraint and the largest grid values of each family
    scan0 = scan_constraints(inst, center)
    grid = np.flatnonzero(scan0.grid())
    by_block = grid[np.lexsort((-scan0.value[grid], scan0.block[grid]))]
    blocks = scan0.block[by_block]
    rank = np.arange(len(blocks)) - np.searchsorted(blocks, blocks)
    seeds = by_block[rank < max(2, config.initial_working // 2)]
    seeds = seeds[np.argsort(-scan0.value[seeds], kind="stable")[: config.initial_working]]
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
        x = _solve_subproblem(inst, working, config, rng, warm)
        warm = x
        scan = scan_constraints(inst, x)
        idx, viol = most_violated_index(inst, x, scan=scan)
        eq = max(
            (abs(float(ex.eval_value(c, x))) for c in inst.equalities.components), default=0.0
        )
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
        if total_viol <= config.violation_tol:
            trace.status = "converged"
            return x, trace
        if idx is not None and idx not in working_ids:
            working_ids.append(idx)
            working.append(_constraint_for(inst, idx))
        else:
            # the worst index is already in the working set; tighten the
            # subproblem by restarting the penalty from the best candidate
            warm = best_x
    trace.status = "iteration_limit"
    return (best_x if best_x is not None else warm), trace
