"""Discretization (exchange) solver producing candidate minimizers.

Outer loop: solve a finite subproblem over the working index set, then add
the most violated materialized index until the full materialization (tail
ladders included) is satisfied. The finite subproblem runs multistart
penalized gradient descent with Armijo backtracking; for smooth costs a
square Newton polish on the working-set stationarity system sharpens the
candidate to tight tolerances. Everything is seeded and deterministic.
The penalty of each working set runs as one generated function per pass,
compiled when the working set changes and dropped with it. Every reading
is masked: a point the expression rejects reads NaN, never an error. The
Newton polish runs on Python floats and reads such a point as ``_bind`` does.
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
    """A constraint with its masked kernels and index binding ``env`` bound once. Both
    take the coordinate list ``xs``; ``grad`` gives (value, the kernel's tuple of
    partials). A NaN value reads +inf, so a rejected point is +inf with NaN partials."""

    label: str
    body: ex.ExprAst
    env: dict
    value: Callable[[list], float]
    grad: Callable[[list], tuple[float, tuple]]


def _bind(label: str, body: ex.ExprAst, n: int, env: dict) -> WorkingConstraint:
    value_kernel, grad_kernel = ex.kernel(body, n, False, True), ex.kernel(body, n, True, True)

    def value(xs):
        v = value_kernel(xs, env, body)
        return float(v) if v == v else math.inf

    def grad(xs):
        v, partials = grad_kernel(xs, env, body)
        return float(v) if v == v else math.inf, partials

    return WorkingConstraint(label, body, env, value, grad)


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
    """v ** 2 as a Python float, or inf where that power overflows (it raises, unlike *)."""
    try:
        return float(v) ** 2
    except OverflowError:
        return math.inf


def _penalty_pair(inst: SipInstance, working) -> tuple:
    """The value pass and the gradient pass (value, tuple of partials) of the cost
    plus rho * v^2 for each violated working constraint and each equality
    residual, each one generated function ``f(xs, rho)`` with the working
    bindings folded in. Both are masked: where the expression rejects a term
    they read, the value and every partial are NaN."""
    return tuple(_penalty_function(inst, working, grad) for grad in (False, True))


def _penalty_function(inst: SipInstance, working, grad: bool):
    lw = ex._Lowering(inst.dim, masked=True)
    t, line, gs = lw.text, lw.line, [f"g{j}" for j in range(inst.dim)]

    def add_grad(v, partials):  # g_j + 2.0 * rho * v * p_j, with 2.0 * rho * v once
        line(f"s = r2 * {v}")
        for gj, pj in zip(gs, partials):
            if pj is not None:  # a structurally zero partial adds nothing
                line(f"{gj} = {gj} + s * {t(pj)}")

    if isinstance(inst.cost, SmoothCost):
        v, partials = lw.root(inst.cost.body, grad, {})
        line(f"val = {t(v)}")
        for gj, pj in zip(gs, partials):
            line(f"{gj} = {t(pj)}")
    else:
        vals = ", ".join(t(lw.root(p, False, {})[0]) for p in inst.cost.pieces)
        line(f"val = _max([{vals}])" if len(inst.cost.pieces) > 1 else f"val = {vals}")
        if grad:  # the gradient of the first piece attaining the maximum
            line(f"k = _argmax([{vals}])")
            for i, p in enumerate(inst.cost.pieces):
                with lw.branch(f"k == {i}"):
                    for gj, pj in zip(gs, lw.root(p, True, {})[1]):
                        line(f"{gj} = {t(pj)}")
    if grad:
        line("r2 = 2.0 * rho")
    for wc in working:
        v = t(lw.root(wc.body, False, wc.env)[0])
        with lw.branch(f"{v} > 0"):
            line(f"val = val + rho * {v} * {v}")
            if grad:
                add_grad(v, lw.root(wc.body, True, wc.env)[1])
    for h in inst.equalities.components:
        v, partials = lw.root(h, grad, {})
        v = t(v)
        # the passes round rho * v^2 differently; one form for both would change solver outputs
        line(f"val = val + rho * _square({v})" if grad else f"val = val + rho * {v} * {v}")
        if grad:
            add_grad(v, partials)
    return lw.function("xs, rho", "val", gs if grad else (),
                       _max=max, _argmax=np.argmax, _square=_square)


def _max_violation(working, x) -> float:
    xs = x.tolist()
    return max((wc.value(xs) for wc in working), default=0.0)


def _penalty_descent(inst: SipInstance, working, pair, x0):
    """Penalty stages from x0 on coordinate lists; arrays only between stages.
    ``pair`` is ``_penalty_pair(inst, working)``. A gradient that is not a
    number, as at a point the gradient pass rejects, ends the stage's descent,
    and a trial point the value pass rejects is NaN, which no line search
    accepts. The masked passes run past a rejection, so numpy's warnings are off."""
    value_pass, grad_pass = pair
    x = x0.tolist()
    rho = PENALTY0
    step = STEP0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in solve()
        for _ in range(PENALTY_STAGES):
            for _ in range(MAX_INNER):
                val, grad = grad_pass(x, rho)
                grad = np.array(grad)
                gnorm = math.sqrt(grad.dot(grad))  # np.linalg.norm of a 1-D array, less overhead
                if not gnorm > 1e-10 * max(1.0, abs(val)):
                    break
                d = [-gj / gnorm for gj in grad.tolist()]
                t = step
                improved = False
                for _ in range(40):
                    cand = [xj + t * dj for xj, dj in zip(x, d)]
                    if value_pass(cand, rho) <= val - ARMIJO * t * gnorm:
                        x = cand
                        step = min(t * 1.5, STEP0)
                        improved = True
                        break
                    t *= 0.5
                if not improved:
                    break
            xa = np.array(x)
            eq = inst.eq_residual(xa)
            if max(_max_violation(working, xa), eq) <= VIOLATION_TOL and rho > 1e4:
                break
            rho *= PENALTY_GROWTH
    return np.array(x)


def _peak(v) -> float:
    """max |v_j| of a list, NaN when an entry is NaN, as np.max reads it."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def _polish(inst: SipInstance, working, x):
    """Square Newton solve of the working-set stationarity system (gradients
    of the Lagrangian, near-active working constraints, equalities). The
    Hessian block comes from central differences of the analytic gradients.
    The iterate and the residual are lists of Python floats."""
    if not isinstance(inst.cost, SmoothCost):
        return None
    n, m, xs = len(x), len(inst.equalities), x.tolist()
    cost = _bind("cost", inst.cost.body, n, {})
    eqs = [_bind("h", c, n, {}) for c in inst.equalities.components]
    tol = 1e-4 * max(1.0, float(np.linalg.norm(x)))
    near = [wc for wc in working if abs(wc.value(xs)) <= tol][: max(0, n - m)]
    k = len(near)

    def jacobian_t(xs):
        return np.vstack([h.grad(xs)[1] for h in eqs]).T

    def residual(z):
        # each near value comes from its gradient call; only the sqrt gradient
        # at zero rejects a point the value kernel takes, so +inf asks again
        xs, vals = z[:n], []
        g = cost.grad(xs)[1]
        for lam_i, wc in zip(z[n : n + k], near):
            v, partials = wc.grad(xs)
            g = [gj + lam_i * pj for gj, pj in zip(g, partials)]
            vals.append(v if v < math.inf else wc.value(xs))
        if m:  # numpy for the sum: BLAS may fuse it, which floats cannot repeat
            g = (np.array(g) + jacobian_t(xs) @ np.array(z[n + k :])).tolist()
            vals += [h.value(xs) for h in eqs]
        return [*g, *vals]

    G = np.column_stack([wc.grad(xs)[1] for wc in near]) if k else np.zeros((n, 0))
    rhs = -np.array(cost.grad(xs)[1])
    M = np.hstack([G, jacobian_t(xs)]) if m else G
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        return None
    if M.size:
        mult, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        lam0, y0 = np.maximum(mult[:k], 0.0), mult[k:]
    else:
        lam0, y0 = np.zeros(0), np.zeros(0)
    z = [*xs, *lam0.tolist(), *y0.tolist()]
    fz = residual(z)
    scale = max(1.0, _peak(fz))
    h = 1e-7
    h2 = 2 * h
    for _ in range(POLISH_ITERS):
        norm0 = _peak(fz)
        if norm0 <= 1e-12 * scale:
            break
        cols = []
        for j, zj in enumerate(z):
            zp, zm = z.copy(), z.copy()
            zp[j], zm[j] = zj + h, zj - h
            cols.append([(a - b) / h2 for a, b in zip(residual(zp), residual(zm))])
        try:
            delta = np.linalg.solve(np.array(cols).T, -np.array(fz)).tolist()
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(25):
            cand = [zj + t * dj for zj, dj in zip(z, delta)]
            fc = residual(cand)
            if _peak(fc) < norm0:
                z, fz = cand, fc
                break
            t *= 0.5
        else:
            break
    if _peak(fz) > 1e-9 * scale or any(lam < -1e-8 for lam in z[n : n + k]):
        return None
    return np.array(z[:n])


def _solve_subproblem(inst: SipInstance, working, pair, config, rng, warm):
    lo, hi = inst.box_bounds()
    starts = [] if warm is None else [warm.copy()]
    starts += [rng.uniform(lo, hi) for _ in range(config.multistart if warm is None else 1)]
    candidates = []
    for s in starts:
        x = _penalty_descent(inst, working, pair, s)
        polished = _polish(inst, working, x)
        xv = _max_violation(working, x)
        if polished is not None:
            pv = _max_violation(working, polished)
            if pv <= max(xv, VIOLATION_TOL):
                x, xv = polished, pv
        viol = max(xv, inst.eq_residual(x))
        candidates.append((viol, inst.cost_value(x), tuple(x), x))
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
        rng = np.random.default_rng(config.seed)
        lo, hi = inst.box_bounds()
        center = 0.5 * (lo + hi)

        # seeds: every fixed constraint and the largest grid values of each family; NaN rows skipped
        scan0 = scan_constraints(inst, center)
        grid = np.flatnonzero(scan0.grid() & ~np.isnan(scan0.value))
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
        warm = pair = None
        for outer in range(config.max_outer):
            pair = pair or _penalty_pair(inst, working)  # once per working set
            x = _solve_subproblem(inst, working, pair, config, rng, warm)
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
                pair = None
            else:
                # the worst index is already in the working set: warm-start from the
                # best candidate. The penalty restarts at PENALTY0 on the same schedule,
                # so this does not tighten the subproblem and often repeats its result.
                warm = best_x
        trace.status = "iteration_limit"
        return (best_x if best_x is not None else warm), trace
