"""Discretization (exchange) solver producing candidate minimizers.

Outer loop: solve a finite subproblem over the working index set, then add
the most violated materialized index until the full materialization (tail
ladders included) is satisfied. The finite subproblem runs multistart
penalized gradient descent with Armijo backtracking, each penalty stage ending
when a step stalls; for smooth costs a square Newton polish on the working-set
stationarity system sharpens the candidate to tight tolerances. The polish
damps a Newton step no further than ``2**-(POLISH_TRIALS - 1)``: a step that
needs more damping is read as a failed polish, as damped-Newton codes read a
damping factor below their floor (Deuflhard, *Newton Methods for Nonlinear
Problems*, ch. 3). Everything is seeded and deterministic, and the descent's
gradient norm is a ``math.fsum``.
The whole penalty descent, stage-end test included, is one generated function
per working set, compiled on first use and kept on the instance, so repeated
solves of one instance compile each working set once. Every reading is masked:
a point the expression rejects reads NaN, never an error. The Newton polish
runs on Python floats and reads such a point as ``_bind`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr as ex
from .model import FEAS_TOL, IndexId, SipInstance, SmoothCost, row_norms, scan_constraints

INITIAL_WORKING = 8
PENALTY0 = 10.0
PENALTY_GROWTH = 2.0
ARMIJO = 1e-4
STEP0 = 1.0
PENALTY_STAGES = 18
MAX_INNER = 80
STALL_TOL = 1e-9
POLISH_ITERS = 40
POLISH_TRIALS = 7  # the polish's damping floor: t = 1, 1/2, ..., 1/64


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
    value, row = scan.argmax()
    if row is None:
        return None, 0.0
    return scan.index_id(row), value


def _constraint_for(inst: SipInstance, idx: IndexId) -> WorkingConstraint:
    if idx.family is None:
        return _bind(idx.label, inst.fixed[idx.block][1], inst.dim, {})
    fam = next(f for f, _ in inst.families if f.name == idx.family)
    # converted once, as expr._bind converts a scalar, so each kernel call takes it as is
    return _bind(idx.label, fam.body, inst.dim, {fam.index_name: float(idx.value)})


def _penalty(lw, inst: SipInstance, working, grad: bool, at: str, val: str) -> None:
    """Lines that leave in ``val`` the cost plus rho * v^2 for each violated
    working constraint and each equality residual at the coordinates ``at``,
    with the working bindings folded in, and with ``grad`` its gradient in
    g0, g1, ...; ``bad`` gathers what the expressions reject."""
    t, line, root, gs = lw.text, lw.line, lw.root, [f"g{j}" for j in range(inst.dim)]
    lw.at = at

    def add_grad(v, partials):  # g_j + 2.0 * rho * v * p_j, with 2.0 * rho * v once
        s = lw.arith("*", "r2", v)
        for gj, pj in zip(gs, partials):
            if pj is not None:  # a structurally zero partial adds nothing
                line(f"{gj} = {gj} + {t(lw.arith('*', s, pj))}")

    if isinstance(inst.cost, SmoothCost):
        v, partials = root(inst.cost.body, grad, {})
        line(f"{val} = {t(v)}")
        for gj, pj in zip(gs, partials):
            line(f"{gj} = {t(pj)}")
    else:
        vals = ", ".join(t(root(p, False, {})[0]) for p in inst.cost.pieces)
        line(f"{val} = _max([{vals}])" if len(inst.cost.pieces) > 1 else f"{val} = {vals}")
        if grad:  # the gradient of the first piece attaining the maximum
            line(f"k = _argmax([{vals}])")
            for i, p in enumerate(inst.cost.pieces):
                with lw.block(f"if k == {i}:"):
                    for gj, pj in zip(gs, root(p, True, {})[1]):
                        line(f"{gj} = {t(pj)}")
    for wc in working:
        v = root(wc.body, False, wc.env)[0]
        with lw.block(f"if {t(v)} > 0:"):
            line(f"{val} = {val} + rho * {t(v)} * {t(v)}")
            if grad:
                add_grad(v, root(wc.body, True, wc.env)[1])
    for h in inst.equalities.components:
        v, partials = root(h, grad, {})
        line(f"{val} = {val} + rho * {t(v)} * {t(v)}")
        if grad:
            add_grad(v, partials)


def _penalty_descent(inst: SipInstance, working):
    """``descent(xs) -> (xs, gradient passes)``: ``PENALTY_STAGES`` penalty stages
    of ``working`` from the coordinate list ``xs``, rho starting at ``PENALTY0`` and
    growing by ``PENALTY_GROWTH`` after each. A stage takes up to ``MAX_INNER``
    Armijo steps, ending at a step that lowers the penalty by at most
    ``STALL_TOL * max(1, |val|)`` or where the gradient norm, a ``math.fsum``, is at
    most ``1e-10 * max(1, |val|)`` or the gradient body rejects the point; no
    rejected trial point is accepted. Once rho > 1e4, the descent ends after a
    stage where no working value exceeds ``FEAS_TOL``, no equality residual does
    in absolute value and nothing is rejected (NaN fails each test). Compiled
    once per working set and kept in ``inst.__dict__``, keyed by the working
    labels; it holds no reference to the instance or to ``working``."""
    descents = inst.__dict__.setdefault("_descents", {})
    key = tuple(wc.label for wc in working)
    if key in descents:
        return descents[key]
    n = inst.dim
    lw = ex._Lowering(n, masked=True)
    line, xs, cs = lw.line, [f"x{j}" for j in range(1, n + 1)], [f"c{j}" for j in range(1, n + 1)]
    lw.columns.update(range(1, n + 1))
    line(f"rho, step, passes = {PENALTY0!r}, {STEP0!r}, 0")
    with lw.block(f"for _ in _range({PENALTY_STAGES}):"):
        line("r2 = 2.0 * rho")
        with lw.block(f"for _ in _range({MAX_INNER}):", body=True):
            line("passes = passes + 1")
            _penalty(lw, inst, working, True, "x", "val")
            if lw.checked:
                line("if bad: break")
            # a correctly rounded sum, the same under any BLAS; inf where it overflows
            line("try:")
            line(f"    gnorm = _sqrt(_fsum(({''.join(f'g{j} * g{j}, ' for j in range(n))})))")
            line("except _OverflowError:")
            line(f"    gnorm = {lw.text(math.inf)}")
            line("if not gnorm > 1e-10 * _max(1.0, _abs(val)): break")
            for j in range(n):  # a sin or exp partial is np.float64
                line(f"d{j + 1} = -_float(g{j}) / gnorm")
            line("t, stalled = step, True")
            with lw.block("for _ in _range(40):", body=True):
                for j, (xj, cj) in enumerate(zip(xs, cs), 1):
                    line(f"{cj} = {xj} + t * d{j}")
                _penalty(lw, inst, working, False, "c", "trial")
                armijo = f"trial <= val - {ARMIJO!r} * t * gnorm"
                with lw.block(f"if not bad and {armijo}:" if lw.checked else f"if {armijo}:"):
                    line(f"{', '.join(xs)} = {', '.join(cs)}")
                    line(f"step = _min(t * 1.5, {STEP0!r})")
                    line(f"stalled = trial >= val - {STALL_TOL!r} * _max(1.0, _abs(val))")
                    line("break")
                line("t = t * 0.5")
            line("if stalled: break")
        with lw.block("if rho > 1e4:", body=True):
            lw.at = "x"  # the trial body left it at the candidate locals
            tests = [f"{lw.text(lw.root(wc.body, False, wc.env)[0])} <= {FEAS_TOL!r}"
                     for wc in working]
            tests += [f"_abs({lw.text(lw.root(h, False, {})[0])}) <= {FEAS_TOL!r}"
                      for h in inst.equalities.components]
            rejected = "not bad and " if lw.checked else ""
            line(f"if {rejected}{' and '.join(tests) or 'True'}: break")
        line(f"rho = rho * {PENALTY_GROWTH!r}")
    descents[key] = lw.function("xs", f"[{', '.join(xs)}], passes", _range=range,
                                _fsum=math.fsum, _sqrt=math.sqrt, _OverflowError=OverflowError,
                                _max=max, _min=min, _abs=abs, _float=float, _argmax=np.argmax)
    return descents[key]


def _max_violation(working, x) -> float:
    xs = x.tolist()
    return max((wc.value(xs) for wc in working), default=0.0)


def _peak(v) -> float:
    """max |v_j| of a list, NaN when an entry is NaN, as np.max reads it."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def _polish(inst: SipInstance, working, x):
    """Square Newton solve of the working-set stationarity system (gradients
    of the Lagrangian, near-active working constraints, equalities). The
    Hessian block comes from central differences of the analytic gradients.
    The iterate and the residual are lists of Python floats. Each step tries
    t = 1, 1/2, ..., down to the damping floor 2**-(POLISH_TRIALS - 1), and
    takes the first t that lowers the residual's peak. When none does, the
    polish ends there and returns None unless it has already converged: on the
    bundled instances a polish that converges takes only steps with t >= 1/4,
    while one that needs smaller steps would, without the floor, run all
    ``POLISH_ITERS`` steps and fail anyway."""
    if not isinstance(inst.cost, SmoothCost):
        return None
    n, m, xs = len(x), len(inst.equalities), x.tolist()
    cost = _bind("cost", inst.cost.body, n, {})
    eqs = [_bind("h", c, n, {}) for c in inst.equalities.components]
    tol = 1e-4 * max(1.0, float(row_norms(x)))
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
        for _ in range(POLISH_TRIALS):
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


def _solve_subproblem(inst: SipInstance, working, config, rng, warm):
    lo, hi = inst.box_bounds()
    starts = [] if warm is None else [warm.copy()]
    starts += [rng.uniform(lo, hi) for _ in range(config.multistart if warm is None else 1)]
    descent, candidates = _penalty_descent(inst, working), []
    for s in starts:
        x = np.array(descent(s.tolist())[0])
        polished = _polish(inst, working, x)
        xv = _max_violation(working, x)
        if polished is not None:
            pv = _max_violation(working, polished)
            if pv <= max(xv, FEAS_TOL):
                x, xv = polished, pv
        viol = max(xv, inst.eq_residual(x))
        candidates.append((viol, inst.cost_value(x), tuple(x), x))
    feasible = [c for c in candidates if c[0] <= FEAS_TOL]
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
        warm = None
        for outer in range(config.max_outer):
            x = _solve_subproblem(inst, working, config, rng, warm)
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
            if total_viol <= FEAS_TOL:
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
