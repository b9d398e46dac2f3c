"""Dense linear algebra and LP kernel.

Every cone query, and each Kelley cut step of the Slater search, is one
elastic 1-norm LP, read four ways. Over a hull matrix F, a generator matrix
G and a lineality matrix H (columns are vectors), ``_elastic_fit``
minimizes the 1-norm misfit of F w + G lam + H y to a right-hand side, with
convex weights w, lam >= 0 and free y:

* ``cone_feasibility``: no hull part, right-hand side v. Zero misfit is a
  certificate that v is in cone(G) + span(H); otherwise the optimal duals
  are a separating functional.
* ``hull_plus_cone_feasibility``: right-hand side 0. Zero misfit puts 0 in
  co(F) + cone(G) + span(H); otherwise the duals separate 0 from that set.
* ``max_margin_direction``: the hull fit with F = G and no cone part. By LP
  duality its value is the best uniform margin of a direction against all
  generators inside the kernel of H^T, and its duals are that direction, so
  the row count stays at ambient-dimension scale even with 10^4 generators
  (Goberna & Lopez, Linear Semi-Infinite Optimization, 1998).
* ``cq._slater_cuts``: the hull fit with a cost on the hull block, F the
  scaled cut gradients, H the scaled equality Jacobian and right-hand side
  0. Its value is minus the Kelley lower bound on min sup_t g(y, t) over
  the box, its duals are the next iterate, and its elastic parts are the
  box multipliers.

A certificate is the LP's basic optimal solution as the simplex returns it,
so its positive columns are linearly independent and at most the row count.

The simplex is a two-phase revised simplex that keeps only the basis
inverse, whose size is the row count, and reads the wide constraint matrix
in place. Pivoting uses the steepest reduced cost with a permanent switch to
Bland's lowest-index rule after a degenerate stall, so wide degenerate cone
LPs stay fast without cycling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class LpFailure(RuntimeError):
    """Simplex gave up (iteration limit or numerically broken basis)."""


@dataclass
class FeasibilityCertificate:
    """Nonnegative weights over generators plus free lineality coefficients."""

    lam: np.ndarray
    y: np.ndarray
    residual: float


@dataclass
class ConeRefutation:
    """Separating functional: <a, v> > 0 >= <a, g_i> and <a, h_j> = 0, |a|_inf = 1."""

    separator: np.ndarray
    value: float


@dataclass
class MarginResult:
    direction: np.ndarray
    margin: float


def rank(M: np.ndarray, tol: float = 1e-9) -> int:
    """Rank by Gaussian elimination with partial pivoting: pivots with
    magnitude > tol * max(max|M|, 1) count toward it."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    m, n = M.shape
    if m == 0 or n == 0 or not np.any(M):
        return 0
    cut = tol * max(np.max(np.abs(M)), 1.0)
    R = M.copy()
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = row + int(np.argmax(np.abs(R[row:, col])))
        if abs(R[p, col]) <= cut:
            continue
        R[[row, p]] = R[[p, row]]
        R[row] = R[row] / R[row, col]
        for r in range(m):
            if r != row and R[r, col] != 0.0:
                R[r] -= R[r, col] * R[row]
        row += 1
    return row


_RC_TOL = 1e-10


def _simplex_standard(c, A, b):
    """min c.x s.t. A x = b, x >= 0 by a two-phase revised simplex.

    Keeps only the m x m basis inverse and the m basic values, and reads A
    in place: each pivot prices A with one y @ A and computes the entering
    column as B^{-1} A_q. Artificial i has the column sign(b_i) e_i, so the
    first basis inverse is diag(sign b) and the first basic values are |b|.
    Returns (status, x, objective, dual). The dual vector y satisfies
    c_j - y.A_j >= -tol at optimality.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    Binv = np.diag(sign)
    xB = np.abs(b)
    basis = np.arange(n, n + m)
    scale = max(1.0, A.max(initial=0.0), -A.min(initial=0.0), xB.max(initial=0.0))
    rc_tol = _RC_TOL * scale
    max_iter = 50 * (m + n) + 2000

    def column(q):
        return Binv @ A[:, q] if q < n else Binv[:, q - n] * sign[q - n]

    def pivot(row, q, col):
        Binv[row] /= col[row]
        xB[row] /= col[row]
        col[row] = 0.0
        Binv[:] -= np.outer(col, Binv[row])
        xB[:] -= col * xB[row]
        basis[row] = q

    # Entering rule: steepest reduced cost, falling back to Bland's
    # lowest-index rule permanently after a long degenerate stall. Bland
    # guarantees escape from cycling; the steepest rule keeps wide cone LPs
    # from crawling through every generator column.
    stall_limit = 30 * (m + 1)

    def run_phase(cost, artificials_enter):
        stall = 0
        bland = False
        for _ in range(max_iter):
            y = cost[basis] @ Binv
            r = cost - np.concatenate([y @ A, y * sign])
            if not artificials_enter:
                r[n:] = np.inf
            candidates = np.flatnonzero(r < -rc_tol)
            if candidates.size == 0:
                return LpStatus.OPTIMAL, y
            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmin(r[candidates])])
            col = column(q)
            rows = np.flatnonzero(col > rc_tol)
            if rows.size == 0:
                return LpStatus.UNBOUNDED, y
            ratios = xB[rows] / col[rows]
            best = np.min(ratios)
            ties = rows[ratios <= best + 1e-14 * scale]
            p = int(ties[np.argmin(basis[ties])])  # lowest variable leaves
            if best <= 1e-14 * scale:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
            pivot(p, q, col)
        return LpStatus.ITERATION_LIMIT, None

    # phase 1: drive artificials to zero
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    status, y = run_phase(cost, True)
    if status != LpStatus.OPTIMAL:
        # phase 1 is bounded below by zero, so anything else is a numerical breakdown
        return LpStatus.ITERATION_LIMIT, None, None, None
    if float(cost[basis] @ xB) > 1e-9 * scale:
        return LpStatus.INFEASIBLE, None, None, y  # the phase-1 duals certify it

    # pivot lingering artificials out where possible
    for row in np.flatnonzero(basis >= n):
        cols = np.flatnonzero(np.abs(Binv[row] @ A) > rc_tol)
        if cols.size:
            q = int(cols[0])
            pivot(row, q, column(q))

    cost[:n] = c
    cost[n:] = 0.0
    status, y = run_phase(cost, False)  # artificials never re-enter
    if status != LpStatus.OPTIMAL:
        return status, None, None, None
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = xB[structural]
    return LpStatus.OPTIMAL, x, float(c @ x), y


def _as_columns(M, d):
    if M is None:
        return np.zeros((d, 0))
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros((d, 0))
    M = np.atleast_2d(M)
    if M.shape[0] != d:
        raise ValueError(f"expected {d} rows, got {M.shape}")
    return M


def _elastic_fit(F, G, H, v, what: str, cost=None):
    """The one elastic 1-norm LP behind every cone query:

        min cost.w + 1.(mu+ + mu-)  s.t.  F w + G lam + H (y+ - y-) + mu+ - mu- = v,
                                         1.w = 1 (only when F has columns),
                                         w, lam, y+, y-, mu+, mu- >= 0.

    F, G, H hold columns of length d = len(v), and cost (0 by default) has
    one entry per F column. Returns (w, lam, y, objective, duals); duals[:d]
    is the functional on the fit rows and, with a hull part, duals[d] the
    multiplier of the convexity row. With v = 0 the duals solve
    max s s.t. s <= cost_i - <f_i, a>, H^T a = 0, G^T a <= 0, |a|_inf <= 1,
    whose value is the objective: the elastic parts mu+- are the multipliers
    of the box |a|_inf <= 1.
    """
    d = v.shape[0]
    mf, mg, mh = F.shape[1], G.shape[1], H.shape[1]
    rows = d + 1 if mf else d  # the convexity row comes last
    A = np.empty((rows, mf + mg + 2 * mh + 2 * d))
    np.concatenate([F, G, H, -H, np.eye(d), -np.eye(d)], axis=1, out=A[:d])
    A[d:, :mf] = 1.0
    A[d:, mf:] = 0.0
    b = np.ones(rows)
    b[:d] = v
    c = np.concatenate([np.zeros(mf + mg + 2 * mh), np.ones(2 * d)])
    if cost is not None:
        c[:mf] = cost
    status, z, obj, duals = _simplex_standard(c, A, b)
    if status != LpStatus.OPTIMAL:
        raise LpFailure(f"{what} LP ended with status {status.value}")
    lam = z[mf : mf + mg]
    y = z[mf + mg : mf + mg + mh] - z[mf + mg + mh : mf + mg + 2 * mh]
    return z[:mf], lam, y, obj, duals


def cone_feasibility(G, H, v, tol: float = 1e-9):
    """Decide v in cone(G) + span(H) up to tolerance.

    Feasible: FeasibilityCertificate with lam >= 0, free y, and
    |G lam + H y - v|_inf <= tol. Infeasible: ConeRefutation whose
    separator a satisfies <a, v> > 0 >= <a, g_i>, <a, h_j> = 0, |a|_inf = 1;
    it is the normalized dual of the elastic fit with no hull part.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    G = _as_columns(G, d)
    H = _as_columns(H, d)
    _, lam, yy, obj, a = _elastic_fit(np.zeros((d, 0)), G, H, v, "cone feasibility")
    if obj <= max(tol, 1e-15):
        residual = float(np.max(np.abs(G @ lam + H @ yy - v))) if d else 0.0
        return FeasibilityCertificate(lam=lam, y=yy, residual=residual)
    peak = np.max(np.abs(a))
    if peak <= 0:
        raise LpFailure("degenerate separator from cone feasibility LP")
    a = a / peak
    return ConeRefutation(separator=a, value=float(a @ v))


@dataclass
class HullFeasibility:
    """0 = F w + G lam + H y with convex weights w and lam >= 0."""

    weights: np.ndarray
    lam: np.ndarray
    y: np.ndarray
    residual: float


@dataclass
class HullRefutation:
    """Functional a with <a, f_i> <= -gap < 0, <a, g_j> <= 0, <a, h_k> = 0."""

    separator: np.ndarray
    gap: float


def hull_plus_cone_feasibility(F, G, H, tol: float = 1e-9):
    """Decide 0 in co(F) + cone(G) + span(H) up to tolerance.

    F, G, H hold columns. Feasible: convex weights over F, nonnegative lam
    over G, free y, with |F w + G lam + H y|_inf <= tol. Otherwise a
    separating functional proving every such combination stays away from 0.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    d = F.shape[0]
    if F.shape[1] == 0:
        raise ValueError("hull part needs at least one column")
    G = _as_columns(G, d)
    H = _as_columns(H, d)
    w, lam, yy, obj, y = _elastic_fit(F, G, H, np.zeros(d), "hull feasibility")
    if obj <= max(tol, 1e-15):
        recon = F @ w + G @ lam + H @ yy
        return HullFeasibility(weights=w, lam=lam, y=yy, residual=float(np.max(np.abs(recon))))
    a = y[:d]
    gap = float(y[d])
    peak = np.max(np.abs(a))
    if peak <= 0:
        raise LpFailure("degenerate separator from hull feasibility LP")
    return HullRefutation(separator=a / peak, gap=gap / peak)


def max_margin_direction(G, H) -> MarginResult:
    """Best uniform margin: max s with <g_i, x> <= -s for all generators,
    H^T x = 0, and |x|_inf <= 1.

    This LP is the dual of the hull fit of 0 by co(G) + span(H), i.e.
    ``hull_plus_cone_feasibility(G, [], H)``: its optimal value is the margin
    and its duals on the d fit rows are the witness x. So the row count stays
    at ambient-dimension scale even with 10^4 generators. With no generators
    the margin is +inf and the witness is 0.
    """
    G = np.asarray(G, dtype=float)
    if G.size == 0:
        d = G.shape[0] if G.ndim == 2 else 0
        return MarginResult(direction=np.zeros(d), margin=math.inf)
    G = np.atleast_2d(G)
    d = G.shape[0]
    *_, obj, y = _elastic_fit(G, np.zeros((d, 0)), _as_columns(H, d), np.zeros(d), "margin")
    return MarginResult(direction=y[:d], margin=float(obj))
