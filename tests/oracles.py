"""Independent oracles that the tests check sipcert against.

None of these is part of the package: the package answers every cone query
through ``linsolve._elastic_fit``, and its reports never sample feasible
points. Here are

* ``simplex_solve``: a bounded-variable LP front end over the package's
  simplex kernel, which the LP tests compare with vertex enumeration;
* ``empirical_normal_cone_probe``: a sampling oracle for membership in the
  regular normal cone that never looks at the cone construction;
* ``membership_residual_trace``: the distance of a vector from the
  eps-active cone as the countable truncation grows;
* ``unit_vectors_reference``: ``model.unit_vectors`` with numpy's own
  reduces, the formula the package's coordinate passes must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sipcert import expr as ex
from sipcert.cones import membership
from sipcert.linsolve import FeasibilityCertificate, LpStatus, _simplex_standard
from sipcert.model import ConstraintScan, SipInstance, scan_constraints, with_grid
from sipcert.optimality import _cone, _require_feasible


@dataclass
class LpProblem:
    """min c.x subject to A x = b and lower <= x <= upper (entries may be +-inf)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.c.shape[0]
        if self.A.size == 0:
            self.A = self.A.reshape(0, n)
            self.b = self.b.reshape(0)
        if self.A.shape[1] != n or self.b.shape[0] != self.A.shape[0]:
            raise ValueError("inconsistent LP dimensions")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None


def simplex_solve(p: LpProblem) -> LpSolution:
    """Two-phase revised simplex for the bounded-variable problem.

    Finite lower bounds are shifted out; finite upper bounds become slack
    rows. Never reports OPTIMAL when the iteration budget runs out.
    """
    n = p.c.shape[0]
    m = p.A.shape[0]
    lower, upper = p.lower, p.upper

    # x = shift + P z with z >= 0 (free variables split into two columns)
    cols = []
    shift = np.zeros(n)
    for j in range(n):
        lo, up = lower[j], upper[j]
        if math.isfinite(lo):
            shift[j] = lo
            cols.append((j, +1.0))
        elif math.isfinite(up):
            shift[j] = up
            cols.append((j, -1.0))
        else:
            cols.append((j, +1.0))
            cols.append((j, -1.0))
    k = len(cols)
    P = np.zeros((n, k))
    for idx, (j, s) in enumerate(cols):
        P[j, idx] = s

    A2 = p.A @ P
    b2 = p.b - p.A @ shift
    c2 = p.c @ P

    # upper bounds on shifted variables become equality rows with slacks
    extra_rows = []
    extra_rhs = []
    for idx, (j, s) in enumerate(cols):
        lo, up = lower[j], upper[j]
        if math.isfinite(lo) and math.isfinite(up) and s > 0:
            extra_rows.append(idx)
            extra_rhs.append(up - lo)
    slack_count = len(extra_rows)
    rows = m + slack_count
    A3 = np.zeros((rows, k + slack_count))
    A3[:m, :k] = A2
    b3 = np.concatenate([b2, np.asarray(extra_rhs, dtype=float)])
    for srow, idx in enumerate(extra_rows):
        A3[m + srow, idx] = 1.0
        A3[m + srow, k + srow] = 1.0
    c3 = np.concatenate([c2, np.zeros(slack_count)])

    status, z, obj, y = _simplex_standard(c3, A3, b3)
    if status != LpStatus.OPTIMAL:
        dual = y[:m] if (status == LpStatus.INFEASIBLE and y is not None) else None
        return LpSolution(status=status, dual=dual)
    x = shift + P @ z[:k]
    return LpSolution(status=LpStatus.OPTIMAL, x=x, objective=float(p.c @ x), dual=y[:m])


_PROBE_LEVELS = 3  # sampling balls, each half the radius of the last
_PROBE_MIN_FEASIBLE = 50


@dataclass
class ProbeResult:
    quotient: float
    status: str  # ok | inconclusive


def empirical_normal_cone_probe(
    inst: SipInstance,
    x,
    v,
    samples: int = 2000,
    radius: float = 1e-3,
    *,
    seed: int = 0,
    scan: ConstraintScan | None = None,
) -> ProbeResult:
    """Largest quotient <v, x' - x> / |x' - x| over feasible points sampled
    in shrinking balls around x. An oracle for membership in the regular
    normal cone that never looks at the cone construction: true normals give
    quotients near zero, and interior-pointing directions are rejected with
    quotients near one.

    Feasibility of samples is strict (no tolerance) over the materialized
    index grid and its tail ladders.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    scan = scan or scan_constraints(inst, x)
    _require_feasible(inst, x, scan)
    rng = np.random.default_rng(seed)
    n = inst.dim

    # frozen index grids from the base-point scan, tails included
    family_ts = [
        (fam_obj, np.unique(scan.t[scan.block == fam.block]))
        for (fam_obj, _), fam in zip(inst.families, scan.families)
    ]

    project = None
    if len(inst.equalities):
        J = inst.eq_jacobian(x)

        def project(p):
            resid = inst.eq_values(p)
            corr, *_ = np.linalg.lstsq(J, resid, rcond=None)
            return p - corr

    def feasible_mask(pts: np.ndarray) -> np.ndarray:
        ok = np.ones(len(pts), dtype=bool)
        for _, body in inst.fixed:
            vals = np.broadcast_to(
                np.asarray(ex.eval_value(body, pts), dtype=float), (len(pts),)
            )
            ok &= vals <= 0.0
        chunk = max(1, 2_000_000 // max(1, max((len(t) for _, t in family_ts), default=1)))
        for fam_obj, ts in family_ts:
            for start in range(0, len(pts), chunk):
                sl = slice(start, min(start + chunk, len(pts)))
                if not np.any(ok[sl]):
                    continue
                # broadcast samples against the whole index grid at once
                vals = np.asarray(
                    ex.eval_value(fam_obj.body, pts[sl][:, None, :], {fam_obj.index_name: ts}),
                    dtype=float,
                )
                if vals.ndim < 2:
                    vals = np.broadcast_to(vals, (sl.stop - sl.start, len(ts)))
                ok[sl] &= np.all(vals <= 0.0, axis=-1)
        for comp in inst.equalities.components:
            vals = np.broadcast_to(
                np.asarray(ex.eval_value(comp, pts), dtype=float), (len(pts),)
            )
            ok &= np.abs(vals) <= 1e-12
        return ok

    quot = -math.inf
    feasible_count = 0
    per_level = max(1, samples // _PROBE_LEVELS)
    for level in range(_PROBE_LEVELS):
        r = radius / (2.0**level)
        u = rng.normal(size=(per_level, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = r * rng.uniform(0.0, 1.0, size=(per_level, 1)) ** (1.0 / n)
        pts = x + radii * u
        if project is not None:
            pts = np.vstack([project(p) for p in pts])
        good = pts[feasible_mask(pts)]
        feasible_count += len(good)
        if len(good):
            d = good - x
            norms = np.linalg.norm(d, axis=1)
            keep = norms > 1e-15
            if np.any(keep):
                quot = max(quot, float(np.max(d[keep] @ v / norms[keep])))
    if feasible_count < _PROBE_MIN_FEASIBLE:
        return ProbeResult(math.inf, "inconclusive")
    return ProbeResult(quot, "ok")


def membership_residual_trace(
    inst: SipInstance,
    x,
    v,
    truncations: Sequence[int] = (100, 1000, 10_000),
    eps: float = 0.1,
) -> list[tuple[int, float]]:
    """Distance of v from the eps-active cone, limit rays left out, as the
    countable truncation grows; shows the convergence behind
    tolerance-membership semantics."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    out = []
    for N in truncations:
        scan = scan_constraints(with_grid(inst, truncation=int(N)), x)
        res = membership(_cone(scan, scan.active(eps), inst.eq_jacobian(x).T), v, tol=1e-9)
        if isinstance(res, FeasibilityCertificate):
            out.append((int(N), res.residual))
        else:
            out.append((int(N), float(res.value)))
    return out


def unit_vectors_reference(v) -> np.ndarray:
    """Unit vectors along the last axis of v: the row peak by ``np.max`` and
    the norm by ``np.linalg.norm``, each one reduce over that axis."""
    v = np.asarray(v, dtype=float)
    peak = np.max(np.abs(v), axis=-1, keepdims=True, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = v / peak
        u = scaled / np.linalg.norm(scaled, axis=-1, keepdims=True)
    return np.where((peak == 0.0) | ~np.isfinite(peak), np.nan, u)
