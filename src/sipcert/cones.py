"""Finitely generated convex cones with lineality and limit rays.

A truncated infinite family approaches limit directions it never attains.
Those directions enter here as *limit rays*: declared in the instance, or
extrapolated from the normalized rows of the scan's tail ladders one ladder
at a time, so a family open at both ends gets up to two rays, each with the
value limit of its own ladder. Membership, separation, and the
closedness diagnostic all work on the finite surrogate cone(generators
[+ rays]) + span(lineality), so every verdict is backed by a certificate a
test can re-check.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import linsolve
from .linsolve import ConeRefutation
from .model import ConstraintScan, FamilyScan, unit_vectors


@dataclass(frozen=True)
class Ray:
    direction: np.ndarray
    provenance: str  # "declared" or "extrapolated"
    attained: bool
    label: str = "ray"
    value_limit: float | None = None


class Closedness(Enum):
    CLOSED = "closed"
    NOT_CLOSED = "not_closed"
    UNKNOWN = "unknown"


@dataclass
class ClosednessVerdict:
    status: Closedness
    reason: str
    witness_ray: Ray | None = None
    witness_separator: np.ndarray | None = None


@dataclass
class GeneratedCone:
    dim: int
    labels: Sequence[str]
    generators: np.ndarray  # (dim, m), columns are generators
    lineality: np.ndarray  # (dim, k), columns span the subspace part
    limit_rays: list[Ray] = field(default_factory=list)

    def __post_init__(self):
        self.generators = np.asarray(self.generators, dtype=float).reshape(self.dim, -1)
        self.lineality = np.asarray(self.lineality, dtype=float).reshape(self.dim, -1)
        if len(self.labels) != self.generators.shape[1]:
            raise ValueError("one label per generator column")

    def columns(self) -> np.ndarray:
        """Generator columns, followed by the limit-ray directions."""
        G = self.generators
        if self.limit_rays:
            R = np.column_stack([r.direction for r in self.limit_rays])
            G = np.hstack([G, R]) if G.size else R
        return G

    def label(self, j: int) -> str:
        """Label of column j of `columns()`."""
        m = self.generators.shape[1]
        return self.labels[j] if j < m else self.limit_rays[j - m].label


def membership(cone: GeneratedCone, v, tol: float = 1e-9):
    """Certificate or separating functional for v against the cone."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise ValueError(f"probe vector must have dimension {cone.dim}")
    return linsolve.cone_feasibility(cone.columns(), cone.lineality, v, tol)


def reduce_support(G, H, lam, y):
    """Null-vector elimination on the support of lam."""
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    d = G.shape[0]
    lam = np.asarray(lam, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    scale = float(np.max(lam)) if lam.size else 0.0
    while True:
        support = np.flatnonzero(lam > max(1e-14 * max(scale, 1.0), 0.0))
        if len(support) + H.shape[1] <= d:
            break
        M = np.hstack([G[:, support], H]) if H.size else G[:, support]
        _, kernel = linsolve.rank_nullspace(M, 1e-12)
        direction = None
        for k in kernel:
            if np.max(np.abs(k[: len(support)])) > 1e-9:
                direction = k
                break
        if direction is None:
            break
        alpha = direction[: len(support)]
        beta = direction[len(support) :]
        if np.max(alpha) <= 0:
            alpha, beta = -alpha, -beta
        pos = alpha > 1e-15
        theta = np.min(lam[support][pos] / alpha[pos])
        lam[support] = lam[support] - theta * alpha
        if beta.size:
            y = y - theta * beta
        lam[support] = np.maximum(lam[support], 0.0)
        zeroed = np.argmin(np.abs(lam[support]))
        lam[support[zeroed]] = 0.0
    lam[lam < 0] = 0.0
    return lam, y


THETA_TOL = 1e-3
K_TAIL = 16
RESIDUAL_TOL = 1e-6
ATTAIN_TOL = 1e-9


def _unit_rows(v) -> np.ndarray:
    """Unit rows of v, with its zero and non-finite rows dropped."""
    u = unit_vectors(v)
    return u[~np.isnan(u[:, 0])]


def _attained(ref: np.ndarray, direction) -> bool:
    """A unit direction within chord distance ATTAIN_TOL of a row of ref."""
    return bool(np.any(np.linalg.norm(ref - direction, axis=1) <= ATTAIN_TOL))


def accumulation_rays(params, vectors, *, attained_dirs):
    """Limit directions of one tail ladder.

    ``params`` fall strictly to 0, one per row of ``vectors``. The last K_TAIL
    normalized rows are Richardson-extrapolated pairwise and the estimates
    clustered at angular tolerance THETA_TOL; only clusters whose tail
    estimates agree to RESIDUAL_TOL survive. A ray is attained when it lies
    within chord distance ATTAIN_TOL of a row of ``attained_dirs``, the unit
    directions the materialized generators realize. Returns (rays, ok); an
    inconclusive extrapolation gives ([], False)."""
    units = unit_vectors(vectors)
    keep = ~np.isnan(units[:, 0])
    s, u = np.asarray(params, dtype=float)[keep][-K_TAIL:], units[keep][-K_TAIL:]
    s1, s2 = s[:-1, None], s[1:, None]
    estimates = _unit_rows((s1 * u[1:] - s2 * u[:-1]) / (s1 - s2))
    clusters: list[list[np.ndarray]] = []
    for est in estimates:
        for cl in clusters:
            if _angle(est, cl[0]) <= THETA_TOL:
                cl.append(est)
                break
        else:
            clusters.append([est])
    rays: list[Ray] = []
    for cl in clusters:
        # the cluster sits within THETA_TOL of cl[0], so its mean is not 0
        rep = unit_vectors(np.mean(cl[-3:], axis=0))
        if len(cl) >= 2:
            # the tail estimates of a convergent cluster must agree
            tail = cl[-3:]
            resid = max(_angle(a, b) for a, b in zip(tail, tail[1:]))
        else:
            # an uncorroborated single estimate only counts if the raw tail
            # already sits on it
            resid = _angle(cl[0], u[-1])
        if resid <= RESIDUAL_TOL:
            rays.append(Ray(rep, "extrapolated", _attained(attained_dirs, rep)))
    return rays, bool(rays)


def family_rays(scan: ConstraintScan, fam: FamilyScan, vectors, ladders, attained_dirs):
    """The limit rays of one family, one tail ladder at a time: each ladder k
    in ``ladders`` is extrapolated from its own rows of ``vectors`` (the
    gradients or their lift, one row per tail row of the scan, in scan order),
    whose parameter falls to 0. A family open at both ends thus gets up to two
    rays, each with its own ladder's value limit; a ray within THETA_TOL of an
    earlier one merges into it and keeps the larger value limit.
    ``attained_dirs`` is normalized here, once. Returns (rays, ok), where ok
    says every ladder extrapolated."""
    ref = _unit_rows(attained_dirs)
    rays: list[Ray] = []
    ok = True
    for k in ladders:
        rows = (scan.block == fam.block) & (scan.ladder == k)
        found, ladder_ok = accumulation_rays(scan.param[rows], vectors[rows[scan.tail]],
                                             attained_dirs=ref)
        ok = ok and ladder_ok
        vlimit = fam.tails[k].value_limit
        for ray in found:
            j = next((j for j, r in enumerate(rays)
                      if _angle(r.direction, ray.direction) <= THETA_TOL), len(rays))
            if j < len(rays):
                rays[j] = replace(rays[j], value_limit=max(rays[j].value_limit, vlimit))
            else:
                label = f"{fam.name}:limit-ray-{j}"
                rays.append(replace(ray, label=label, value_limit=vlimit))
    return rays, ok


def declared_rays(fam: FamilyScan, value_limit: float, attained_dirs) -> list[Ray]:
    """The family's declared limit ray, taken as given without extrapolation;
    none when its direction is not finite."""
    ref = _unit_rows(attained_dirs)
    return [Ray(u, "declared", _attained(ref, u), f"{fam.name}:declared-ray", value_limit)
            for u in _unit_rows([fam.declared_ray])]


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    c = float(np.clip(u @ v, -1.0, 1.0))
    return math.acos(c)


def augmented_generators(scan: ConstraintScan):
    """Value-augmented coefficient vectors (grad, <grad, x> - g(x)) at the
    scan's point: (columns (d+1, m) over the base materialization, the lift of
    the tail-ladder rows for `family_rays`). A gradient that is not finite
    lifts to a column that is not finite, with no RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        lift = np.hstack([scan.grad, (scan.grad @ scan.x - scan.value)[:, None]])
    return np.ascontiguousarray(lift[scan.grid(level=0)].T), lift[scan.tail]


NORM_RATIO_CAP = 1e3
NORM_FLOOR = 1e-6
CLOSEDNESS_TOL = 1e-9


def closedness_diagnostic(
    generators,
    rays: list[Ray],
    *,
    complete: bool,
    extrapolation_ok: bool = True,
) -> ClosednessVerdict:
    """Three-way closedness verdict for cone(generators).

    Closed: the generator set is complete, or the raw norms sit in a bounded
    band and the origin is separated from the convex hull of the normalized
    generators and rays. NotClosed: some unattained limit ray is not a conic
    combination of the generators, witnessed by a separating functional.
    Unknown otherwise.
    """
    G = np.asarray(generators, dtype=float)
    if G.size == 0:
        return ClosednessVerdict(Closedness.CLOSED, "no generators; trivial cone")
    if complete:
        return ClosednessVerdict(Closedness.CLOSED, "complete finite generator set; polyhedral cone")
    for ray in rays:
        # an attained ray passes this membership test trivially, so no gate
        out = linsolve.cone_feasibility(G, None, ray.direction, CLOSEDNESS_TOL)
        if isinstance(out, ConeRefutation):
            a = out.separator
            if a @ ray.direction > CLOSEDNESS_TOL and np.all(G.T @ a <= CLOSEDNESS_TOL):
                return ClosednessVerdict(
                    Closedness.NOT_CLOSED,
                    "unattained limit direction is separated from the generated cone",
                    witness_ray=ray,
                    witness_separator=a,
                )
            return ClosednessVerdict(
                Closedness.UNKNOWN, "separator failed verification", witness_ray=ray
            )
    if not extrapolation_ok:
        return ClosednessVerdict(
            Closedness.UNKNOWN, "tail extrapolation inconclusive; compactness not certifiable"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a norm past the float range is inf
        norms = np.linalg.norm(G, axis=0)
        spread = np.max(norms) / max(np.min(norms), 1e-300)  # NaN when every norm is inf
    if np.min(norms) < NORM_FLOOR or not spread <= NORM_RATIO_CAP:
        return ClosednessVerdict(
            Closedness.UNKNOWN,
            "generator norms spread outside the compactness band",
        )
    U = G / norms
    if rays:
        U = np.hstack([U, np.column_stack([r.direction for r in rays])])
    res = linsolve.max_margin_direction(U, None)
    hull_gap = min(res.margin, 1.0) if math.isfinite(res.margin) else 1.0
    if hull_gap > 1e-7:
        return ClosednessVerdict(
            Closedness.CLOSED,
            f"normalized generators are compact with origin-hull gap {hull_gap:.3e}",
        )
    return ClosednessVerdict(
        Closedness.UNKNOWN, "origin sits in (or near) the hull of normalized generators"
    )
