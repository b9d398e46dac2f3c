"""Finitely generated convex cones with lineality and limit rays.

A truncated infinite family approaches limit directions it never attains.
Those directions enter here as *limit rays*: extrapolated from normalized
tail gradients, or declared in the instance. Membership, separation, and the
closedness diagnostic all work on the finite surrogate cone(generators
[+ rays]) + span(lineality), so every verdict is backed by a certificate a
test can re-check.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linsolve
from .linsolve import ConeRefutation, FeasibilityCertificate
from .model import ConstraintScan, SipInstance, scan_constraints, unit_vectors


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

    def columns(self, use_limit_rays: bool) -> np.ndarray:
        """Generator columns, followed by the limit-ray directions if asked."""
        G = self.generators
        if use_limit_rays and self.limit_rays:
            R = np.column_stack([r.direction for r in self.limit_rays])
            G = np.hstack([G, R]) if G.size else R
        return G

    def label(self, j: int) -> str:
        """Label of column j of `columns(True)`."""
        m = self.generators.shape[1]
        return self.labels[j] if j < m else self.limit_rays[j - m].label


def membership(
    cone: GeneratedCone, v, tol: float = 1e-9, use_limit_rays: bool = True
):
    """Certificate or separating functional for v against the cone."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise ValueError(f"probe vector must have dimension {cone.dim}")
    return linsolve.cone_feasibility(cone.columns(use_limit_rays), cone.lineality, v, tol)


def caratheodory_reduce(
    cert: FeasibilityCertificate, cone: GeneratedCone, v, use_limit_rays: bool | None = None
) -> FeasibilityCertificate:
    """Shrink a conic certificate to at most dim + 1 supporting generators by
    eliminating null vectors of the supported columns. Never increases the
    reconstruction residual beyond roundoff."""
    v = np.asarray(v, dtype=float)
    if use_limit_rays is None:
        use_limit_rays = len(cert.lam) == cone.generators.shape[1] + len(cone.limit_rays)
    G = cone.columns(use_limit_rays)
    lam, y = reduce_support(G, cone.lineality, cert.lam.copy(), cert.y.copy())
    H = cone.lineality
    recon = (G @ lam if G.size else 0.0) + (H @ y if H.size else 0.0)
    residual = float(np.max(np.abs(recon - v))) if cone.dim else 0.0
    return FeasibilityCertificate(lam=lam, y=y, residual=residual)


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


def accumulation_rays(samples, hints=None, *, attained_dirs=None):
    """Limit directions of an indexed gradient sequence.

    ``samples`` is a sequence of (parameter, vector) pairs with parameter
    decreasing to 0 along the tail. Declared hints pass through. Otherwise
    the last K_TAIL normalized samples are Richardson-extrapolated pairwise
    and the estimates clustered at angular tolerance THETA_TOL; only clusters
    whose tail estimates agree to RESIDUAL_TOL survive. Returns (rays, ok);
    an inconclusive extrapolation gives ([], False).

    A ray is attained when its unit direction lies within chord distance
    ATTAIN_TOL of the unit direction of a row of ``attained_dirs`` (the
    directions the materialized generator set actually realizes). Tail
    samples approach the limit by construction, so they are a poor
    attainment reference and are used only when ``attained_dirs`` is None.
    """
    rays: list[Ray] = []
    pairs = sorted(((float(s), np.asarray(w, dtype=float)) for s, w in samples),
                   key=lambda p: -p[0])
    params = np.array([s for s, _ in pairs])
    units = unit_vectors([w for _, w in pairs]) if pairs else np.zeros((0, 1))
    keep = ~np.isnan(units[:, 0])
    params, units = params[keep], units[keep]
    ref = units if attained_dirs is None else unit_vectors(attained_dirs)
    ref = ref[~np.isnan(ref[:, 0])]

    def is_attained(direction) -> bool:
        return bool(np.any(np.linalg.norm(ref - direction, axis=1) <= ATTAIN_TOL))

    if hints:
        for hv in unit_vectors(hints):
            if not np.isnan(hv[0]):
                rays.append(Ray(hv, "declared", is_attained(hv), label="declared-ray"))
        return rays, True
    s, u = params[-K_TAIL:], units[-K_TAIL:]
    if len(s) < 2:
        return [], False
    step = s[:-1] > s[1:]
    s1, s2 = s[:-1][step, None], s[1:][step, None]
    estimates = unit_vectors((s1 * u[1:][step] - s2 * u[:-1][step]) / (s1 - s2))
    estimates = estimates[~np.isnan(estimates[:, 0])]
    if not len(estimates):
        return [], False
    clusters: list[list[np.ndarray]] = []
    for est in estimates:
        for cl in clusters:
            if _angle(est, cl[0]) <= THETA_TOL:
                cl.append(est)
                break
        else:
            clusters.append([est])
    for ci, cl in enumerate(clusters):
        rep = unit_vectors(np.mean(cl[-3:], axis=0))
        if np.isnan(rep[0]):
            continue
        if len(cl) >= 2:
            # the tail estimates of a convergent cluster must agree
            tail = cl[-3:]
            resid = max(_angle(a, b) for a, b in zip(tail, tail[1:]))
        else:
            # an uncorroborated single estimate only counts if the raw tail
            # already sits on it
            resid = _angle(cl[0], units[-1])
        if resid > RESIDUAL_TOL:
            continue
        rays.append(Ray(rep, "extrapolated", is_attained(rep), label=f"limit-ray-{ci}"))
    if not rays:
        return [], False
    return rays, True


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    c = float(np.clip(u @ v, -1.0, 1.0))
    return math.acos(c)


def augmented_generators(inst: SipInstance, x, scan: ConstraintScan | None = None):
    """Value-augmented coefficient vectors (grad, <grad, x> - g(x)) over the
    base materialization, plus tail samples of the same lift for ray work.

    Returns (columns (d+1, m), tail_samples) where tail_samples maps each
    family with tail rows to its (parameter, augmented vector) pairs.
    """
    x = np.asarray(x, dtype=float)
    scan = scan or scan_constraints(inst, x)
    lift = np.hstack([scan.grad, (scan.grad @ x - scan.value)[:, None]])
    tail_samples: dict[str, list[tuple[float, np.ndarray]]] = {}
    for fam in scan.families:
        rows = scan.tail & (scan.block == fam.block)
        if rows.any():
            tail_samples[fam.name] = list(zip(scan.param[rows], lift[rows]))
    return np.ascontiguousarray(lift[scan.grid(level=0)].T), tail_samples


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
    norms = np.linalg.norm(G, axis=0)
    if np.min(norms) < NORM_FLOOR or np.max(norms) / max(np.min(norms), 1e-300) > NORM_RATIO_CAP:
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
