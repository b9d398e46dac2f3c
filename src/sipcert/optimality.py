"""Normal cones to the feasible set and stationarity certificates.

The intersection over eps > 0 behind the perturbed representations is
realized finitely: one row mask over the scan per scheduled eps, selecting
the eps-active gradients, plus the limit rays whose generating trajectories
stay eps-active in the limit. Both shrink with eps, so the scheduled cones
are nested and their intersection is the smallest-eps cone; membership is
decided there alone, and columns are copied out of the scan only for an LP
that reads them. The perturbed stationarity trace is decided there first:
a certificate on the smallest-eps cone marks every scheduled eps, and only
without one are the cones tried from the largest eps down to the first that
fails. This is a semidecision and is reported as such whenever the
qualification hypotheses behind a representation do not hold. The probes
of a report share their separators across its cones (`cones.memberships`).

Stationarity is normal-cone membership of the negated cost subdifferential,
so the stationarity checks read the cones a report has already built: KKT
the unperturbed cone, perturbed stationarity the perturbed cones, and the
convex global check the KKT report itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex
from . import linsolve
from .cones import GeneratedCone, Ray, declared_rays, family_rays, membership, memberships
from .cq import EPS_SCHEDULE, CqReport, Verdict, cq_summary, validate_schedule
from .linsolve import FeasibilityCertificate, HullFeasibility, LpFailure
from .model import (
    ConstraintScan,
    RowLabels,
    SipInstance,
    SmoothCost,
    feasibility_check,
    scan_constraints,
)


STATIONARITY_TOL = 1e-9
NONFINITE_COLUMN = "a normal-cone column is not finite"


@dataclass
class NormalConeRep:
    """Nested cones as row masks over one scan: ``per_eps`` holds (eps, row
    mask, qualified rays) largest eps first, or (0, exactly active rows, [])
    when unperturbed. Columns are copied only for an LP that reads them."""

    variant: str  # perturbed | unperturbed | normalized
    scan: ConstraintScan
    lineality: np.ndarray  # (dim, k), the equality Jacobian's rows as columns
    per_eps: list[tuple[float, np.ndarray, list[Ray]]]
    valid: bool
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.finite:
            self.warnings.append(f"{NONFINITE_COLUMN}; every probe reads as outside the cone")

    @cached_property
    def cone(self) -> GeneratedCone:
        """The unperturbed cone, or the smallest-eps cone."""
        _, mask, rays = self.per_eps[-1]
        return _cone(self.scan, mask, self.lineality, rays)

    @cached_property
    def finite(self) -> bool:
        """Whether every column of `cone` is finite, read off the scan's rows
        without building it (limit rays are unit vectors, finite already)."""
        _, mask, _ = self.per_eps[-1]
        return bool(np.isfinite(self.lineality).all()) and not np.any(mask & ~self.scan.grad_finite)

    def members(self, dirs, tol: float = 1e-6, separators=None) -> list[bool]:
        """Membership of each of dirs in `cone`, with ``separators`` shared as
        in `memberships`. For the perturbed and normalized variants the
        scheduled cones are nested, so the smallest-eps cone is their
        intersection and no other eps can change the answer. A cone with a
        column that is not finite runs no LP and answers False."""
        if not self.finite:
            return [False] * len(dirs)
        return [isinstance(out, FeasibilityCertificate)
                for out in memberships(self.cone, dirs, tol, separators)]

    def member(self, v, tol: float = 1e-6) -> bool:
        """`members` of one vector, with no separators to share: one LP."""
        return self.finite and isinstance(membership(self.cone, v, tol), FeasibilityCertificate)


@dataclass
class KktCertificate:
    support: list[str]
    lam: np.ndarray
    y: np.ndarray
    residual: float
    cost_weights: np.ndarray | None = None
    uses_limit_rays: bool = False


@dataclass
class StationarityReport:
    condition: str  # unperturbed-kkt | perturbed-stationarity | convex-global
    outcome: str  # certificate | refuted | inconclusive
    certificate: KktCertificate | None = None
    separator: np.ndarray | None = None
    eps_trace: list[tuple[float, bool]] = field(default_factory=list)
    global_optimal: bool | None = None
    notes: list[str] = field(default_factory=list)


def _require_feasible(inst: SipInstance, x, scan: ConstraintScan):
    res = feasibility_check(inst, x, scan=scan)
    if not res.feasible:
        raise ValueError(
            f"point is not feasible: max violation {res.max_violation:.3e}, "
            f"equality residual {res.eq_residual:.3e}"
        )


def _family_rays(scan: ConstraintScan, attained_dirs) -> list[Ray]:
    """Gradient limit rays per family from its converged tail ladders, each
    with its trajectory value limit for eps-qualification; a declared ray
    stands for them and takes their largest value limit (0 without one)."""
    out: list[Ray] = []
    for fam in scan.families:
        limits = [scan.tail_limit(rows) for rows in fam.ladders]
        good = [k for k, (_, ok) in enumerate(limits) if ok]
        if fam.declared_ray is not None:
            vlimit = max((limits[k][0] for k in good), default=0.0)
            out.extend(declared_rays(fam, vlimit, attained_dirs))
            continue
        rays, ok = family_rays(scan, fam, scan.grad[scan.tail], good, attained_dirs)
        if ok:
            out.extend(rays)
    return out


def _cone(scan: ConstraintScan, mask: np.ndarray, lineality, rays=()) -> GeneratedCone:
    """The cone of the gradient rows in mask, in row order, plus lineality
    and limit rays; the one place a cone copies columns out of a scan."""
    rows = np.flatnonzero(mask)
    cols = np.ascontiguousarray(scan.grad[rows].T)
    return GeneratedCone(len(scan.x), RowLabels(scan, rows), cols, lineality, list(rays))


def _qualified_rays(rays: list[Ray], eps: float) -> list[Ray]:
    """The rays whose trajectory value limit stays eps-active."""
    return [r for r in rays if r.value_limit is not None and r.value_limit >= -(eps + 1e-12)]


def normal_cone(
    inst: SipInstance,
    x,
    schedule: Sequence[float] = EPS_SCHEDULE,
    variant: str = "perturbed",
    *,
    scan: ConstraintScan | None = None,
    cq: CqReport | None = None,
) -> NormalConeRep:
    """Finite representation of the normal cone to the feasible set at x.

    perturbed: a row mask per scheduled eps over the eps-active gradients plus
    qualified limit rays, plus the equality lineality space. unperturbed:
    the exactly-active gradients only. normalized: eps-activity scaled by
    each gradient's norm, for families with widely spread gradient norms.
    """
    if variant not in ("perturbed", "unperturbed", "normalized"):
        raise ValueError(f"unknown variant {variant!r}")
    schedule = validate_schedule(schedule)
    x = np.asarray(x, dtype=float)
    scan = scan or scan_constraints(inst, x)
    _require_feasible(inst, x, scan)
    cq = cq or cq_summary(inst, x, schedule, scan=scan)
    lineality = inst.eq_jacobian(x).T
    warnings: list[str] = []
    valid = True

    if variant == "unperturbed":
        compact_t = all(f.complete or f.compact for f in scan.families)
        closed = cq.nfmcq.verdict == Verdict.HOLDS or compact_t
        if not (closed and cq.pmfcq.verdict == Verdict.HOLDS):
            valid = False
            warnings.append(
                "unperturbed representation not guaranteed: needs a closed augmented "
                "coefficient cone (or a compact index set) together with the perturbed "
                "margin criterion"
            )
        per_eps = [(0.0, scan.active(), [])]
        return NormalConeRep(variant, scan, lineality, per_eps, valid, warnings)

    grid = scan.grid()
    rays = _family_rays(scan, scan.grad[grid])
    per_eps = [
        (eps, scan.active(eps, normalized=variant == "normalized"), _qualified_rays(rays, eps))
        for eps in sorted(schedule, reverse=True)
    ]
    if cq.pmfcq.verdict != Verdict.HOLDS:
        valid = False
        warnings.append(
            "perturbed representation not guaranteed: the perturbed margin criterion "
            "does not hold at this point"
        )
    if variant == "normalized" and np.any(scan.grad_norms[grid] < 1e-12):
        warnings.append("some gradients vanish; normalized activity is ill-scaled for them")
    return NormalConeRep(variant, scan, lineality, per_eps, valid, warnings)


def _cost_hull(inst: SipInstance, x):
    """Columns of the cost subdifferential hull: the gradient for a smooth
    cost, the active-piece gradients for a max-type cost."""
    x = np.asarray(x, dtype=float)
    if isinstance(inst.cost, SmoothCost):
        return np.asarray(ex.eval_grad(inst.cost.body, x)[1]).reshape(-1, 1)
    vals = np.array([float(ex.eval_value(p, x)) for p in inst.cost.pieces])
    top = float(np.max(vals))
    active = [i for i, vv in enumerate(vals) if vv >= top - STATIONARITY_TOL]
    return np.column_stack([ex.eval_grad(inst.cost.pieces[i], x)[1] for i in active])


def _certificate_from_hull(out: HullFeasibility, cone: GeneratedCone) -> KktCertificate:
    support_idx = np.flatnonzero(out.lam > 1e-12)
    return KktCertificate(
        support=[cone.label(i) for i in support_idx],
        lam=out.lam[support_idx],
        y=out.y,
        residual=out.residual,
        cost_weights=out.weights if len(out.weights) > 1 else None,
        uses_limit_rays=bool(np.any(support_idx >= cone.generators.shape[1])),
    )


def _stationarity(inst, x, cone: GeneratedCone, condition) -> StationarityReport:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        F = _cost_hull(inst, x)
    if not np.isfinite(F).all():
        return StationarityReport(condition, "inconclusive", notes=["cost gradient is not finite"])
    G = cone.columns()
    if not (np.isfinite(G).all() and np.isfinite(cone.lineality).all()):
        return StationarityReport(condition, "inconclusive", notes=[NONFINITE_COLUMN])
    try:
        out = linsolve.hull_plus_cone_feasibility(F, G, cone.lineality, STATIONARITY_TOL)
    except LpFailure as err:
        return StationarityReport(condition, "inconclusive", notes=[str(err)])
    if isinstance(out, HullFeasibility):
        cert = _certificate_from_hull(out, cone)
        if not math.isfinite(cert.residual):
            return StationarityReport(condition, "inconclusive",
                                      notes=["certificate residual is not finite"])
        return StationarityReport(condition, "certificate", certificate=cert)
    a = out.separator
    checks = [
        out.gap > 0,
        bool(np.all(F.T @ a <= -out.gap + 1e-9)),
        bool(np.all(G.T @ a <= 1e-9)) if G.size else True,
    ]
    if cone.lineality.size:
        checks.append(bool(np.max(np.abs(cone.lineality.T @ a)) <= 1e-9))
    if not all(checks):
        return StationarityReport(condition, "inconclusive",
                                  notes=["separator failed verification"])
    return StationarityReport(condition, "refuted", separator=a)


def verify_kkt(
    inst: SipInstance,
    x,
    *,
    scan: ConstraintScan | None = None,
    rep: NormalConeRep | None = None,
) -> StationarityReport:
    """Multiplier certificate for stationarity over the exactly-active
    gradients, or a separating functional refuting it.

    The certificate is the hull fit's basic optimal solution as the simplex
    returns it. Its positive columns are linearly independent and one is a
    cost weight, so the support gradients and the equality columns where
    y != 0 are linearly independent and number at most dim (Goberna & Lopez,
    Linear Semi-Infinite Optimization, 1998). The separator a
    satisfies <a, s> <= -gap < 0 for every cost subgradient s, <a, grad> <= 0
    for every active gradient, and <a, h-row> = 0. ``rep``, the unperturbed
    normal cone at x when the caller has built it, is the cone decided.
    """
    x = np.asarray(x, dtype=float)
    if rep is None:
        scan = scan or scan_constraints(inst, x)
        _require_feasible(inst, x, scan)
    elif rep.variant != "unperturbed":
        raise ValueError(f"KKT is decided on the unperturbed cone, not {rep.variant!r}")
    cone = _cone(scan, scan.active(), inst.eq_jacobian(x).T) if rep is None else rep.cone
    return _stationarity(inst, x, cone, "unperturbed-kkt")


def verify_perturbed_stationarity(
    inst: SipInstance,
    x,
    schedule: Sequence[float] = EPS_SCHEDULE,
    *,
    scan: ConstraintScan | None = None,
    cq: CqReport | None = None,
    rep: NormalConeRep | None = None,
    kkt: StationarityReport | None = None,
) -> StationarityReport:
    """Stationarity against the eps-active cones for every scheduled eps,
    limit rays included (the finite proxy for the intersection over eps).
    ``rep`` is the perturbed normal cone at x when the caller has built it;
    its cones, and so its schedule, are the ones decided. ``kkt`` is the
    `verify_kkt` report on the same scan when the caller has it: a smallest
    cone of the exactly active rows and no limit ray is the KKT cone, so a
    copy of ``kkt`` decides it with no LP, and ``kkt`` is left as it was.

    The cones are nested, so a certificate on the smallest-eps cone, extended
    by zeros, certifies every larger one: one LP then decides the whole
    trace. Otherwise the cones are tried from the largest eps down to the
    first one without a certificate, whose report is returned; a cone as
    wide as the smallest one reuses its report."""
    x = np.asarray(x, dtype=float)
    rep = rep or normal_cone(inst, x, schedule, "perturbed", scan=scan, cq=cq)
    if rep.variant != "perturbed":
        raise ValueError(f"perturbed stationarity needs the perturbed cone, not {rep.variant!r}")
    condition = "perturbed-stationarity"
    _, last_mask, last_rays = rep.per_eps[-1]
    if kkt is not None and not last_rays and np.array_equal(last_mask, rep.scan.active()):
        smallest = replace(kkt, condition=condition, notes=list(kkt.notes))
    else:
        smallest = _stationarity(inst, x, rep.cone, condition)
    # nested: a certificate on the smallest cone certifies every larger one,
    # and a cone with as many columns as the smallest one is that cone
    width = np.count_nonzero(last_mask), len(last_rays)
    trace = []
    for eps, mask, rays in rep.per_eps:
        same = smallest.outcome == "certificate" or (np.count_nonzero(mask), len(rays)) == width
        report = smallest if same else _stationarity(
            inst, x, _cone(rep.scan, mask, rep.lineality, rays), condition)
        trace.append((eps, report.outcome == "certificate"))
        if report.outcome != "certificate":
            break
    report.eps_trace = trace
    report.notes = rep.warnings + report.notes
    return report


def convex_global_check(
    inst: SipInstance,
    x,
    *,
    scan: ConstraintScan | None = None,
    cq: CqReport | None = None,
    kkt: StationarityReport | None = None,
) -> StationarityReport:
    """For declared-convex instances with affine equalities under the strong
    Slater (equivalently perturbed margin) and closed-cone qualifications,
    a multiplier certificate is equivalent to global optimality.

    ``kkt`` is the `verify_kkt` report at x when the caller has it; the
    result is a copy, and ``kkt`` is left as it was."""
    x = np.asarray(x, dtype=float)
    if not inst.convex:
        return StationarityReport("convex-global", "inconclusive",
                                  notes=["instance not declared convex"])
    if len(inst.equalities) and not inst.equalities.affine:
        return StationarityReport("convex-global", "inconclusive",
                                  notes=["equality block not declared affine"])
    scan = scan or scan_constraints(inst, x)
    cq = cq or cq_summary(inst, x, scan=scan)
    if not (cq.pmfcq.verdict == Verdict.HOLDS or cq.ssc.verdict == Verdict.HOLDS):
        return StationarityReport(
            "convex-global", "inconclusive",
            notes=["neither the strong Slater condition nor the perturbed margin "
                   "criterion is verified"])
    if cq.nfmcq.verdict != Verdict.HOLDS:
        return StationarityReport(
            "convex-global", "inconclusive",
            notes=["augmented coefficient cone not verified closed"])
    kkt = kkt or verify_kkt(inst, x, scan=scan)
    report = replace(kkt, condition="convex-global", notes=list(kkt.notes))
    if report.outcome == "certificate":
        report.global_optimal = True
        report.notes.append("multipliers certify a global minimizer of the convex program")
    elif report.outcome == "refuted":
        report.global_optimal = False
        report.notes.append("not a global minimizer of the convex program")
    return report
