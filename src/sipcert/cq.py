"""Constraint qualification checkers.

Verdicts are three-valued. A Holds or Fails always carries re-checkable
evidence: a witness direction with its margin, a closedness witness, or a
strong Slater point with its supremum. Whenever the materialization cannot
resolve a question (for instance an eps-active set whose family part lies
entirely beyond the truncation), the answer is reported as censored or
Unknown rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real

import numpy as np

from . import linsolve
from .cones import (
    Closedness,
    ClosednessVerdict,
    augmented_generators,
    closedness_diagnostic,
    family_rays,
)
from .model import (ACT_TOL, FEAS_TOL, ConstraintScan, FamilyScan, IndexId, InstanceError,
                    SipInstance, scan_constraints)

EPS_SCHEDULE = tuple(10.0 ** (-k) for k in range(1, 9))
MARGIN_TOL = 1e-6

_DECAY_RATIO = 0.9
_STABLE_RATIO = 0.75
_DECAY_STEPS = 3

_SSC_CUTS = 24
_CUT_TOL = 1e-12  # largest total of the box multipliers with which a cut bound certifies


def validate_schedule(schedule) -> tuple[float, ...]:
    """The schedule as a tuple; it must be nonempty, numeric, finite and positive."""
    vals = tuple(schedule)
    if not vals or not all(isinstance(v, Real) and 0 < v < math.inf for v in vals):
        raise InstanceError("eps schedule must be finite positive numbers")
    return vals


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass
class EmfcqResult:
    verdict: Verdict
    margin: float
    witness: np.ndarray | None
    rank: int
    eq_count: int
    reason: str = ""


@dataclass
class EpsTrace:
    eps: float
    margins: list[float]
    status: str  # stable | decaying | degenerate | censored | ambiguous


@dataclass
class PmfcqResult:
    verdict: Verdict
    traces: list[EpsTrace]
    stabilized_eps: float | None
    margin: float | None
    witness: np.ndarray | None
    rank: int
    eq_count: int
    reason: str = ""


@dataclass
class NfmcqResult:
    verdict: Verdict
    closedness: ClosednessVerdict
    inequality_part_only: bool
    reason: str = ""


@dataclass
class SlaterCut:
    """g(point, index) + grad g(point, index).(y - point), and its weight in
    the certificate: convex weights whose cuts sum to a function of y that is
    constant on the equality set and at least `SscResult.lower_bound` there."""

    point: np.ndarray
    index: IndexId
    weight: float


@dataclass
class SscResult:
    verdict: Verdict
    slater_point: np.ndarray | None
    sup_value: float | None
    reason: str = ""
    lower_bound: float | None = None
    cuts: list[SlaterCut] | None = None


@dataclass
class CqReport:
    emfcq: EmfcqResult
    pmfcq: PmfcqResult
    nfmcq: NfmcqResult
    ssc: SscResult
    surjective: bool | None  # None: the Jacobian is not finite, so no rank test ran
    diagnostics: list[str] = field(default_factory=list)


NONFINITE_ACTIVE = "an active gradient is not finite"
NONFINITE_EQUALITY = "an equality Jacobian entry is not finite"
NONFINITE_GENERATOR = "an augmented generator is not finite"


def _nonfinite_active(scan: ConstraintScan, eps: float = 0.0) -> bool:
    """Whether some grid row active at ``eps`` has a gradient entry that is not
    finite. A check that reads such a row gives Unknown before any LP runs."""
    return bool(np.any(scan.active(eps) & ~scan.grad_finite))


def _margin_screen(inst: SipInstance, x, scan: ConstraintScan, eps: float):
    """(J, rank, m, verdict, reason) ahead of a margin check's LPs: Unknown if
    an equality Jacobian entry is not finite (rank 0, no rank test), Fails if
    J is not surjective, Unknown if a gradient active at eps is not finite."""
    J = inst.eq_jacobian(x)
    m = J.shape[0]
    if not np.isfinite(J).all():
        return J, 0, m, Verdict.UNKNOWN, NONFINITE_EQUALITY
    rank = linsolve.rank(J, 1e-9)
    if rank < m:
        return J, rank, m, Verdict.FAILS, "equality Jacobian is not surjective"
    if _nonfinite_active(scan, eps):
        return J, rank, m, Verdict.UNKNOWN, NONFINITE_ACTIVE
    return J, rank, m, None, ""


def check_emfcq(
    inst: SipInstance,
    x,
    *,
    margin_tol: float = MARGIN_TOL,
    scan: ConstraintScan | None = None,
) -> EmfcqResult:
    """Surjectivity of the equality Jacobian plus a direction in its kernel
    that is uniformly negative against every exactly-active gradient."""
    x = np.asarray(x, dtype=float)
    scan = scan or scan_constraints(inst, x)
    J, rank, m, verdict, reason = _margin_screen(inst, x, scan, 0.0)
    if verdict is not None:
        margin = -math.inf if verdict == Verdict.FAILS else math.nan
        return EmfcqResult(verdict, margin, None, rank, m, reason)
    res = linsolve.max_margin_direction(scan.grad[scan.active()].T, J.T)
    if res.margin > margin_tol:
        return EmfcqResult(Verdict.HOLDS, res.margin, res.direction, rank, m)
    return EmfcqResult(Verdict.FAILS, res.margin, res.direction, rank, m,
                       "no direction makes all active gradients strictly negative")


def _value_resolution(vals: np.ndarray) -> float:
    """How much higher a family value could sit between grid points near
    the materialized maximizer, given its values on the finest grid: a
    quadratic local bound from the second difference at the argmax. Boundary
    maximizers resolve exactly at closed endpoints and are covered by the
    tail ladders at open ones."""
    if len(vals) < 3:
        return 0.0
    i = int(np.argmax(vals))
    if i == 0 or i == len(vals) - 1:
        return 0.0
    return abs(float(vals[i - 1] - 2.0 * vals[i] + vals[i + 1])) / 4.0


def _family_censored(scan: ConstraintScan, fam: FamilyScan, eps: float) -> bool:
    """The eps-activity structure of the family is not resolved by the
    materialization at this eps: either the set is eps-active only beyond the
    truncation (tail ladders), or the grid's value resolution around an
    interior maximizer is too coarse relative to eps. Margins computed at a
    censored eps must not count as a stable hold."""
    vals = scan.value[scan.grid(block=fam.block)]
    m_star = float(np.max(vals)) if len(vals) else -math.inf
    has_member = m_star >= -(eps + ACT_TOL)
    if not has_member:
        for rows in fam.ladders:
            vlimit, ok = scan.tail_limit(rows)
            if ok and vlimit >= -(eps + 1e-12):
                return True
    delta = _value_resolution(vals)
    near_slice = m_star + delta >= -(eps + 1e-12)
    if not has_member and near_slice:
        return True
    if has_member and near_slice and delta >= eps / 10.0:
        return True
    return False


def _classify_trace(margins: list[float], margin_tol: float) -> str:
    finite_ok = all(m > margin_tol for m in margins)
    if finite_ok:
        a, b = margins[-2] if len(margins) > 1 else margins[-1], margins[-1]
        if len(margins) == 1 or b >= _STABLE_RATIO * a:
            return "stable"
    if margins[-1] <= margin_tol:
        return "degenerate"
    if len(margins) >= _DECAY_STEPS + 1:
        tail = margins[-(_DECAY_STEPS + 1):]
        if all(nxt <= _DECAY_RATIO * cur for cur, nxt in zip(tail, tail[1:])):
            return "decaying"
    return "ambiguous"


def check_pmfcq(
    inst: SipInstance,
    x,
    eps_schedule=EPS_SCHEDULE,
    *,
    margin_tol: float = MARGIN_TOL,
    scan: ConstraintScan | None = None,
) -> PmfcqResult:
    """Margin of the best direction against the eps-active gradients, traced
    over the eps schedule and the grid refinement levels.

    Masks repeat across eps and levels; each distinct mask runs its LP once.

    Holds needs one eps whose margins stay above margin_tol across all
    levels without decaying. Fails needs every eps to be degenerate, to decay
    across at least three consecutive refinement levels, or to be censored
    (eps-active only beyond the truncation). Anything else is Unknown.
    """
    eps_schedule = validate_schedule(eps_schedule)
    x = np.asarray(x, dtype=float)
    scan = scan or scan_constraints(inst, x)
    J, rank, m, verdict, reason = _margin_screen(inst, x, scan, max(eps_schedule))
    if verdict is not None:
        return PmfcqResult(verdict, [], None, None, None, rank, m, reason)
    H = J.T
    n_levels = scan.n_levels
    traces: list[EpsTrace] = []
    best_eps, best_margin, best_witness = None, None, None
    solved: dict[bytes, linsolve.MarginResult] = {}  # an LP is a function of its mask
    for eps in eps_schedule:
        if any(_family_censored(scan, fam, eps) for fam in scan.families):
            traces.append(EpsTrace(eps, [], "censored"))
            continue
        margins = []
        witness = None
        for level in range(n_levels):
            mask = scan.active(eps, level=level)
            key = mask.tobytes()
            if key not in solved:
                solved[key] = linsolve.max_margin_direction(scan.grad[mask].T, H)
            res = solved[key]
            margins.append(res.margin)
            witness = res.direction
        status = _classify_trace(margins, margin_tol)
        traces.append(EpsTrace(eps, margins, status))
        if status == "stable" and best_eps is None:
            best_eps, best_margin, best_witness = eps, margins[-1], witness
    statuses = {t.status for t in traces}
    if best_eps is not None:
        return PmfcqResult(Verdict.HOLDS, traces, best_eps, best_margin, best_witness, rank, m)
    if statuses <= {"censored", "decaying", "degenerate"} and statuses & {"decaying", "degenerate"}:
        return PmfcqResult(Verdict.FAILS, traces, None, None, None, rank, m,
                           "margins decay or vanish at every resolvable eps")
    return PmfcqResult(Verdict.UNKNOWN, traces, None, None, None, rank, m,
                       "margin traces are not conclusive within the refinement budget")


def check_nfmcq(
    inst: SipInstance,
    x,
    *,
    scan: ConstraintScan | None = None,
) -> NfmcqResult:
    """Closedness of the cone of value-augmented constraint coefficients.

    With a nonempty equality block the check covers the inequality system
    only and is labelled as such. The cone takes every base grid row, active
    or not, so any generator that is not finite gives Unknown before an LP.
    """
    scan = scan or scan_constraints(inst, x)
    cols, lift = augmented_generators(scan)
    reason = NONFINITE_ACTIVE if _nonfinite_active(scan) else None
    if reason is None and not np.isfinite(cols).all():
        reason = NONFINITE_GENERATOR
    if reason is not None:
        return NfmcqResult(Verdict.UNKNOWN, ClosednessVerdict(Closedness.UNKNOWN, reason),
                           len(inst.equalities) > 0, reason)
    rays = []
    extrap_ok = True
    for fam in scan.families:
        fam_rays, ok = family_rays(scan, fam, lift, range(len(fam.ladders)), cols.T)
        rays.extend(fam_rays)
        # a truncated family without tail ladders has nothing to extrapolate
        extrap_ok = extrap_ok and ok and (fam.complete or fam.compact or bool(fam.ladders))
    complete = all(f.complete for f in scan.families)
    verdict = closedness_diagnostic(cols, rays, complete=complete, extrapolation_ok=extrap_ok)
    mapping = {
        Closedness.CLOSED: Verdict.HOLDS,
        Closedness.NOT_CLOSED: Verdict.FAILS,
        Closedness.UNKNOWN: Verdict.UNKNOWN,
    }
    return NfmcqResult(
        verdict=mapping[verdict.status],
        closedness=verdict,
        inequality_part_only=len(inst.equalities) > 0,
        reason=verdict.reason,
    )


def _sup_inequalities(inst: SipInstance, x, scan: ConstraintScan | None = None) -> float:
    """Upper estimate of sup_t g_t(x): the materialized maximum plus the
    between-grid-points slack bounded by local curvature at each family's
    maximizer. Keeps a grid from hiding a positive peak between its points.
    0 when that maximum is not finite; a row the expression rejects is NaN,
    which counts as +inf. `scan` is the full scan at x, made when not given."""
    scan = scan or scan_constraints(inst, np.asarray(x, dtype=float))
    best, _ = scan.argmax()
    if not math.isfinite(best):
        return 0.0
    slack = max(
        (4.0 * _value_resolution(scan.value[scan.grid(block=fam.block)]) for fam in scan.families),
        default=0.0,
    )
    return best + slack


def _strong_slater(inst: SipInstance, x, scan: ConstraintScan | None = None) -> SscResult | None:
    """Holds at x when x is a strong Slater point: an equality residual of
    at most 1e-9 and `_sup_inequalities` below -1e-9 on its full scan."""
    eq = inst.eq_residual(x)
    sup = _sup_inequalities(inst, x, scan)
    if eq <= 1e-9 and sup < -1e-9:
        return SscResult(Verdict.HOLDS, x, sup)
    return None


def _affine_projector(J: np.ndarray, c: np.ndarray):
    """Projection onto {y : J y + c = 0}, or identity without equalities."""
    if not len(c):
        return lambda x: x

    def project(x):
        resid = J @ x + c
        corr, *_ = np.linalg.lstsq(J, resid, rcond=None)
        return x - corr

    return project


def _rejected_equality(rows: np.ndarray, where: str) -> SscResult | None:
    """Unknown when a row of ``rows``, the masked equality reads at ``where``,
    is not finite, as where an equality's expression rejects the point."""
    if np.isfinite(rows).all():
        return None
    return SscResult(Verdict.UNKNOWN, None, None, f"an equality is rejected or not finite at "
                     f"{where}, so the Slater search cannot project onto the equality set")


def _slater_cuts(inst: SipInstance) -> SscResult:
    """Kelley's cutting plane (J. SIAM 8, 1960) on min sup_t g(y, t) over the
    equality set. From the projected origin, each iterate that is not a
    strong Slater point (`_strong_slater`) adds the cut at the worst row of
    its full scan, and an LP over the cuts gives a lower bound and the next
    iterate, projected onto the equality set. On a convex instance every cut
    under-estimates its g(., t), so a bound >= -FEAS_TOL with box
    multipliers of total at most _CUT_TOL (the bound then holds beyond the
    box) certifies Fails. When the box alone keeps the bound that high, it
    doubles about its center. An iterate whose worst row or gradient is not
    finite adds no cut, and the next iterate is the midpoint between it and
    the last iterate that added one. A cut, a growth and a backtrack each
    spend one of _SSC_CUTS steps. Unknown, with the reason, when an equality
    is rejected at the origin or at the projected box center (the equality
    set is projected onto with the Jacobian and values read there), the
    budget is spent, the projected origin gives no cut, or the LP fails."""
    zero = np.zeros(inst.dim)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        J0, c0 = inst.eq_jacobian(zero, masked=True), inst.eq_values(zero, masked=True)
    rejected = _rejected_equality(np.column_stack([J0, c0]), "the origin")
    if rejected is not None:
        return rejected
    project = _affine_projector(J0, c0)
    lo, hi = inst.box_bounds()
    center, radius = project(0.5 * (lo + hi)), 0.5 * (hi - lo)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        J = inst.eq_jacobian(center, masked=True)
    rejected = _rejected_equality(J, "the projected box center")
    if rejected is not None:
        return rejected
    x, anchor, grow = project(zero), None, False
    points, ids, grads, offsets = [], [], [], []
    for _ in range(_SSC_CUTS):
        if grow:
            radius = 2.0 * radius
        else:
            scan = scan_constraints(inst, x)
            verified = _strong_slater(inst, x, scan)
            if verified is not None:
                return verified
            best, row = scan.argmax()
            offset = math.nan if row is None else best + scan.grad[row] @ (center - x)
            if not math.isfinite(offset):  # a non-finite worst row or gradient: no cut
                if anchor is None:
                    label = "none" if row is None else scan.label(row)
                    return SscResult(Verdict.UNKNOWN, None, None, "the projected origin is "
                                     f"rejected: no finite cut at its worst row ({label})")
                x = project(0.5 * (x + anchor))
                continue
            anchor = x
            points.append(x)
            ids.append(scan.index_id(row))
            grads.append(scan.grad[row])
            offsets.append(offset)  # the cut at z = 0
        # y = center + radius * z keeps J y fixed iff H^T z = 0
        F, H = (np.array(grads) * radius).T, (J * radius).T
        try:
            w, _, mu, obj, a = linsolve._elastic_fit(F, np.zeros((inst.dim, 0)), H,
                                                     np.zeros(inst.dim), "slater cut",
                                                     cost=-np.array(offsets))
        except linsolve.LpFailure as err:
            return SscResult(Verdict.UNKNOWN, None, None, str(err))
        grow = -obj >= -FEAS_TOL
        if grow and np.abs(F @ w + H @ mu).sum() <= _CUT_TOL:
            cuts = [SlaterCut(p, i, max(float(wk), 0.0)) for p, i, wk in zip(points, ids, w)]
            return SscResult(Verdict.FAILS, None, None,
                             "cutting planes bound the constraint supremum below", 0.0 - obj, cuts)
        if not grow:
            x = project(center + radius * a[: inst.dim])
    return SscResult(Verdict.UNKNOWN, None, None,
                     f"no verdict within the budget of {_SSC_CUTS} cut steps")


def check_ssc(
    inst: SipInstance,
    x_hat=None,
    *,
    pmfcq: PmfcqResult | None = None,
) -> SscResult:
    """Strong Slater condition for declared-convex instances.

    A supplied candidate is verified directly; otherwise, or when it fails,
    Kelley's cutting plane (`_slater_cuts`) searches: Holds at the first
    iterate that passes the same verification, with the point and its
    supremum, or Fails with the cuts and their weights as witness. When the
    cuts give no verdict, Fails comes from the equivalence with the
    perturbed margin criterion on convex instances, with no witness, when
    `pmfcq` fails, and the result is Unknown, with the reason the search
    ended, when it does not.
    """
    if not inst.convex:
        return SscResult(Verdict.UNKNOWN, None, None, "instance not declared convex")
    if len(inst.equalities) and not inst.equalities.affine:
        return SscResult(Verdict.UNKNOWN, None, None, "equality block not declared affine")
    notes = []
    if x_hat is not None:
        verified = _strong_slater(inst, np.asarray(x_hat, dtype=float))
        if verified is not None:
            return verified
        notes.append("supplied point is not strongly feasible")
    res = _slater_cuts(inst)
    if res.verdict != Verdict.UNKNOWN:
        return res
    if pmfcq is not None and pmfcq.verdict == Verdict.FAILS:
        return SscResult(Verdict.FAILS, None, None,
                         "perturbed margin criterion fails on a convex instance")
    return replace(res, reason="; ".join(notes + [res.reason]))


def cq_summary(
    inst: SipInstance,
    x,
    eps_schedule=EPS_SCHEDULE,
    *,
    margin_tol: float = MARGIN_TOL,
    scan: ConstraintScan | None = None,
) -> CqReport:
    """All four checks at x on one scan, plus cross-implication consistency
    enforcement. The strong Slater search starts at the projected origin and
    draws nothing at random, so `ssc` depends on no seed."""
    x = np.asarray(x, dtype=float)
    scan = scan or scan_constraints(inst, x)
    emfcq = check_emfcq(inst, x, margin_tol=margin_tol, scan=scan)
    pmfcq = check_pmfcq(inst, x, eps_schedule, margin_tol=margin_tol, scan=scan)
    nfmcq = check_nfmcq(inst, x, scan=scan)
    ssc = check_ssc(inst, pmfcq=pmfcq)
    diagnostics: list[str] = []
    if pmfcq.verdict == Verdict.HOLDS and emfcq.verdict != Verdict.HOLDS:
        diagnostics.append(
            "inconsistency: perturbed margin holds while the exact-active margin does not; "
            "both downgraded"
        )
        emfcq.verdict = Verdict.UNKNOWN
        pmfcq.verdict = Verdict.UNKNOWN
    complete = all(f.complete for f in scan.families)
    if complete and emfcq.verdict == Verdict.HOLDS and nfmcq.verdict == Verdict.FAILS:
        diagnostics.append(
            "inconsistency: finite index set with a strict-margin direction cannot have a "
            "non-closed coefficient cone; closedness downgraded"
        )
        nfmcq.verdict = Verdict.UNKNOWN
    if (
        inst.convex
        and (not len(inst.equalities) or inst.equalities.affine)
        and ssc.verdict != Verdict.UNKNOWN
        and pmfcq.verdict != Verdict.UNKNOWN
        and ssc.verdict != pmfcq.verdict
    ):
        diagnostics.append(
            "inconsistency: strong Slater and perturbed margin verdicts disagree on a convex "
            "instance; both downgraded"
        )
        ssc.verdict = Verdict.UNKNOWN
        pmfcq.verdict = Verdict.UNKNOWN
    return CqReport(
        emfcq=emfcq,
        pmfcq=pmfcq,
        nfmcq=nfmcq,
        ssc=ssc,
        surjective=None if emfcq.reason == NONFINITE_EQUALITY else emfcq.rank == emfcq.eq_count,
        diagnostics=diagnostics,
    )
