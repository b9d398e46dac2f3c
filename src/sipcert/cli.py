"""Command-line frontend: analyze an instance at a point, or solve then
analyze, emitting human-readable text and a machine-readable JSON report.

Exit codes: 0 ok, 2 validation error (including a non-finite point, and a
cost or equality the expression rejects at the point), 3 infeasible point,
4 solver hit its iteration limit, 5 internal LP failure. Verdicts never
change the exit code.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .cq import EPS_SCHEDULE, MARGIN_TOL, cq_summary, validate_schedule
from .linsolve import LpFailure
from .model import (
    ConstraintScan,
    InstanceError,
    SipInstance,
    active_set,
    estimate_moduli,
    feasibility_check,
    gradient_bound_check,
    kronecker,
    load_instance,
    row_norms,
    scan_constraints,
    with_grid,
)
from .optimality import (
    convex_global_check,
    normal_cone,
    verify_kkt,
    verify_perturbed_stationarity,
)
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER_LIMIT = 4
EXIT_LP_FAILURE = 5


def _vec(values) -> list[float] | None:
    if values is None:
        return None
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _finite(x: float | None):
    """A float for the JSON report: +-inf as "inf"/"-inf", NaN as null."""
    if x is None or math.isnan(x):
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def probe_directions(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """Fixed probe set: compass directions in the plane; in higher dimensions,
    axis pairs, then the normalized 2q - 1 of the rows q of
    `kronecker(count - 2 dim, dim, seed)`."""
    if dim == 2:
        return [
            np.array([math.cos(2 * math.pi * k / count), math.sin(2 * math.pi * k / count)])
            for k in range(count)
        ]
    dirs = []
    for e in np.eye(dim):
        dirs.extend([e, -e])
    u = 2.0 * kronecker(count - len(dirs), dim, seed) - 1.0
    dirs.extend(u / row_norms(u)[:, None])
    return dirs[:count]


def _cq_section(rep) -> dict:
    return {
        "emfcq": {
            "verdict": rep.emfcq.verdict.value,
            "margin": _finite(rep.emfcq.margin),
            "witness": _vec(rep.emfcq.witness),
            "reason": rep.emfcq.reason,
        },
        "pmfcq": {
            "verdict": rep.pmfcq.verdict.value,
            "stabilized_eps": rep.pmfcq.stabilized_eps,
            "margin": _finite(rep.pmfcq.margin),
            "witness": _vec(rep.pmfcq.witness),
            "traces": [
                {"eps": t.eps, "margins": [_finite(m) for m in t.margins], "status": t.status}
                for t in rep.pmfcq.traces
            ],
            "reason": rep.pmfcq.reason,
        },
        "nfmcq": {
            "verdict": rep.nfmcq.verdict.value,
            "reason": rep.nfmcq.reason,
            "inequality_part_only": rep.nfmcq.inequality_part_only,
            "witness_separator": _vec(rep.nfmcq.closedness.witness_separator),
        },
        "ssc": {
            "verdict": rep.ssc.verdict.value,
            "slater_point": _vec(rep.ssc.slater_point),
            "sup_value": _finite(rep.ssc.sup_value),
            "reason": rep.ssc.reason,
            **({} if rep.ssc.cuts is None else {
                "lower_bound": rep.ssc.lower_bound,
                "cuts": [{"point": _vec(c.point), "label": c.index.label, "weight": c.weight}
                         for c in rep.ssc.cuts],
            }),
        },
        "surjective": rep.surjective,
        "diagnostics": list(rep.diagnostics),
    }


def _stationarity_section(report) -> dict:
    cert = None
    if report.certificate is not None:
        cert = {
            "support": list(report.certificate.support),
            "lam": _vec(report.certificate.lam),
            "y": _vec(report.certificate.y),
            "residual": float(report.certificate.residual),
            "cost_weights": _vec(report.certificate.cost_weights),
            "uses_limit_rays": report.certificate.uses_limit_rays,
        }
    return {
        "condition": report.condition,
        "outcome": report.outcome,
        "certificate": cert,
        "separator": _vec(report.separator),
        "eps_trace": [[eps, bool(flag)] for eps, flag in report.eps_trace],
        "global_optimal": report.global_optimal,
        "notes": list(report.notes),
    }


def _normal_cone_section(rep, dirs, separators: list, regular: bool | None) -> dict:
    members = rep.members(dirs, tol=1e-6, separators=separators)
    probes = [{"direction": _vec(v), "member": m} for v, m in zip(dirs, members)]
    return {
        "variant": rep.variant,
        "valid": rep.valid,
        "warnings": list(rep.warnings),
        "regular": regular,
        "generator_count": rep.cone.generators.shape[1],
        "ray_count": len(rep.cone.limit_rays),
        "rays": [
            {
                "direction": _vec(r.direction),
                "provenance": r.provenance,
                "attained": r.attained,
                "label": r.label,
            }
            for r in rep.cone.limit_rays
        ],
        "probes": probes,
    }


def build_report(
    inst: SipInstance,
    x: np.ndarray,
    *,
    instance_path: str | None,
    instance_text: str,
    args,
    solver_result=None,
    analyze: bool = True,
    scan: ConstraintScan | None = None,
) -> dict:
    """The report document. ``scan`` is the scan of ``x`` on ``inst``, which
    carries the run's grids (``args.truncation`` is only reported); it is
    built here when not given. Each normal-cone variant is built once, and
    the stationarity section reads those cones: KKT the unperturbed one,
    perturbed stationarity the perturbed one, and the convex global check
    the KKT report."""
    if scan is None:
        scan = scan_constraints(inst, x)
    feas = feasibility_check(inst, x, scan=scan)
    analyze = analyze and feas.feasible
    if analyze:
        cq = cq_summary(inst, x, args.eps_schedule, margin_tol=args.margin_tol, scan=scan)
        asr = active_set(inst, x, eps=args.eps_schedule[0], scan=scan)
        bound, bound_ok, norm_trigger = gradient_bound_check(asr)
        moduli = estimate_moduli(
            inst, x, samples_per_eta=args.moduli_samples, seed=args.seed, scan=scan
        )
        dirs = probe_directions(inst.dim, args.probe_dirs, args.seed)
        reps = {
            variant: normal_cone(inst, x, args.eps_schedule, variant, scan=scan, cq=cq)
            for variant in dict.fromkeys(("perturbed", "unperturbed", *args.variants))
        }
        separators: list = []  # shared by the variants; each cone checks them again
        regular = moduli.regular
        cones = [_normal_cone_section(reps[v], dirs, separators, regular) for v in args.variants]
        kkt = verify_kkt(inst, x, rep=reps["unperturbed"])
        reports = [kkt, verify_perturbed_stationarity(inst, x, rep=reps["perturbed"], kkt=kkt)]
        if inst.convex:
            reports.append(convex_global_check(inst, x, scan=scan, cq=cq, kkt=kkt))
        stationarity = [_stationarity_section(r) for r in reports]
    doc = {
        "tool": {"name": "sipcert", "version": __version__},
        "generated_at": (
            None if args.deterministic
            else datetime.datetime.now(datetime.timezone.utc).isoformat()
        ),
        "instance": {
            "path": instance_path,
            "sha256": hashlib.sha256(instance_text.encode("utf-8")).hexdigest(),
            "dim": inst.dim,
            "convex": inst.convex,
            "families": len(inst.families),
            "fixed_constraints": len(inst.fixed),
            "equalities": len(inst.equalities),
        },
        "parameters": {
            "point": _vec(x),
            "eps_schedule": list(args.eps_schedule),
            "margin_tol": args.margin_tol,
            "truncation": args.truncation,
            "variants": list(args.variants),
            "probe_dirs": args.probe_dirs,
            "seed": args.seed,
            "deterministic": bool(args.deterministic),
        },
        "feasibility": {
            "max_violation": _finite(feas.max_violation),
            "equality_residual": _finite(feas.eq_residual),
            "feasible": bool(feas.feasible),
            "worst_index": feas.worst.label if feas.worst else None,
        },
    }
    if analyze:
        doc["active_set"] = {
            "eps": asr.eps,
            "active": [
                {"label": e.id.label, "value": float(e.value), "grad": [_finite(g) for g in e.grad]}
                for e in asr.active
            ],
            "eps_active_count": len(asr.eps_active_rows),
            "normalized_eps_active_count": len(asr.normalized_rows),
            "grad_norm_bound": _finite(bound),
            "grad_norm_bound_finite": bool(bound_ok),
            "normalization_trigger": bool(norm_trigger),
        }
        doc["moduli"] = {
            "etas": _vec(moduli.etas),
            "s": [_finite(v) for v in moduli.s_est],
            "r": [_finite(v) for v in moduli.r_est],
            "samples_per_eta": moduli.samples_per_eta,
        }
        doc["cq"] = _cq_section(cq)
        doc["normal_cones"] = cones
        doc["stationarity"] = stationarity
    if solver_result is not None:
        candidate, trace = solver_result
        doc["solver"] = {
            "status": trace.status,
            "candidate": _vec(candidate),
            "iterations": len(trace.records),
            "records": [
                {
                    "working": list(r.working),
                    "x": _vec(r.x),
                    "max_violation": _finite(r.max_violation),
                    "cost": _finite(r.cost),
                    "accepted": bool(r.accepted),
                }
                for r in trace.records
            ],
        }
    return doc


def render_text(doc: dict) -> str:
    lines = []
    inst = doc["instance"]
    lines.append(f"sipcert {doc['tool']['version']} report")
    lines.append(f"instance: {inst['path'] or '<inline>'} (sha256 {inst['sha256'][:12]}...)")
    lines.append(f"point: {doc['parameters']['point']}")
    feas = doc["feasibility"]
    lines.append(
        f"feasible: {feas['feasible']} "
        f"(max violation {float(feas['max_violation']):.3e}, equality residual "
        f"{float(feas['equality_residual']):.3e})"
    )
    if "cq" in doc:
        cq = doc["cq"]
        lines.append("constraint qualifications:")
        for name, shown in (("emfcq", "margin"), ("pmfcq", "stabilized_eps")):
            res, reason = cq[name], cq[name]["reason"] and f"  ({cq[name]['reason']})"
            lines.append(f"  {name.upper()}: {res['verdict']}  {shown}={res[shown]}{reason}")
        lines.append(f"  NFMCQ: {cq['nfmcq']['verdict']}  ({cq['nfmcq']['reason']})")
        ssc = cq["ssc"]
        cuts = f"  lower_bound={ssc['lower_bound']:.3e} cuts={len(ssc['cuts'])}" if "cuts" in ssc else ""
        lines.append(f"  SSC:   {ssc['verdict']}{cuts}  ({ssc['reason']})")
        for diag in cq["diagnostics"]:
            lines.append(f"  ! {diag}")
    for cone in doc.get("normal_cones", []):
        member_count = sum(1 for p in cone["probes"] if p["member"])
        lines.append(
            f"normal cone [{cone['variant']}]: valid={cone['valid']} "
            f"generators={cone['generator_count']} rays={cone['ray_count']} "
            f"probes-in={member_count}/{len(cone['probes'])}"
        )
        for w in cone["warnings"]:
            lines.append(f"  warning: {w}")
    for st in doc.get("stationarity", []):
        extra = ""
        if st["outcome"] == "certificate":
            extra = f" support={st['certificate']['support']}"
            if st["certificate"]["uses_limit_rays"]:
                extra += " (via limit ray)"
        if st["global_optimal"] is not None:
            extra += f" global_optimal={st['global_optimal']}"
        lines.append(f"stationarity [{st['condition']}]: {st['outcome']}{extra}")
    if "solver" in doc:
        sv = doc["solver"]
        lines.append(
            f"solver: {sv['status']} after {sv['iterations']} iterations, "
            f"candidate {sv['candidate']}"
        )
    return "\n".join(lines) + "\n"


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        vals = [float(p) for p in text.replace(";", ",").split(",") if p.strip()]
    except ValueError as err:
        raise InstanceError(f"bad point {text!r}: {err}") from None
    if len(vals) != dim:
        raise InstanceError(f"point has {len(vals)} components, instance needs {dim}")
    if not all(math.isfinite(v) for v in vals):
        raise InstanceError(f"point {text!r} has a non-finite component")
    return np.array(vals)


def _parse_schedule(text: str):
    try:
        vals = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as err:
        raise InstanceError(f"bad eps schedule {text!r}: {err}") from None
    return tuple(sorted(validate_schedule(vals), reverse=True))


# smallest value each integer option accepts; options a command lacks are skipped
_OPTION_MINIMUM = {
    "truncation": 0, "probe_dirs": 0, "moduli_samples": 1, "seed": 0,
    "max_iters": 1, "multistart": 1,
}


def _check_options(args) -> None:
    """Reject numeric options that no run can honour, before any work."""
    if not 0 <= args.margin_tol < math.inf:
        raise InstanceError("--margin-tol must be a finite nonnegative number")
    for name, low in _OPTION_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise InstanceError(f"--{name.replace('_', '-')} must be at least {low}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipcert",
        description="Constraint qualifications, normal cones, and KKT certificates "
        "for semi-infinite programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file (.sip)")
        p.add_argument("--eps-schedule", default=None,
                       help="comma list of eps values (default 1e-1..1e-8)")
        p.add_argument("--margin-tol", type=float, default=MARGIN_TOL)
        p.add_argument("--truncation", type=int, default=None,
                       help="countable truncation of the whole run, the solver included")
        p.add_argument("--variant", default="perturbed,unperturbed",
                       help="comma list: perturbed|unperturbed|normalized")
        p.add_argument("--probe-dirs", type=int, default=16)
        p.add_argument("--moduli-samples", type=int, default=120)
        p.add_argument("--report", choices=("text", "json", "both"), default="text")
        p.add_argument("--json-out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--deterministic", action="store_true",
                       help="omit timestamps so identical runs are byte-identical")

    pa = sub.add_parser("analyze", help="analyze an instance at a point")
    common(pa)
    pa.add_argument("--point", required=True, help="comma-separated coordinates")

    ps = sub.add_parser("solve", help="run the discretization solver, then analyze")
    common(ps)
    ps.add_argument("--max-iters", type=int, default=60)
    ps.add_argument("--multistart", type=int, default=8)
    return parser


def _emit(doc: dict, args) -> None:
    text = render_text(doc)
    js = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.report in ("text", "both"):
        sys.stdout.write(text)
    if args.report in ("json", "both"):
        sys.stdout.write(js + "\n")
    if args.json_out:
        Path(args.json_out).write_text(js + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        args.eps_schedule = (
            _parse_schedule(args.eps_schedule) if args.eps_schedule else EPS_SCHEDULE
        )
        args.variants = tuple(v.strip() for v in args.variant.split(",") if v.strip())
        for v in args.variants:
            if v not in ("perturbed", "unperturbed", "normalized"):
                raise InstanceError(f"unknown variant {v!r}")
        path = Path(args.instance)
        instance_text = path.read_text(encoding="utf-8")
        # the run's one materialization: every scan and the solver read it
        inst = with_grid(load_instance(path), truncation=args.truncation)
    except (OSError, InstanceError, ex.ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    solver_result = None
    scan = None
    limit = False
    try:
        if args.command == "analyze":
            x = _parse_point(args.point, inst.dim)
            # the gate and the report read one scan, so they cannot disagree
            scan = scan_constraints(inst, x)
            feas = feasibility_check(inst, x, scan=scan)
            if not feas.feasible:
                print(
                    f"error: point is infeasible (max violation "
                    f"{feas.max_violation:.6e} at {feas.worst.label if feas.worst else 'h'}, "
                    f"equality residual {feas.eq_residual:.6e})",
                    file=sys.stderr,
                )
                return EXIT_INFEASIBLE
        else:
            config = SolverConfig(
                max_outer=args.max_iters, multistart=args.multistart, seed=args.seed
            )
            candidate, trace = solve(inst, config)
            solver_result = (candidate, trace)
            x = np.asarray(candidate, dtype=float)
            limit = trace.status == "iteration_limit"
        doc = build_report(
            inst, x, instance_path=str(path), instance_text=instance_text,
            args=args, solver_result=solver_result, analyze=not limit, scan=scan,
        )
    except InstanceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except LpFailure as err:
        print(f"error: internal LP failure: {err}", file=sys.stderr)
        return EXIT_LP_FAILURE
    except ex.ExprError as err:
        # a constraint row the expression rejects reads NaN; the cost and the
        # equalities at the point have no such rule
        cost = getattr(inst.cost, "pieces", None) or (inst.cost.body,)
        roots = [("cost", piece) for piece in cost]
        roots += [(f"equality {name}", comp)
                  for name, comp in zip(inst.equalities.names, inst.equalities.components)]
        subexpr = getattr(err, "subexpr", None)
        what = next((what for what, root in roots if subexpr in ex._subtrees(root)), None)
        if what is None:
            raise
        print(f"error: {what} is not defined at the point: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(doc, args)
    if limit:
        print("error: solver hit its iteration limit", file=sys.stderr)
        return EXIT_SOLVER_LIMIT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
