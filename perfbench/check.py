"""Output check for one op: schema, documented outcomes, and witnesses.

Witnesses are re-checked against an oracle that evaluates the generating
`Spec` itself: each expression is evaluated by Python with numpy (the `.sip`
operators map onto Python's, `^` becoming `**` with the same precedence and
associativity) and differentiated by the complex step. Nothing here calls
sipcert. The index sets are materialized on sipcert's documented base grids
(finite values, integers up to the truncation, `linspace(a, b, resolution)`
without open endpoints); sipcert's finest grids contain these points, so
every condition a witness must meet on sipcert's grid must also hold here.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import Case, Spec

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"

ACT_TOL = 1e-9  # sipcert's exact-activity and feasibility tolerance
TOL = 1e-8      # slack for recomputation and LP round-off in the checks below
STEP = 1e-20    # complex step
MINIMIZER_TOL = 1e-6  # max-norm distance of a converged candidate from the minimizer


@lru_cache(maxsize=1)
def _validator():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)


_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


@lru_cache(maxsize=256)
def _compile(expr: str):
    return compile(expr.replace("^", "**"), "<spec>", "eval")


def evaluate(expr: str, x, index_name: str | None = None, t=None):
    """Value of a spec expression at x (entries may be complex), broadcast
    over the index values t."""
    env = dict(_FUNCS)
    env.update({f"x{i + 1}": xi for i, xi in enumerate(x)})
    if index_name is not None:
        env[index_name] = t
    return eval(_compile(expr), {"__builtins__": {}}, env)  # noqa: S307 - own text


def value_grad(expr: str, x, index_name: str | None = None, t=None):
    """(values, gradients): values shaped like t (a scalar when t is None),
    gradients with one more trailing axis of length dim."""
    x = np.asarray(x, dtype=float)
    shape = np.shape(t)

    def ev(xx):
        return np.broadcast_to(evaluate(expr, xx, index_name, t), shape)

    grads = []
    for k in range(len(x)):
        xc = x.astype(complex)
        xc[k] += 1j * STEP
        grads.append(np.imag(ev(xc)) / STEP)
    return np.real(ev(x)).astype(float), np.stack(grads, axis=-1)


def base_grid(spec: Spec) -> np.ndarray:
    ix = spec.index
    if ix is None:
        return np.zeros(0)
    if ix.kind == "finite":
        return np.array(sorted(ix.values), dtype=float)
    if ix.kind == "countable":
        return np.arange(ix.start, ix.truncation + 1, dtype=float)
    ts = np.linspace(ix.a, ix.b, ix.resolution)
    if not ix.include_a:
        ts = ts[1:]
    if not ix.include_b:
        ts = ts[:-1]
    return ts


def index_label(family: str, t: float) -> str:
    if float(t).is_integer() and abs(t) < 1e15:
        return f"{family}({int(t)})"
    return f"{family}({t:.12g})"


class Oracle:
    """Constraint rows (fixed, then the family on its base grid), the
    equality Jacobian and the cost gradient of a spec at a point."""

    def __init__(self, spec: Spec, x):
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        labels, vals, grads = [], [], []
        for name, body in spec.fixed:
            v, g = value_grad(body, self.x)
            labels.append(name)
            vals.append(np.atleast_1d(v))
            grads.append(np.atleast_2d(g))
        if spec.family is not None:
            ts = base_grid(spec)
            v, g = value_grad(spec.family[1], self.x, spec.index.name, ts)
            labels += [index_label(spec.family[0], t) for t in ts]
            vals.append(v)
            grads.append(g)
        self.labels = labels
        self.values = np.concatenate(vals) if vals else np.zeros(0)
        self.grads = np.vstack(grads) if grads else np.zeros((0, len(self.x)))
        self.eq_values = np.array([value_grad(b, self.x)[0] for _, b in spec.equalities])
        self.jac = np.array([value_grad(b, self.x)[1] for _, b in spec.equalities]).reshape(
            len(spec.equalities), len(self.x)
        )
        self.cost_grad = value_grad(spec.minimize, self.x)[1]

    def row(self, label: str):
        """(value, gradient) of the constraint a report label names; family
        labels may name refinement points off the base grid."""
        m = re.fullmatch(r"([A-Za-z_]\w*)\((.+)\)", label)
        if m is None:
            body = dict(self.spec.fixed).get(label)
            if body is None:
                raise KeyError(label)
            return value_grad(body, self.x)
        if self.spec.family is None or m.group(1) != self.spec.family[0]:
            raise KeyError(label)
        return value_grad(self.spec.family[1], self.x, self.spec.index.name, float(m.group(2)))

    def max_violation(self) -> float:
        worst = float(np.max(self.values)) if len(self.values) else -np.inf
        eq = float(np.max(np.abs(self.eq_values))) if len(self.eq_values) else 0.0
        return max(worst, eq)


def _scale(g) -> float:
    return TOL * (1.0 + float(np.max(np.abs(g))))


def _check_direction(oracle: Oracle, d, margin, threshold: float, what: str) -> list[str]:
    """d pairs at most -margin (and strictly negatively) with every gradient
    whose value is >= -threshold, and lies in the equality kernel. An
    infinite margin claims that no gradient is that active."""
    rows = oracle.values >= -threshold
    if margin == "inf":
        if np.any(rows):
            return [f"{what}: infinite margin with {oracle.labels[np.argmax(rows)]} active"]
        return []
    if not isinstance(margin, (int, float)) or margin <= 0:
        return [f"{what}: holds with margin {margin!r}"]
    out = []
    d = np.asarray(d, dtype=float)
    pair = oracle.grads[rows] @ d
    bound = -margin + TOL * (1.0 + np.max(np.abs(oracle.grads[rows]), axis=1, initial=0.0))
    bad = np.flatnonzero((pair > bound) | (pair >= 0))
    if len(bad):
        i = np.flatnonzero(rows)[bad[0]]
        out.append(f"{what}: witness pairs {pair[bad[0]]:.3e} with {oracle.labels[i]}")
    if len(oracle.jac) and np.max(np.abs(oracle.jac @ d)) > _scale(oracle.jac):
        out.append(f"{what}: witness leaves the equality kernel")
    return out


def _check_separator_on(oracle: Oracle, a, threshold: float, what: str) -> list[str]:
    """<a, grad> <= 0 for every gradient with value >= -threshold, <a, h> = 0."""
    out = []
    rows = oracle.values >= -threshold
    pair = oracle.grads[rows] @ a
    tol = TOL * (1.0 + np.max(np.abs(oracle.grads[rows]), axis=1, initial=0.0))
    bad = np.flatnonzero(pair > tol)
    if len(bad):
        i = np.flatnonzero(rows)[bad[0]]
        out.append(f"{what}: separator pairs {pair[bad[0]]:.3e} > 0 with {oracle.labels[i]}")
    if len(oracle.jac) and np.max(np.abs(oracle.jac @ a)) > _scale(oracle.jac):
        out.append(f"{what}: separator is not orthogonal to the equality gradients")
    return out


def _ray_directions(doc) -> dict[str, np.ndarray]:
    for cone in doc.get("normal_cones", []):
        if cone["variant"] == "perturbed":
            return {r["label"]: np.asarray(r["direction"], dtype=float) for r in cone["rays"]}
    return {}


def _check_stationarity(oracle: Oracle, st, rays) -> list[str]:
    what = st["condition"]
    out = []
    if st["outcome"] == "certificate":
        cert = st["certificate"]
        lam = np.asarray(cert["lam"], dtype=float)
        y = np.asarray(cert["y"], dtype=float)
        if len(lam) != len(cert["support"]) or np.any(lam < 0):
            return [f"{what}: multipliers {cert['lam']} are not a nonnegative weight per support"]
        if len(y) != len(oracle.spec.equalities):
            return [f"{what}: {len(y)} equality multipliers for {len(oracle.spec.equalities)} equalities"]
        floor = -ACT_TOL
        if what == "perturbed-stationarity" and st["eps_trace"]:
            floor = -(min(eps for eps, _ in st["eps_trace"]) + ACT_TOL)
        recon = oracle.cost_grad.copy()
        for label, weight in zip(cert["support"], lam):
            if label in rays:
                col = rays[label]
            else:
                try:
                    v, col = oracle.row(label)
                except KeyError:
                    return [f"{what}: support label {label!r} names no constraint"]
                if v < floor - TOL:
                    out.append(f"{what}: support {label} is not active (value {float(v):.3e})")
            recon = recon + weight * np.asarray(col, dtype=float)
        if len(y):
            recon = recon + oracle.jac.T @ y
        err = float(np.max(np.abs(recon)))
        if err > cert["residual"] + _scale(oracle.cost_grad):
            out.append(f"{what}: certificate reconstructs to {err:.3e}, "
                       f"reported residual {cert['residual']:.3e}")
    elif st["outcome"] == "refuted":
        a = np.asarray(st["separator"], dtype=float)
        if not a @ oracle.cost_grad < 0:
            out.append(f"{what}: separator does not strictly separate the cost gradient")
        threshold = ACT_TOL
        if what == "perturbed-stationarity":
            failing = [eps for eps, ok in st["eps_trace"] if not ok]
            threshold = failing[0] if failing else ACT_TOL
        out += _check_separator_on(oracle, a, threshold, what)
    return out


def _check_solver(doc, x, expect) -> list[str]:
    """The expected status and, for a converged solve, a candidate within the
    instance's `minimizer_tol` (default MINIMIZER_TOL) of the documented
    minimizer. A candidate further than MINIMIZER_TOL but within a wider
    `minimizer_tol` passes only if the report refutes KKT there."""
    solver = doc.get("solver")
    if solver is None or solver["status"] != expect["status"]:
        return [f"solver status {solver and solver['status']!r}, expected {expect['status']!r}"]
    if expect["status"] != "converged":
        return []
    dist = _minimizer_distance(doc, expect)
    tol = expect.get("minimizer_tol", MINIMIZER_TOL)
    if dist > tol:
        return [f"candidate {x.tolist()} is {dist:.3e} from the minimizer "
                f"{list(expect['minimizer'])} (tolerance {tol:g})"]
    if dist > MINIMIZER_TOL:
        st = doc["stationarity"][0] if "stationarity" in doc else None
        if st is None or st["outcome"] != "refuted":
            return [f"candidate {x.tolist()} is {dist:.3e} off the minimizer "
                    "and the report does not refute KKT there"]
    return []


def _check_expected(doc, expect) -> list[str]:
    """The verdicts and stationarity outcomes the workload documents."""
    out = []
    cq = doc["cq"]
    for key, verdict in expect.get("verdicts", {}).items():
        if cq[key]["verdict"] != verdict:
            out.append(f"{key} verdict {cq[key]['verdict']!r}, expected {verdict!r}")
    outcomes = {st["condition"]: st for st in doc["stationarity"]}
    for cond, outcome in expect.get("stationarity", {}).items():
        got = outcomes.get(cond, {}).get("outcome")
        if got != outcome:
            out.append(f"{cond} outcome {got!r}, expected {outcome!r}")
    if expect.get("certificate_uses_limit_rays"):
        cert = outcomes.get("perturbed-stationarity", {}).get("certificate")
        if not cert or not cert.get("uses_limit_rays"):
            out.append("perturbed certificate does not use a limit ray")
    return out


def _check_active_set(oracle: Oracle, active) -> list[str]:
    """Every listed entry recomputes, and every exactly active base row is listed."""
    out = []
    for entry in active:
        try:
            v, g = oracle.row(entry["label"])
        except KeyError:
            out.append(f"active entry {entry['label']!r} names no constraint")
            continue
        if abs(v - entry["value"]) > _scale(v) or np.max(np.abs(g - entry["grad"])) > _scale(g):
            out.append(f"active entry {entry['label']} does not recompute")
    listed = {entry["label"] for entry in active}
    missing = [lb for lb, v in zip(oracle.labels, oracle.values)
               if v >= -ACT_TOL / 10 and lb not in listed]
    if missing:
        out.append(f"active set omits {missing[:3]}")
    return out


def _check_cq(oracle: Oracle, cq, spec: Spec) -> list[str]:
    out = []
    if cq["emfcq"]["verdict"] == "holds":
        out += _check_direction(oracle, cq["emfcq"]["witness"], cq["emfcq"]["margin"],
                                ACT_TOL, "emfcq")
    if cq["pmfcq"]["verdict"] == "holds":
        out += _check_direction(oracle, cq["pmfcq"]["witness"], cq["pmfcq"]["margin"],
                                cq["pmfcq"]["stabilized_eps"] + ACT_TOL, "pmfcq")
    if cq["nfmcq"]["verdict"] == "fails":
        sep = cq["nfmcq"]["witness_separator"]
        if sep is None:
            return out + ["nfmcq fails without a separator"]
        # <a, (grad, <grad, x> - value)> <= 0 over the base materialization
        lift = np.hstack([oracle.grads, (oracle.grads @ oracle.x - oracle.values)[:, None]])
        pair = lift @ np.asarray(sep, dtype=float)
        bad = np.flatnonzero(pair > TOL * (1.0 + np.max(np.abs(lift), axis=1)))
        if len(bad):
            out.append(f"nfmcq: separator pairs {pair[bad[0]]:.3e} > 0 with the "
                       f"augmented generator of {oracle.labels[bad[0]]}")
    if cq["ssc"]["verdict"] == "holds":
        slater = Oracle(spec, cq["ssc"]["slater_point"])
        worst = float(np.max(slater.values)) if len(slater.values) else -np.inf
        if not worst < 0:
            out.append(f"ssc: Slater point has constraint value {worst:.3e}")
        if len(slater.eq_values) and np.max(np.abs(slater.eq_values)) > _scale(slater.jac):
            out.append("ssc: Slater point leaves the equality set")
    return out


def check_report(doc: dict, case: Case) -> list[str]:
    """Problems with one op's parsed JSON report; an empty list means it passed."""
    problems = [f"schema: {e.message}" for e in _validator().iter_errors(doc)]
    if problems:
        return problems
    x = np.asarray(doc["parameters"]["point"], dtype=float)
    oracle = Oracle(case.spec, x)
    if "status" in case.expect:
        problems += _check_solver(doc, x, case.expect)
        if problems or case.expect["status"] == "iteration_limit":
            return problems
    if not doc["feasibility"]["feasible"]:
        return problems + ["point reported infeasible"]
    if oracle.max_violation() > ACT_TOL + TOL:
        problems.append(f"point violates a constraint by {oracle.max_violation():.3e}")
    if "cq" not in doc:
        return problems + ["feasible point was not analyzed"]
    problems += _check_expected(doc, case.expect)
    problems += _check_active_set(oracle, doc["active_set"]["active"])
    problems += _check_cq(oracle, doc["cq"], case.spec)
    rays = _ray_directions(doc)
    for st in doc["stationarity"]:
        problems += _check_stationarity(oracle, st, rays)
    return problems


def _minimizer_distance(doc: dict, expect: dict) -> float:
    x = np.asarray(doc["parameters"]["point"], dtype=float)
    return float(np.max(np.abs(x - np.asarray(expect["minimizer"]))))


def off_minimizer(doc: dict, expect: dict) -> bool:
    """A converged solve whose candidate is more than MINIMIZER_TOL from the
    documented minimizer (and so passed only under a wider `minimizer_tol`)."""
    return (expect.get("status") == "converged"
            and _minimizer_distance(doc, expect) > MINIMIZER_TOL)
