"""Span recorder for the traced run, and the per-layer metrics derived from it.

`install` wraps every public function of each sipcert layer module at every
module that binds it (a module that does `from .cones import membership`
holds its own reference, so wrapping only `cones` would miss those calls).
Each call records a span: name, start, end, parent span and op id. Spans
stay in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("expr", "model", "cq", "cones", "optimality", "linsolve", "solver", "cli")

# Per-layer metrics. Calls and times are per op of the traced phase.
CALLS = ("expr.eval_value", "expr.eval_grad", "model.scan_constraints",
         "cones.accumulation_rays", "cones.membership", "linsolve.cone_feasibility",
         "linsolve.hull_plus_cone_feasibility", "linsolve.max_margin_direction",
         "solver.most_violated_index")
BUSY = ("expr.eval_value", "expr.eval_grad", "expr.parse",
        "model.loads_instance", "model.scan_constraints", "model.feasibility_check",
        "model.active_set", "model.estimate_moduli",
        "cq.check_emfcq", "cq.check_pmfcq", "cq.check_nfmcq", "cq.check_ssc", "cq.cq_summary",
        "cones.accumulation_rays", "cones.membership", "cones.closedness_diagnostic",
        "optimality.normal_cone", "optimality.verify_kkt",
        "optimality.verify_perturbed_stationarity",
        "linsolve.cone_feasibility", "linsolve.hull_plus_cone_feasibility",
        "linsolve.max_margin_direction", "solver.solve", "cli.build_report")
EXTRA = {"linsolve.columns_max": "count", "linsolve.columns_mean": "count",
         "linsolve.support_ratio": "1", "solver.outer_iters": "iters/solve",
         "solver.accepted_ratio": "1", "cli.render_s": "s/op", "trace.overhead_frac": "1"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{n}.calls": "calls/op" for n in CALLS}
    units.update({f"{n}.busy_s": "s/op" for n in BUSY})
    units.update({f"{layer}.self_s": "s/op" for layer in LAYERS})
    units.update(EXTRA)
    return units


def _columns(m) -> int:
    if m is None:
        return 0
    a = np.asarray(m)
    if a.size == 0:
        return 0
    return a.shape[1] if a.ndim == 2 else 1


def _observe_lp(*keys):
    """Columns offered to an LP entry point, read from its arguments, and the
    positive multipliers of the certificate it returns (if any)."""

    def observe(rec, arguments, result):
        offered = sum(_columns(arguments.get(k)) for k in keys)
        rec.lp_columns.append(offered)
        lam = getattr(result, "lam", None)
        if lam is not None:
            weights = getattr(result, "weights", np.zeros(0))
            rec.lp_offered += offered
            rec.lp_positive += int(np.sum(lam > 1e-12)) + int(np.sum(weights > 1e-12))

    return observe


def _observe_solve(rec, arguments, result):
    _, trace = result
    rec.solves += 1
    rec.outer_iters += len(trace.records)
    rec.accepted += sum(1 for r in trace.records if r.accepted)


_OBSERVERS = {
    "linsolve.cone_feasibility": _observe_lp("G", "H"),
    "linsolve.hull_plus_cone_feasibility": _observe_lp("F", "G", "H"),
    "linsolve.max_margin_direction": _observe_lp("G", "H"),
    "solver.solve": _observe_solve,
}


class Recorder:
    """Spans in flat arrays, indexed by span id (call order). `stack` holds
    the open spans; spans are recorded only while `active` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.lp_columns = array("q")
        self.lp_offered = 0   # columns offered to LPs that returned a certificate
        self.lp_positive = 0  # positive multipliers in those certificates
        self.solves = 0
        self.outer_iters = 0
        self.accepted = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        observe = _OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.end)
            rec.name_id.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.op.append(rec.op_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                rec.start[i] = t0
                rec.end[i] = t1
            if observe is not None:
                observe(rec, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def install(rec: Recorder) -> list:
    """Wrap the public functions of every layer wherever they are bound.
    Returns what `uninstall` needs to put the originals back."""
    mods = {layer: importlib.import_module(f"sipcert.{layer}") for layer in LAYERS}
    holders = [importlib.import_module("sipcert"), *mods.values()]
    undo = []
    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            traced = rec.wrap(fn, f"{layer}.{attr}")
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, key, traced)
                        undo.append((holder, key, fn))
    return undo


def uninstall(undo: list) -> None:
    for holder, key, fn in reversed(undo):
        setattr(holder, key, fn)


def span_times(spans: dict[str, np.ndarray]):
    """(self time per span, mask of spans with no ancestor of the same name).

    A span's self time is its duration minus the durations of its direct
    children; the mask keeps recursive calls from counting twice in busy time.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.astype(np.int64)
    live = np.flatnonzero(anc >= 0)
    while len(live):
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]
        live = live[anc[live] >= 0]
    return dur - child, ~nested


def layer_metrics(rec: Recorder, ops: int, scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of `metric_units`, except trace.overhead_frac.
    Times are multiplied by `scale` (the host normalization of the phase)."""
    spans = rec.spans()
    self_t, outer = span_times(spans)
    dur = spans["end"] - spans["start"]
    name = spans["name"]
    k = len(rec.names)
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name[outer], weights=dur[outer], minlength=k)
    by_name_self = np.bincount(name, weights=self_t, minlength=k)
    ids = {n: i for i, n in enumerate(rec.names)}
    per_op = 1.0 / max(ops, 1)
    time_per_op = scale * per_op

    out = {}
    for n in CALLS:
        out[f"{n}.calls"] = float(calls[ids[n]]) * per_op if n in ids else 0.0
    for n in BUSY:
        out[f"{n}.busy_s"] = float(busy[ids[n]]) * time_per_op if n in ids else 0.0
    for layer in LAYERS:
        own = [i for n, i in ids.items() if n.split(".")[0] == layer]
        out[f"{layer}.self_s"] = float(by_name_self[own].sum()) * time_per_op
    cols = np.frombuffer(rec.lp_columns, dtype=np.int64)
    out["linsolve.columns_max"] = float(cols.max()) if len(cols) else 0.0
    out["linsolve.columns_mean"] = float(cols.mean()) if len(cols) else 0.0
    out["linsolve.support_ratio"] = rec.lp_positive / rec.lp_offered if rec.lp_offered else 0.0
    out["solver.outer_iters"] = rec.outer_iters / rec.solves if rec.solves else 0.0
    out["solver.accepted_ratio"] = rec.accepted / rec.outer_iters if rec.outer_iters else 0.0
    render = ids.get("cli.render_text")
    out["cli.render_s"] = float(busy[render]) * time_per_op if render is not None else 0.0
    return out
