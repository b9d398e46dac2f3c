"""Self-tests of the benchmark: deterministic inputs, an output check that
rejects tampered reports, and the span arithmetic.

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _inputs(seed):
    return ([wl.countable_case(seed, j).text for j in range(4)]
            + [c.text + str(c.solver_seed) for r in range(2) for c in wl.solve_round(seed, r)]
            + [wl.small_case(seed, k).text + repr(wl.small_case(seed, k).point)
               for k in range(-1, 12)])


def test_generators_are_deterministic():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_generated_text_is_pinned():
    # a change here changes every benchmark input: measure a new baseline
    digest = hashlib.sha256("".join(_inputs(0)).encode()).hexdigest()
    assert digest == "8c7314985e17701015183e0000686957abb6a77eb8b6c145b93955d8e9df130a"


def test_small_batch_covers_every_kind_each_round():
    for r in range(2):
        kinds = {wl.small_case(3, 12 * r + j).label.split("/")[0] for j in range(12)}
        assert kinds == {"convex-interval", "finite-polygon", "fixed-affine", "interval-affine"}


@pytest.fixture(scope="module")
def countable_report():
    w = wl.WORKLOADS["analyze-countable-wide"]
    op = w.op(w.prepare(0), 0)
    return w.run(op), op.case


def _tampered(report, edit):
    doc = json.loads(report)
    edit(doc)
    return doc


def test_check_accepts_the_real_report(countable_report):
    report, case = countable_report
    assert check.check_report(json.loads(report), case) == []


def _flip_kkt_separator(doc):
    st = doc["stationarity"][0]
    st["separator"] = [-v for v in st["separator"]]


def _negative_multiplier(doc):
    doc["stationarity"][1]["certificate"]["lam"][0] = -1.0


def _wrong_verdict(doc):
    doc["cq"]["emfcq"]["verdict"] = "fails"


def _flip_nfmcq_separator(doc):
    cq = doc["cq"]["nfmcq"]
    cq["witness_separator"] = [-v for v in cq["witness_separator"]]


def _flip_emfcq_witness(doc):
    doc["cq"]["emfcq"]["witness"] = [-v for v in doc["cq"]["emfcq"]["witness"]]


def _inflate_multiplier(doc):
    cert = doc["stationarity"][1]["certificate"]
    cert["lam"][0] *= 1.5


def _drop_active_entry(doc):
    doc["active_set"]["active"] = []


@pytest.mark.parametrize("edit", [_flip_kkt_separator, _negative_multiplier, _wrong_verdict,
                                  _flip_nfmcq_separator, _flip_emfcq_witness,
                                  _inflate_multiplier, _drop_active_entry])
def test_check_rejects_tampering(countable_report, edit):
    report, case = countable_report
    assert check.check_report(_tampered(report, edit), case)


def test_check_rejects_schema_violation(countable_report):
    report, case = countable_report
    assert check.check_report(_tampered(report, lambda d: d.pop("feasibility")), case)


def _solver_case(name):
    spec = wl.SOLVE_SPECS[name]
    return wl.Case(name, spec, wl.render(spec), solver_seed=0,
                   expect=dict(wl.SOLVE_EXPECT[name]))


def _solver_doc(point, status):
    """The head of a `sipcert solve` report, without the analysis."""
    return {"tool": {"name": "sipcert", "version": "0"}, "generated_at": None,
            "instance": {"path": None, "sha256": "0" * 64, "dim": 2, "convex": False},
            "parameters": {"point": list(point), "eps_schedule": [0.1], "margin_tol": 1e-6,
                           "variants": [], "seed": 0, "deterministic": True},
            "feasibility": {"max_violation": 0.0, "equality_residual": 0.0, "feasible": True},
            "solver": {"status": status, "candidate": list(point), "iterations": 1,
                       "records": []}}


def test_wrong_solver_outcome_is_rejected():
    case = _solver_case("interval_ramp")
    assert check.check_report(_solver_doc([0.0, 0.0], "converged"), case)
    assert check.check_report(_solver_doc([0.0, 0.0], "iteration_limit"), case) == []


@pytest.mark.parametrize("name, point", [
    ("countable_cubic", [-1.0, -1e-3]),   # any distance over 1e-6
    ("parabola_band", [2e-6, 0.0]),
    ("convex_toy", [-0.505, -0.5]),       # beyond the convex_toy allowance
    ("convex_toy", [-0.499, -0.502]),     # within it, but KKT is not refuted
])
def test_converged_candidate_off_the_minimizer_is_rejected(name, point):
    problems = check.check_report(_solver_doc(point, "converged"), _solver_case(name))
    assert problems and "minimizer" in problems[0]


def _recorder(rows):
    """A recorder holding synthetic spans: (name, start, end, parent)."""
    rec = spans.Recorder()
    for name, start, end, parent in rows:
        rec.name_id.append(rec._id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.op.append(0)
    return rec


def test_self_time_on_nested_spans():
    rec = _recorder([
        ("cli.build_report", 0.0, 10.0, -1),  # 0
        ("cq.cq_summary", 1.0, 4.0, 0),       # 1
        ("linsolve.cone_feasibility", 2.0, 3.0, 1),  # 2
        ("cq.check_ssc", 5.0, 9.0, 0),        # 3
        ("cq.check_ssc", 6.0, 7.5, 3),        # 4: recursive call
    ])
    self_t, outer = spans.span_times(rec.spans())
    np.testing.assert_allclose(self_t, [3.0, 2.0, 1.0, 2.5, 1.5])
    assert outer.tolist() == [True, True, True, True, False]
    m = spans.layer_metrics(rec, ops=2)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cq.self_s"] == pytest.approx((2.0 + 2.5 + 1.5) / 2)
    assert m["linsolve.self_s"] == pytest.approx(0.5)
    assert m["cq.check_ssc.busy_s"] == pytest.approx(2.0)  # the recursive call is inside
    assert m["linsolve.cone_feasibility.calls"] == pytest.approx(0.5)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(5.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import sipcert.cones
    import sipcert.optimality

    original = sipcert.cones.membership
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert sipcert.optimality.membership is sipcert.cones.membership
        assert sipcert.cones.membership is not original
        rec.active = True
        G = np.eye(2)
        sipcert.linsolve.cone_feasibility(G, None, np.array([1.0, 1.0]))
        rec.active = False
    finally:
        spans.uninstall(undo)
    assert sipcert.cones.membership is original
    names = [rec.names[i] for i in rec.spans()["name"]]
    assert names[0] == "linsolve.cone_feasibility"
    assert list(rec.lp_columns) == [2]
    assert rec.lp_positive == 2 and rec.lp_offered == 2


def test_host_normalization():
    import run

    clock = run.HostClock()
    for i, took in enumerate([1e-4, 1e-4, 3e-4, 3e-4, 3e-4, 1e-4, 1e-4, 1e-4]):
        clock.stamp.append(0.05 * i)
        clock.took.append(took)
    assert clock.during(0.09, 0.21, least=3) == 3e-4      # the three samples inside
    assert clock.during(0.14, 0.16, least=3) == 3e-4      # widened around the midpoint
    assert clock.during(1.0, 2.0) == 1e-4                 # past the end: the last five
    phase = run.Phase(wall=[1.0, 2.0], host=[run.SAMPLE_REF_S, 2 * run.SAMPLE_REF_S])
    assert phase.normalized() == [1.0, 1.0]
    assert phase.ops_per_s() == 1.0
