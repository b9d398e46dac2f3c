"""One domain-error rule for every constraint row: a row the expression
rejects (a division by zero, a log or sqrt out of domain) is NaN in the scan
and +inf in the solver, and every CLI run ends in a documented exit code."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipcert import expr as ex
from sipcert import solver
from sipcert.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main
from sipcert.model import feasibility_check, loads_instance, scan_constraints
from sipcert.solver import SolverConfig, solve

from test_expr import ASTS

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "report_schema.json")
                    .read_text())


def instance_text(body: str, index: str | None = None, dim: int = 2,
                  cost: str = "x1^2 + x2^2") -> str:
    """A minimal instance: one fixed constraint g1, or a family g(t) over the
    [index t] section ``index``."""
    names = " ".join(f"x{i}" for i in range(1, dim + 1))
    box = " ; ".join(["-2 2"] * dim)
    text = f"[problem]\nvars = {names}\nminimize = {cost}\nbox = {box}\n"
    if index is None:
        return text + f"[constraints]\ng1 = {body}\n"
    return text + f"[index t]\n{index}[constraints]\ng(t) = {body}\n"


CLOSED_01 = "kind = interval\na = 0\nb = 1\nresolution = 9\nrefinements = 1\n"
LOG_FAMILY = instance_text("log(t - 0.5)*x1 - x2 - 1", CLOSED_01)
# only t = 2..5 are rejected, of 10^4 indices
FEW_REJECTED = instance_text("log(t - 5)*x1/t - x2 - 1",
                             "kind = countable\nstart = 2\ntruncation = 10000\n")
# at (1, 0) the ladder row t = 1000 reads 1, and its gradient (sqrt at 0) is rejected
REJECTED_LADDER_GRADIENT = instance_text("1 - sqrt((x1*t - 1000)^2) - x2",
                                         "kind = countable\nstart = 1\ntruncation = 100\n")


class TestScan:
    def test_rejected_rows_are_nan_and_the_others_keep_their_batched_bits(self):
        inst = loads_instance(LOG_FAMILY)
        x = np.array([0.3, -1.7])
        scan = scan_constraints(inst, x)
        bad = scan.t <= 0.5
        assert bad.any() and not bad.all()
        assert np.isnan(scan.value[bad]).all() and np.isnan(scan.grad[bad]).all()
        body = inst.families[0][0].body
        vals, grads = ex.eval_grad(body, x, {"t": scan.t[~bad]})
        assert scan.value[~bad].tobytes() == vals.tobytes()
        assert scan.grad[~bad].tobytes() == grads.tobytes()
        # a NaN row counts as +inf: the first rejected index is the worst
        assert scan.argmax() == (math.inf, 0)
        assert feasibility_check(inst, x, scan=scan).worst.label == "g(0)"

    def test_few_rejected_rows_take_one_kernel_call_per_segment(self, monkeypatch):
        inst = loads_instance(FEW_REJECTED)
        calls = []
        original = ex.kernel

        def counting(*args, **kwargs):
            run = original(*args, **kwargs)
            return lambda *a: calls.append(args) or run(*a)

        monkeypatch.setattr(ex, "kernel", counting)
        scan = scan_constraints(inst, np.zeros(2))
        assert len(calls) == 1 + len(scan.families[0].ladders)  # the grid and its ladder
        rejected = np.isnan(scan.value)
        assert scan.t[rejected].tolist() == [2.0, 3.0, 4.0, 5.0]
        assert np.isnan(scan.grad[rejected]).all() and np.isfinite(scan.grad[~rejected]).all()

    def test_rejected_fixed_constraint_is_nan(self):
        inst = loads_instance(instance_text("1/x1 - x2"))
        scan = scan_constraints(inst, np.zeros(2))
        assert np.isnan(scan.value).all() and np.isnan(scan.grad).all()
        assert scan.label(scan.argmax()[1]) == "g1"
        assert scan_constraints(inst, np.array([1.0, 0.0])).value.tolist() == [1.0]

    def test_index_free_rejection_reaches_the_empty_refinement(self):
        # log(x1 + 1.5) raises for every t at x1 < -1.5, so the grid is all
        # NaN, refinement finds no site, and the empty array raises too
        inst = loads_instance(instance_text("log(x1 + 1.5) - t", CLOSED_01))
        scan = scan_constraints(inst, np.array([-1.8, 0.0]))
        assert len(scan.value) == 9 and np.isnan(scan.value).all()

    def test_one_point_tail_ladder_keeps_its_row(self):
        # 4/exp(t) is 0 from t = 1000 on, so the ladder 100, 1000, ... keeps
        # only its first point: its row stays in the table, and no limit is read
        inst = loads_instance(instance_text(
            "t/(4/exp(t)) - x2 - 1", "kind = countable\nstart = 0\ntruncation = 50\n"))
        scan = scan_constraints(inst, np.zeros(2))
        assert scan.t[scan.ladder >= 0].tolist() == [100.0]
        assert scan.tail_limit(scan.families[0].ladders[0]) == (None, False)


class TestSolver:
    def test_working_constraint_reads_a_rejected_point_as_inf(self):
        wc = solver._bind("g1", ex.parse("1/x1 - x2"), 2, {})
        assert wc.value([0.0, 0.0]) == math.inf
        value, partials = wc.grad([0.0, 0.0])
        assert value == math.inf and len(partials) == 2
        assert all(math.isnan(p) for p in partials)
        assert wc.value([1.0, 0.5]) == 0.5 and wc.grad([1.0, 0.5]) == (0.5, (-1.0, -1.0))

    def test_seeds_skip_rejected_rows(self):
        # every index but t = 2 is rejected, so it is the one seed
        inst = loads_instance(instance_text(
            "log(t - 1.5)*x1 - x2 - 1", "kind = finite\nvalues = 0 0.5 1 2\n"))
        _, trace = solve(inst, SolverConfig(max_outer=3, multistart=2))
        assert trace.records[0].working == ["g(2)"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def validate(doc):
    import jsonschema

    jsonschema.Draft7Validator(SCHEMA).validate(doc)


def analyze_json(tmp_path, text, point):
    path = tmp_path / "case.sip"
    path.write_text(text)
    code, out, err = run_cli(
        ["analyze", str(path), f"--point={point}", "--report=json", "--deterministic",
         "--probe-dirs=4", "--moduli-samples=4"])
    doc = json.loads(out) if out else None
    if doc is not None:
        validate(doc)
    return code, doc, err


def solve_json(tmp_path, text):
    path = tmp_path / "case.sip"
    path.write_text(text)
    code, out, err = run_cli(
        ["solve", str(path), "--max-iters=3", "--multistart=2", "--report=json",
         "--deterministic", "--probe-dirs=4", "--moduli-samples=4"])
    doc = json.loads(out) if out else None
    if doc is not None:
        validate(doc)
    return code, doc, err


class TestCli:
    @pytest.mark.parametrize("text, point, worst", [
        (LOG_FAMILY, "0,0", "inf at g(0)"),
        (instance_text("1/x1 - x2"), "0,0", "inf at g1"),
        (REJECTED_LADDER_GRADIENT, "1,0", "1.000000e+00 at g(1000)"),
    ], ids=["family", "fixed", "ladder-gradient"])
    def test_rejected_row_is_an_infeasible_point(self, tmp_path, text, point, worst):
        code, doc, err = analyze_json(tmp_path, text, point)
        assert code == EXIT_INFEASIBLE and doc is None
        assert f"max violation {worst}," in err

    @pytest.mark.parametrize("cost, message", [
        ("minimize = 1/x1 + x2", "division by zero in '1/x1'"),
        # both pieces attain the maximum at the origin; only the gradient is rejected
        ("minimize_max = x2 ; sqrt(x1)", "sqrt gradient at zero in 'sqrt(x1)'"),
        # log(-1.97) is folded when the kernel is compiled, with no RuntimeWarning
        ("minimize = log(-1.97) + x1", "log of a nonpositive value in 'log(-1.97)'"),
    ], ids=["smooth", "max", "folded"])
    def test_cost_rejected_at_the_point_is_a_validation_error(self, tmp_path, cost, message):
        text = f"[problem]\nvars = x1 x2\n{cost}\nbox = -2 2 ; -2 2\n[constraints]\ng1 = x2 - 1\n"
        code, doc, err = analyze_json(tmp_path, text, "0,0")
        assert code == EXIT_VALIDATION and doc is None
        assert err == f"error: cost is not defined at the point: {message}\n"

    def test_few_rejected_rows_are_an_infeasible_point(self, tmp_path):
        code, doc, err = analyze_json(tmp_path, FEW_REJECTED, "0,0")
        assert code == EXIT_INFEASIBLE and doc is None
        assert "max violation inf at g(2)," in err

    def test_rejected_equality_is_an_infeasible_point(self, tmp_path):
        text = ("[problem]\nvars = x1 x2\nminimize = x1 + x2\nbox = -2 2 ; -2 2\n"
                "[constraints]\ng1 = x2 - 1\n[equalities]\nh = 1/x1 + x2\n")
        code, doc, err = analyze_json(tmp_path, text, "0,0")
        assert code == EXIT_INFEASIBLE and doc is None
        assert "equality residual inf)" in err

    def test_equality_with_a_rejected_gradient_is_a_validation_error(self, tmp_path):
        # h reads 0 at the origin, so the point is feasible; its Jacobian is rejected
        text = ("[problem]\nvars = x1 x2\nminimize = x1 + x2\nbox = -2 2 ; -2 2\n"
                "[constraints]\ng1 = x2 - 1\n[equalities]\nh = sqrt(x1) - x2\n")
        code, doc, err = analyze_json(tmp_path, text, "0,0")
        assert code == EXIT_VALIDATION and doc is None
        assert err == ("error: equality h is not defined at the point: "
                       "sqrt gradient at zero in 'sqrt(x1)'\n")

    @pytest.mark.parametrize("body, column", [
        ("(" * 200 + "x1 - x2" + ")" * 200, ex.MAX_DEPTH),
        ("+".join(["x1"] * 3000) + " - x2", 3 * ex.MAX_DEPTH),
    ], ids=["200 parentheses", "3000 terms"])
    def test_expression_nested_too_deep_is_a_validation_error(self, tmp_path, body, column):
        code, doc, err = analyze_json(tmp_path, instance_text(body), "0,0")
        assert code == EXIT_VALIDATION and doc is None
        assert err == (f"error: bad expression: expression nested deeper than {ex.MAX_DEPTH} "
                       f"levels (line 1, column {column}) (line 6)\n")

    def test_cost_rejected_at_a_solver_start_solves(self, tmp_path):
        # sqrt(x1) is rejected on half the box, where most starts fall
        code, doc, err = solve_json(tmp_path, instance_text("-x2 - 1", cost="sqrt(x1) + x2"))
        assert code == EXIT_OK and err == ""
        assert doc["solver"]["status"] == "converged"

    def test_cost_rejected_at_the_candidate_is_a_validation_error(self, tmp_path):
        # the feasible set is x1 <= -1 and the cost is defined for x1 >= -1 only,
        # so the candidate sits where the cost's gradient is rejected
        text = instance_text("x1 + 1", cost="sqrt(x1 + 1) + x2").replace(
            "g1 = x1 + 1\n", "g1 = x1 + 1\ng2 = -x2 - 1\n")
        code, doc, err = solve_json(tmp_path, text)
        assert code == EXIT_VALIDATION and doc is None
        assert err == "error: cost is not defined at the point: " \
                      "sqrt gradient at zero in 'sqrt(x1+1)'\n"

    def test_infinite_cost_gradient_certifies_nothing(self, tmp_path):
        # x2*x2 underflows to 0 at x2 = 1e-200, so x2^-2 and its partial are
        # infinite, with no RuntimeWarning
        text = instance_text("x2 - 1", cost="x2^-2 + x1")
        code, doc, err = analyze_json(tmp_path, text, "0,1e-200")
        assert code == EXIT_OK and err == ""
        for section in doc["stationarity"]:
            assert section["outcome"] == "inconclusive"
            assert section["notes"] == ["cost gradient is not finite"]

    def test_sqrt_of_the_index_alone_analyzes(self, tmp_path):
        text = instance_text("sqrt(t)*x1 - x2", CLOSED_01 + "include_b = false\n")
        code, doc, err = analyze_json(tmp_path, text, "0,0")
        assert code == EXIT_OK and err == ""
        assert doc["feasibility"]["feasible"]

    def test_a_row_whose_gradient_alone_is_rejected_keeps_its_value(self, tmp_path):
        # sqrt's gradient is rejected at x1 = 0, t = 0, its value -2 is not:
        # the rows read sqrt(t) - 2 <= -1, and that gradient is NaN
        text = instance_text("sqrt(x1^2 + t) - 2", CLOSED_01, cost="x1")
        text = text.replace("[index t]", "convex = true\n[index t]")
        code, doc, err = analyze_json(tmp_path, text, "0,0")
        assert code == EXIT_OK and err == ""
        assert doc["feasibility"]["feasible"] and doc["feasibility"]["max_violation"] == -1.0
        assert doc["cq"]["nfmcq"]["verdict"] == "unknown"
        assert doc["cq"]["nfmcq"]["reason"] == "an augmented generator is not finite"

    def test_infinite_moduli_are_reported(self, tmp_path):
        # exp(10000*x1) overflows within every eta-ball around the origin
        code, doc, err = analyze_json(tmp_path, instance_text("exp(10000*x1) - x2 - 10"), "0,0")
        assert code == EXIT_OK and err == ""
        assert "inf" in doc["moduli"]["s"] and "inf" in doc["moduli"]["r"]

    # no LP reads the infinite gradient column, so numpy never warns on inf * 0
    def test_infinite_gradient_is_reported_and_certifies_nothing(self, tmp_path):
        code, doc, err = analyze_json(tmp_path, instance_text("x1*1e308*1e308 - x2"), "0,0")
        assert code == EXIT_OK
        assert doc["active_set"]["active"][0]["grad"] == ["inf", -1.0]
        assert doc["active_set"]["grad_norm_bound"] == "inf"
        for section in doc["stationarity"]:
            assert section["outcome"] == "inconclusive"
            assert "a normal-cone column is not finite" in section["notes"]


INDEX_SETS = {
    "finite": "kind = finite\nvalues = 0 0.5 1 2\n",
    "countable": "kind = countable\nstart = 0\ntruncation = 50\n",
    **{f"interval {a}{b}": CLOSED_01 + f"include_a = {a}\ninclude_b = {b}\n"
       for a in ("true", "false") for b in ("true", "false")},
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ast=ASTS, cost=ASTS, index=st.sampled_from(sorted(INDEX_SETS)),
       command=st.sampled_from(["analyze", "solve"]),
       point=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
def test_every_run_ends_in_a_documented_exit_code(tmp_path_factory, ast, cost, index, command,
                                                  point):
    # one family and the cost over random bodies from the kernel tests' grammar;
    # any domain error, overflow or NaN must end in an exit code, not a traceback
    path = tmp_path_factory.getbasetemp() / "fuzz.sip"
    path.write_text(instance_text(f"{ex.to_source(ast)} - x2 - 1", INDEX_SETS[index], dim=3,
                                  cost=ex.to_source(cost)))
    argv = [command, str(path), "--report=json", "--deterministic", "--probe-dirs=4",
            "--moduli-samples=4"]
    if command == "analyze":
        argv.append("--point=" + ",".join(repr(v) for v in point))
    else:
        argv += ["--max-iters=3", "--multistart=2"]
    code, out, _ = run_cli(argv)
    assert code in (0, 2, 3, 4, 5)
    if out:
        validate(json.loads(out))
