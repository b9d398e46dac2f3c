import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sipcert
from sipcert import cli, linsolve, model, optimality
from sipcert.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_SOLVER_LIMIT, EXIT_VALIDATION, main
from sipcert.cones import GeneratedCone

from test_solver import NAN_EQUALITY

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
SCHEMA = ROOT / "docs" / "report_schema.json"


HUGE_EQUALITY = """[problem]
vars = x1 x2
minimize = x1^2 + x2^2
box = -2 2; -2 2

[constraints]
g = x1 - 5

[equalities]
h = 1e200*x1 - 1e199
"""


VANISHING_GRADIENT = """[problem]
vars = x1 x2
minimize = x1
convex = true
box = -2 2 ; -2 2

[index t]
kind = interval
a = 0
b = 1
resolution = 65
refinements = 3

[constraints]
g(t) = (0.43 + 0.21*t)^2*(x1^2 + x2^2) + 0.8*(t - 0.52)*x1 - 0.6*(t - 0.52)*x2 - 1.1*(t - 0.52)^2
"""


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_countable_cubic_ok(self, capsys):
        code, out, err = run_cli(
            ["analyze", str(INSTANCES / "countable_cubic.sip"), "--point=-1,0",
             "--deterministic"],
            capsys,
        )
        assert code == EXIT_OK
        assert "EMFCQ: holds" in out
        assert "NFMCQ: fails" in out
        assert "refuted" in out

    def test_infeasible_point_exit_code(self, capsys):
        code, out, err = run_cli(
            ["analyze", str(INSTANCES / "countable_cubic.sip"), "--point=0,0"],
            capsys,
        )
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err

    def test_missing_file_is_validation_error(self, capsys):
        code, out, err = run_cli(["analyze", "no_such.sip", "--point=0,0"], capsys)
        assert code == EXIT_VALIDATION

    def test_bad_point_is_validation_error(self, capsys):
        code, out, err = run_cli(
            ["analyze", str(INSTANCES / "convex_toy.sip"), "--point=1,2,3"], capsys
        )
        assert code == EXIT_VALIDATION

    def test_bad_instance_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sip"
        bad.write_text("[problem]\nvars = x1\nminimize = x1 +\n")
        code, out, err = run_cli(["analyze", str(bad), "--point=0"], capsys)
        assert code == EXIT_VALIDATION
        assert "line 3" in err


    def test_truncation_reaches_cq_traces(self, capsys):
        code, out, _ = run_cli(
            ["analyze", str(INSTANCES / "countable_cubic.sip"), "--point=-1,0",
             "--truncation=50", "--deterministic", "--report=json"],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        status = {t["eps"]: t["status"] for t in doc["cq"]["pmfcq"]["traces"]}
        # at 50 indices the eps-active family part of these eps lies beyond
        # the truncation, which the 10^4-index scan still resolves
        assert status[1e-3] == "censored"
        assert status[1e-4] == "censored"

    @pytest.fixture
    def scan_calls(self, monkeypatch):
        """Truncation of the instance of every scan_constraints call, wherever
        it is bound."""
        calls = []
        original = model.scan_constraints

        def counting(inst, *args, **kwargs):
            calls.append(inst.families[0][1].truncation)
            return original(inst, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "sipcert":
                continue
            if getattr(mod, "scan_constraints", None) is original:
                monkeypatch.setattr(mod, "scan_constraints", counting)
        return calls

    def test_one_scan_per_analyze(self, scan_calls, capsys):
        code, _, _ = run_cli(
            ["analyze", str(INSTANCES / "countable_cubic.sip"), "--point=-1,0"], capsys
        )
        assert code == EXIT_OK
        assert scan_calls == [10000]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_truncation_reaches_feasibility_gate(self, scan_calls, tmp_path, capsys):
        # g(77) = 0.5 > 0: infeasible on the file's 10^4 indices, but 77 lies
        # beyond a truncation of 50 and off the tail ladder (100, 1000, ...)
        path = tmp_path / "bump.sip"
        path.write_text(
            "[problem]\nvars = x1 x2\nminimize = x1^2 + x2^2\n\n"
            "[index n]\nkind = countable\nstart = 1\ntruncation = 10000\n\n"
            "[constraints]\ng(n) = x1 - (n - 77)^2 + 0.5\n"
        )
        code, _, err = run_cli(["analyze", str(path), "--point=0,0"], capsys)
        assert code == EXIT_INFEASIBLE
        assert "g(77)" in err
        code, out, _ = run_cli(
            ["analyze", str(path), "--point=0,0", "--truncation=50", "--report=json"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["feasibility"]["feasible"] is True
        assert scan_calls == [10000, 50]


# convex, with g(20000) > 0 wherever 10*x2 < x1 - 11: a Slater point must be
# checked on every index up to the run's truncation
SPIKE = """[problem]
vars = x1 x2
minimize = x1^2 + x2^2
convex = true
box = -2 2 ; -2 2

[index n]
kind = countable
start = 1
truncation = 10000

[constraints]
g(n) = x1 - 1 + 10*exp(-(n - 20000)^2)*(-x2 - 1)
"""


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize("name,n", [("spike", 30_000), ("countable_cubic", 50),
                                    ("countable_cubic", 10**5)])
def test_truncation_option_equals_truncated_file(command, name, n, tmp_path, capsys):
    """`--truncation=N` reports what the same file with `truncation = N`
    reports, in every section and in the solver, but for the file's path and
    hash and the option itself."""
    text = SPIKE if name == "spike" else (INSTANCES / f"{name}.sip").read_text()
    given, written = tmp_path / "given.sip", tmp_path / "written.sip"
    given.write_text(text)
    written.write_text(re.sub(r"(?m)^truncation = \d+$", f"truncation = {n}", text))
    args = (["--point=-1,0"] if command == "analyze"
            else ["--max-iters", "6", "--multistart", "4", "--seed", "0"])
    runs = []
    for path, option in ((given, [f"--truncation={n}"]), (written, [])):
        code, out, _ = run_cli(
            [command, str(path), *args, *option, "--deterministic", "--report=json"], capsys)
        doc = json.loads(out)
        del doc["instance"]["path"], doc["instance"]["sha256"], doc["parameters"]["truncation"]
        runs.append((code, json.dumps(doc, sort_keys=True)))
    assert runs[0] == runs[1]


BAD_OPTIONS = [
    ("analyze", "--eps-schedule=nan"),
    ("analyze", "--eps-schedule=inf,0.1"),
    ("analyze", "--margin-tol=nan"),
    ("analyze", "--margin-tol=-1e-6"),
    ("analyze", "--moduli-samples=0"),
    ("analyze", "--probe-dirs=-3"),
    ("analyze", "--truncation=-5"),
    ("analyze", "--seed=-1"),
    ("solve", "--max-iters=0"),
    ("solve", "--multistart=0"),
]


@pytest.mark.parametrize("command,option", BAD_OPTIONS)
def test_bad_numeric_option_is_validation_error(command, option, capsys):
    argv = [command, str(INSTANCES / "convex_toy.sip"), option]
    if command == "analyze":
        argv.append("--point=-0.5,-0.5")
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_slater_search_domain_error_is_not_a_crash(tmp_path, capsys):
    # the Slater search starts at the origin, where sqrt(x1^2 + t) has no
    # gradient at t = 0; analyze must still report
    import jsonschema

    path = tmp_path / "sqrt.sip"
    path.write_text(
        "[problem]\nvars = x1 x2\nminimize = x1\nconvex = true\nbox = -2 2 ; -2 2\n\n"
        "[index t]\nkind = interval\na = 0\nb = 1\nresolution = 9\nrefinements = 1\n\n"
        "[constraints]\ng(t) = sqrt(x1^2 + t) - 2\n"
    )
    code, out, err = run_cli(
        ["analyze", str(path), "--point=0.5,-0.5", "--report=json", "--deterministic"], capsys
    )
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, json.loads(SCHEMA.read_text()))
    ssc = doc["cq"]["ssc"]
    # the origin's row t = 0 has a NaN gradient, but its worst row, t = 1,
    # reads -1: the origin is the Slater point
    assert ssc["verdict"] == "holds"
    point = np.array(ssc["slater_point"], dtype=float)
    assert model.scan_constraints(model.load_instance(path), point).argmax()[0] < 0.0


def test_seed_leaves_the_slater_search_alone(capsys):
    # --seed moves the moduli samples and probe directions, not cq.ssc
    docs = []
    for seed in ("0", "7"):
        code, out, _ = run_cli(["analyze", str(INSTANCES / "convex_toy.sip"), "--point=-0.5,-0.5",
                                f"--seed={seed}", "--report=json", "--deterministic"], capsys)
        assert code == EXIT_OK
        docs.append(json.loads(out))
    assert docs[0]["cq"]["ssc"] == docs[1]["cq"]["ssc"]
    assert docs[0]["cq"]["ssc"]["verdict"] == "holds"


# three variables, so the probes past the axis pairs come from the sequence
AFFINE_3D = """[problem]
vars = x1 x2 x3
minimize = x1^2 + x2^2 + x3^2
convex = true
box = -2 2 ; -2 2 ; -2 2

[index t]
kind = interval
a = 0
b = 1
resolution = 33
refinements = 1

[constraints]
g(t) = t*x1^2 + (1 - t)*x2^2 - x3 - 1

[equalities]
h = x1 + x2 + x3 + 1
affine = true
"""


def _analyze_without_rng(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze drew from numpy's random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, out, _ = run_cli(["analyze", *argv, "--report=json", "--deterministic"], capsys)
    assert code == EXIT_OK
    return json.loads(out)


def test_analyze_reads_no_random_generator(tmp_path, monkeypatch, capsys):
    _analyze_without_rng([str(INSTANCES / "parabola_band.sip"), "--point=0,1"],
                         monkeypatch, capsys)
    path = tmp_path / "affine_3d.sip"
    path.write_text(AFFINE_3D)
    docs = [_analyze_without_rng([str(path), "--point=0,0,-1", f"--seed={seed}"],
                                 monkeypatch, capsys) for seed in (0, 7)]
    assert [doc["parameters"]["probe_dirs"] for doc in docs] == [16, 16]
    # the seed moves the moduli and the probe directions past the 6 axis pairs, and
    # nothing else
    moved = []
    for doc in docs:
        moved.append((doc["parameters"].pop("seed"), doc.pop("moduli"),
                      [cone.pop("probes") for cone in doc["normal_cones"]]))
    assert docs[0] == docs[1]
    assert moved[0][1] != moved[1][1]
    probes = [[p["direction"] for p in cones[0]] for _, _, cones in moved]
    assert probes[0][:6] == probes[1][:6]
    assert all(a != b for a, b in zip(probes[0][6:], probes[1][6:]))


def test_text_report_gives_the_emfcq_and_pmfcq_reasons(tmp_path, capsys):
    # h's x1 partial is inf at the origin, so both read unknown, and say why
    path = tmp_path / "infinite_jacobian.sip"
    path.write_text("[problem]\nvars = x1 x2 x3\nminimize = x1^2 + x2^2 + x3^2\n\n"
                    "[constraints]\ng1 = x3 - 1\n\n[equalities]\nh = x1*1e308*1e308 + x2\n")
    code, out, _ = run_cli(["analyze", str(path), "--point=0,0,0"], capsys)
    assert code == EXIT_OK
    reason = "(an equality Jacobian entry is not finite)"
    assert f"  EMFCQ: unknown  margin=None  {reason}\n" in out
    assert f"  PMFCQ: unknown  stabilized_eps=None  {reason}\n" in out


# the bundled instances at the points of their golden reports
ANALYZE_POINTS = {
    "countable_cubic": "-1,0",
    "interval_ramp": "-1,0",
    "parabola_band": "0,1",
    "convex_toy": "-0.5,-0.5",
}


# cones whose columns a default report copies: the perturbed and unperturbed
# cones, plus interval_ramp's largest-eps cone once its smallest one refutes
COLUMN_COPIES = {"countable_cubic": 2, "interval_ramp": 3, "parabola_band": 2, "convex_toy": 2}


@pytest.mark.parametrize("variants,cones", [("perturbed,unperturbed", 2),
                                            ("perturbed,unperturbed,normalized", 3)])
@pytest.mark.parametrize("name", sorted(ANALYZE_POINTS))
def test_report_builds_each_normal_cone_once(name, variants, cones, monkeypatch, capsys):
    calls = []
    init = GeneratedCone.__post_init__
    monkeypatch.setattr(GeneratedCone, "__post_init__",
                        lambda cone: calls.append("GeneratedCone") or init(cone))

    def count(attr, *modules):
        fn = getattr(modules[0], attr)

        def counted(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, attr, counted)

    count("normal_cone", optimality, cli)
    count("hull_plus_cone_feasibility", linsolve)
    code, _, _ = run_cli(
        ["analyze", str(INSTANCES / f"{name}.sip"), f"--point={ANALYZE_POINTS[name]}",
         "--variant", variants, "--deterministic"],
        capsys,
    )
    assert code == EXIT_OK
    assert calls.count("normal_cone") == cones
    # the normalized cone is copied once, for its probes
    assert calls.count("GeneratedCone") == COLUMN_COPIES[name] + variants.count("normalized")
    if name == "convex_toy":  # KKT; perturbed stationarity and the convex check reuse it
        assert calls.count("hull_plus_cone_feasibility") == 1


def test_closed_interval_nfmcq_holds(tmp_path, capsys):
    # a closed interval is compact, so there is no tail to extrapolate and
    # the hull-gap LP decides NFMCQ
    path = tmp_path / "closed.sip"
    path.write_text(
        "[problem]\nvars = x1 x2\nminimize = x1^2 + x2^2\nconvex = true\nbox = -2 2 ; -2 2\n\n"
        "[index t]\nkind = interval\na = 0\nb = 1\nresolution = 257\nrefinements = 4\n\n"
        "[constraints]\ng(t) = x1 - 1 + t\n"
    )
    code, out, _ = run_cli(["analyze", str(path), "--point=0,0"], capsys)
    assert code == EXIT_OK
    assert "NFMCQ: holds" in out
    assert "origin-hull gap 1.000e+00" in out


def test_convex_toy_solves_each_pmfcq_mask_once(lp_counts, capsys):
    # every eps of the schedule has the same active mask at every level:
    # one margin LP for EMFCQ and one for PMFCQ
    code, _, _ = run_cli(
        ["analyze", str(INSTANCES / "convex_toy.sip"), "--point=-0.5,-0.5"], capsys
    )
    assert code == EXIT_OK
    assert lp_counts["margin"] <= 2


def test_probes_reuse_separators_across_variants(lp_counts, capsys):
    # the 16 probes of each variant: a separator checked again refutes a
    # probe without an LP
    code, _, _ = run_cli(
        ["analyze", str(INSTANCES / "countable_cubic.sip"), "--point=-1,0"], capsys
    )
    assert code == EXIT_OK
    assert lp_counts["cone feasibility"] <= 14


def test_perturbed_stationarity_reuses_the_kkt_lp(lp_counts, monkeypatch, tmp_path, capsys):
    # the smallest-eps cone holds only the active row t = 1 and no limit ray,
    # so it is the KKT cone: one hull LP fewer, and the same report
    path = tmp_path / "closed.sip"
    path.write_text(
        "[problem]\nvars = x1 x2\nminimize = (x1 - 1)^2 + x2^2\nconvex = true\n"
        "box = -2 2 ; -2 2\n\n[index t]\nkind = interval\na = 0\nb = 1\n"
        "resolution = 257\nrefinements = 4\n\n[constraints]\ng(t) = x1 - 1 + t\n"
    )
    argv = ["analyze", str(path), "--point=0,0", "--deterministic", "--report=json"]
    code, reused, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    hull_lps = lp_counts["hull feasibility"]
    lp_counts.clear()
    verify = cli.verify_perturbed_stationarity
    monkeypatch.setattr(cli, "verify_perturbed_stationarity",
                        lambda *args, kkt=None, **kwargs: verify(*args, **kwargs))
    code, solved, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    assert lp_counts["hull feasibility"] == hull_lps + 1
    assert reused == solved
    doc = json.loads(reused)
    assert [s["outcome"] for s in doc["stationarity"]] == ["certificate"] * 3


class TestJsonReport:
    def test_schema_validates(self, tmp_path, capsys):
        import jsonschema

        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            [
                "analyze",
                str(INSTANCES / "countable_cubic.sip"),
                "--point=-1,0",
                "--deterministic",
                "--report=text",
                f"--json-out={out_path}",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        schema = json.loads(SCHEMA.read_text())
        jsonschema.validate(doc, schema)
        assert doc["cq"]["pmfcq"]["verdict"] == "holds"
        assert doc["cq"]["nfmcq"]["verdict"] == "fails"

    def test_ssc_cut_certificate_is_reported(self, tmp_path, capsys):
        # the vanishing-gradient family of the small analyze batch: SSC fails
        # with a cut certificate, and only such a report carries its keys
        import jsonschema

        path, out_path = tmp_path / "vanishing.sip", tmp_path / "report.json"
        path.write_text(VANISHING_GRADIENT)
        code, out, _ = run_cli(["analyze", str(path), "--point=0,0", "--deterministic",
                                "--report=text", f"--json-out={out_path}"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        jsonschema.validate(doc, json.loads(SCHEMA.read_text()))
        ssc = doc["cq"]["ssc"]
        assert ssc["verdict"] == "fails" and ssc["lower_bound"] >= -1e-9
        assert [sorted(c) for c in ssc["cuts"]] == [["label", "point", "weight"]]
        assert ssc["cuts"][0]["label"] == "g(0.52)" and ssc["cuts"][0]["weight"] == 1.0
        assert f"SSC:   fails  lower_bound={ssc['lower_bound']:.3e} cuts=1  (" in out
        assert doc["cq"]["emfcq"]["verdict"] == "fails"
        code, out, _ = run_cli(["analyze", str(INSTANCES / "convex_toy.sip"),
                                "--point=-0.5,-0.5", "--deterministic", "--report=json"], capsys)
        assert "cuts" not in json.loads(out)["cq"]["ssc"]

    def test_text_and_json_verdicts_agree(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            [
                "analyze",
                str(INSTANCES / "interval_ramp.sip"),
                "--point=-1,0",
                "--deterministic",
                f"--json-out={out_path}",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        for name in ("emfcq", "pmfcq", "nfmcq", "ssc"):
            assert f"{name.upper()[:5]}"[:5]  # names present below
        assert ("PMFCQ: " + doc["cq"]["pmfcq"]["verdict"]) in out
        assert ("EMFCQ: " + doc["cq"]["emfcq"]["verdict"]) in out
        assert ("NFMCQ: " + doc["cq"]["nfmcq"]["verdict"]) in out

    def test_deterministic_reruns_byte_identical(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            out_path = tmp_path / f"report{i}.json"
            code, _, _ = run_cli(
                [
                    "analyze",
                    str(INSTANCES / "convex_toy.sip"),
                    "--point=-0.5,-0.5",
                    "--deterministic",
                    "--seed=11",
                    f"--json-out={out_path}",
                ],
                capsys,
            )
            assert code == EXIT_OK
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_round_trip_lossless(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        run_cli(
            [
                "analyze",
                str(INSTANCES / "parabola_band.sip"),
                "--point=0,0",
                "--deterministic",
                f"--json-out={out_path}",
            ],
            capsys,
        )
        text = out_path.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


class TestSolveCommand:
    def test_solve_convex_toy(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            [
                "solve",
                str(INSTANCES / "convex_toy.sip"),
                "--deterministic",
                f"--json-out={out_path}",
            ],
            capsys,
        )
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        np.testing.assert_allclose(doc["solver"]["candidate"], [-0.5, -0.5], atol=1e-6)
        assert doc["solver"]["status"] == "converged"
        kkt = [s for s in doc["stationarity"] if s["condition"] == "unperturbed-kkt"][0]
        assert kkt["outcome"] == "certificate"
        glob = [s for s in doc["stationarity"] if s["condition"] == "convex-global"][0]
        assert glob["global_optimal"] is True

    def test_solver_limit_exit_code(self, capsys):
        code, out, err = run_cli(
            [
                "solve",
                str(INSTANCES / "interval_ramp.sip"),
                "--max-iters=2",
                "--multistart=2",
            ],
            capsys,
        )
        assert code in (EXIT_OK, EXIT_SOLVER_LIMIT)
        if code == EXIT_SOLVER_LIMIT:
            assert "iteration limit" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_polish_system_hits_limit(self, tmp_path, capsys):
        # the polish's least-squares input is NaN here; LAPACK must not see it
        path = tmp_path / "nan_equality.sip"
        path.write_text(NAN_EQUALITY)
        code, out, err = run_cli(["solve", str(path), "--max-iters=3", "--multistart=2"], capsys)
        assert code == EXIT_SOLVER_LIMIT
        assert "solver: iteration_limit after 3 iterations" in out
        assert "equality residual inf" in out
        assert "iteration limit" in err

    def test_overflowing_equality_penalty_is_not_a_crash(self, tmp_path, capsys):
        # the squared residual of h near x1 = 2 exceeds the float range; the
        # penalty takes it as inf instead of raising OverflowError
        path = tmp_path / "huge_equality.sip"
        path.write_text(HUGE_EQUALITY)
        code, out, err = run_cli(["solve", str(path), "--seed", "0"], capsys)
        assert code == EXIT_OK
        assert "point: [0.1, 0.0]" in out
        assert err == ""

    def test_non_finite_report_is_strict_json(self, tmp_path):
        # the infinite residuals reach the report as "inf" strings, never as
        # bare Infinity tokens, and kernel overflow prints no RuntimeWarning
        import jsonschema

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        path = tmp_path / "nan_equality.sip"
        path.write_text(NAN_EQUALITY)
        src = Path(sipcert.__file__).resolve().parent.parent
        run = subprocess.run(
            [sys.executable, "-m", "sipcert.cli", "solve", str(path), "--max-iters=3",
             "--multistart=2", "--report=json", "--deterministic"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert run.returncode == EXIT_SOLVER_LIMIT
        assert run.stderr == "error: solver hit its iteration limit\n"
        doc = json.loads(run.stdout, parse_constant=reject)
        jsonschema.validate(doc, json.loads(SCHEMA.read_text()))
        assert doc["feasibility"]["equality_residual"] == "inf"
        assert [r["max_violation"] for r in doc["solver"]["records"]] == ["inf"] * 3
