import json
from pathlib import Path

import numpy as np
import pytest

from sipcert.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_SOLVER_LIMIT, EXIT_VALIDATION, main

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
SCHEMA = ROOT / "docs" / "report_schema.json"


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
