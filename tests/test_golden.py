"""Golden reports: `analyze` and `solve` with `--deterministic --report json`
on the bundled instances must stay byte-identical to the files under
tests/golden/, and must exit with the recorded code.

Regenerate a golden only when a report is meant to change, and say why in
CHANGES.md. From the repo root:

- `sipcert analyze instances/<name>.sip --point=<p> --deterministic --report json`
  writes `tests/golden/<name>.json`;
- `sipcert solve instances/<name>.sip --deterministic --report json
  --max-iters 6 --multistart 4 --seed 0` writes
  `tests/golden/solve_<name>.json`. interval_ramp exits 4 (the solver hits
  its iteration limit) and still prints its report.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sipcert.cli import EXIT_OK, EXIT_SOLVER_LIMIT, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "countable_cubic": ["instances/countable_cubic.sip", "--point=-1,0"],
    "interval_ramp": ["instances/interval_ramp.sip", "--point=-1,0"],
    "parabola_band": ["instances/parabola_band.sip", "--point=0,1"],
    "convex_toy": ["instances/convex_toy.sip", "--point=-0.5,-0.5"],
    "countable_cubic_all_variants": [
        "instances/countable_cubic.sip",
        "--point=-1,0",
        "--variant",
        "perturbed,unperturbed,normalized",
    ],
}

SOLVE_ARGS = ["--max-iters", "6", "--multistart", "4", "--seed", "0"]

SOLVE_EXIT = {
    "convex_toy": EXIT_OK,
    "countable_cubic": EXIT_OK,
    "interval_ramp": EXIT_SOLVER_LIMIT,
    "parabola_band": EXIT_OK,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(["analyze", *CASES[name], "--deterministic", "--report", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SOLVE_EXIT))
def test_solve_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(
        ["solve", f"instances/{name}.sip", *SOLVE_ARGS, "--deterministic", "--report", "json"]
    )
    out = capsys.readouterr().out
    assert code == SOLVE_EXIT[name]
    assert out == (GOLDEN / f"solve_{name}.json").read_text(encoding="utf-8")


# sha256 of the `solve` JSON report for seeds 1-5 with the golden solve
# arguments, so bit-identity of the solver is pinned beyond seed 0. Written
# once from the code that committed it; regenerate only when solve reports
# are meant to change, and say why in CHANGES.md.
SEED_DIGESTS = GOLDEN / "solve_seeds.json"
SEED_INSTANCES = ("convex_toy", "parabola_band", "countable_cubic", "interval_ramp")
SEEDS = (1, 2, 3, 4, 5)


def _solve_digest(name, seed, capsys):
    args = ["--max-iters", "6", "--multistart", "4", "--seed", str(seed)]
    code = main(["solve", f"instances/{name}.sip", *args, "--deterministic", "--report", "json"])
    out = capsys.readouterr().out
    return {"exit": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("name", SEED_INSTANCES)
def test_solve_seed_digests(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    expected = json.loads(SEED_DIGESTS.read_text(encoding="utf-8"))[name]
    assert {str(s): _solve_digest(name, s, capsys) for s in SEEDS} == expected
