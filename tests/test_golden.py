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
  its iteration limit) and still prints its report;
- `PYTHONPATH=src python tests/test_golden.py <name>...` rewrites the
  entries of the named instances in `tests/golden/solve_seeds.json` (the
  seed 1-5 digests below) and leaves the other entries as they are;
- `PYTHONPATH=src python tests/test_golden.py --all` runs the commands
  above for every case: it rewrites each analyze and solve golden and every
  seed digest, and on an unchanged tree leaves every file as it was.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
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


def _report(argv):
    """(exit code, JSON report) of a `sipcert` command run in the repo root."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([*argv, "--deterministic", "--report", "json"])
    return code, out.getvalue()


def _analyze_golden(name):
    return _report(["analyze", *CASES[name]])


def _solve_golden(name):
    return _report(["solve", f"instances/{name}.sip", *SOLVE_ARGS])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = _analyze_golden(name)
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SOLVE_EXIT))
def test_solve_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = _solve_golden(name)
    assert code == SOLVE_EXIT[name]
    assert out == (GOLDEN / f"solve_{name}.json").read_text(encoding="utf-8")


# sha256 of the `solve` JSON report for seeds 1-5 with the golden solve
# arguments, so bit-identity of the solver is pinned beyond seed 0. Written
# once from the code that committed it; regenerate only when solve reports
# are meant to change, and say why in CHANGES.md.
SEED_DIGESTS = GOLDEN / "solve_seeds.json"
SEED_INSTANCES = ("convex_toy", "parabola_band", "countable_cubic", "interval_ramp")
SEEDS = (1, 2, 3, 4, 5)


def _solve_digest(name, seed):
    args = ["--max-iters", "6", "--multistart", "4", "--seed", str(seed)]
    code, out = _report(["solve", f"instances/{name}.sip", *args])
    return {"exit": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


def _seed_digests(name):
    return {str(s): _solve_digest(name, s) for s in SEEDS}


@pytest.mark.parametrize("name", SEED_INSTANCES)
def test_solve_seed_digests(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(SEED_DIGESTS.read_text(encoding="utf-8"))[name]
    assert _seed_digests(name) == expected


def _write_golden(path, code, out, expected_code):
    if code != expected_code:
        sys.exit(f"{path.name}: exit {code}, the golden records exit {expected_code}")
    path.write_text(out, encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    names = sys.argv[1:]
    if names == ["--all"]:
        for name in CASES:
            _write_golden(GOLDEN / f"{name}.json", *_analyze_golden(name), EXIT_OK)
        for name, expected_code in SOLVE_EXIT.items():
            _write_golden(GOLDEN / f"solve_{name}.json", *_solve_golden(name), expected_code)
        names = list(SEED_INSTANCES)
    unknown = sorted(set(names) - set(SEED_INSTANCES))
    if unknown:
        sys.exit(f"not a seed instance: {' '.join(unknown)}")
    digests = json.loads(SEED_DIGESTS.read_text(encoding="utf-8"))
    digests.update({name: _seed_digests(name) for name in names})
    SEED_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
