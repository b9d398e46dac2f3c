"""Golden reports: `analyze --deterministic --report json` on the bundled
instances must stay byte-identical to the files under tests/golden/.

Regenerate a golden only when a report is meant to change, and say why in
CHANGES.md: from the repo root,
`sipcert analyze instances/<name>.sip --point=<p> --deterministic --report json`.
"""

from pathlib import Path

import pytest

from sipcert.cli import EXIT_OK, main

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(["analyze", *CASES[name], "--deterministic", "--report", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
