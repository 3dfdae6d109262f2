"""The shipped reference tables under out/ regenerate from the shipped
scenarios.

Each out/ directory is rebuilt with the command line into a temporary
directory and compared file by file, CSV tables and JSON documents byte
for byte. A change that moves any printed digit fails here and has to
update out/ (and say why) on purpose. A new tracked out/ directory needs
its commands in RUNS.
"""

from pathlib import Path

import pytest

from cxva.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
REFERENCE_DIR = ROOT / "out"

# out/ subdirectory -> the commands that write it, in order
RUNS = {
    "portfolio": [["xva", "payer_book.json"], ["sweep", "payer_book.json"]],
    "portfolio_10bp": [["xva", "treasuries_repo_lva.json"]],
    "allocation": [["optimize", "allocation_reference.json"]],
    "repo": [["repo-curve", "repo_ust10.json"]],
    "option_sweep": [["sweep", "atm_call.json"]],
}


@pytest.mark.parametrize("subdir", sorted(RUNS))
def test_reference_outputs_regenerate(subdir, tmp_path):
    out = tmp_path / subdir
    for command, scenario in RUNS[subdir]:
        assert main([command, "--scenario", str(SCENARIO_DIR / scenario),
                     "--out", str(out)]) == 0
    reference = REFERENCE_DIR / subdir
    want = sorted(p.name for p in reference.iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for name in want:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), f"{subdir}/{name}"
