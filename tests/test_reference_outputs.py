"""The shipped reference tables under out/ regenerate from the shipped
scenarios.

Each out/ directory is rebuilt with the command line into a temporary
directory and compared file by file: CSV tables byte for byte, JSON
documents structurally with numbers equal to 1e-12 relative. A change
that moves any printed digit fails here and has to update out/ (and say
why) on purpose. A new tracked out/ directory needs its commands in RUNS.
"""

import json
import math
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

JSON_REL_TOL = 1e-12


def _assert_json_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isfinite(got), where
        assert abs(got - want) <= JSON_REL_TOL * max(abs(got), abs(want)), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


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
        got_path, want_path = out / name, reference / name
        if name.endswith(".json"):
            _assert_json_close(json.loads(got_path.read_text(encoding="utf-8")),
                               json.loads(want_path.read_text(encoding="utf-8")),
                               f"{subdir}/{name}")
        else:
            assert got_path.read_bytes() == want_path.read_bytes(), f"{subdir}/{name}"
