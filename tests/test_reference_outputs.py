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

from cxva.cli import _option_sweep_points, main
from cxva.scenario import Scenario

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
    "forward_sweep": [["sweep", "atm_forward.json"]],
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


# The forward sweep's cells (cra_long, xva_long, cra_short, xva_short at
# collateralization 0, 0.1, ..., 1) on a 1600 x 1600 grid: the shipped
# atm_forward.json with grid.s_nodes and grid.t_steps set to 1600,
# evaluated by cli._option_sweep_points and printed with repr.
U_1600 = (
    (0.24628654481481904, 0.24628654481481904, 0.2045542941179893, 0.2045542941179893),
    (0.22211341896417602, 0.222885935977161, 0.18450481171799404, 0.18332587959069258),
    (0.1978399816571511, 0.19943274183761472, 0.16436594371716018, 0.16204949533567914),
    (0.17346588754317627, 0.1759268468446331, 0.14413738431784917, 0.14072504262924757),
    (0.148990792710458, 0.15236813742198363, 0.12381882602625394, 0.11935242204033647),
    (0.1244143540528686, 0.12875650172073094, 0.10340995942983044, 0.0979315328515783),
    (0.09973622872814825, 0.10509182917697257, 0.08291047288786035, 0.07646227295959662),
    (0.0749560739452525, 0.08137400995216593, 0.062320052495964284, 0.05494453868326932),
    (0.050073557842484906, 0.05760294600868543, 0.04163838129662334, 0.03337822430033255),
    (0.025088335343821933, 0.03377852698471484, 0.02086513883661756, 0.011763221265596813),
    (0.0, 0.009900582693963655, 0.0, -0.009900582693963655),
)
# |u_200 - u_1600| of each cell on the shipped 200 x 200 grid, rounded up
# at the third significant digit (README, "Reference outputs")
ERROR_200 = (
    (6.8e-05, 6.8e-05, 3.58e-05, 3.58e-05),
    (5.94e-05, 5.93e-05, 3.33e-05, 3.33e-05),
    (5.12e-05, 5.11e-05, 3.06e-05, 3.06e-05),
    (4.34e-05, 4.33e-05, 2.77e-05, 2.76e-05),
    (3.61e-05, 3.59e-05, 2.45e-05, 2.45e-05),
    (2.91e-05, 2.89e-05, 2.11e-05, 2.11e-05),
    (2.25e-05, 2.23e-05, 1.74e-05, 1.74e-05),
    (1.63e-05, 1.61e-05, 1.35e-05, 1.35e-05),
    (1.05e-05, 1.03e-05, 9.28e-06, 9.31e-06),
    (5.07e-06, 4.92e-06, 4.8e-06, 4.87e-06),
    (0.0, 1.19e-07, 0.0, 1.19e-07),
)


def test_forward_sweep_grid_error_does_not_grow():
    rows = _option_sweep_points(Scenario.load(SCENARIO_DIR / "atm_forward.json"), 11)
    for row, want, bound in zip(rows, U_1600, ERROR_200):
        errors = [abs(u - w) for u, w in zip(row[1:], want)]
        assert all(e <= b for e, b in zip(errors, bound)), (row[0], errors, bound)
