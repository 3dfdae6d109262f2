import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cxva.optimizer
from cxva.cli import main
from cxva.simplex import solve_bounded_lp

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, name="scenario.json", **overrides):
    base = {
        "seed": 7,
        "curves": {"risk_free": {"flat": 0.01}},
        "parties": {
            "b": {"bond_spread": 0.0125, "liquidity_spread": 0.005},
            "c": {"bond_spread": 0.03, "liquidity_spread": 0.01},
        },
        "collateral": {"mode": "noncash", "collateralization": 1.0,
                       "repo_spread": 0.01},
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base), encoding="utf-8")
    return path


OPTION_BLOCK = {"payoff": "call", "strike": 100.0, "spot": 100.0, "vol": 0.5,
                "maturity": 1.0}
SMALL_GRID = {"s_nodes": 100, "t_steps": 100}
SMALL_PORTFOLIO = {"n": 60, "payer_frac": 0.9, "maturity_min": 0.25,
                   "maturity_max": 20.0, "rate_band": 0.01,
                   "rate_offset": 0.02, "profile_points": 41}


def run(args):
    return main([str(a) for a in args])


def set_key(path: Path, dotted: str, value) -> None:
    """Set the scenario entry at a dotted key path."""
    raw = json.loads(path.read_text())
    *parents, leaf = dotted.split(".")
    node = raw
    for key in parents:
        node = node[key]
    node[leaf] = value
    path.write_text(json.dumps(raw))


def validation_message(capsys) -> str:
    """The message of the single JSON validation error on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])["error"]
    assert err["type"] == "validation"
    return err["message"]


def test_import_does_not_load_scipy():
    # scipy is loaded on the first PDE solve, not by every command
    src = str(Path(cxva.optimizer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, cxva.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestPrice:
    def test_writes_json(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        code = run(["price", "--scenario", sc, "--out", tmp_path / "out"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "price.json").read_text())
        assert set(payload) == {"npv", "v_star", "xva"}
        assert payload["v_star"] - payload["npv"] == pytest.approx(payload["xva"])

    def test_forward_at_risk_free_matches_closed_form(self, tmp_path, capsys):
        # fully collateralized with cash earning risk-free: r_e = r, so both
        # values are the forward S exp(-qT) - K exp(-rT)
        option = dict(OPTION_BLOCK, payoff="forward", strike=90.0, div_yield=0.02)
        sc = write_scenario(tmp_path, option=option, grid=SMALL_GRID,
                            collateral={"mode": "cash_comingled",
                                        "collateralization": 1.0})
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        payload = json.loads((tmp_path / "out" / "price.json").read_text())
        closed = 100.0 * math.exp(-0.02) - 90.0 * math.exp(-0.01)
        # the implicit Rannacher half-steps leave about 1e-7 relative; a
        # 1bp rate error would move the values by about 1e-4
        assert payload["v_star"] == pytest.approx(closed, rel=1e-6)
        assert payload["npv"] == pytest.approx(closed, rel=1e-6)
        assert payload["xva"] == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("path", ["option.vol", "option.spot", "option.maturity",
                                      "option.strike", "option.div_yield",
                                      "grid.s_max_mult"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, path, value):
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=dict(SMALL_GRID))
        set_key(sc, path, value)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert path.split(".")[1] in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    def test_missing_curve_file_exits_2(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, option=OPTION_BLOCK,
                            curves={"risk_free": {"file": "missing.csv"}})
        code = run(["price", "--scenario", sc, "--out", tmp_path / "out"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["price", "--scenario", bad, "--out", tmp_path / "o"]) == 2

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert run(["price", "--scenario", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 2


class TestSweep:
    def test_option_sweep_structure(self, tmp_path):
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        assert run(["sweep", "--scenario", sc, "--out", tmp_path / "out",
                    "--points", "3"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "collateralization,cra_long,xva_long,cra_short,xva_short"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == 0.0  # CRA vanishes at full collateralization
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(float(first[2]))  # xva = cra at 0

    def test_portfolio_sweep_structure(self, tmp_path):
        sc = write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO,
                            quadrature_steps=41)
        assert run(["sweep", "--scenario", sc, "--out", tmp_path / "out",
                    "--points", "5"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "collateralization,cra,lva,xva"
        first = lines[1].split(",")
        assert float(first[2]) == 0.0  # LVA vanishes uncollateralized
        last = lines[-1].split(",")
        assert float(last[1]) == 0.0

    def test_needs_work_block(self, tmp_path):
        sc = write_scenario(tmp_path)
        assert run(["sweep", "--scenario", sc, "--out", tmp_path / "o"]) == 2


class TestXva:
    def test_table_shape(self, tmp_path):
        sc = write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO,
                            quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        lines = (tmp_path / "out" / "xva_table.csv").read_text().strip().splitlines()
        assert lines[0] == "row,0,0.5,1"
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        assert set(rows) == {"NPV", "XVA", "LVA", "CRA", "CVA", "DVA", "CFA", "DFA"}
        # full-collateral column kills the CRA components
        for name in ("CVA", "DVA", "CFA", "DFA"):
            assert float(rows[name][2]) == 0.0
        assert float(rows["LVA"][0]) == 0.0

    @pytest.mark.parametrize("path", ["parties.c.bond_spread",
                                      "collateral.repo_spread"])
    def test_nan_input_exits_2(self, tmp_path, capsys, path):
        sc = write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO,
                            quadrature_steps=41)
        set_key(sc, path, float("nan"))
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert not (tmp_path / "out" / "xva_table.csv").exists()

    @pytest.mark.parametrize("key, value, field", [
        ("rate_band", float("nan"), "rate_band"),
        ("rate_band", float("inf"), "rate_band"),
        ("rate_band", -1.0, "rate_band"),
        ("maturity_max", float("nan"), "maturity_range"),
        ("maturity_max", float("inf"), "maturity_range"),
        ("maturity_min", float("nan"), "maturity_range"),
        ("rate_offset", float("inf"), "rate_offset"),
        ("notional", float("inf"), "notional"),
    ])
    def test_bad_portfolio_input_exits_2(self, tmp_path, capsys, key, value, field):
        sc = write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=20),
                            quadrature_steps=41)
        set_key(sc, f"portfolio.{key}", value)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert field in validation_message(capsys)
        assert not (tmp_path / "out").exists()


class TestRepoCurve:
    def test_shipped_scenario(self, tmp_path):
        assert run(["repo-curve", "--scenario", SCENARIO_DIR / "repo_ust10.json",
                    "--out", tmp_path / "out"]) == 0
        lines = (tmp_path / "out" / "repo_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "tenor_years,spread,repo_rate"
        short_end = lines[1].split(",")
        assert float(short_end[1]) == pytest.approx(0.0014)  # RoE*EC + mu0

    @pytest.mark.parametrize("path, value", [
        ("repo.roe", float("nan")),
        ("repo.expected_gap_loss", float("inf")),
        ("curves.risk_free", {"nodes": [[1.0, float("nan")], [2.0, 0.01]]}),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, path, value):
        raw = json.loads((SCENARIO_DIR / "repo_ust10.json").read_text())
        raw["assets_file"] = str(SCENARIO_DIR / raw["assets_file"])
        for spec in raw["curves"].values():
            spec["file"] = str(SCENARIO_DIR / spec["file"])
        sc = tmp_path / "repo.json"
        sc.write_text(json.dumps(raw))
        set_key(sc, path, value)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "finite" in err["error"]["message"]
        assert not (tmp_path / "out" / "repo_curve.csv").exists()


class TestOptimize:
    def _scenario(self, tmp_path, quantity=200.0):
        assets_csv = tmp_path / "assets.csv"
        assets_csv.write_text(
            "id,price,quantity,h_csa,h_repo,h_lcr,ec_AA,ec_A,ec_BBB,ec_BB\n"
            "BOND_A,1,100,0.05,0.03,0,0.001,0.002,0.004,0.008\n"
            "BOND_B,1,100,0.1,0.12,0.15,0.002,0.004,0.008,0.016\n")
        return write_scenario(
            tmp_path, assets_file="assets.csv", quadrature_steps=41,
            repo={"roe": 0.10},
            optimizer={
                "quantity": quantity, "tol": 0.01, "max_iter": 4,
                "netting_sets": [
                    {"id": "S1", "rating": "A", "target_mtm": -50.0,
                     "portfolio": dict(SMALL_PORTFOLIO)},
                    {"id": "S2", "rating": "BBB", "target_mtm": -30.0,
                     "portfolio": dict(SMALL_PORTFOLIO, payer_frac=0.8)},
                ]})

    def test_optimize_outputs(self, tmp_path):
        sc = self._scenario(tmp_path)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        summary = json.loads((tmp_path / "out" / "optimize_summary.json").read_text())
        assert summary["status"] == "converged"
        assert (tmp_path / "out" / "unit_lva.csv").exists()
        assert (tmp_path / "out" / "allocation_0.csv").exists()
        alloc = (tmp_path / "out" / "allocation_0.csv").read_text().strip().splitlines()
        assert alloc[0] == "asset,S1,S2"
        assert alloc[-1].startswith("updated_mtm,")

    def test_infeasible_exits_3(self, tmp_path, capsys):
        sc = self._scenario(tmp_path, quantity=1.0)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "solver"

    def test_solver_breakdown_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cxva.optimizer, "solve_bounded_lp",
                            functools.partial(solve_bounded_lp, max_iter=1))
        sc = self._scenario(tmp_path)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "solver"
        assert err["error"]["class"] == "LpSolverError"

    @pytest.mark.parametrize("key", ["quantity", "hqla_floor", "tol"])
    def test_nan_input_exits_2(self, tmp_path, capsys, key):
        sc = self._scenario(tmp_path)
        raw = json.loads(sc.read_text())
        raw["optimizer"][key] = float("nan")
        sc.write_text(json.dumps(raw))
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert not (tmp_path / "o").exists()


class TestDeterminism:
    def _bytes(self, out_dir: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_same_seed_identical_outputs(self, tmp_path):
        sc = write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO,
                            quadrature_steps=41)
        for cmd in (["sweep", "--points", "5"], ["xva"]):
            run([cmd[0], "--scenario", sc, "--out", tmp_path / "a"] + cmd[1:])
            run([cmd[0], "--scenario", sc, "--out", tmp_path / "b"] + cmd[1:])
            assert self._bytes(tmp_path / "a") == self._bytes(tmp_path / "b")

    def test_seed_override_changes_portfolio_outputs(self, tmp_path):
        sc = write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO,
                            quadrature_steps=41)
        run(["xva", "--scenario", sc, "--out", tmp_path / "a"])
        run(["xva", "--scenario", sc, "--out", tmp_path / "c", "--seed", "99"])
        assert (tmp_path / "a" / "xva_table.csv").read_bytes() \
            != (tmp_path / "c" / "xva_table.csv").read_bytes()
