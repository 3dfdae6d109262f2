import collections
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cxva.cli
import cxva.exposure
import cxva.optimizer
import cxva.pde
import cxva.scenario
import cxva.simplex
import cxva.xva
from cxva.cli import main
from cxva.discounting import MODES
from cxva.pde import MAX_GRID_SIZE
from cxva.scenario import MAX_SWEEP_POINTS

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
    """Set the scenario entry at a dotted key path (``name[i]`` indexes an array)."""
    raw = json.loads(path.read_text())
    *parents, leaf = dotted.split(".")
    node = raw
    for key in parents:
        name, _, index = key.partition("[")
        node = node[name] if not index else node[name][int(index[:-1])]
    node[leaf] = value
    path.write_text(json.dumps(raw))


def validation_message(capsys) -> str:
    """The message of the single JSON validation error on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])["error"]
    assert err["type"] == "validation"
    return err["message"]


def fail_if_reached(name: str):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} reached")
    return fail


def optimize_scenario(tmp_path, quantity=200.0):
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

    @pytest.mark.parametrize("value", [1e300, cxva.exposure.MAX_MATURITY * (1.0 + 1e-15),
                                       0.0, -1.0])
    def test_maturity_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch, value):
        # the same (0, 100] years as a swap's; rejected before any solve
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = write_scenario(tmp_path, option=dict(OPTION_BLOCK, maturity=value), grid=SMALL_GRID)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert "option.maturity" in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    def test_largest_maturity_accepted(self, tmp_path):
        # vol 0.05 over 100 years is within the grid's reach, 0.0805 at s_max_mult 5
        option = dict(OPTION_BLOCK, maturity=cxva.exposure.MAX_MATURITY, vol=0.05)
        sc = write_scenario(tmp_path, option=option, grid=SMALL_GRID)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("command", ["price", "sweep"])
    @pytest.mark.parametrize("vol, maturity", [(1e6, 1.0), (0.81, 1.0), (0.41, 4.0)])
    def test_vol_beyond_grid_exits_2(self, tmp_path, capsys, monkeypatch, command, vol,
                                     maturity):
        # vol * sqrt(maturity) above ln(s_max_mult) / 2 = 0.805: the grid's
        # top is under two standard deviations above spot and strike
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        option = dict(OPTION_BLOCK, vol=vol, maturity=maturity)
        sc = write_scenario(tmp_path, option=option, grid=dict(SMALL_GRID, s_max_mult=5.0))
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert message.startswith("option.vol must be at most ln(grid.s_max_mult)"), message
        assert repr(vol) in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["price", "sweep"])
    @pytest.mark.parametrize("payoff", ["call", "put", "forward"])
    def test_zero_strike_names_keys(self, tmp_path, capsys, monkeypatch, command, payoff):
        # only the unit zcb payoff may leave the strike at 0
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        option = dict(OPTION_BLOCK, payoff=payoff, strike=0.0)
        sc = write_scenario(tmp_path, option=option, grid=SMALL_GRID)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            f"option.strike must be > 0 when option.payoff is '{payoff}', got 0.0"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["price", "sweep"])
    @pytest.mark.parametrize("side, party, message", [
        ("c", {"bond_spread": 0.03, "bond": {"flat": 0.02}, "liquidity": {"flat": 0.03}},
         "parties.c.bond must give a bond rate >= the liquidity rate of "
         "parties.c.liquidity at every tenor"),
        ("c", {"bond_spread": 0.002, "liquidity_spread": 0.01},
         "parties.c.bond_spread must give a bond rate >= the liquidity rate of "
         "parties.c.liquidity_spread at every tenor"),
        ("b", {"bond_spread": 0.0125, "liquidity": {"flat": 0.005}},
         "parties.b.liquidity must give a liquidity rate >= the risk-free rate of "
         "curves.risk_free at every tenor"),
        ("c", {"bond_spread": 0.03, "liquidity_spread": -0.001},
         "parties.c.liquidity_spread must give a liquidity rate >= the risk-free rate of "
         "curves.risk_free at every tenor"),
        ("c", {"bond_spread": 0.03, "hazard": {"flat": 0.05}},
         "parties.c.bond_spread - parties.c.hazard must give a liquidity rate >= the "
         "risk-free rate of curves.risk_free at every tenor"),
    ], ids=["bond_curves", "bond_spread", "liquidity_curve", "liquidity_spread",
            "bond_minus_hazard"])
    def test_curve_order_names_keys(self, tmp_path, capsys, monkeypatch, command, side,
                                    party, message):
        # bond >= liquidity >= risk-free at every tenor, checked before any solve
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        set_key(sc, f"parties.{side}", party)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == message
        assert not (tmp_path / "out").exists()

    def test_vol_at_grid_reach_accepted(self, tmp_path):
        option = dict(OPTION_BLOCK, vol=0.8, maturity=1.0)
        sc = write_scenario(tmp_path, option=option, grid=dict(SMALL_GRID, s_max_mult=5.0))
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 0

    def test_picard_breakdown_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cxva.pde, "PICARD_TOL", 1e-16)
        monkeypatch.setattr(cxva.pde, "PICARD_MAX_ITER", 1)
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])["error"]
        assert err["type"] == "solver"
        assert err["class"] == "PicardConvergenceError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", MODES)
    def test_malformed_cash_curve_exits_2(self, tmp_path, capsys, mode):
        # every mode reads curves.cash, not only the one that funds from it
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID,
                            curves={"risk_free": 0.01, "cash": "x"},
                            collateral={"mode": mode, "collateralization": 1.0})
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert "curves.cash" in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", ["grid.s_nodes", "grid.t_steps"])
    def test_huge_grid_exits_2(self, tmp_path, capsys, monkeypatch, path):
        # rejected when the grid is read, before a solve sizes any array
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cxva.pde, "solve", no_solve)
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=dict(SMALL_GRID))
        set_key(sc, path, 1e12)
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

    @pytest.mark.parametrize("mode", MODES)
    def test_cra_twin_keeps_the_modes_eta(self, tmp_path, mode):
        # the counterparty-risk-only twin protects the share the mode
        # protects: at eta = 0 nothing, so cra = xva in every mode, and
        # uncollateralized nothing at any level
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID,
                            collateral={"mode": mode, "repo_spread": 0.01})
        assert run(["sweep", "--scenario", sc, "--out", tmp_path / "out",
                    "--points", "3"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for _, cra_long, xva_long, cra_short, xva_short in (
                rows if mode == "uncollateralized" else rows[:1]):
            assert (cra_long, cra_short) == (xva_long, xva_short)
        if mode != "uncollateralized":
            assert rows[-1][1] == rows[-1][3] == "0"  # fully protected: no CRA

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

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_points_exits_2(self, tmp_path, capsys, points):
        sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        assert run(["sweep", "--scenario", sc, "--out", tmp_path / "out",
                    "--points", points]) == 2
        assert validation_message(capsys) == (
            f"--points must be an integer in [2, {MAX_SWEEP_POINTS}], got {points}")
        assert not (tmp_path / "out").exists()

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
        ("maturity_max", float("nan"), "portfolio.maturity_max"),
        ("maturity_max", float("inf"), "portfolio.maturity_max"),
        ("maturity_min", float("nan"), "portfolio.maturity_min"),
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

    def test_maturity_min_above_max_names_keys(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cxva.scenario, "exposure_profile",
                            fail_if_reached("exposure_profile"))
        portfolio = dict(SMALL_PORTFOLIO, n=20, maturity_min=20.0, maturity_max=10.0)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            "portfolio.maturity_min must be at most portfolio.maturity_max, got 20.0 > 10.0"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["xva", "sweep"])
    def test_book_without_coupons_names_keys(self, tmp_path, capsys, command):
        # every swap matures within 1e-9 / pay_freq years, so none pays a
        # fixed coupon: the annuity is 0 and there is no running spread
        portfolio = dict(SMALL_PORTFOLIO, n=20, maturity_min=1e-12, maturity_max=1e-12)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41,
                            sweep={"points": 3})
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == (
            "portfolio.maturity_max 1e-12 and portfolio.pay_freq 2 leave the book no fixed "
            "coupon (every maturity is at most 1e-9 / pay_freq years), so the book has no "
            "running spread")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("maturity_max", 1e12),
        ("maturity_max", 1e5),
        ("maturity_max", cxva.exposure.MAX_MATURITY * (1.0 + 1e-15)),
        ("maturity_min", 1e12),
    ])
    def test_huge_maturity_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr(cxva.scenario, "exposure_profile",
                            fail_if_reached("exposure_profile"))
        sc = write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=5),
                            quadrature_steps=41)
        set_key(sc, f"portfolio.{key}", value)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert key in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    def test_largest_maturity_accepted(self, tmp_path):
        portfolio = dict(SMALL_PORTFOLIO, n=5, maturity_min=cxva.exposure.MAX_MATURITY,
                         maturity_max=cxva.exposure.MAX_MATURITY)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["vol", "mean_reversion"])
    def test_bad_mc_model_exits_2(self, tmp_path, capsys, key, value):
        portfolio = dict(SMALL_PORTFOLIO, n=20, model="one_factor_mc", paths=1000)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        set_key(sc, f"portfolio.{key}", value)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert key in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1e306, 0.0, -1.0])
    def test_notional_beyond_kernel_exits_2(self, tmp_path, capsys, monkeypatch, value):
        # 1e306 overflowed summing a 20-swap book's values
        monkeypatch.setattr(cxva.scenario, "exposure_profile",
                            fail_if_reached("exposure_profile"))
        sc = write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=20, notional=value),
                            quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert "portfolio.notional" in message and repr(value) in message
        assert not (tmp_path / "out").exists()

    def test_huge_vol_exits_2(self, tmp_path, capsys):
        # the factor would spread so wide that the kernel's exp overflows
        portfolio = dict(SMALL_PORTFOLIO, n=20, model="one_factor_mc", paths=1000, vol=1e6)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert "portfolio.vol" in message and "1000000.0" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, value", [
        # subnormal: the factor's step std is 0, so the paths never move
        (50, 5e-324),
        # 2 a t overflows to inf, and inf * 0 at t = 0 is NaN
        (20, 1e308),
    ])
    def test_mean_reversion_beyond_kernel_exits_2(self, tmp_path, capsys, monkeypatch, n,
                                                  value):
        monkeypatch.setattr(cxva.scenario, "exposure_profile",
                            fail_if_reached("exposure_profile"))
        portfolio = dict(SMALL_PORTFOLIO, n=n, model="one_factor_mc", paths=1000,
                         mean_reversion=value)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert "portfolio.mean_reversion" in message and repr(value) in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("mean_reversion", cxva.exposure.MAX_MEAN_REVERSION),
        ("vol", cxva.exposure.MAX_FACTOR_VOL)])
    def test_factor_bounds_accepted(self, tmp_path, key, value):
        # the bounds' worst case: 60-100 year quarterly swaps, where a claim
        # is discounted over the longest intervals and, at mean reversion
        # 1e-20, the factor spreads most
        portfolio = dict(SMALL_PORTFOLIO, n=8, maturity_min=60.0,
                         maturity_max=cxva.exposure.MAX_MATURITY, pay_freq=4,
                         model="one_factor_mc", paths=1000, mean_reversion=1e-20)
        portfolio[key] = value
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 0

    def test_largest_notional_at_largest_vol_accepted(self, tmp_path):
        # test_factor_bounds_accepted's worst-case book at both bounds
        portfolio = dict(SMALL_PORTFOLIO, n=8, maturity_min=60.0,
                         maturity_max=cxva.exposure.MAX_MATURITY, pay_freq=4,
                         model="one_factor_mc", paths=1000, mean_reversion=1e-20,
                         vol=cxva.exposure.MAX_FACTOR_VOL,
                         notional=cxva.exposure.MAX_NOTIONAL)
        sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 0


class TestBlockTypes:
    """A scenario block of the wrong JSON type exits 2 naming the key."""

    @pytest.mark.parametrize("key, value, named", [
        ("xva_levels", 0.5, "xva_levels"),
        ("parties", 3, "parties"),
        ("curves.risk_free", {"nodes": 5}, "risk_free' nodes"),
    ])
    def test_wrong_type_exits_2(self, tmp_path, capsys, key, value, named):
        sc = write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO, quadrature_steps=41)
        set_key(sc, key, value)
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert named in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    def test_top_level_array_exits_2(self, tmp_path, capsys):
        sc = tmp_path / "scenario.json"
        sc.write_text("[1, 2]")
        assert run(["xva", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert "JSON object" in validation_message(capsys)
        assert not (tmp_path / "out").exists()


def repo_scenario(tmp_path):
    """The shipped repo-curve scenario with its files referenced from tmp_path."""
    raw = json.loads((SCENARIO_DIR / "repo_ust10.json").read_text())
    raw["assets_file"] = str(SCENARIO_DIR / raw["assets_file"])
    for spec in raw["curves"].values():
        spec["file"] = str(SCENARIO_DIR / spec["file"])
    sc = tmp_path / "repo.json"
    sc.write_text(json.dumps(raw))
    return sc


class TestWrongKind:
    """A value of the wrong JSON kind (a string, a boolean, null, an array
    or object where a number goes, an empty or mistyped level list) exits 2
    naming its key, before any output is written."""

    @pytest.mark.parametrize("command, key, value", [
        ("price", "option.strike", None),
        ("price", "option.strike", True),
        ("price", "option.spot", "100"),
        ("price", "collateral.collateralization", None),
        ("price", "collateral.collateralization", "0.5"),
        ("price", "collateral.repo_spread", [0.01]),
        ("price", "parties.b.bond_spread", {}),
        ("price", "curves.risk_free", True),
        ("price", "grid.s_max_mult", "5"),
        ("xva", "xva_levels", [[0.5]]),
        ("xva", "xva_levels", ["0.5"]),
        ("xva", "xva_levels", []),
        ("xva", "portfolio.payer_frac", None),
        ("xva", "portfolio.notional", "1"),
        ("repo-curve", "repo.tenors", [None]),
        ("repo-curve", "repo.roe", None),
        ("optimize", "optimizer.hqla_floor", None),
        ("optimize", "optimizer.tol", "0.01"),
    ])
    def test_exits_2_naming_key(self, tmp_path, capsys, command, key, value):
        if command == "price":
            sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=dict(SMALL_GRID))
        elif command == "xva":
            sc = write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=20),
                                quadrature_steps=41)
        elif command == "repo-curve":
            sc = repo_scenario(tmp_path)
        else:
            sc = optimize_scenario(tmp_path)
        set_key(sc, key, value)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert key in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    def test_null_quantity_reads_the_csv(self, tmp_path):
        sc = optimize_scenario(tmp_path)
        set_key(sc, "optimizer.quantity", None)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 0


class TestIntegerKeys:
    @pytest.mark.parametrize("value", [float("inf"), 2.5])
    @pytest.mark.parametrize("command, key", [
        ("price", "seed"),
        ("price", "grid.s_nodes"),
        ("price", "grid.t_steps"),
        ("sweep", "sweep.points"),
        ("xva", "portfolio.n"),
        ("xva", "portfolio.pay_freq"),
        ("xva", "portfolio.paths"),
        ("xva", "portfolio.profile_points"),
        ("xva", "quadrature_steps"),
        ("optimize", "optimizer.max_iter"),
    ])
    def test_non_integer_exits_2(self, tmp_path, capsys, command, key, value):
        if command == "optimize":
            sc = optimize_scenario(tmp_path)
        elif command == "xva":
            portfolio = dict(SMALL_PORTFOLIO, n=20, model="one_factor_mc", paths=1000)
            sc = write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41)
        else:
            sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=dict(SMALL_GRID),
                                sweep={"points": 3})
        set_key(sc, key, value)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert key in validation_message(capsys)
        assert not (tmp_path / "out").exists()


class TestCountBounds:
    """A count that sizes arrays is checked against [minimum, constant]
    when it is read: outside it the command exits 2 naming the key, and
    nothing that builds an array from the count runs."""

    @pytest.fixture(autouse=True)
    def no_arrays(self, monkeypatch):
        for module, name in ((cxva.scenario, "generate_portfolio"),
                             (cxva.scenario, "exposure_profile"),
                             (cxva.exposure, "_ou_paths"),
                             (cxva.cli, "decompose"),
                             (cxva.cli, "_option_sweep_points"),
                             (cxva.cli, "_portfolio_sweep_points")):
            monkeypatch.setattr(module, name, fail_if_reached(name))

    def scenario(self, tmp_path, command, block):
        if command == "optimize":
            return optimize_scenario(tmp_path)
        if block == "option":
            return write_scenario(tmp_path, option=OPTION_BLOCK, grid=dict(SMALL_GRID),
                                  sweep={"points": 3})
        portfolio = dict(SMALL_PORTFOLIO, n=20, model="one_factor_mc", paths=1000)
        return write_scenario(tmp_path, portfolio=portfolio, quadrature_steps=41,
                              sweep={"points": 3})

    @pytest.mark.parametrize("command, block, key, value", [
        ("sweep", "option", "sweep.points", 1e12),
        ("sweep", "option", "sweep.points", MAX_SWEEP_POINTS + 1),
        ("sweep", "portfolio", "sweep.points", 1e12),
        ("xva", "portfolio", "portfolio.n", 1e12),
        ("xva", "portfolio", "portfolio.n", 0),
        ("xva", "portfolio", "portfolio.paths", 1e12),
        ("xva", "portfolio", "portfolio.paths", 999),
        ("xva", "portfolio", "portfolio.profile_points", 1e12),
        ("xva", "portfolio", "portfolio.profile_points", 1),
        ("xva", "portfolio", "quadrature_steps", 1e12),
        ("xva", "portfolio", "quadrature_steps", 0),
        ("optimize", "portfolio", "quadrature_steps", 0),
        ("price", "option", "grid.s_nodes", 49),
        ("price", "option", "grid.t_steps", 49),
        ("price", "option", "grid.s_nodes", MAX_GRID_SIZE + 1),
        ("price", "option", "grid.t_steps", MAX_GRID_SIZE + 1),
    ])
    def test_out_of_range_exits_2(self, tmp_path, capsys, command, block, key, value):
        sc = self.scenario(tmp_path, command, block)
        set_key(sc, key, value)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert key in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block", ["option", "portfolio"])
    def test_huge_points_flag_exits_2(self, tmp_path, capsys, block):
        sc = self.scenario(tmp_path, "sweep", block)
        assert run(["sweep", "--scenario", sc, "--out", tmp_path / "out",
                    "--points", 10 ** 12]) == 2
        assert "--points" in validation_message(capsys)
        assert not (tmp_path / "out").exists()


class TestValueSets:
    """A value outside its key's value set or range exits 2 with one JSON
    line naming the dotted key, or the flag, before any quadrature runs."""

    @pytest.fixture
    def decompose_calls(self, monkeypatch):
        calls = []
        original = cxva.xva.decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("cxva") and getattr(module, "decompose", None) is original:
                monkeypatch.setattr(module, "decompose", counted)
        return calls

    @pytest.mark.parametrize("command, key, value", [
        ("xva", "collateral.mode", "nocash"),
        ("xva", "portfolio.model", "one_factor"),
        ("price", "option.payoff", "straddle"),
        ("optimize", "optimizer.funding_haircut", "rpeo"),
        ("repo-curve", "repo.rating", "B"),
        ("optimize", "optimizer.netting_sets[1].rating", "B"),
        ("optimize", "optimizer.netting_sets[1].portfolio.pay_freq", 3),
        ("sweep", "sweep.points", 1),
        ("sweep", "--points", 1),
    ])
    def test_exits_2_naming_key(self, tmp_path, capsys, decompose_calls, command, key, value):
        args = [command, "--out", tmp_path / "out"]
        if command == "price":
            sc = write_scenario(tmp_path, option=OPTION_BLOCK, grid=dict(SMALL_GRID))
        elif command == "repo-curve":
            sc = repo_scenario(tmp_path)
        elif command == "optimize":
            sc = optimize_scenario(tmp_path)
        else:
            sc = write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=20),
                                quadrature_steps=41, sweep={"points": 3})
        if key.startswith("--"):
            args += [key, value]
        else:
            set_key(sc, key, value)
        assert run(args + ["--scenario", sc]) == 2
        message = validation_message(capsys)
        assert message.startswith(f"{key} must be ")
        assert repr(value) in message
        assert decompose_calls == []
        assert not (tmp_path / "out").exists()


class TestRates:
    """Every rate and spread a scenario gives lies in (-1, 1], ±100 % a
    year; outside it, ``price`` exits 2 naming the key before any solve."""

    @staticmethod
    def scenario(tmp_path):
        raw = json.loads((SCENARIO_DIR / "atm_call.json").read_text())
        raw["grid"] = {"s_nodes": 50, "t_steps": 50}
        sc = tmp_path / "atm_call.json"
        sc.write_text(json.dumps(raw))
        return sc

    @pytest.mark.parametrize("key, value, named", [
        ("curves.risk_free", -1e300, "curves.risk_free"),
        ("curves.risk_free", {"flat": 1.5}, "curves.risk_free"),
        ("curves.risk_free", {"nodes": [[1.0, 0.01], [2.0, -1.0]]}, "curves.risk_free.nodes[1]"),
        ("curves.risk_free", {"file": "high.csv"}, "curves.risk_free.file rate at tenor 2"),
        ("collateral.repo_spread", 1e300, "collateral.repo_spread"),
        ("collateral.repo_spread", -1e300, "collateral.repo_spread"),
        ("option.div_yield", 1e300, "option.div_yield"),
        ("option.div_yield", -1e300, "option.div_yield"),
        ("parties.b.bond_spread", 2.0, "parties.b.bond_spread"),
        ("parties.c.liquidity_spread", -1.0, "parties.c.liquidity_spread"),
    ])
    def test_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch, key, value, named):
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = self.scenario(tmp_path)
        (tmp_path / "high.csv").write_text("tenor_years,zero_rate\n1,0.01\n2,1.01\n")
        set_key(sc, key, value)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys).startswith(f"{named} must be a finite number in (-1, 1]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("party, value", [
        ({"bond_spread": 0.03, "hazard": {"flat": 7.0}}, 7.0),
        ({"bond_spread": 0.03, "hazard": {"flat": -0.01}}, -0.01),
        ({"bond_spread": 0.03, "liquidity_spread": 0.01, "hazard": {"flat": -0.01}}, -0.01),
    ], ids=["above", "negative", "negative-beside-liquidity"])
    def test_party_hazard_outside_exits_2(self, tmp_path, capsys, monkeypatch, party, value):
        # a hazard curve's rates lie in [0, 1]; a negative one once exited 2
        # with a library message naming no key
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = self.scenario(tmp_path)
        set_key(sc, "parties.c", party)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            f"parties.c.hazard must be a finite number in [0, 1], got {value!r}"
        assert not (tmp_path / "out").exists()

    def test_repeated_tenor_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = self.scenario(tmp_path)
        set_key(sc, "curves.risk_free", {"nodes": [[1, 0.01], [1, 0.011], [2, 0.012]]})
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            "curves.risk_free.nodes[1] repeats 1.0, given first at curves.risk_free.nodes[0]"
        assert not (tmp_path / "out").exists()

    def test_two_forms_exit_2(self, tmp_path, capsys, monkeypatch):
        # the flat rate was read and the nodes ignored
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = self.scenario(tmp_path)
        set_key(sc, "curves.risk_free", {"flat": 0.01, "nodes": [[1, 0.5]]})
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == ("curve 'curves.risk_free' needs exactly one of "
                                              "flat, nodes, file, got ['flat', 'nodes']")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, named, value", [
        ({"nodes": [[-1.0, 0.01], [2.0, 0.01]]}, "curves.risk_free.nodes[0]", -1.0),
        ({"nodes": [[1.0, 0.01], [0, 0.01]]}, "curves.risk_free.nodes[1]", 0.0),
        ({"file": "zero.csv"}, "curves.risk_free.file {dir}/zero.csv line 2", 0.0),
    ], ids=["negative", "zero", "file-zero"])
    def test_nonpositive_tenor_exits_2(self, tmp_path, capsys, monkeypatch, spec, named, value):
        monkeypatch.setattr(cxva.pde, "solve", fail_if_reached("solve"))
        sc = self.scenario(tmp_path)
        (tmp_path / "zero.csv").write_text("tenor_years,zero_rate\n0,0.01\n1,0.01\n")
        set_key(sc, "curves.risk_free", spec)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            f"{named.format(dir=tmp_path)} must be a finite number in (0, inf), got {value!r}"
        assert not (tmp_path / "out").exists()

    def test_edge_rates_accepted(self, tmp_path, capsys):
        sc = self.scenario(tmp_path)
        set_key(sc, "option.div_yield", 1.0)
        set_key(sc, "collateral.repo_spread", -0.999)
        assert run(["price", "--scenario", sc, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("command, key, value", [
        ("xva", "portfolio.rate_offset", 1e300),
        ("xva", "portfolio.rate_offset", -1.0),
        ("xva", "portfolio.rate_band", 1e6),
        ("repo-curve", "repo.roe", 1e300),
    ])
    def test_book_rates_and_roe_exit_2(self, tmp_path, capsys, monkeypatch, command, key, value):
        # a book's fixed-rate offset, its band and the repo RoE hurdle: outside
        # their intervals they exit 2 before a book or curve is built
        interval = "(-1, 1]" if key == "portfolio.rate_offset" else "[0, 1]"
        monkeypatch.setattr(cxva.scenario, "generate_portfolio",
                            fail_if_reached("generate_portfolio"))
        monkeypatch.setattr(cxva.cli, "repo_curve", fail_if_reached("repo_curve"))
        if command == "xva":
            sc = write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=20),
                                quadrature_steps=41)
        else:
            sc = repo_scenario(tmp_path)
        set_key(sc, key, value)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            f"{key} must be a finite number in {interval}, got {value!r}"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name", [("sweep", "payer_book"), ("xva", "payer_book"),
                                           ("optimize", "allocation_reference"),
                                           ("repo-curve", "repo_ust10")])
def test_each_curve_file_read_once(tmp_path, monkeypatch, command, name):
    # every input file a command reads, each curve file and the assets file,
    # goes through the scenario's one CSV reader once
    reads = collections.Counter()
    table = cxva.scenario._table

    def counted(key, path, *args, **kwargs):
        reads[Path(path).name] += 1
        return table(key, path, *args, **kwargs)

    monkeypatch.setattr(cxva.scenario, "_table", counted)
    assert run([command, "--scenario", SCENARIO_DIR / f"{name}.json",
                "--out", tmp_path / "out"]) == 0
    assert reads and set(reads.values()) == {1}, reads
    assert ("assets_reference.csv" in reads) == (command in ("optimize", "repo-curve"))


class TestCsvFiles:
    """A curve file's and the assets file's rows hold exactly the header's
    fields, read by position. A short or long row, or a number cell that is
    not a number, exits 2 with one JSON line naming the key, the file and
    the line; a header padded with spaces, blank lines and CRLF endings
    read as the plain file does."""

    # each file's header fields
    KEYS = {"curves.risk_free.file": 2, "assets_file": 10}

    @staticmethod
    def edited(tmp_path, key, edit, newline="\n"):
        """repo_ust10 (it reads a curve file and the assets file) with the
        file at ``key`` copied to edited.csv, its lines changed by ``edit``."""
        sc = repo_scenario(tmp_path)
        raw = json.loads(sc.read_text())
        source = Path(raw["curves"]["risk_free"]["file"] if key.startswith("curves")
                      else raw["assets_file"])
        lines = edit(source.read_text().splitlines())
        (tmp_path / "edited.csv").write_bytes((newline.join(lines) + newline).encode())
        set_key(sc, key.removesuffix(".file"), {"file": "edited.csv"} if key.startswith("curves")
                else "edited.csv")
        return sc

    def assert_exits_2_at_line_3(self, tmp_path, capsys, key, edit, reason):
        sc = self.edited(tmp_path, key, edit)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert message.startswith(f"{key} {tmp_path / 'edited.csv'} line 3: {reason}"), message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", KEYS)
    def test_short_row_exits_2(self, tmp_path, capsys, key):
        def drop_last_field(lines):
            lines[2] = lines[2].rsplit(",", 1)[0]
            return lines
        fields = self.KEYS[key]
        self.assert_exits_2_at_line_3(tmp_path, capsys, key, drop_last_field,
                                      f"expected the header's {fields} fields, got {fields - 1}")

    @pytest.mark.parametrize("key", KEYS)
    def test_extra_field_exits_2(self, tmp_path, capsys, key):
        def add_field(lines):
            lines[2] += ",0.5"
            return lines
        fields = self.KEYS[key]
        self.assert_exits_2_at_line_3(tmp_path, capsys, key, add_field,
                                      f"expected the header's {fields} fields, got {fields + 1}")

    @pytest.mark.parametrize("key", KEYS)
    def test_non_number_cell_exits_2(self, tmp_path, capsys, key):
        def spoil(lines):
            lines[2] = lines[2].rsplit(",", 1)[0] + ",0.0l"
            return lines
        self.assert_exits_2_at_line_3(tmp_path, capsys, key, spoil,
                                      "could not convert string to float: '0.0l'")

    @pytest.mark.parametrize("key", KEYS)
    def test_huge_cell_exits_2(self, tmp_path, capsys, key):
        # beyond the csv module's field size limit (131 072 characters)
        def inflate(lines):
            lines[2] = lines[2].rsplit(",", 1)[0] + ",0." + "0" * 200_000
            return lines
        self.assert_exits_2_at_line_3(tmp_path, capsys, key, inflate, "field larger than")

    @pytest.mark.parametrize("column, cell, interval", [
        ("price", "-1", "(0, inf)"), ("quantity", "inf", "[0, inf)"),
        ("h_csa", "1", "[0, 1)"), ("h_lcr", "nan", "[0, 1]"), ("ec_BB", "-0.5", "[0, inf)"),
    ])
    def test_asset_cell_outside_exits_2(self, tmp_path, capsys, column, cell, interval):
        # each number cell against CollateralAsset's own interval, named by
        # the file, line and column
        def spoil(lines):
            cells = lines[1].split(",")
            cells[lines[0].split(",").index(column)] = cell
            lines[1] = ",".join(cells)
            return lines
        sc = self.edited(tmp_path, "assets_file", spoil)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == (
            f"assets_file {tmp_path / 'edited.csv'} line 2 {column} must be a finite number "
            f"in {interval}, got {float(cell)!r}")
        assert not (tmp_path / "out").exists()

    def test_repeated_tenor_exits_2(self, tmp_path, capsys):
        def repeat_tenor(lines):
            lines[2] = lines[1].split(",")[0] + "," + lines[2].split(",")[1]
            return lines
        key = "curves.risk_free.file"
        sc = self.edited(tmp_path, key, repeat_tenor)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        path = tmp_path / "edited.csv"
        message = validation_message(capsys)
        assert message.startswith(f"{key} {path} line 3 repeats "), message
        assert message.endswith(f", given first at {key} {path} line 2"), message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, newline", [
        (lambda lines: [f" {', '.join(lines[0].split(','))} "] + lines[1:], "\n"),
        (lambda lines: [lines[0], ""] + lines[1:3] + ["", ""] + lines[3:] + [""], "\n"),
        (lambda lines: lines, "\r\n"),
    ], ids=["padded-header", "blank-lines", "crlf"])
    @pytest.mark.parametrize("key", KEYS)
    def test_layout_reads_as_the_plain_file(self, tmp_path, capsys, key, edit, newline):
        assert run(["repo-curve", "--scenario", repo_scenario(tmp_path),
                    "--out", tmp_path / "plain"]) == 0
        sc = self.edited(tmp_path, key, edit, newline)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "repo_curve.csv").read_bytes() \
            == (tmp_path / "plain" / "repo_curve.csv").read_bytes()


class TestRepoCurve:
    def test_shipped_scenario(self, tmp_path):
        assert run(["repo-curve", "--scenario", SCENARIO_DIR / "repo_ust10.json",
                    "--out", tmp_path / "out"]) == 0
        lines = (tmp_path / "out" / "repo_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "tenor_years,spread,repo_rate"
        short_end = lines[1].split(",")
        assert float(short_end[1]) == pytest.approx(0.0014)  # RoE*EC + mu0

    def test_repo_rate_adds_risk_free(self, tmp_path):
        sc = repo_scenario(tmp_path)
        set_key(sc, "curves", {"risk_free": {"flat": 0.01}, "mu0": {"flat": 0.001},
                               "hazard": 0.02})
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / "repo_curve.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 11
        for row in rows:
            _, spread, repo_rate = map(float, row.split(","))
            # RoE 10% on UST_10y's 0.4% BBB economic capital plus 10bp mu0
            assert spread == pytest.approx(0.0014, rel=1e-12)
            assert repo_rate == pytest.approx(0.01 + 0.0014, rel=1e-12)

    @pytest.mark.parametrize("path, value", [
        ("repo.roe", float("nan")),
        ("repo.expected_gap_loss", float("inf")),
        ("curves.risk_free", {"nodes": [[1.0, float("nan")], [2.0, 0.01]]}),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, path, value):
        sc = repo_scenario(tmp_path)
        set_key(sc, path, value)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "finite" in err["error"]["message"]
        assert not (tmp_path / "out" / "repo_curve.csv").exists()

    def test_negative_hazard_exits_2(self, tmp_path, capsys):
        # the repo default intensity lies in [0, 1]; at -0.9 with a gap loss
        # of 0.5 a run once wrote a break-even spread of -44.9 %
        sc = repo_scenario(tmp_path)
        set_key(sc, "curves.hazard", -0.9)
        set_key(sc, "repo.expected_gap_loss", 0.5)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            "curves.hazard must be a finite number in [0, 1], got -0.9"
        assert not (tmp_path / "out").exists()

    def test_gap_loss_above_one_exits_2(self, tmp_path, capsys):
        # the expected gap loss is a fraction of the loan; at 1e300 the
        # hazard would carry the spread to 2e298 at every tenor
        sc = repo_scenario(tmp_path)
        set_key(sc, "curves.hazard", 0.02)
        set_key(sc, "repo.expected_gap_loss", 1e300)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys).startswith("repo.expected_gap_loss must be")
        assert not (tmp_path / "out").exists()
        set_key(sc, "repo.expected_gap_loss", 1.0)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("tenors, message", [
        ([0.5, 0.5], "repo.tenors[1] repeats 0.5, given first at repo.tenors[0]"),
        ([1.0, 2.0, 0.5, 2.0], "repo.tenors[3] repeats 2.0, given first at repo.tenors[1]"),
        ([-1.0], "repo.tenors[0] must be a finite number in (0, inf), got -1.0"),
        ([1.0, 0.0], "repo.tenors[1] must be a finite number in (0, inf), got 0.0"),
    ], ids=["repeat", "later-repeat", "negative", "zero"])
    def test_bad_tenor_named(self, tmp_path, capsys, tenors, message):
        sc = repo_scenario(tmp_path)
        set_key(sc, "repo.tenors", tenors)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("repo.asset", "NOPE", "repo.asset 'NOPE' is not in assets_file"),
        ("curves.mu0", {"file": "missing.csv"}, "curves.mu0.file not found: {dir}/missing.csv"),
        ("assets_file", "missing.csv", "assets_file not found: {dir}/missing.csv"),
    ], ids=["asset", "curve-file", "assets-file"])
    def test_missing_input_names_key(self, tmp_path, capsys, key, value, message):
        sc = repo_scenario(tmp_path)
        set_key(sc, key, value)
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == message.format(dir=tmp_path)
        assert not (tmp_path / "out").exists()

    def test_unsorted_tenors_accepted(self, tmp_path):
        # the rows follow the tenors as given
        sc = repo_scenario(tmp_path)
        set_key(sc, "repo.tenors", [2.0, 0.5])
        assert run(["repo-curve", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / "repo_curve.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "0.5"]


class TestCollateralFractions:
    """Collateralization levels, chi and the haircuts are fractions: one
    outside its range exits 2 naming its key, before any output."""

    @staticmethod
    def scenario(tmp_path):
        return write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID,
                              portfolio=SMALL_PORTFOLIO, quadrature_steps=41,
                              xva_levels=[0.0, 1.0])

    @staticmethod
    def command(key: str) -> str:
        # price reads the collateral block's own level, xva its xva_levels
        return "xva" if key == "xva_levels" else "price"

    @pytest.mark.parametrize("key, value, message", [
        ("collateral.chi", 1.5, "collateral.chi must be a finite number in [0, 1], got 1.5"),
        ("collateral.chi", -0.1, "collateral.chi must be a finite number in [0, 1], got -0.1"),
        ("collateral.h_csa", 1.0, "collateral.h_csa must be a finite number in [0, 1), got 1.0"),
        ("collateral.h_repo", 1.0, "collateral.h_repo must be a finite number in [0, 1), got 1.0"),
        ("collateral.h_repo", -0.5,
         "collateral.h_repo must be a finite number in [0, 1), got -0.5"),
        ("collateral.collateralization", 1.5,
         "collateral.collateralization must be a finite number in [0, 1], got 1.5"),
        ("xva_levels", [1.5], "xva_levels[0] must be a finite number in [0, 1], got 1.5"),
        ("xva_levels", [0.0, -0.5], "xva_levels[1] must be a finite number in [0, 1], got -0.5"),
    ], ids=["chi-above", "chi-below", "h_csa-one", "h_repo-one", "h_repo-below",
            "collateralization-above", "level-above", "level-below"])
    def test_out_of_range_named(self, tmp_path, capsys, key, value, message):
        sc = self.scenario(tmp_path)
        set_key(sc, key, value)
        assert run([self.command(key), "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("collateral.chi", 0.0), ("collateral.chi", 1.0),
        ("collateral.h_csa", 0.999), ("collateral.collateralization", 0.0),
        ("xva_levels", [1.0, 0.0]),
    ])
    def test_range_ends_accepted(self, tmp_path, key, value):
        sc = self.scenario(tmp_path)
        set_key(sc, key, value)
        assert run([self.command(key), "--scenario", sc, "--out", tmp_path / "out"]) == 0


class TestIntervals:
    """Every number key has its interval in SCHEMA: a value outside it, or
    NaN, exits 2 naming the key and the interval, before any output; the
    interval's closed ends are accepted."""

    @staticmethod
    def scenario(tmp_path, command):
        if command == "price":
            return write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        if command in ("xva", "mc"):
            model = {"model": "one_factor_mc", "paths": 1000} if command == "mc" else {}
            return write_scenario(tmp_path, portfolio=dict(SMALL_PORTFOLIO, n=20, **model),
                                  quadrature_steps=41)
        if command == "optimize":
            return optimize_scenario(tmp_path)
        return repo_scenario(tmp_path)

    @pytest.mark.parametrize("command, key, value, interval", [
        ("xva", "portfolio.payer_frac", 1.5, "[0, 1]"),
        ("xva", "portfolio.payer_frac", -0.1, "[0, 1]"),
        ("xva", "portfolio.payer_frac", float("nan"), "[0, 1]"),
        ("xva", "portfolio.rate_band", -0.01, "[0, 1]"),
        ("xva", "portfolio.maturity_min", 0.0, "(0, 100]"),
        ("xva", "portfolio.maturity_max", 100.5, "(0, 100]"),
        ("mc", "portfolio.vol", -0.01, "[0, 0.2]"),
        ("repo-curve", "repo.roe", -0.1, "[0, 1]"),
        ("repo-curve", "repo.expected_gap_loss", -0.1, "[0, 1]"),
        ("price", "option.strike", -1.0, "[0, inf)"),
        ("price", "option.spot", 0.0, "(0, inf)"),
        ("price", "option.spot", float("nan"), "(0, inf)"),
        ("price", "option.vol", 0.0, "(0, inf)"),
        ("price", "grid.s_max_mult", 1.0, "(1, inf)"),
        ("optimize", "optimizer.quantity", -1.0, "[0, inf)"),
        ("optimize", "optimizer.hqla_floor", -1.0, "[0, inf)"),
        ("optimize", "optimizer.tol", 0.0, "(0, inf)"),
        ("optimize", "optimizer.tol", float("inf"), "(0, inf)"),
        ("optimize", "optimizer.netting_sets[1].portfolio.payer_frac", 1.5, "[0, 1]"),
    ])
    def test_outside_exits_2(self, tmp_path, capsys, command, key, value, interval):
        sc = self.scenario(tmp_path, command)
        set_key(sc, key, value)
        command = "xva" if command == "mc" else command
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            f"{key} must be a finite number in {interval}, got {value!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, values, code", [
        ("mc", {"portfolio.vol": 0.0}, 0),
        ("repo-curve", {"repo.roe": 0.0}, 0),
        ("xva", {"portfolio.payer_frac": 0.0}, 0),
        ("xva", {"portfolio.payer_frac": 1.0}, 0),
        ("xva", {"portfolio.rate_band": 0.0}, 0),
        ("price", {"option.payoff": "zcb", "option.strike": 0.0}, 0),
        # read, and then the allocation LP has nothing to post
        ("optimize", {"optimizer.quantity": 0.0}, 3),
    ])
    def test_closed_ends_accepted(self, tmp_path, capsys, command, values, code):
        sc = self.scenario(tmp_path, command)
        for key, value in values.items():
            set_key(sc, key, value)
        command = "xva" if command == "mc" else command
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == code
        if code == 3:
            assert json.loads(capsys.readouterr().err)["error"]["type"] == "solver"


class TestFlags:
    """--seed is read through the seed's table entry and --points belongs
    to sweep: a bad flag exits 2 naming it, before any output."""

    @staticmethod
    def scenario(tmp_path, command):
        if command == "price":
            return write_scenario(tmp_path, option=OPTION_BLOCK, grid=SMALL_GRID)
        if command == "xva":
            return write_scenario(tmp_path, portfolio=SMALL_PORTFOLIO, quadrature_steps=41)
        if command == "optimize":
            return optimize_scenario(tmp_path)
        return repo_scenario(tmp_path)

    @pytest.mark.parametrize("command", ["price", "xva", "repo-curve"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        sc = self.scenario(tmp_path, command)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out",
                    "--seed", -1]) == 2
        assert "--seed" in validation_message(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["price", "xva", "repo-curve", "optimize"])
    def test_points_outside_sweep_exits_2(self, tmp_path, capsys, command):
        sc = self.scenario(tmp_path, command)
        assert run([command, "--scenario", sc, "--out", tmp_path / "out",
                    "--points", 5]) == 2
        assert "--points" in validation_message(capsys)
        assert not (tmp_path / "out").exists()


class TestOptimize:
    def test_optimize_outputs(self, tmp_path):
        sc = optimize_scenario(tmp_path)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        summary = json.loads((tmp_path / "out" / "optimize_summary.json").read_text())
        assert summary["status"] == "converged"
        assert (tmp_path / "out" / "unit_lva.csv").exists()
        assert (tmp_path / "out" / "allocation_0.csv").exists()
        alloc = (tmp_path / "out" / "allocation_0.csv").read_text().strip().splitlines()
        assert alloc[0] == "asset,S1,S2"
        assert alloc[-1].startswith("updated_mtm,")

    def test_max_iter_stop_warns(self, tmp_path, capsys):
        sc = optimize_scenario(tmp_path)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 0
        assert capsys.readouterr().err == ""
        set_key(sc, "optimizer.max_iter", 1)
        set_key(sc, "optimizer.tol", 1e-12)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "stopped"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "max_iter"
        lines = captured.err.splitlines()
        assert len(lines) == 1
        warning = json.loads(lines[0])["warning"]
        summary = json.loads((tmp_path / "stopped" / "optimize_summary.json").read_text())
        assert warning["rounds"] == summary["iterations"] == 1
        move = max(abs(a - b) for a, b in zip(summary["updated_mtm"][0],
                                              summary["initial_mtm"]))
        assert warning["last_mtm_move"] == move > 1e-12
        assert sorted(p.name for p in (tmp_path / "stopped").iterdir()) == [
            "allocation_0.csv", "optimize_summary.json", "unit_lva.csv"]

    def test_no_round_exits_2(self, tmp_path, capsys):
        sc = optimize_scenario(tmp_path)
        set_key(sc, "optimizer.max_iter", 0)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys).startswith(
            "optimizer.max_iter must be an integer in [1, inf]")
        assert not (tmp_path / "out").exists()

    def test_threshold_exits_2(self, tmp_path, capsys):
        # each allocation round sets a set's requirement to |MTM|, so a
        # threshold would be read and then ignored
        sc = optimize_scenario(tmp_path)
        raw = json.loads(sc.read_text())
        raw["optimizer"]["netting_sets"][1]["threshold"] = 8.0
        sc.write_text(json.dumps(raw))
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == \
            "optimizer.netting_sets[1].threshold is not supported, got 8.0"
        assert not (tmp_path / "out").exists()

    def test_maturity_min_above_max_names_keys(self, tmp_path, capsys):
        sc = optimize_scenario(tmp_path)
        set_key(sc, "optimizer.netting_sets[1].portfolio.maturity_min", 25.0)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        key = "optimizer.netting_sets[1].portfolio"
        assert validation_message(capsys) == \
            f"{key}.maturity_min must be at most {key}.maturity_max, got 25.0 > 20.0"
        assert not (tmp_path / "out").exists()

    def test_unscalable_target_names_key(self, tmp_path, capsys):
        # the set's generated book is worth less than 0, as its target of -50 is
        sc = optimize_scenario(tmp_path)
        set_key(sc, "optimizer.netting_sets[0].target_mtm", 50.0)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert message.startswith("optimizer.netting_sets[0].target_mtm: the generated MTM -")
        assert message.endswith(" cannot be scaled to 50.0"), message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "repo-curve"])
    def test_repeated_asset_id_exits_2(self, tmp_path, capsys, command):
        sc = optimize_scenario(tmp_path) if command == "optimize" else repo_scenario(tmp_path)
        source = Path(json.loads(sc.read_text())["assets_file"])
        rows = (tmp_path / source).read_text().splitlines()
        assets = tmp_path / "repeated.csv"
        assets.write_text("\n".join(rows + [rows[1].replace(",1,", ",2,", 1)]) + "\n")
        set_key(sc, "assets_file", str(assets))
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert repr(rows[1].split(",")[0]) in message and "repeated.csv" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "repo-curve"])
    def test_header_only_assets_file_exits_2(self, tmp_path, capsys, command):
        sc = optimize_scenario(tmp_path) if command == "optimize" else repo_scenario(tmp_path)
        assets = tmp_path / "header_only.csv"
        header = (SCENARIO_DIR / "assets_reference.csv").read_text().splitlines()[0]
        assets.write_text(header + "\n")
        set_key(sc, "assets_file", str(assets))
        assert run([command, "--scenario", sc, "--out", tmp_path / "out"]) == 2
        assert validation_message(capsys) == f"assets_file {assets} has no asset rows"
        assert not (tmp_path / "out").exists()

    def test_repeated_netting_set_id_exits_2(self, tmp_path, capsys):
        sc = optimize_scenario(tmp_path)
        set_key(sc, "optimizer.netting_sets[1].id", "S1")
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "out"]) == 2
        message = validation_message(capsys)
        assert message.startswith("optimizer.netting_sets[1].id") and "'S1'" in message
        assert not (tmp_path / "out").exists()

    def test_infeasible_exits_3(self, tmp_path, capsys):
        sc = optimize_scenario(tmp_path, quantity=1.0)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "solver"

    def test_solver_breakdown_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cxva.simplex, "_ITERATIONS_PER_SIZE", 0)
        sc = optimize_scenario(tmp_path)
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "solver"
        assert err["error"]["class"] == "LpSolverError"

    @pytest.mark.parametrize("key", ["quantity", "hqla_floor", "tol"])
    def test_nan_input_exits_2(self, tmp_path, capsys, key):
        sc = optimize_scenario(tmp_path)
        raw = json.loads(sc.read_text())
        raw["optimizer"][key] = float("nan")
        sc.write_text(json.dumps(raw))
        assert run(["optimize", "--scenario", sc, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert not (tmp_path / "o").exists()


class TestLcrFloor:
    """The paper's LCR constraint end to end: the reference allocation with
    100 of each asset, where an HQLA floor can bind without starving a
    netting set."""

    @staticmethod
    def run_floor(tmp_path, floor: float, quantity: float = 100.0) -> tuple[int, Path]:
        raw = json.loads((SCENARIO_DIR / "allocation_reference.json").read_text())
        for curve in raw["curves"].values():
            curve["file"] = str(SCENARIO_DIR / curve["file"])
        raw["assets_file"] = str(SCENARIO_DIR / raw["assets_file"])
        raw["optimizer"].update(quantity=quantity, hqla_floor=floor)
        sc = tmp_path / f"floor_{floor:g}.json"
        sc.write_text(json.dumps(raw))
        out = tmp_path / f"out_{floor:g}"
        return run(["optimize", "--scenario", sc, "--out", out]), out

    def test_floor_binds(self, tmp_path):
        with open(SCENARIO_DIR / "assets_reference.csv", newline="") as f:
            # an asset's LCR weight: (1 - h_lcr) * price
            weight = {row["id"]: (1.0 - float(row["h_lcr"])) * float(row["price"])
                      for row in csv.DictReader(f)}
        summaries = {}
        for floor in (0.0, 240.0):
            code, out = self.run_floor(tmp_path, floor)
            assert code == 0
            summaries[floor] = json.loads((out / "optimize_summary.json").read_text())
            assert summaries[floor]["status"] == "converged"
        # unconstrained, the final allocation leaves under 240 of HQLA unused
        final = {floor: sum(weight[a] * u for a, u in s["unused_quantity"].items())
                 for floor, s in summaries.items()}
        assert final[0.0] < 239.0 and final[240.0] >= 240.0 - 1e-9
        # the floor holds in every round, to the allocation tables' 6 digits
        for k in range(summaries[240.0]["iterations"]):
            rows = (tmp_path / "out_240" / f"allocation_{k}.csv").read_text().splitlines()
            unused = sum(weight[asset] * (100.0 - sum(map(float, cells)))
                         for asset, *cells in (row.split(",") for row in rows[1:-1]))
            assert unused >= 240.0 - 1e-3, k
        # and costs LVA
        assert summaries[0.0]["objective"][-1] == pytest.approx(11.7618, abs=1e-4)
        assert summaries[240.0]["objective"][-1] == pytest.approx(11.7258, abs=1e-4)

    def test_unreachable_floor_exits_3(self, tmp_path, capsys):
        code, out = self.run_floor(tmp_path, 245.0)
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "solver" and "hqla_floor" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("floor", [82.0, 100.0])
    def test_unreachable_floor_named_alone(self, tmp_path, capsys, floor):
        # with 70 of each asset, floor 80 converges; above it phase 1 can
        # leave the floor's shortfall on a funding row, which alone is met
        code, out = self.run_floor(tmp_path, floor, quantity=70.0)
        assert code == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"].endswith("violated constraints: hqla_floor"), err
        assert not out.exists()


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
