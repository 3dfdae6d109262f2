import json
import math
import re
from collections.abc import Mapping
from pathlib import Path

import pytest

from cxva import collateral, curves, discounting, exposure, intervals, optimizer, pde, repo
from cxva.collateral import CollateralAsset
from cxva.curves import RateCurve
from cxva.exposure import (MAX_PATHS, MAX_PROFILE_POINTS, MAX_SWAPS, DeterministicModel,
                           OneFactorMcModel)
from cxva.scenario import (CURVE_FORMS, EXPOSURE_MODELS, MAX_SWEEP_POINTS, SCHEMA, Key, Scenario,
                           ScenarioError, read_flag)
from cxva.xva import MAX_QUADRATURE_STEPS, QUADRATURE_STEPS


def write(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BASE = {
    "seed": 3,
    "curves": {"risk_free": {"flat": 0.01}},
    "parties": {
        "b": {"bond_spread": 0.0125, "liquidity_spread": 0.005},
        "c": {"bond_spread": 0.03, "liquidity_spread": 0.01},
    },
}


class TestCurves:
    def test_inline_nodes(self, tmp_path):
        payload = dict(BASE, curves={"risk_free": {"nodes": [[1.0, 0.02], [5.0, 0.03]]}})
        sc = Scenario.load(write(tmp_path, payload))
        assert sc.risk_free.zero_rate(1.0) == pytest.approx(0.02)

    def test_bad_curve_spec(self, tmp_path):
        payload = dict(BASE, curves={"risk_free": {"oops": 1}})
        sc = Scenario.load(write(tmp_path, payload))
        with pytest.raises(ScenarioError):
            sc.risk_free

    def test_party_from_hazard(self, tmp_path):
        payload = dict(BASE)
        payload["parties"] = {
            "b": {"bond_spread": 0.0125, "hazard": {"flat": 0.008}},
            "c": {"bond_spread": 0.03, "liquidity_spread": 0.01},
        }
        sc = Scenario.load(write(tmp_path, payload))
        party = sc.party("b")
        # liquidity = bond - hazard
        assert party.liquidity.zero_rate(1.0) == pytest.approx(0.01 + 0.0125 - 0.008)


class TestCurveCsv:
    """A curve file, read through the scenario's CSV reader."""

    def test_round_trip(self, tmp_path):
        curve = RateCurve.from_nodes([(0.25, 0.011), (10.0, 0.0225)], label="OIS")
        (tmp_path / "ois.csv").write_text("tenor_years,zero_rate\n0.25,0.011\n10.0,0.0225\n")
        payload = dict(BASE, curves={"risk_free": {"file": "ois.csv"}})
        back = Scenario.load(write(tmp_path, payload)).risk_free
        assert back.tenors == curve.tenors
        assert all(a == pytest.approx(b, rel=1e-12) for a, b in zip(back.rates, curve.rates))

    def test_bad_header(self, tmp_path):
        (tmp_path / "bad.csv").write_text("tenor,rate\n1.0,0.02\n")
        sc = Scenario.load(write(tmp_path, dict(BASE, curves={"risk_free": {"file": "bad.csv"}})))
        with pytest.raises(ScenarioError):
            sc.risk_free

    @pytest.mark.parametrize("spec", [{"nodes": []}, {"file": "header.csv"}])
    def test_no_nodes_names_the_curve(self, tmp_path, spec):
        (tmp_path / "header.csv").write_text("tenor_years,zero_rate\n\n")
        sc = Scenario.load(write(tmp_path, dict(BASE, curves={"risk_free": spec})))
        with pytest.raises(ScenarioError, match="curve 'curves.risk_free' has no nodes"):
            sc.risk_free


class TestAssetCsv:
    """The assets file, read through the scenario's CSV reader."""

    def test_round_trip(self, tmp_path):
        (tmp_path / "assets.csv").write_text(
            "id,price,quantity,h_csa,h_repo,h_lcr,ec_AA,ec_A,ec_BBB,ec_BB\n"
            "UST_10y,1,75,0.02,0.03,0,0.0008,0.0017,0.004,0.008\n")
        back = Scenario.load(write(tmp_path, dict(BASE, assets_file="assets.csv"))).assets()
        assert back == [CollateralAsset("UST_10y", 1.0, 75.0, 0.02, 0.03, 0.0,
                                        {"AA": 0.0008, "A": 0.0017, "BBB": 0.004,
                                         "BB": 0.008})]


class TestCollateralBlock:
    def test_chi_from_haircuts(self, tmp_path):
        payload = dict(BASE, collateral={"mode": "noncash", "h_csa": 0.05,
                                         "h_repo": 0.10, "repo_spread": 0.002})
        sc = Scenario.load(write(tmp_path, payload))
        spec = sc.effective_spec()
        assert spec.side(+1).chi == pytest.approx(1.0 - 0.05 / 0.95)

    def test_bad_mode(self, tmp_path):
        payload = dict(BASE, collateral={"mode": "weird"})
        sc = Scenario.load(write(tmp_path, payload))
        with pytest.raises(ScenarioError):
            sc.effective_spec()


class TestPortfolioBlock:
    def test_model_selection(self, tmp_path):
        payload = dict(BASE, portfolio={"n": 5, "payer_frac": 1.0,
                                        "model": "one_factor_mc", "paths": 1000})
        sc = Scenario.load(write(tmp_path, payload))
        assert isinstance(sc.exposure_model(), OneFactorMcModel)
        payload["portfolio"]["model"] = "deterministic"
        sc = Scenario.load(write(tmp_path, payload, "s2.json"))
        assert isinstance(sc.exposure_model(), DeterministicModel)

    def test_largest_counts_accepted(self, tmp_path):
        portfolio = {"n": MAX_SWAPS, "payer_frac": 0.5, "maturity_max": 2.0,
                     "model": "one_factor_mc", "paths": MAX_PATHS,
                     "profile_points": MAX_PROFILE_POINTS}
        sc = Scenario.load(write(tmp_path, dict(BASE, portfolio=portfolio,
                                                quadrature_steps=MAX_QUADRATURE_STEPS)))
        assert sc.quadrature_steps == MAX_QUADRATURE_STEPS
        assert sc.exposure_model().paths == MAX_PATHS
        assert len(sc.portfolio()) == MAX_SWAPS
        small = dict(portfolio, n=2, model="deterministic")
        assert len(sc.portfolio_profile(small).times) == MAX_PROFILE_POINTS

    def test_count_bounds_inclusive(self, tmp_path):
        lo, hi, _ = SCHEMA["scenario"]["quadrature_steps"].bounds
        for good in (lo, float(hi)):
            sc = Scenario.load(write(tmp_path, dict(BASE, quadrature_steps=good)))
            assert sc.quadrature_steps == good
        for bad in (lo - 1, hi + 1, 1e12):
            sc = Scenario.load(write(tmp_path, dict(BASE, quadrature_steps=bad)))
            with pytest.raises(ScenarioError,
                               match=rf"quadrature_steps must be an integer in \[{lo}, {hi}\]"):
                sc.quadrature_steps

    def test_negative_seed_names_key(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"seed must be an integer in \[0, inf\]"):
            Scenario.load(write(tmp_path, dict(BASE, seed=-1)))

    def test_seed_override(self, tmp_path):
        sc = Scenario.load(write(tmp_path, dict(BASE)), seed_override=99)
        assert sc.seed == 99


class TestNettingSets:
    def test_unscalable_sign_rejected(self, tmp_path):
        payload = dict(BASE, optimizer={"netting_sets": [
            {"id": "S1", "rating": "A", "target_mtm": 50.0,
             "portfolio": {"n": 40, "payer_frac": 0.9, "rate_offset": 0.02,
                           "profile_points": 21}},
        ]})
        sc = Scenario.load(write(tmp_path, payload))
        with pytest.raises(ScenarioError):
            sc.netting_sets()

    @pytest.mark.parametrize("target", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_target_rejected(self, tmp_path, target):
        payload = dict(BASE, optimizer={"netting_sets": [
            {"id": "S1", "rating": "A", "target_mtm": target,
             "portfolio": {"n": 40, "payer_frac": 0.9, "rate_offset": 0.02,
                           "profile_points": 21}},
        ]})
        sc = Scenario.load(write(tmp_path, payload))
        with pytest.raises(ScenarioError, match=re.escape(
                f"optimizer.netting_sets[0].target_mtm must be a finite number in "
                f"(-inf, inf), got {target!r}")):
            sc.netting_sets()


class TestNestedBlockTypes:
    """A nested block of the wrong JSON type raises ScenarioError naming
    its key where it is read, not a TypeError."""

    @pytest.mark.parametrize("override, read, named", [
        ({"curves": {"risk_free": {"nodes": [5]}}}, lambda sc: sc.risk_free, "risk_free' nodes"),
        ({"parties": {"b": 3}}, lambda sc: sc.party("b"), "parties.b"),
        ({"repo": {"tenors": 5}}, lambda sc: sc.config["repo"]["tenors"], "repo.tenors"),
        ({"optimizer": {"netting_sets": 5}}, lambda sc: sc.netting_sets(),
         "optimizer.netting_sets"),
        ({"optimizer": {"netting_sets": [5]}}, lambda sc: sc.netting_sets(),
         "optimizer.netting_sets[0]"),
        ({"optimizer": {"netting_sets": [{"id": "S", "rating": "A", "portfolio": 5}]}},
         lambda sc: sc.netting_sets(), "optimizer.netting_sets[0].portfolio"),
    ])
    def test_wrong_type_names_key(self, tmp_path, override, read, named):
        sc = Scenario.load(write(tmp_path, dict(BASE, **override)))
        with pytest.raises(ScenarioError, match=re.escape(named)):
            read(sc)


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


class TestSchema:
    """Every scenario key is declared once, in cxva.scenario.SCHEMA."""

    @staticmethod
    def unknown_keys(raw: dict, section: str, path: str) -> list[str]:
        """The keys of ``raw`` (read as ``section``) and of every object
        below it that the table does not declare."""
        found = []
        for name, value in raw.items():
            dotted = f"{path}.{name}" if path else name
            key = SCHEMA[section].get(name)
            if key is None:
                found.append(dotted)
            elif key.kind == "object":
                found += TestSchema.unknown_keys(value, key.section, dotted)
            elif key.kind == "array" and key.item.kind == "object":
                for i, item in enumerate(value):
                    found += TestSchema.unknown_keys(item, key.item.section, f"{dotted}[{i}]")
            elif key.kind == "curve" and isinstance(value, dict):
                found += [f"{dotted}.{form}" for form in value if form not in CURVE_FORMS]
        return found

    @staticmethod
    def read_all(block: Mapping) -> int:
        """Read every table key ``block``'s object gives, and every key of the
        objects below it; the number of keys read."""
        read = 0
        for name in block.raw:
            if name in SCHEMA[block.section]:
                value, read = block[name], read + 1
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, Mapping):
                        read += TestSchema.read_all(item)
        return read

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_shipped_scenario_keys_are_table_keys(self, path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert self.unknown_keys(raw, "scenario", "") == []

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_shipped_scenario_values_read_back(self, path):
        assert self.read_all(Scenario.load(path).config) > 10

    def test_value_sets_are_the_library_tuples(self):
        choices = {(section, name): key.choices for section, keys in SCHEMA.items()
                   for name, key in keys.items() if key.choices is not None}
        library = {("collateral", "mode"): discounting.MODES,
                   ("portfolio", "model"): EXPOSURE_MODELS,
                   ("option", "payoff"): pde.PAYOFFS,
                   ("optimizer", "funding_haircut"): optimizer.FUNDING_HAIRCUTS,
                   ("repo", "rating"): collateral.RATING_KEYS,
                   ("netting_set", "rating"): collateral.RATING_KEYS,
                   ("portfolio", "pay_freq"): exposure.PAY_FREQS}
        assert choices.keys() == library.keys()
        assert all(choices[k] is library[k] for k in library)
        assert SCHEMA["sweep"]["points"].bounds == (2, MAX_SWEEP_POINTS, "[]")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_number_interval_is_finite(self, value):
        # each number key, and each item of an array of numbers, rejects the
        # value naming itself; every array declares its item's own Key
        numbers = 0
        for section, keys in SCHEMA.items():
            for name, key in keys.items():
                if key.kind == "array":
                    assert isinstance(key.item, Key), name
                if key.kind == "number" or key.kind == "array" and key.item.kind == "number":
                    given, named = ((value, name) if key.kind == "number"
                                    else ([value], f"{name}[0]"))
                    with pytest.raises(ScenarioError, match="^" + re.escape(
                            f"{named} must be a finite number in ")):
                        read_flag(name, section, name, given)
                    numbers += 1
        assert numbers == 29

    def test_intervals_are_the_library_constants(self):
        # each key that sets a library field reads the interval that field's
        # own check reads
        library = {
            **{("option", name): pde.OPTION_BOUNDS[name] for name in pde.OPTION_BOUNDS},
            **{("grid", name): pde.GRID_BOUNDS[name] for name in pde.GRID_BOUNDS},
            **{("portfolio", name): exposure.PORTFOLIO_BOUNDS[name]
               for name in exposure.PORTFOLIO_BOUNDS},
            **{("portfolio", name): exposure.MC_BOUNDS[name] for name in exposure.MC_BOUNDS},
            ("portfolio", "maturity_min"): exposure.MATURITY,
            ("portfolio", "maturity_max"): exposure.MATURITY,
            ("portfolio", "notional"): exposure.SWAP_BOUNDS["notional"],
            ("portfolio", "profile_points"): exposure.PROFILE_POINTS,
            ("collateral", "collateralization"): collateral.STATE_BOUNDS["eta_b"],
            ("collateral", "chi"): collateral.STATE_BOUNDS["chi_b"],
            ("collateral", "h_csa"): collateral.HAIRCUT,
            ("collateral", "h_repo"): collateral.HAIRCUT,
            **{("repo", name): repo.REPO_BOUNDS[name] for name in repo.REPO_BOUNDS},
            ("curves", "hazard"): curves.HAZARD, ("party", "hazard"): curves.HAZARD,
            ("optimizer", "quantity"): collateral.ASSET_BOUNDS["quantity"],
            ("optimizer", "hqla_floor"): intervals.NON_NEGATIVE,
            **{("optimizer", name): optimizer.ITERATION_BOUNDS[name]
               for name in optimizer.ITERATION_BOUNDS},
            ("scenario", "quadrature_steps"): QUADRATURE_STEPS,
        }
        assert len(library) == 32
        for (section, name), bounds in library.items():
            assert SCHEMA[section][name].bounds is bounds, (section, name)

    def test_values_read_once(self, tmp_path):
        sc = Scenario.load(write(tmp_path, BASE))
        assert sc.config["curves"] is sc.config["curves"]
        assert sc.risk_free is sc.risk_free
        assert sc.config["xva_levels"] is sc.config["xva_levels"]

    def test_failed_value_fails_again(self, tmp_path):
        sc = Scenario.load(write(tmp_path, dict(BASE, collateral={"mode": "nocash"})))
        for _ in range(2):
            with pytest.raises(ScenarioError, match="collateral.mode must be one of"):
                sc.effective_spec()

    def test_unknown_key_found(self):
        raw = {"collateral": {"colateralization": 0.5},
               "optimizer": {"netting_sets": [{"portfolio": {"n": 3, "nn": 4}}]},
               "curves": {"risk_free": {"flat": 0.01, "flatt": 0.02}}}
        assert self.unknown_keys(raw, "scenario", "") == [
            "collateral.colateralization", "optimizer.netting_sets[0].portfolio.nn",
            "curves.risk_free.flatt"]

    @pytest.mark.parametrize("value", [1, 1.0])
    def test_integer_valued_number_accepted(self, tmp_path, value):
        option = {"payoff": "call", "strike": 100, "spot": 100.0, "vol": 0.2, "maturity": value}
        sc = Scenario.load(write(tmp_path, dict(BASE, option=option, grid={"s_nodes": 300.0})))
        assert sc.option().maturity == 1.0 and isinstance(sc.option().strike, float)
        assert sc.grid().s_nodes == 300 and isinstance(sc.grid().s_nodes, int)

    @pytest.mark.parametrize("value", [True, "1", None, [1.0], {"x": 1.0}, 10 ** 400])
    def test_wrong_kind_names_key(self, tmp_path, value):
        option = {"payoff": "call", "strike": 100.0, "spot": 100.0, "vol": 0.2, "maturity": value}
        sc = Scenario.load(write(tmp_path, dict(BASE, option=option)))
        with pytest.raises(ScenarioError, match=r"option\.maturity must be a JSON number"):
            sc.option()

    def test_null_means_absent_only_without_default(self, tmp_path):
        sc = Scenario.load(write(tmp_path, dict(BASE, optimizer={"quantity": None})))
        assert sc.optimizer_cfg()["quantity"] is None
        sc = Scenario.load(write(tmp_path, dict(BASE, optimizer={"tol": None})))
        with pytest.raises(ScenarioError, match=r"optimizer\.tol must be a JSON number"):
            sc.optimizer_cfg()["tol"]
