import json

import pytest

from cxva.exposure import DeterministicModel, OneFactorMcModel
from cxva.scenario import Scenario, ScenarioError


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


class TestCollateralBlock:
    def test_chi_from_haircuts(self, tmp_path):
        payload = dict(BASE, collateral={"mode": "noncash", "h_csa": 0.05,
                                         "h_repo": 0.10, "repo_spread": 0.002})
        sc = Scenario.load(write(tmp_path, payload))
        spec = sc.effective_spec()
        assert spec.chi(+1) == pytest.approx(1.0 - 0.05 / 0.95)

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

    def test_seed_override(self, tmp_path):
        sc = Scenario.load(write(tmp_path, dict(BASE)), seed_override=99)
        assert sc.seed == 99


class TestNettingSets:
    def test_threshold_reduces_requirement(self, tmp_path):
        payload = dict(BASE, optimizer={"netting_sets": [
            {"id": "S1", "rating": "A", "target_mtm": -50.0, "threshold": 8.0,
             "portfolio": {"n": 40, "payer_frac": 0.9, "rate_offset": 0.02,
                           "profile_points": 21}},
        ]})
        sc = Scenario.load(write(tmp_path, payload))
        (ns,) = sc.netting_sets()
        assert ns.requirement == pytest.approx(42.0)
        assert ns.profile.mtm0 == pytest.approx(-50.0)

    def test_unscalable_sign_rejected(self, tmp_path):
        payload = dict(BASE, optimizer={"netting_sets": [
            {"id": "S1", "rating": "A", "target_mtm": 50.0,
             "portfolio": {"n": 40, "payer_frac": 0.9, "rate_offset": 0.02,
                           "profile_points": 21}},
        ]})
        sc = Scenario.load(write(tmp_path, payload))
        with pytest.raises(ScenarioError):
            sc.netting_sets()
