"""Scenario files: JSON descriptions of market data and run configurations.

A scenario bundles curve specs (inline flat rates, inline nodes, or CSV file
references), party funding curves given as spreads over the risk-free curve,
a collateral block, and one or more work descriptions (option, portfolio,
repo, optimizer). Every random quantity derives from the single scenario
seed, so identical scenario + seed means identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path


from .collateral import CollateralAsset, CollateralState, chi, load_assets_csv
from .curves import PartyCurves, RateCurve, combine_curves, load_curve_csv
from .discounting import MODES, EffectiveRateSpec
from .exposure import (DeterministicModel, OneFactorMcModel, Swap,
                       exposure_profile, generate_portfolio)
from .optimizer import NettingSet
from .pde import GridSpec, OptionSpec
from .repo import RepoModelParams


class ScenarioError(ValueError):
    """The scenario file is missing, malformed, or references absent inputs."""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"scenario is missing '{key}' in {context}")
    return mapping[key]


@dataclass
class Scenario:
    """Parsed scenario with lazily built model objects."""

    raw: dict
    base_dir: Path
    seed: int

    # -- loading -------------------------------------------------------------

    @classmethod
    def load(cls, path, seed_override: int | None = None) -> "Scenario":
        path = Path(path)
        if not path.exists():
            raise ScenarioError(f"scenario file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ScenarioError(f"{path}: invalid JSON: {err}") from err
        seed = seed_override if seed_override is not None else int(raw.get("seed", 0))
        return cls(raw=raw, base_dir=path.parent, seed=seed)

    # -- curves ----------------------------------------------------------------

    def _curve_from_spec(self, spec, label: str) -> RateCurve:
        if isinstance(spec, (int, float)):
            return RateCurve.flat(float(spec), label)
        if not isinstance(spec, dict):
            raise ScenarioError(f"curve '{label}' must be a number or object")
        if "flat" in spec:
            return RateCurve.flat(float(spec["flat"]), label)
        if "nodes" in spec:
            return RateCurve.from_nodes([(float(t), float(z)) for t, z in spec["nodes"]],
                                        label=label)
        if "file" in spec:
            file_path = self.base_dir / spec["file"]
            if not file_path.exists():
                raise ScenarioError(f"curve file not found: {file_path}")
            return load_curve_csv(file_path, label=label)
        raise ScenarioError(f"curve '{label}' needs 'flat', 'nodes' or 'file'")

    def curve(self, name: str, default: RateCurve | None = None) -> RateCurve:
        curves = self.raw.get("curves", {})
        if name not in curves:
            if default is not None:
                return default
            raise ScenarioError(f"scenario is missing curve '{name}'")
        return self._curve_from_spec(curves[name], name)

    @property
    def risk_free(self) -> RateCurve:
        return self.curve("risk_free")

    def party(self, side: str) -> PartyCurves:
        """Party curves from spreads over risk-free (or explicit curve specs)."""
        parties = self.raw.get("parties", {})
        cfg = _require(parties, side, "parties")
        rf = self.risk_free
        if "bond" in cfg:
            bond = self._curve_from_spec(cfg["bond"], f"bond_{side}")
        else:
            bond = combine_curves([rf, RateCurve.flat(float(_require(cfg, "bond_spread",
                                                                     f"parties.{side}")))],
                                  [1.0, 1.0], f"bond_{side}")
        hazard = None
        if "hazard" in cfg:
            hazard = self._curve_from_spec(cfg["hazard"], f"hazard_{side}")
        if "liquidity" in cfg:
            liquidity = self._curve_from_spec(cfg["liquidity"], f"liquidity_{side}")
        elif "liquidity_spread" in cfg:
            liquidity = combine_curves([rf, RateCurve.flat(float(cfg["liquidity_spread"]))],
                                       [1.0, 1.0], f"liquidity_{side}")
        else:
            liquidity = None  # derived from bond - hazard when hazard given
        return PartyCurves(bond=bond, liquidity=liquidity, hazard=hazard)

    # -- collateral / discounting ----------------------------------------------

    def collateral_cfg(self) -> dict:
        return self.raw.get("collateral", {"mode": "noncash"})

    def effective_spec(self, collateralization: float | None = None) -> EffectiveRateSpec:
        cfg = self.collateral_cfg()
        mode = cfg.get("mode", "noncash")
        if mode not in MODES:
            raise ScenarioError(f"unknown collateral mode {mode!r}")
        eta = cfg.get("collateralization", 1.0) if collateralization is None \
            else collateralization
        if not 0.0 <= float(eta) <= 1.0:
            raise ScenarioError("collateralization must be in [0, 1]")
        if "chi" in cfg:
            x = float(cfg["chi"])
        elif "h_csa" in cfg or "h_repo" in cfg:
            x = chi(float(cfg.get("h_repo", 0.0)), float(cfg.get("h_csa", 0.0)))
        else:
            x = 1.0
        state = CollateralState(eta_b=float(eta), eta_c=float(eta),
                                chi_b=x, chi_c=x)
        spread = cfg.get("repo_spread", 0.0)
        spread_curve = self._curve_from_spec(spread, "repo_spread") \
            if isinstance(spread, dict) else float(spread)
        cash = self.curve("cash", default=self.risk_free) \
            if mode in ("cash_comingled", "cash_segregated") else None
        return EffectiveRateSpec(party_b=self.party("b"), party_c=self.party("c"),
                                 risk_free=self.risk_free, state=state, mode=mode,
                                 cash_rate=cash, repo_spread_c=spread_curve)

    # -- option ------------------------------------------------------------------

    def option(self, position: float = 1.0) -> OptionSpec:
        cfg = _require(self.raw, "option", "scenario")
        return OptionSpec(payoff=_require(cfg, "payoff", "option"),
                          strike=float(cfg.get("strike", 0.0)),
                          maturity=float(_require(cfg, "maturity", "option")),
                          spot=float(_require(cfg, "spot", "option")),
                          vol=float(_require(cfg, "vol", "option")),
                          div_yield=float(cfg.get("div_yield", 0.0)),
                          position=position)

    def grid(self) -> GridSpec:
        cfg = self.raw.get("grid", {})
        return GridSpec(s_nodes=int(cfg.get("s_nodes", 200)),
                        t_steps=int(cfg.get("t_steps", 200)),
                        s_max_mult=float(cfg.get("s_max_mult", 5.0)))

    # -- portfolio -----------------------------------------------------------------

    def portfolio(self, cfg: dict | None = None, seed_offset: int = 0) -> list[Swap]:
        cfg = cfg if cfg is not None else _require(self.raw, "portfolio", "scenario")
        return generate_portfolio(
            n=int(cfg.get("n", 1000)),
            payer_frac=float(_require(cfg, "payer_frac", "portfolio")),
            maturity_range=(float(cfg.get("maturity_min", 0.25)),
                            float(cfg.get("maturity_max", 30.0))),
            rate_band=float(cfg.get("rate_band", 0.01)),
            seed=self.seed + seed_offset,
            curve=self.risk_free,
            rate_offset=float(cfg.get("rate_offset", 0.0)),
            pay_freq=int(cfg.get("pay_freq", 2)),
            notional=float(cfg.get("notional", 1.0)))

    def exposure_model(self, cfg: dict | None = None):
        cfg = cfg if cfg is not None else self.raw.get("portfolio", {})
        model = cfg.get("model", "deterministic")
        if model == "deterministic":
            return DeterministicModel()
        if model == "one_factor_mc":
            return OneFactorMcModel(mean_reversion=float(cfg.get("mean_reversion", 0.05)),
                                    vol=float(cfg.get("vol", 0.01)),
                                    paths=int(cfg.get("paths", 2000)),
                                    seed=self.seed + 17)
        raise ScenarioError(f"unknown exposure model {model!r}")

    def portfolio_profile(self, cfg: dict | None = None, seed_offset: int = 0):
        cfg = cfg if cfg is not None else _require(self.raw, "portfolio", "scenario")
        book = self.portfolio(cfg, seed_offset)
        points = int(cfg.get("profile_points", 121))
        return exposure_profile(book, self.exposure_model(cfg), points,
                                self.risk_free)

    @property
    def quadrature_steps(self) -> int:
        return int(self.raw.get("quadrature_steps", 200))

    # -- assets / repo -----------------------------------------------------------

    def assets(self) -> list[CollateralAsset]:
        name = _require(self.raw, "assets_file", "scenario")
        path = self.base_dir / name
        if not path.exists():
            raise ScenarioError(f"assets file not found: {path}")
        assets = load_assets_csv(path)
        quantity = self.raw.get("optimizer", {}).get("quantity")
        if quantity is not None:
            assets = [replace(a, quantity=float(quantity)) for a in assets]
        return assets

    def repo_params(self) -> RepoModelParams:
        cfg = self.raw.get("repo", {})
        mu0 = self.curve("mu0", default=RateCurve.flat(0.0, "mu0"))
        hazard = self.curve("hazard", default=RateCurve.flat(0.0, "hazard"))
        return RepoModelParams(roe=float(cfg.get("roe", 0.10)),
                               mu0_curve=mu0, hazard=hazard,
                               expected_gap_loss=float(cfg.get("expected_gap_loss", 0.0)))

    def repo_target(self) -> tuple[str, str, list[float]]:
        cfg = _require(self.raw, "repo", "scenario")
        tenors = [float(t) for t in cfg.get(
            "tenors", (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0))]
        return (_require(cfg, "asset", "repo"), _require(cfg, "rating", "repo"),
                tenors)

    # -- optimizer -----------------------------------------------------------------

    def netting_sets(self) -> list[NettingSet]:
        cfg = _require(self.raw, "optimizer", "scenario")
        out = []
        for k, ns in enumerate(_require(cfg, "netting_sets", "optimizer")):
            profile = self.portfolio_profile(_require(ns, "portfolio", "netting_sets"),
                                             seed_offset=k + 1)
            target = ns.get("target_mtm")
            if target is not None:
                target = float(target)
                if profile.mtm0 == 0.0 or target * profile.mtm0 <= 0.0:
                    raise ScenarioError(
                        f"netting set {ns.get('id', k)}: generated MTM "
                        f"{profile.mtm0:.4g} cannot be scaled to {target}")
                profile = profile.scaled(target / profile.mtm0)
            # a threshold leaves a fixed uncollateralized pocket: only the
            # excess over it has to be posted
            threshold = float(ns.get("threshold", 0.0))
            out.append(NettingSet(id=str(_require(ns, "id", "netting_sets")),
                                  requirement=max(abs(profile.mtm0) - threshold, 0.0),
                                  rating=str(_require(ns, "rating", "netting_sets")),
                                  profile=profile))
        return out

    def optimizer_cfg(self) -> dict:
        return _require(self.raw, "optimizer", "scenario")
