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
from .exposure import (MAX_PATHS, MAX_PROFILE_POINTS, MAX_SWAPS, DeterministicModel,
                       OneFactorMcModel, Swap, exposure_profile, generate_portfolio)
from .optimizer import DEFAULT_SPREAD_TENORS, NettingSet
from .pde import GridSpec, OptionSpec
from .repo import RepoModelParams
from .xva import MAX_QUADRATURE_STEPS


class ScenarioError(ValueError):
    """The scenario file is missing, malformed, or references absent inputs."""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"scenario is missing '{key}' in {context}")
    return mapping[key]


def as_int(value, key: str) -> int:
    """An integer scenario value; anything else (inf, NaN, a fraction, a
    string or a boolean) raises ScenarioError naming the key."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ScenarioError(f"{key} must be an integer, got {value!r}")


def as_block(value, key: str, kind: type):
    """A JSON object (kind dict) or array (kind list), else ScenarioError naming the key."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ScenarioError(f"{key} must be a JSON {name}, got {value!r:.60}")
    return value


# The JSON type of each top-level block, checked on load, by its readers.
BLOCK_TYPES = {
    # Scenario.curve, party, effective_spec, option, grid
    "curves": dict, "parties": dict, "collateral": dict, "option": dict, "grid": dict,
    # Scenario.portfolio*, exposure_model, repo_*, assets, netting_sets, optimizer_cfg
    "portfolio": dict, "repo": dict, "optimizer": dict,
    "sweep": dict, "xva_levels": list,  # cli.main, cli.cmd_xva
}


def as_count(value, key: str, lo: int, hi: int) -> int:
    """An integer scenario value in [lo, hi] that sizes arrays; anything
    else raises ScenarioError naming the key, before any array is built."""
    n = as_int(value, key)
    if not lo <= n <= hi:
        raise ScenarioError(f"{key} must be an integer in [{lo}, {hi}], got {value!r}")
    return n


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
        as_block(raw, f"{path}: the scenario", dict)
        for key, kind in BLOCK_TYPES.items():
            if key in raw:
                as_block(raw[key], key, kind)
        seed = seed_override if seed_override is not None \
            else as_int(raw.get("seed", 0), "seed")
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
            nodes = as_block(spec["nodes"], f"curve '{label}' nodes", list)
            if not all(isinstance(node, list) and len(node) == 2 for node in nodes):
                raise ScenarioError(f"curve '{label}' nodes must be [tenor, rate] pairs")
            return RateCurve.from_nodes([(float(t), float(z)) for t, z in nodes], label=label)
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
        cfg = as_block(_require(parties, side, "parties"), f"parties.{side}", dict)
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

    def effective_spec(self, collateralization: float | None = None) -> EffectiveRateSpec:
        cfg = self.raw.get("collateral", {})
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
        return GridSpec(s_nodes=as_int(cfg.get("s_nodes", 200), "grid.s_nodes"),
                        t_steps=as_int(cfg.get("t_steps", 200), "grid.t_steps"),
                        s_max_mult=float(cfg.get("s_max_mult", 5.0)))

    # -- portfolio -----------------------------------------------------------------

    def portfolio(self, cfg: dict | None = None, seed_offset: int = 0) -> list[Swap]:
        cfg = cfg if cfg is not None else _require(self.raw, "portfolio", "scenario")
        return generate_portfolio(
            n=as_count(cfg.get("n", 1000), "portfolio.n", 1, MAX_SWAPS),
            payer_frac=float(_require(cfg, "payer_frac", "portfolio")),
            maturity_range=(float(cfg.get("maturity_min", 0.25)),
                            float(cfg.get("maturity_max", 30.0))),
            rate_band=float(cfg.get("rate_band", 0.01)),
            seed=self.seed + seed_offset,
            curve=self.risk_free,
            rate_offset=float(cfg.get("rate_offset", 0.0)),
            pay_freq=as_int(cfg.get("pay_freq", 2), "portfolio.pay_freq"),
            notional=float(cfg.get("notional", 1.0)))

    def exposure_model(self, cfg: dict | None = None):
        cfg = cfg if cfg is not None else self.raw.get("portfolio", {})
        model = cfg.get("model", "deterministic")
        if model == "deterministic":
            return DeterministicModel()
        if model == "one_factor_mc":
            return OneFactorMcModel(mean_reversion=float(cfg.get("mean_reversion", 0.05)),
                                    vol=float(cfg.get("vol", 0.01)),
                                    paths=as_count(cfg.get("paths", 2000), "portfolio.paths",
                                                   1000, MAX_PATHS),
                                    seed=self.seed + 17)
        raise ScenarioError(f"unknown exposure model {model!r}")

    def portfolio_profile(self, cfg: dict | None = None, seed_offset: int = 0):
        cfg = cfg if cfg is not None else _require(self.raw, "portfolio", "scenario")
        points = as_count(cfg.get("profile_points", 121), "portfolio.profile_points",
                          2, MAX_PROFILE_POINTS)
        model = self.exposure_model(cfg)
        return exposure_profile(self.portfolio(cfg, seed_offset), model, points,
                                self.risk_free)

    @property
    def quadrature_steps(self) -> int:
        return as_count(self.raw.get("quadrature_steps", 200), "quadrature_steps",
                        1, MAX_QUADRATURE_STEPS)

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
        tenors = [float(t) for t in as_block(cfg.get("tenors", list(DEFAULT_SPREAD_TENORS)),
                                             "repo.tenors", list)]
        return (_require(cfg, "asset", "repo"), _require(cfg, "rating", "repo"),
                tenors)

    # -- optimizer -----------------------------------------------------------------

    def netting_sets(self) -> list[NettingSet]:
        cfg = _require(self.raw, "optimizer", "scenario")
        out = []
        for k, ns in enumerate(as_block(_require(cfg, "netting_sets", "optimizer"),
                                        "optimizer.netting_sets", list)):
            ns = as_block(ns, f"optimizer.netting_sets[{k}]", dict)
            if "threshold" in ns:
                # each allocation round sets the requirement to |MTM|, so a
                # threshold would be read and then ignored
                raise ScenarioError(f"netting set {ns.get('id', k)}: threshold is not supported")
            profile = self.portfolio_profile(
                as_block(_require(ns, "portfolio", "netting_sets"),
                         f"optimizer.netting_sets[{k}].portfolio", dict), seed_offset=k + 1)
            target = ns.get("target_mtm")
            if target is not None:
                target = float(target)
                if profile.mtm0 == 0.0 or target * profile.mtm0 <= 0.0:
                    raise ScenarioError(
                        f"netting set {ns.get('id', k)}: generated MTM "
                        f"{profile.mtm0:.4g} cannot be scaled to {target}")
                profile = profile.scaled(target / profile.mtm0)
            out.append(NettingSet(id=str(_require(ns, "id", "netting_sets")),
                                  requirement=abs(profile.mtm0),
                                  rating=str(_require(ns, "rating", "netting_sets")),
                                  profile=profile))
        return out

    def optimizer_cfg(self) -> dict:
        return _require(self.raw, "optimizer", "scenario")
