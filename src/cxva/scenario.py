"""Scenario files: JSON descriptions of market data and run configurations.

A scenario bundles curve specs, party funding curves given as spreads over
the risk-free curve, a collateral block, and one or more work descriptions
(option, portfolio, repo, optimizer). Every random quantity derives from the
single scenario seed, so identical scenario + seed means identical outputs.

``SCHEMA`` declares every key a scenario may hold: its JSON kind, default,
interval (every number and curve rate has one, so none is NaN or infinite)
and, for an enumerated key, the value set it takes; a key that sets a
library field reads the interval constant and value set that field's own
check reads (``cxva.intervals``). ``Scenario`` reads each value through the
table when a command first needs it and keeps what it read; a value of another
kind, outside its interval or outside its value set raises ScenarioError
naming its dotted key. Keys it does not declare are ignored.
It is the one module that reads input files: the JSON scenario, and curve
files and the assets file through one CSV reader, which reads a row's cells
by position and names the key, path and line of a malformed row or cell
(an assets cell outside ``CollateralAsset``'s interval, its column too).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .collateral import (ASSET_BOUNDS, HAIRCUT, RATING_KEYS, STATE_BOUNDS, CollateralAsset,
                         CollateralState, chi)
from .curves import HAZARD, PartyCurves, RateCurve, combine_curves, dominates
from .discounting import MODES, EffectiveRateSpec
from .exposure import (MATURITY, MC_BOUNDS, PAY_FREQS, PORTFOLIO_BOUNDS, PROFILE_POINTS,
                       SWAP_BOUNDS, DeterministicModel, OneFactorMcModel, SwapBook,
                       exposure_profile, generate_portfolio)
from .intervals import COUNT, FINITE, FRACTION, INTEGER, NON_NEGATIVE, POSITIVE, RATE, bounded, chosen
from .optimizer import DEFAULT_SPREAD_TENORS, FUNDING_HAIRCUTS, ITERATION_BOUNDS, NettingSet
from .pde import GRID_BOUNDS, OPTION_BOUNDS, PAYOFFS, GridSpec, OptionSpec
from .repo import REPO_BOUNDS, RepoModelParams
from .xva import QUADRATURE_STEPS


class ScenarioError(ValueError):
    """The scenario file is missing, malformed, or references absent inputs."""


# largest sweep or xva_levels: an option sweep runs 8 PDE solves a point
MAX_SWEEP_POINTS = 1_000
REQUIRED = object()
# a curve spec is a number (a flat rate) or an object holding one of these
CURVE_FORMS = ("flat", "nodes", "file")
# the exposure backends Scenario.exposure_model builds
EXPOSURE_MODELS = ("deterministic", "one_factor_mc")
# the headers of a curve file and of the assets file
_CURVE_HEADER = ("tenor_years", "zero_rate")
_ASSET_HEADER = ("id", "price", "quantity", "h_csa", "h_repo", "h_lcr",
                *(f"ec_{r}" for r in RATING_KEYS))


class Key(NamedTuple):
    """A scenario key: JSON kind ("number", "integer", "string", "curve", "array"
    or "object"), default (None: absent and null mean "not given"), bounds,
    the interval (``cxva.intervals``) a number, an integer, a curve's rates
    or an array's length lies in; an array item's own Key, an object's
    SCHEMA section and the values a string or integer key may take (None:
    any)."""

    kind: str
    default: object = REQUIRED
    bounds: tuple = FINITE
    item: Key | None = None
    section: str | None = None
    choices: tuple | None = None


# every key a scenario may hold, by section; "scenario" is the top level
SCHEMA = {
    "scenario": {
        "seed": Key("integer", 0, (0, math.inf, "[]")),
        "curves": Key("object", {}, section="curves"),
        "parties": Key("object", {}, section="parties"),
        "collateral": Key("object", {}, section="collateral"),
        "option": Key("object", section="option"), "grid": Key("object", {}, section="grid"),
        "portfolio": Key("object", section="portfolio"),
        "quadrature_steps": Key("integer", 200, QUADRATURE_STEPS),
        "xva_levels": Key("array", [0.0, 0.5, 1.0], (1, MAX_SWEEP_POINTS, "[]"),
                          Key("number", bounds=FRACTION)),
        "sweep": Key("object", {}, section="sweep"),
        "assets_file": Key("string"), "repo": Key("object", {}, section="repo"),
        "optimizer": Key("object", {}, section="optimizer")},
    "curves": {"risk_free": Key("curve", REQUIRED, RATE), "cash": Key("curve", None, RATE),
               "mu0": Key("curve", 0.0, RATE), "hazard": Key("curve", 0.0, HAZARD)},
    "parties": {"b": Key("object", section="party"), "c": Key("object", section="party")},
    # spreads are over risk-free; omitted liquidity is bond - hazard
    "party": {"bond": Key("curve", None, RATE), "bond_spread": Key("number", bounds=RATE),
              "hazard": Key("curve", None, HAZARD), "liquidity": Key("curve", None, RATE),
              "liquidity_spread": Key("number", None, RATE)},
    # chi, when not given, follows from the haircuts
    "collateral": {"mode": Key("string", "noncash", choices=MODES),
                   "collateralization": Key("number", 1.0, STATE_BOUNDS["eta_b"]),
                   "chi": Key("number", None, STATE_BOUNDS["chi_b"]),
                   "h_csa": Key("number", 0.0, HAIRCUT), "h_repo": Key("number", 0.0, HAIRCUT),
                   "repo_spread": Key("curve", 0.0, RATE)},
    # vol * sqrt(maturity) is at most ln(grid.s_max_mult) / 2, so the grid's
    # top, s_max_mult * max(spot, strike), is at least two log-price standard
    # deviations above max(spot, strike); Scenario.option checks it
    "option": {"payoff": Key("string", choices=PAYOFFS),
               "strike": Key("number", 0.0, OPTION_BOUNDS["strike"]),
               "maturity": Key("number", REQUIRED, OPTION_BOUNDS["maturity"]),
               "spot": Key("number", bounds=OPTION_BOUNDS["spot"]),
               "vol": Key("number", bounds=OPTION_BOUNDS["vol"]),
               "div_yield": Key("number", 0.0, OPTION_BOUNDS["div_yield"])},
    "grid": {"s_nodes": Key("integer", 200, GRID_BOUNDS["s_nodes"]),
             "t_steps": Key("integer", 200, GRID_BOUNDS["t_steps"]),
             "s_max_mult": Key("number", 5.0, GRID_BOUNDS["s_max_mult"])},
    # notional, mean_reversion and vol as the Monte Carlo kernel can
    # represent them (see cxva.exposure)
    "portfolio": {"n": Key("integer", 1000, PORTFOLIO_BOUNDS["n"]),
                  "payer_frac": Key("number", bounds=PORTFOLIO_BOUNDS["payer_frac"]),
                  "maturity_min": Key("number", 0.25, MATURITY),
                  "maturity_max": Key("number", 30.0, MATURITY),
                  "rate_band": Key("number", 0.01, PORTFOLIO_BOUNDS["rate_band"]),
                  "rate_offset": Key("number", 0.0, PORTFOLIO_BOUNDS["rate_offset"]),
                  "pay_freq": Key("integer", 2, choices=PAY_FREQS),
                  "notional": Key("number", 1.0, SWAP_BOUNDS["notional"]),
                  "model": Key("string", "deterministic", choices=EXPOSURE_MODELS),
                  "mean_reversion": Key("number", 0.05, MC_BOUNDS["mean_reversion"]),
                  "vol": Key("number", 0.01, MC_BOUNDS["vol"]),
                  "paths": Key("integer", 2000, MC_BOUNDS["paths"]),
                  "profile_points": Key("integer", 121, PROFILE_POINTS)},
    "sweep": {"points": Key("integer", 11, (2, MAX_SWEEP_POINTS, "[]"))},
    # the repo RoE hurdle a year, and the expected gap loss a fraction of the loan
    "repo": {"roe": Key("number", 0.10, REPO_BOUNDS["roe"]),
             "expected_gap_loss": Key("number", 0.0, REPO_BOUNDS["expected_gap_loss"]),
             "asset": Key("string"),
             "rating": Key("string", choices=RATING_KEYS),
             "tenors": Key("array", list(DEFAULT_SPREAD_TENORS), COUNT,
                           Key("number", bounds=POSITIVE))},
    "optimizer": {"quantity": Key("number", None, ASSET_BOUNDS["quantity"]),
                  "hqla_floor": Key("number", 0.0, NON_NEGATIVE),
                  "funding_haircut": Key("string", "csa", choices=FUNDING_HAIRCUTS),
                  "tol": Key("number", 0.01, ITERATION_BOUNDS["tol"]),
                  "max_iter": Key("integer", 5, ITERATION_BOUNDS["max_iter"]),
                  "netting_sets": Key("array", REQUIRED, COUNT,
                                      Key("object", section="netting_set"))},
    # each allocation round sets a set's requirement to |MTM|, so a
    # threshold would be read and then ignored: one is rejected
    "netting_set": {"id": Key("string"), "rating": Key("string", choices=RATING_KEYS),
                    "target_mtm": Key("number", None), "threshold": Key("number", None),
                    "portfolio": Key("object", section="portfolio")},
}


def _convert(key: Key, value, name: str, base_dir: Path):
    """``value`` as ``key`` declares it, read at the dotted ``name``; a value
    of another JSON kind, outside the key's bounds or outside its choices
    raises ScenarioError naming ``name``."""
    kind = key.kind
    if kind == "object":
        return _Block(key.section, value, name, base_dir)
    if kind == "curve":
        return _curve(value, key.bounds, name, base_dir)
    if kind == "array" and isinstance(value, list):
        bounded(len(value), key.bounds, f"{name} length", ScenarioError, INTEGER)
        return [_convert(key.item, v, f"{name}[{i}]", base_dir) for i, v in enumerate(value)]
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            return bounded(float(value), key.bounds, name, ScenarioError)
    if kind == "integer" and isinstance(value, int) and not isinstance(value, bool):
        value = bounded(value, key.bounds, name, ScenarioError, INTEGER)
    elif not (kind == "string" and isinstance(value, str)):
        raise ScenarioError(f"{name} must be a JSON {kind}, got {value!r:.60}")
    return value if key.choices is None else chosen(value, key.choices, name, ScenarioError)


def _distinct(named) -> None:
    """Raise ScenarioError at the first (name, value) pair of ``named``
    whose value an earlier pair gave, naming both."""
    first = {}
    for name, value in named:
        if value in first:
            raise ScenarioError(f"{name} repeats {value!r}, given first at {first[value]}")
        first[value] = name


def read_flag(flag: str, section: str, name: str, value):
    """``value`` of a command-line ``flag`` checked as SCHEMA's ``section.name`` is."""
    return _convert(SCHEMA[section][name], value, flag, Path())


def _table(name: str, path: Path, header: tuple[str, ...], text: int = 0) -> list:
    """(where, cells) of each row of the CSV file ``path`` given at the
    dotted ``name``, ``where`` naming the key, path and line: the stripped
    header cells are ``header``, each row holds as many cells, the first
    ``text`` kept as text and the rest read as floats; blank lines are skipped."""
    with open(path, newline="", encoding="utf-8") as f:
        reader, rows = csv.reader(f), []
        try:
            if [c.strip() for c in next(reader, [])] != list(header):
                raise csv.Error(f"expected header {','.join(header)}")
            for cells in filter(None, reader):  # a blank line reads as no cells
                if len(cells) != len(header):
                    raise csv.Error(f"expected the header's {len(header)} fields, "
                                    f"got {len(cells)}")
                rows.append((f"{name} {path} line {reader.line_num}",
                             cells[:text] + [float(c) for c in cells[text:]]))
        except (csv.Error, ValueError) as err:  # ValueError: a cell float rejects
            raise ScenarioError(f"{name} {path} line {reader.line_num}: {err}") from None
    return rows


def _curve(spec, bounds: tuple, name: str, base_dir: Path) -> RateCurve:
    """A curve spec: a number or an object holding exactly one of the forms
    {"flat": r}, {"nodes": [[t, z], ...]} or {"file": "relative.csv"} (CSV
    header tenor_years,zero_rate); every tenor it gives is in (0, inf),
    given once, and every rate is in the interval ``bounds``."""
    tenor, rate = Key("number", bounds=POSITIVE), Key("number", bounds=bounds)
    forms = [form for form in CURVE_FORMS if form in spec] if isinstance(spec, dict) else ["flat"]
    if len(forms) != 1:
        raise ScenarioError(f"curve '{name}' needs exactly one of {', '.join(CURVE_FORMS)}, "
                            f"got {forms}")
    if forms == ["flat"]:
        flat = spec["flat"] if isinstance(spec, dict) else spec
        return RateCurve.flat(_convert(rate, flat, name, base_dir), name)
    if forms == ["nodes"]:
        nodes = spec["nodes"]
        if not (isinstance(nodes, list) and all(isinstance(n, list) and len(n) == 2
                                                for n in nodes)):
            raise ScenarioError(f"curve '{name}' nodes must be [tenor, rate] pairs")
        nodes = [(f"{name}.nodes[{i}]", t, f"{name}.nodes[{i}]", z)
                 for i, (t, z) in enumerate(nodes)]
    else:
        path = base_dir / _convert(Key("string"), spec["file"], f"{name}.file", base_dir)
        if not path.is_file():
            raise ScenarioError(f"{name}.file not found: {path}")
        nodes = [(line, t, f"{name}.file rate at tenor {t:g}", z)
                 for line, (t, z) in _table(f"{name}.file", path, _CURVE_HEADER)]
    if not nodes:
        raise ScenarioError(f"curve '{name}' has no nodes")
    # each node's tenor is named by the node (a file's by its line)
    pairs = [(_convert(tenor, t, node, base_dir), _convert(rate, z, where, base_dir))
             for node, t, where, z in nodes]
    _distinct((node, t) for (node, *_), (t, _) in zip(nodes, pairs))
    return RateCurve.from_nodes(pairs, name)


class _Block(Mapping):
    """A scenario object read through its SCHEMA section: each value is
    converted when it is first looked up, so a command checks the keys it
    reads, and kept, so it is converted once; a value that fails is not
    kept and fails again."""

    def __init__(self, section: str, raw, path: str, base_dir: Path):
        if not isinstance(raw, dict):
            raise ScenarioError(f"{path} must be a JSON object, got {raw!r:.60}")
        self.section, self.raw, self.path, self.base_dir = section, raw, path, base_dir
        self._read: dict = {}

    def __getitem__(self, name: str):
        if name in self._read:
            return self._read[name]
        key = SCHEMA[self.section][name]
        dotted = f"{self.path}.{name}" if self.path else name
        value = self.raw.get(name, key.default)
        if value is REQUIRED:
            raise ScenarioError(f"scenario is missing '{dotted}'")
        if value is not None or key.default is not None:
            value = _convert(key, value, dotted, self.base_dir)
        self._read[name] = value
        return value

    def __iter__(self):
        return iter(SCHEMA[self.section])

    def __len__(self) -> int:
        return len(SCHEMA[self.section])


@dataclass
class Scenario:
    """Parsed scenario with lazily built model objects; ``config`` is its
    top level, its values typed as SCHEMA declares."""

    config: _Block
    seed: int

    @classmethod
    def load(cls, path, seed_override: int | None = None) -> "Scenario":
        path = Path(path)
        if not path.is_file():
            raise ScenarioError(f"scenario file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ScenarioError(f"{path}: invalid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ScenarioError(f"{path}: a scenario must be a JSON object, got {raw!r:.60}")
        config = _Block("scenario", raw, "", path.parent)
        return cls(config, config["seed"] if seed_override is None else seed_override)

    def has(self, block: str) -> bool:
        return block in self.config.raw

    def curve(self, name: str) -> RateCurve | None:
        return self.config["curves"][name]

    @property
    def risk_free(self) -> RateCurve:
        return self.curve("risk_free")

    def _party(self, side: str) -> tuple[PartyCurves, str]:
        """A party's curves, each from its curve spec or else its spread over
        risk-free, the bond curve at or above the liquidity curve; and the
        key that set the liquidity curve."""
        cfg = self.config["parties"][side]
        hazard = cfg["hazard"]  # checked before the curves built from it
        curves, keys = {}, {}
        for curve in ("bond", "liquidity"):
            key = f"parties.{side}.{curve}"
            if cfg[curve] is not None:
                curves[curve], keys[curve] = cfg[curve], key
            elif (spread := cfg[f"{curve}_spread"]) is not None:
                curves[curve] = combine_curves([self.risk_free, RateCurve.flat(spread)],
                                               [1.0, 1.0], f"{curve}_{side}")
                keys[curve] = f"{key}_spread"
            else:  # PartyCurves builds liquidity as bond - hazard
                curves[curve], keys[curve] = None, f"{keys['bond']} - parties.{side}.hazard"
        if curves["liquidity"] is not None and not dominates(curves["bond"], curves["liquidity"]):
            raise ScenarioError(f"{keys['bond']} must give a bond rate >= the liquidity rate "
                                f"of {keys['liquidity']} at every tenor")
        return PartyCurves(**curves, hazard=hazard), keys["liquidity"]

    def party(self, side: str) -> PartyCurves:
        return self._party(side)[0]

    def effective_spec(self, collateralization: float | None = None) -> EffectiveRateSpec:
        """The scenario's rate spec, each party's liquidity curve at or above
        curves.risk_free."""
        cfg = self.config["collateral"]
        eta = cfg["collateralization"] if collateralization is None else collateralization
        x = cfg["chi"] if cfg["chi"] is not None else chi(cfg["h_repo"], cfg["h_csa"])
        parties = {}
        for side in ("b", "c"):
            parties[side], liquidity_key = self._party(side)
            if not dominates(parties[side].liquidity, self.risk_free):
                raise ScenarioError(f"{liquidity_key} must give a liquidity rate >= the "
                                    f"risk-free rate of curves.risk_free at every tenor")
        # every mode gets the cash curve; the spec reads it only where the mode funds cash
        return EffectiveRateSpec(party_b=parties["b"], party_c=parties["c"],
                                 risk_free=self.risk_free, mode=cfg["mode"],
                                 state=CollateralState(eta_b=eta, eta_c=eta, chi_b=x, chi_c=x),
                                 cash_rate=self.curve("cash") or self.risk_free,
                                 repo_spread_c=cfg["repo_spread"])

    def option(self, position: float = 1.0) -> OptionSpec:
        """The option block, its strike positive unless it pays a zcb and its
        vol bounded by the grid's reach (see SCHEMA)."""
        cfg = self.config["option"]
        if cfg["payoff"] != "zcb" and cfg["strike"] == 0.0:
            raise ScenarioError(f"option.strike must be > 0 when option.payoff is "
                                f"{cfg['payoff']!r}, got {cfg['strike']!r}")
        option = OptionSpec(**cfg, position=position)
        limit = math.log(self.grid().s_max_mult) / (2.0 * math.sqrt(option.maturity))
        if not option.vol <= limit:
            raise ScenarioError(f"option.vol must be at most ln(grid.s_max_mult) / "
                                f"(2 sqrt(option.maturity)) = {limit:.6g}, got {option.vol!r}")
        return option

    def grid(self) -> GridSpec:
        return GridSpec(**self.config["grid"])

    def _portfolio(self, cfg) -> Mapping:
        """``cfg`` (a block, or a raw portfolio object as perfbench's allocation
        oracle passes one), by default the scenario's portfolio."""
        if isinstance(cfg, dict):
            return _Block("portfolio", cfg, "portfolio", self.config.base_dir)
        return self.config["portfolio"] if cfg is None else cfg

    def portfolio(self, cfg=None, seed_offset: int = 0) -> SwapBook:
        cfg = self._portfolio(cfg)
        lo, hi = cfg["maturity_min"], cfg["maturity_max"]
        if not lo <= hi:
            raise ScenarioError(f"{cfg.path}.maturity_min must be at most {cfg.path}.maturity_max, "
                                f"got {lo!r} > {hi!r}")
        return generate_portfolio(
            n=cfg["n"], payer_frac=cfg["payer_frac"], maturity_range=(lo, hi),
            rate_band=cfg["rate_band"], seed=self.seed + seed_offset, curve=self.risk_free,
            rate_offset=cfg["rate_offset"], pay_freq=cfg["pay_freq"], notional=cfg["notional"])

    def exposure_model(self, cfg=None):
        cfg = self._portfolio(cfg)
        if cfg["model"] == "deterministic":
            return DeterministicModel()
        return OneFactorMcModel(mean_reversion=cfg["mean_reversion"], vol=cfg["vol"],
                                paths=cfg["paths"], seed=self.seed + 17)

    def portfolio_profile(self, cfg=None, seed_offset: int = 0):
        cfg = self._portfolio(cfg)
        points, model = cfg["profile_points"], self.exposure_model(cfg)
        return exposure_profile(self.portfolio(cfg, seed_offset), model, points,
                                self.risk_free)

    @property
    def quadrature_steps(self) -> int:
        return self.config["quadrature_steps"]

    def assets(self) -> list[CollateralAsset]:
        path = self.config.base_dir / self.config["assets_file"]
        if not path.is_file():
            raise ScenarioError(f"assets_file not found: {path}")
        quantity = self.config["optimizer"]["quantity"]
        rows = _table("assets_file", path, _ASSET_HEADER, text=1)
        if not rows:
            raise ScenarioError(f"assets_file {path} has no asset rows")
        _distinct((where, asset_id) for where, (asset_id, *_) in rows)
        assets = []
        for where, (asset_id, *cells) in rows:
            for column, cell in zip(_ASSET_HEADER[1:], cells):  # ec_*: NON_NEGATIVE
                bounded(cell, ASSET_BOUNDS.get(column, NON_NEGATIVE), f"{where} {column}",
                        ScenarioError)
            asset = CollateralAsset(asset_id, *cells[:5], dict(zip(RATING_KEYS, cells[5:])))
            assets.append(asset if quantity is None else replace(asset, quantity=quantity))
        return assets

    def repo_tenors(self) -> list[float]:
        tenors = self.config["repo"]["tenors"]
        _distinct((f"repo.tenors[{k}]", t) for k, t in enumerate(tenors))
        return tenors

    def repo_params(self) -> RepoModelParams:
        cfg = self.config["repo"]
        return RepoModelParams(roe=cfg["roe"], mu0_curve=self.curve("mu0"),
                               hazard=self.curve("hazard"),
                               expected_gap_loss=cfg["expected_gap_loss"])

    def netting_sets(self) -> list[NettingSet]:
        sets = self.config["optimizer"]["netting_sets"]
        _distinct((f"optimizer.netting_sets[{k}].id", ns["id"]) for k, ns in enumerate(sets))
        out = []
        for k, ns in enumerate(sets):
            name = f"optimizer.netting_sets[{k}]"
            if ns["threshold"] is not None:
                raise ScenarioError(f"{name}.threshold is not supported, got {ns['threshold']!r}")
            profile = self.portfolio_profile(ns["portfolio"], seed_offset=k + 1)
            target = ns["target_mtm"]
            if target is not None:
                if not target * profile.mtm0 > 0.0:
                    raise ScenarioError(f"{name}.target_mtm: the generated MTM "
                                        f"{profile.mtm0:.4g} cannot be scaled to {target!r}")
                profile = profile.scaled(target / profile.mtm0)
            out.append(NettingSet(id=ns["id"], requirement=abs(profile.mtm0),
                                  rating=ns["rating"], profile=profile))
        return out

    def optimizer_cfg(self) -> Mapping:
        return self.config["optimizer"]
