"""Scenario files: JSON descriptions of market data and run configurations.

A scenario bundles curve specs, party funding curves given as spreads over
the risk-free curve, a collateral block, and one or more work descriptions
(option, portfolio, repo, optimizer). Every random quantity derives from the
single scenario seed, so identical scenario + seed means identical outputs.

``SCHEMA`` declares every key a scenario may hold: its JSON kind, default,
bounds and, for an enumerated key, the value set it takes; each value set is
the tuple the library's own check reads. ``Scenario`` reads each value
through the table when a command first needs it and keeps what it read; a
value of another kind, outside its bounds or outside its value set raises
ScenarioError naming its dotted key. Keys it does not declare are ignored.
It is the one module that reads input files: the JSON scenario, and curve
files and the assets file through one CSV reader, which reads a row's cells
by position and names the key, path and line of a malformed row or cell.
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

from .collateral import RATING_KEYS, CollateralAsset, CollateralState, chi
from .curves import PartyCurves, RateCurve, combine_curves
from .discounting import MODES, EffectiveRateSpec
from .exposure import (MAX_FACTOR_VOL, MAX_MATURITY, MAX_MEAN_REVERSION, MAX_PATHS,
                       MAX_PROFILE_POINTS, MAX_SWAPS, MIN_MEAN_REVERSION, PAY_FREQS,
                       DeterministicModel, OneFactorMcModel, SwapBook, exposure_profile,
                       generate_portfolio)
from .optimizer import DEFAULT_SPREAD_TENORS, FUNDING_HAIRCUTS, NettingSet
from .pde import MAX_GRID_SIZE, MIN_GRID_SIZE, PAYOFFS, GridSpec, OptionSpec
from .repo import RepoModelParams
from .xva import MAX_QUADRATURE_STEPS


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
    or "object"), default (None: absent and null mean "not given"), bounds
    (lo, hi) read as [lo, hi] on an integer or array length and as (lo, hi]
    on a number, item kind, SCHEMA section and the values a string or
    integer key may take (None: any)."""

    kind: str
    default: object = REQUIRED
    bounds: tuple | None = None
    item: str | None = None
    section: str | None = None
    choices: tuple | None = None


def _number(default=REQUIRED) -> Key:
    return Key("number", default)


# every rate and spread, a curve's included, and the repo RoE hurdle:
# (-100 %, 100 %] a year
RATE = Key("number", bounds=(-1.0, 1.0))


def _rate(default=REQUIRED) -> Key:
    return RATE._replace(default=default)


# every key a scenario may hold, by section; "scenario" is the top level
SCHEMA = {
    "scenario": {
        "seed": Key("integer", 0, (0, math.inf)), "curves": Key("object", {}, section="curves"),
        "parties": Key("object", {}, section="parties"),
        "collateral": Key("object", {}, section="collateral"),
        "option": Key("object", section="option"), "grid": Key("object", {}, section="grid"),
        "portfolio": Key("object", section="portfolio"),
        "quadrature_steps": Key("integer", 200, (1, MAX_QUADRATURE_STEPS)),
        "xva_levels": Key("array", [0.0, 0.5, 1.0], (1, MAX_SWEEP_POINTS), "number"),
        "sweep": Key("object", {}, section="sweep"),
        "assets_file": Key("string"), "repo": Key("object", {}, section="repo"),
        "optimizer": Key("object", {}, section="optimizer")},
    "curves": {"risk_free": Key("curve"), "cash": Key("curve", None),
               "mu0": Key("curve", 0.0), "hazard": Key("curve", 0.0)},
    "parties": {"b": Key("object", section="party"), "c": Key("object", section="party")},
    # spreads are over risk-free; omitted liquidity is bond - hazard
    "party": {"bond": Key("curve", None), "bond_spread": _rate(), "hazard": Key("curve", None),
              "liquidity": Key("curve", None), "liquidity_spread": _rate(None)},
    # chi, when not given, follows from the haircuts
    "collateral": {"mode": Key("string", "noncash", choices=MODES),
                   "collateralization": _number(1.0),
                   "chi": _number(None), "h_csa": _number(0.0), "h_repo": _number(0.0),
                   "repo_spread": Key("curve", 0.0)},
    # vol * sqrt(maturity) is at most ln(grid.s_max_mult) / 2, so the grid's
    # top, s_max_mult * max(spot, strike), is at least two log-price standard
    # deviations above max(spot, strike); Scenario.option checks it
    "option": {"payoff": Key("string", choices=PAYOFFS), "strike": _number(0.0),
               "maturity": Key("number", REQUIRED, (0.0, MAX_MATURITY)),
               "spot": _number(), "vol": _number(), "div_yield": _rate(0.0)},
    "grid": {"s_nodes": Key("integer", 200, (MIN_GRID_SIZE, MAX_GRID_SIZE)),
             "t_steps": Key("integer", 200, (MIN_GRID_SIZE, MAX_GRID_SIZE)),
             "s_max_mult": _number(5.0)},
    # mean_reversion and vol as the Monte Carlo kernel can represent them
    # (see cxva.exposure); OneFactorMcModel rejects a negative vol
    "portfolio": {"n": Key("integer", 1000, (1, MAX_SWAPS)), "payer_frac": _number(),
                  "maturity_min": _number(0.25), "maturity_max": _number(30.0),
                  "rate_band": _rate(0.01), "rate_offset": _rate(0.0),
                  "pay_freq": Key("integer", 2, choices=PAY_FREQS), "notional": _number(1.0),
                  "model": Key("string", "deterministic", choices=EXPOSURE_MODELS),
                  "mean_reversion": Key("number", 0.05,
                                        (MIN_MEAN_REVERSION, MAX_MEAN_REVERSION)),
                  "vol": Key("number", 0.01, (-math.inf, MAX_FACTOR_VOL)),
                  "paths": Key("integer", 2000, (1000, MAX_PATHS)),
                  "profile_points": Key("integer", 121, (2, MAX_PROFILE_POINTS))},
    "sweep": {"points": Key("integer", 11, (2, MAX_SWEEP_POINTS))},
    # the expected gap loss is a fraction of the loan: at most 1 here, and
    # RepoModelParams rejects one below 0
    "repo": {"roe": _rate(0.10), "expected_gap_loss": Key("number", 0.0, (-math.inf, 1.0)),
             "asset": Key("string"),
             "rating": Key("string", choices=RATING_KEYS),
             "tenors": Key("array", list(DEFAULT_SPREAD_TENORS), (1, math.inf), "number")},
    "optimizer": {"quantity": _number(None), "hqla_floor": _number(0.0),
                  "funding_haircut": Key("string", "csa", choices=FUNDING_HAIRCUTS),
                  "tol": _number(0.01),
                  "max_iter": Key("integer", 5, (1, math.inf)),
                  "netting_sets": Key("array", REQUIRED, (1, math.inf), "object", "netting_set")},
    # each allocation round sets a set's requirement to |MTM|, so a
    # threshold would be read and then ignored: one is rejected
    "netting_set": {"id": Key("string"), "rating": Key("string", choices=RATING_KEYS),
                    "target_mtm": _number(None),
                    "threshold": _number(None), "portfolio": Key("object", section="portfolio")},
}


def _convert(key: Key, value, name: str, base_dir: Path):
    """``value`` as ``key`` declares it, read at the dotted ``name``; a value
    of another JSON kind raises ScenarioError naming ``name``."""
    kind = key.kind
    if kind == "object":
        return _Block(key.section, value, name, base_dir)
    if kind == "curve":
        return _curve(value, name, base_dir)
    if kind == "array":
        lo, hi = key.bounds
        if not (isinstance(value, list) and lo <= len(value) <= hi):
            raise ScenarioError(f"{name} must be an array of {lo} to {hi} {key.item}s, "
                                f"got {value!r:.60}")
        item = Key(key.item, section=key.section)
        return [_convert(item, v, f"{name}[{i}]", base_dir) for i, v in enumerate(value)]
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind == "string" and isinstance(value, str):
        return _chosen(key, value, name)
    if kind == "integer" and isinstance(value, int) and not isinstance(value, bool):
        lo, hi = key.bounds or (value, value)
        if not lo <= value <= hi:
            raise ScenarioError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
        return _chosen(key, value, name)
    if kind == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            value = float(value)
            if key.bounds is not None and not key.bounds[0] < value <= key.bounds[1]:
                raise ScenarioError(f"{name} must be a finite number in ({key.bounds[0]:g}, "
                                    f"{key.bounds[1]:g}], got {value!r}")
            return value
    raise ScenarioError(f"{name} must be a JSON {kind}, got {value!r:.60}")


def _chosen(key: Key, value, name: str):
    """``value`` if ``key`` lists no choices or lists it."""
    if key.choices is not None and value not in key.choices:
        raise ScenarioError(f"{name} must be one of {', '.join(map(str, key.choices))}, "
                            f"got {value!r:.60}")
    return value


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


def _curve(spec, name: str, base_dir: Path) -> RateCurve:
    """A curve spec: a number or {"flat": r}, {"nodes": [[t, z], ...]} or
    {"file": "relative.csv"} (CSV header tenor_years,zero_rate); every rate
    it gives is a RATE."""
    if not isinstance(spec, dict) or "flat" in spec:
        rate = spec["flat"] if isinstance(spec, dict) else spec
        return RateCurve.flat(_convert(RATE, rate, name, base_dir), name)
    if "nodes" in spec:
        nodes = spec["nodes"]
        if not (isinstance(nodes, list) and all(isinstance(n, list) and len(n) == 2
                                                for n in nodes)):
            raise ScenarioError(f"curve '{name}' nodes must be [tenor, rate] pairs")
        nodes = [(t, z, f"{name}.nodes[{i}]", f"{name}.nodes[{i}]")
                 for i, (t, z) in enumerate(nodes)]
    elif "file" in spec:
        path = base_dir / _convert(Key("string"), spec["file"], f"{name}.file", base_dir)
        if not path.is_file():
            raise ScenarioError(f"curve file not found: {path}")
        nodes = [(t, z, f"{name}.file rate at tenor {t:g}", line)
                 for line, (t, z) in _table(f"{name}.file", path, _CURVE_HEADER)]
    else:
        raise ScenarioError(f"curve '{name}' needs one of {', '.join(CURVE_FORMS)}")
    if not nodes:
        raise ScenarioError(f"curve '{name}' has no nodes")
    # inline and file nodes alike: the tenor a number, the rate a RATE, and
    # no tenor given twice (the curve sorts its nodes by tenor)
    pairs, seen = [], {}
    for t, z, where, node in nodes:
        t = _convert(_number(), t, where, base_dir)
        if t in seen:
            raise ScenarioError(f"{node} repeats the tenor {t:g} of {seen[t]}")
        seen[t] = node
        pairs.append((t, _convert(RATE, z, where, base_dir)))
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

    def party(self, side: str) -> PartyCurves:
        """Party curves from spreads over risk-free (or explicit curve specs)."""
        cfg = self.config["parties"][side]

        def over_risk_free(curve: str) -> RateCurve | None:
            spread = cfg[f"{curve}_spread"]
            return None if spread is None else combine_curves(
                [self.risk_free, RateCurve.flat(spread)], [1.0, 1.0], f"{curve}_{side}")

        return PartyCurves(bond=cfg["bond"] or over_risk_free("bond"),
                           liquidity=cfg["liquidity"] or over_risk_free("liquidity"),
                           hazard=cfg["hazard"])

    def effective_spec(self, collateralization: float | None = None) -> EffectiveRateSpec:
        cfg = self.config["collateral"]
        eta = cfg["collateralization"] if collateralization is None else collateralization
        if not 0.0 <= eta <= 1.0:
            raise ScenarioError(f"collateralization must be in [0, 1], got {eta!r}")
        x = cfg["chi"] if cfg["chi"] is not None else chi(cfg["h_repo"], cfg["h_csa"])
        # every mode gets the cash curve; the spec reads it only where the mode funds cash
        return EffectiveRateSpec(party_b=self.party("b"), party_c=self.party("c"),
                                 risk_free=self.risk_free, mode=cfg["mode"],
                                 state=CollateralState(eta_b=eta, eta_c=eta, chi_b=x, chi_c=x),
                                 cash_rate=self.curve("cash") or self.risk_free,
                                 repo_spread_c=cfg["repo_spread"])

    def option(self, position: float = 1.0) -> OptionSpec:
        """The option block, its vol bounded by the grid's reach (see SCHEMA)."""
        option = OptionSpec(**self.config["option"], position=position)
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
        return generate_portfolio(
            n=cfg["n"], payer_frac=cfg["payer_frac"],
            maturity_range=(cfg["maturity_min"], cfg["maturity_max"]),
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
            raise ScenarioError(f"assets file not found: {path}")
        quantity = self.config["optimizer"]["quantity"]
        rows = _table("assets_file", path, _ASSET_HEADER, text=1)
        if not rows:
            raise ScenarioError(f"assets_file {path} has no asset rows")
        assets = []
        for where, (asset_id, price, held, h_csa, h_repo, h_lcr, *ec) in rows:
            if any(a.id == asset_id for a in assets):
                raise ScenarioError(f"{where}: asset id {asset_id!r} appears more than once")
            asset = CollateralAsset(asset_id, price, held, h_csa, h_repo, h_lcr,
                                    dict(zip(RATING_KEYS, ec)))
            assets.append(asset if quantity is None else replace(asset, quantity=quantity))
        return assets

    def repo_params(self) -> RepoModelParams:
        cfg = self.config["repo"]
        return RepoModelParams(roe=cfg["roe"], mu0_curve=self.curve("mu0"),
                               hazard=self.curve("hazard"),
                               expected_gap_loss=cfg["expected_gap_loss"])

    def netting_sets(self) -> list[NettingSet]:
        out = []
        for k, ns in enumerate(self.config["optimizer"]["netting_sets"]):
            if any(s.id == ns["id"] for s in out):
                raise ScenarioError(f"optimizer.netting_sets[{k}].id repeats netting set id "
                                    f"{ns['id']!r}")
            if ns["threshold"] is not None:
                raise ScenarioError(f"netting set {ns['id']}: threshold is not supported")
            profile = self.portfolio_profile(ns["portfolio"], seed_offset=k + 1)
            target = ns["target_mtm"]
            if target is not None:
                if not (math.isfinite(target) and target * profile.mtm0 > 0.0):
                    raise ScenarioError(f"netting set {ns['id']}: generated MTM "
                                        f"{profile.mtm0:.4g} cannot be scaled to {target}")
                profile = profile.scaled(target / profile.mtm0)
            out.append(NettingSet(id=ns["id"], requirement=abs(profile.mtm0),
                                  rating=ns["rating"], profile=profile))
        return out

    def optimizer_cfg(self) -> Mapping:
        return self.config["optimizer"]
