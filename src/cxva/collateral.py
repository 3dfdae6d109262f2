"""Collateral assets and the (eta, chi) collateralization state.

eta is the fraction of exposure protected by CSA-haircut collateral value,
chi the fraction of the protected exposure that is also funded. Together
with the blended repo spread of a posted portfolio they parameterize the
effective discount rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from .curves import RateCurve, combine_curves

RATING_KEYS = ("AA", "A", "BBB", "BB")


class CollateralError(ValueError):
    """Invalid collateral inputs."""


@dataclass(frozen=True)
class CollateralAsset:
    """A security usable as collateral.

    econ_capital maps a repo borrower rating (e.g. "BBB") to the repo
    economic capital as a decimal fraction of notional.
    """

    id: str
    price: float
    quantity: float
    h_csa: float
    h_repo: float
    h_lcr: float
    econ_capital: Mapping[str, float]

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 < self.price < math.inf:
            raise CollateralError(f"{self.id}: price must be finite and > 0")
        if not 0.0 <= self.quantity < math.inf:
            raise CollateralError(f"{self.id}: quantity must be finite and >= 0")
        for name, h in (("h_csa", self.h_csa), ("h_repo", self.h_repo)):
            if not 0.0 <= h < 1.0:
                raise CollateralError(f"{self.id}: {name} must be in [0, 1)")
        if not 0.0 <= self.h_lcr <= 1.0:
            raise CollateralError(f"{self.id}: h_lcr must be in [0, 1]")
        if not all(0.0 <= v < math.inf for v in self.econ_capital.values()):
            raise CollateralError(f"{self.id}: economic capital must be finite and >= 0")


@dataclass(frozen=True)
class CollateralState:
    """(eta, chi) descriptor per posting direction, constant in time."""

    eta_b: float = 1.0
    eta_c: float = 1.0
    chi_b: float = 1.0
    chi_c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eta_b", "eta_c", "chi_b", "chi_c"):
            if not 0.0 <= float(getattr(self, name)) <= 1.0:
                raise CollateralError(f"{name} must be in [0, 1]")


def chi(h_repo: float, h_csa: float) -> float:
    """Funded fraction 1 - ((h_repo - h_csa)+/(1 - h_csa)).

    Equals 1 when the repo haircut does not exceed the CSA haircut: the
    excess fund created by h_repo < h_csa is neither used nor charged.
    """
    if not 0.0 <= h_csa < 1.0 or not 0.0 <= h_repo < 1.0:
        raise CollateralError("haircuts must be in [0, 1)")
    return 1.0 - max(h_repo - h_csa, 0.0) / (1.0 - h_csa)


def blend_spread_curve(assets: Sequence[tuple[float, float, float, RateCurve]],
                       protection: float, risk_free_label: str = "") -> tuple[float, RateCurve]:
    """Blend with term-structured repo spreads.

    Each entry is (market_value, h_csa, h_repo, spread_curve) with the
    spread curve holding r_p - r. Returns (chi, funded spread curve); the
    curve carries sum_i w_i * S_pi(t), exact on the union node grid.
    """
    if protection <= 0.0:
        raise CollateralError("protection L must be > 0")
    curves: list[RateCurve] = []
    weights: list[float] = []
    chi_bar = 0.0
    for mv, h_c, h_p, spread in assets:
        w = (1.0 - h_c) * mv / protection
        unfunded = max(h_p - h_c, 0.0) / (1.0 - h_c)
        chi_bar += w * unfunded
        curves.append(spread)
        weights.append(w * (1.0 - unfunded))
    blended = combine_curves(curves, weights, label=risk_free_label or "blended_spread")
    return 1.0 - chi_bar, blended


# -- assets CSV -------------------------------------------------------------

_ASSET_HEADER = ["id", "price", "quantity", "h_csa", "h_repo", "h_lcr",
                 "ec_AA", "ec_A", "ec_BBB", "ec_BB"]


def load_assets_csv(path) -> list[CollateralAsset]:
    """Read collateral assets from CSV.

    Header: ``id,price,quantity,h_csa,h_repo,h_lcr,ec_AA,ec_A,ec_BBB,ec_BB``
    with economic capital in decimals (0.0161 means 1.61%).
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != _ASSET_HEADER:
            raise CollateralError(f"{path}: expected header {','.join(_ASSET_HEADER)}")
        out = []
        for row in reader:
            out.append(CollateralAsset(
                id=row["id"],
                price=float(row["price"]),
                quantity=float(row["quantity"]),
                h_csa=float(row["h_csa"]),
                h_repo=float(row["h_repo"]),
                h_lcr=float(row["h_lcr"]),
                econ_capital={r: float(row[f"ec_{r}"]) for r in RATING_KEYS},
            ))
    return out

