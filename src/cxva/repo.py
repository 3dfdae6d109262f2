"""Break-even term repo spreads for tenors the repo market does not quote.

Quoted repo rarely extends past a few months while a netting set is
effectively perpetual, so term collateral rates come from a model:

    r_p - r = RoE * E_c + mu_0(t) + lambda(t) * El

with E_c the repo economic capital for (asset class, borrower rating),
RoE the bank's return-on-equity hurdle, mu_0 the pure funding-liquidity
premium (Libor-OIS spread proxy) and lambda * El the expected gap-loss
premium, which is a fraction of a basis point at realistic haircuts and
defaults to zero here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .collateral import CollateralAsset
from .curves import RateCurve


class RepoModelError(ValueError):
    """Invalid repo model inputs."""


@dataclass(frozen=True)
class RepoModelParams:
    """Inputs of the break-even spread."""

    roe: float
    mu0_curve: RateCurve
    hazard: RateCurve
    expected_gap_loss: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.roe) or not math.isfinite(self.expected_gap_loss):
            raise RepoModelError("roe and expected_gap_loss must be finite")
        if self.roe < 0.0:
            raise RepoModelError("roe must be >= 0")
        if self.expected_gap_loss < 0.0:
            raise RepoModelError("expected_gap_loss must be >= 0")


def breakeven_spread(params: RepoModelParams, ec: float, t: float) -> float:
    """Term repo spread over risk-free at tenor t for economic capital ec.

    Affine in ec with slope RoE and in the expected gap loss with slope
    lambda(t). Curves are read as term (zero-style) quantities.
    """
    if ec < 0.0:
        raise RepoModelError("economic capital must be >= 0")
    if t <= 0.0:
        raise RepoModelError("tenor must be > 0")
    mu0 = params.mu0_curve.zero_rate(t)
    lam = params.hazard.zero_rate(t)
    return params.roe * ec + mu0 + lam * params.expected_gap_loss


def spread_curve(params: RepoModelParams, ec: float, tenors: Sequence[float],
                 label: str = "") -> RateCurve:
    """Break-even spread term structure (r_p - r) on the given tenor grid."""
    nodes = [(float(t), breakeven_spread(params, ec, float(t))) for t in tenors]
    return RateCurve.from_nodes(nodes, label=label or "repo_spread")


def repo_curve(params: RepoModelParams, asset: CollateralAsset, rating: str,
               tenors: Sequence[float], risk_free: RateCurve) -> RateCurve:
    """Full repo rate curve r_p(t) = r(t) + break-even spread for one asset
    and borrower rating."""
    if rating not in asset.econ_capital:
        raise KeyError(f"asset {asset.id!r} has no economic capital for rating {rating!r}")
    ec = asset.econ_capital[rating]
    nodes = [(float(t), risk_free.zero_rate(t) + breakeven_spread(params, ec, float(t)))
             for t in tenors]
    return RateCurve.from_nodes(nodes, label=f"repo_{asset.id}_{rating}")
