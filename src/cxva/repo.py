"""Break-even term repo spreads for tenors the repo market does not quote.

Quoted repo rarely extends past a few months while a netting set is
effectively perpetual, so term collateral rates come from a model:

    r_p - r = RoE * E_c + mu_0(t) + lambda(t) * El

with E_c the repo economic capital for (asset class, borrower rating),
RoE the bank's return-on-equity hurdle, mu_0 the pure funding-liquidity
premium (Libor-OIS spread proxy) and lambda * El the expected gap-loss
premium, which is a fraction of a basis point at realistic haircuts and
defaults to zero here. ``repo_curve`` builds every (asset, borrower rating)
spread curve, for the allocation's unit LVA and for ``cxva repo-curve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .collateral import CollateralAsset
from .curves import HAZARD, RateCurve
from .intervals import FRACTION, NON_NEGATIVE, bounded


class RepoModelError(ValueError):
    """Invalid repo model inputs."""


REPO_BOUNDS = {"roe": FRACTION, "expected_gap_loss": FRACTION}


@dataclass(frozen=True)
class RepoModelParams:
    """Inputs of the break-even spread."""

    roe: float
    mu0_curve: RateCurve
    hazard: RateCurve
    expected_gap_loss: float = 0.0

    def __post_init__(self) -> None:
        for name, bounds in REPO_BOUNDS.items():
            bounded(getattr(self, name), bounds, name, RepoModelError)
        bounded(np.asarray(self.hazard.rates), HAZARD, "hazard", RepoModelError)


def breakeven_spread(params: RepoModelParams, ec: float, t):
    """Term repo spread over risk-free at tenor t (a scalar or an array of
    tenors) for economic capital ec.

    Affine in ec with slope RoE and in the expected gap loss with slope
    lambda(t). Curves are read as term (zero-style) quantities.
    """
    bounded(ec, NON_NEGATIVE, "economic capital", RepoModelError)
    if np.any(np.asarray(t) <= 0.0):
        raise RepoModelError("tenor must be > 0")
    mu0 = params.mu0_curve.zero_rate(t)
    lam = params.hazard.zero_rate(t)
    return params.roe * ec + mu0 + lam * params.expected_gap_loss


def spread_curve(params: RepoModelParams, ec: float, tenors: Sequence[float],
                 label: str = "") -> RateCurve:
    """Break-even spread term structure (r_p - r) on the given tenor grid."""
    t = np.asarray(tenors, dtype=float)
    nodes = zip(t.tolist(), breakeven_spread(params, ec, t).tolist())
    return RateCurve.from_nodes(nodes, label=label or "repo_spread")


def repo_curve(params: RepoModelParams, asset: CollateralAsset, rating: str,
               tenors: Sequence[float]) -> RateCurve:
    """Break-even spread curve (r_p - r) of the asset lent to a borrower of this rating."""
    if rating not in asset.econ_capital:
        raise KeyError(f"asset {asset.id!r} has no economic capital for rating {rating!r}")
    return spread_curve(params, asset.econ_capital[rating], tenors,
                        label=f"repo_{asset.id}_{rating}")
