"""Collateral assets and the (eta, chi) collateralization state.

eta is the fraction of exposure protected by CSA-haircut collateral value,
chi the fraction of the protected exposure that is also funded. Together
with the blended repo spread of a posted portfolio they parameterize the
effective discount rate: ``chi`` gives an asset's funded fraction and
``blend_spread_curve`` a posted portfolio's protected value, chi and spread.
Assets are built by ``cxva.scenario`` from the rows of an assets file.
"""

from __future__ import annotations

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


def blend_spread_curve(postings: Sequence[tuple[float, float, float, RateCurve]]
                       ) -> tuple[float, float, RateCurve]:
    """Collateral state of a posted portfolio with term-structured repo spreads.

    Each posting is (market_value, h_csa, h_repo, spread_curve) with the
    spread curve holding r_p - r. Returns (L, chi, s): the CSA-protected
    value L = sum (1 - h_csa) B, the funded fraction chi = sum w_i chi_i
    with w_i = (1 - h_csa_i) B_i / L, and the funded spread s(t) =
    sum w_i chi_i S_pi(t) / chi that the effective rate multiplies by chi,
    exact on the union node grid.
    """
    protection = sum(mv * (1.0 - h_c) for mv, h_c, _, _ in postings)
    if not protection > 0.0:
        raise CollateralError("posted CSA-protected value L must be > 0")
    funded = [(1.0 - h_c) * mv / protection * chi(h_p, h_c) for mv, h_c, h_p, _ in postings]
    x = sum(funded)
    return protection, x, combine_curves([s for *_, s in postings], [w / x for w in funded],
                                         label="blended_spread")

