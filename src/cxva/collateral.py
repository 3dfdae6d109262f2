"""Collateral assets and the (eta, chi) collateralization state.

eta is the fraction of exposure protected by CSA-haircut collateral value,
chi the fraction of the protected exposure that is also funded. Together
with the blended repo spread of a posted portfolio they parameterize the
effective discount rate: ``chi`` gives an asset's funded fraction and
``blend_spread_curve`` a posted portfolio's protected value, chi and spread.
Assets are built by ``cxva.scenario`` from the rows of an assets file.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from .curves import RateCurve, combine_curves
from .intervals import FRACTION, NON_NEGATIVE, POSITIVE, bounded

RATING_KEYS = ("AA", "A", "BBB", "BB")
HAIRCUT = (0.0, 1.0, "[)")
# the interval each number of a CollateralAsset lies in (econ_capital's: NON_NEGATIVE)
ASSET_BOUNDS = {"price": POSITIVE, "quantity": NON_NEGATIVE, "h_csa": HAIRCUT,
                "h_repo": HAIRCUT, "h_lcr": FRACTION}
STATE_BOUNDS = dict.fromkeys(("eta_b", "eta_c", "chi_b", "chi_c"), FRACTION)


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
        for name, bounds in ASSET_BOUNDS.items():
            bounded(getattr(self, name), bounds, f"{self.id}: {name}", CollateralError)
        for rating, ec in self.econ_capital.items():
            bounded(ec, NON_NEGATIVE, f"{self.id}: econ_capital[{rating}]", CollateralError)


@dataclass(frozen=True)
class CollateralState:
    """(eta, chi) descriptor per posting direction, constant in time."""

    eta_b: float = 1.0
    eta_c: float = 1.0
    chi_b: float = 1.0
    chi_c: float = 1.0

    def __post_init__(self) -> None:
        for name, bounds in STATE_BOUNDS.items():
            bounded(getattr(self, name), bounds, name, CollateralError)


def chi(h_repo: float, h_csa: float) -> float:
    """Funded fraction 1 - ((h_repo - h_csa)+/(1 - h_csa)).

    Equals 1 when the repo haircut does not exceed the CSA haircut: the
    excess fund created by h_repo < h_csa is neither used nor charged.
    """
    bounded(h_csa, HAIRCUT, "h_csa", CollateralError)
    bounded(h_repo, HAIRCUT, "h_repo", CollateralError)
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
    bounded(protection, POSITIVE, "posted CSA-protected value L", CollateralError)
    funded = [(1.0 - h_c) * mv / protection * chi(h_p, h_c) for mv, h_c, h_p, _ in postings]
    x = sum(funded)
    return protection, x, combine_curves([s for *_, s in postings], [w / x for w in funded],
                                         label="blended_spread")

