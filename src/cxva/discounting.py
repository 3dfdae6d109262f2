"""The effective derivative financing rate r_e.

The discount rate switches with the sign of the derivative value: the
liability side's rates apply. On each side the rate blends the unsecured
bond rate (unprotected share 1-eta), the liquidity rate (protected but
unfunded share eta*(1-chi)) and the funded collateral rate (share eta*chi):

    r_e(side) = r_unsec*(1-eta) + eta*((1-chi)*mu + chi*(r + s))

where s is the funded collateral spread over the risk-free rate: r_L - r
for comingled cash, r_p - r for repo-funded securities, and nothing for
segregated collateral (chi = 0). All of the model's nonlinearity lives in
this one rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collateral import CollateralState
from .curves import CurveError, PartyCurves, RateCurve, combine_curves

MODES = ("uncollateralized", "cash_comingled", "cash_segregated", "noncash",
         "initial_margin")


def _time_value(x, t: float) -> float:
    return float(x(t)) if callable(x) else float(x)


def _as_spread_curve(spread) -> RateCurve | None:
    if spread is None:
        return None
    if isinstance(spread, RateCurve):
        return spread
    return RateCurve.flat(float(spread), label="spread")


@dataclass(frozen=True)
class EffectiveRateSpec:
    """Everything needed to evaluate r_e as a function of (t, sign V).

    repo spreads are quoted over the risk-free curve; a scalar is treated
    as a flat curve. ``repo_spread_b`` defaults to the C-side spread (the
    symmetric case; distinct values support borrower-specific repo rates).
    """

    party_b: PartyCurves
    party_c: PartyCurves
    risk_free: RateCurve
    state: CollateralState
    mode: str = "noncash"
    cash_rate: RateCurve | None = None
    repo_spread_c: RateCurve | float | None = None
    repo_spread_b: RateCurve | float | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; one of {MODES}")
        object.__setattr__(self, "repo_spread_c", _as_spread_curve(self.repo_spread_c))
        spread_b = self.repo_spread_b if self.repo_spread_b is not None else self.repo_spread_c
        object.__setattr__(self, "repo_spread_b", _as_spread_curve(spread_b))
        if self.mode in ("cash_comingled", "cash_segregated") and self.cash_rate is None:
            raise ValueError(f"mode {self.mode!r} needs a cash_rate curve")
        if self.repo_spread_c is None:
            object.__setattr__(self, "repo_spread_c", RateCurve.flat(0.0, "spread"))
            object.__setattr__(self, "repo_spread_b", RateCurve.flat(0.0, "spread"))
        for party in (self.party_b, self.party_c):
            ts = np.asarray(sorted(set(party.liquidity.tenors) | set(self.risk_free.tenors)))
            if np.any(party.liquidity.zero_rate(ts) < self.risk_free.zero_rate(ts) - 1e-12):
                raise CurveError("liquidity rate must be >= risk-free rate at every tenor")

    # -- mode-adjusted state -------------------------------------------------

    def eta(self, side: int, t: float) -> float:
        if self.mode == "uncollateralized":
            return 0.0
        return _time_value(self.state.eta_c if side > 0 else self.state.eta_b, t)

    def chi(self, side: int, t: float) -> float:
        # declared-segregated modes force the unfunded case; comingled cash
        # and securities read the state (mixed CSAs set chi per direction)
        if self.mode in ("cash_segregated", "initial_margin"):
            return 0.0
        return _time_value(self.state.chi_c if side > 0 else self.state.chi_b, t)

    def funded_spread_curve(self, side: int) -> RateCurve:
        """Funded-leg spread over risk-free: r_L - r for cash, r_p - r otherwise."""
        if self.mode in ("cash_comingled", "cash_segregated"):
            return combine_curves([self.cash_rate, self.risk_free], [1.0, -1.0],
                                  label="cash_spread")
        return self.repo_spread_c if side > 0 else self.repo_spread_b

    def _party(self, side: int) -> PartyCurves:
        return self.party_c if side > 0 else self.party_b


def blend_rate(f_unsec, f_mu, f_r, f_spread, eta, chi):
    """The r_e convex combination; arguments may be scalars or arrays.

    The blend is linear in the rates, so it also turns the per-curve
    integrals over an interval (eta and chi held constant) into the
    integral of r_e.
    """
    return f_unsec * (1.0 - eta) + eta * ((1.0 - chi) * f_mu + chi * (f_r + f_spread))


def effective_rate(spec: EffectiveRateSpec, t: float, side: int) -> float:
    """Instantaneous effective financing rate at t for the given value sign.

    ``side`` follows the indicator convention: +1 when V > 0 (party C is
    the liability side), -1 when V <= 0.
    """
    if t < 0.0:
        raise CurveError("effective_rate requires t >= 0")
    side = 1 if side > 0 else -1
    party = spec._party(side)
    return float(blend_rate(
        party.bond.forward_rate(t),
        party.liquidity.forward_rate(t),
        spec.risk_free.forward_rate(t),
        spec.funded_spread_curve(side).forward_rate(t),
        spec.eta(side, t),
        spec.chi(side, t),
    ))

