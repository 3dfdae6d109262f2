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

The formula is written once, in ``blend_rate``; its inputs are resolved
once per spec, mode policy applied, into the ``SideRates`` record that
every caller reads through ``EffectiveRateSpec.side``. r_e at a time, on
one side, is ``spec.side(side).rate(t, spec.risk_free.forward_rate(t))``. This module is the
only one that knows what each collateral mode protects and funds: the
counterparty-risk-only twin (``counterparty_risk_spec``) is built from the
resolved sides, not from the mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .collateral import CollateralState
from .curves import CurveError, PartyCurves, RateCurve, combine_curves, dominates
from .intervals import chosen

MODES = ("uncollateralized", "cash_comingled", "cash_segregated", "noncash",
         "initial_margin")


def _as_spread_curve(spread) -> RateCurve:
    if spread is None:
        return RateCurve.flat(0.0, label="spread")
    if isinstance(spread, RateCurve):
        return spread
    return RateCurve.flat(float(spread), label="spread")


@dataclass(frozen=True)
class SideRates:
    """r_e's inputs on one side after the mode's overrides: the liability
    party's bond and liquidity curves, the funded spread s, eta and chi."""

    bond: RateCurve
    liquidity: RateCurve
    spread: RateCurve
    eta: float
    chi: float

    def rate(self, t, risk_free_forward):
        """r_e at t (scalar or array) given the risk-free forward there."""
        return blend_rate(self.bond.forward_rate(t), self.liquidity.forward_rate(t),
                          risk_free_forward, self.spread.forward_rate(t), self.eta, self.chi)


@dataclass(frozen=True)
class EffectiveRateSpec:
    """Everything needed to evaluate r_e as a function of (t, sign V).

    repo spreads are quoted over the risk-free curve; a scalar is treated
    as a flat curve and an omitted C-side spread as zero. ``repo_spread_b``
    defaults to the C-side spread (the symmetric case; distinct values
    support borrower-specific repo rates). The fields keep what the caller
    gave; ``side`` reads the rates they resolve to.
    """

    party_b: PartyCurves
    party_c: PartyCurves
    risk_free: RateCurve
    state: CollateralState
    mode: str = "noncash"
    cash_rate: RateCurve | None = None
    repo_spread_c: RateCurve | float | None = None
    repo_spread_b: RateCurve | float | None = None
    _side_c: SideRates = field(init=False, repr=False, compare=False)
    _side_b: SideRates = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        chosen(self.mode, MODES, "mode", ValueError)
        if self.mode == "cash_comingled" and self.cash_rate is None:
            raise ValueError("mode 'cash_comingled' needs a cash_rate curve")
        for party in (self.party_b, self.party_c):
            if not dominates(party.liquidity, self.risk_free):
                raise CurveError("liquidity rate must be >= risk-free rate at every tenor")

        # the mode's policy: uncollateralized protects nothing; declared-
        # segregated modes (segregated cash, initial margin) force the
        # unfunded case, so they read no cash curve; comingled cash and
        # securities read chi per direction; comingled cash funds at r_L - r
        # on both sides, securities at each side's repo spread
        protected = self.mode != "uncollateralized"
        funded = self.mode not in ("cash_segregated", "initial_margin")
        spread_c = _as_spread_curve(self.repo_spread_c)
        spread_b = spread_c if self.repo_spread_b is None else _as_spread_curve(self.repo_spread_b)
        if self.mode == "cash_comingled":
            spread_c = spread_b = combine_curves([self.cash_rate, self.risk_free], [1.0, -1.0],
                                                 label="cash_spread")
        st = self.state
        for name, party, eta, chi, spread in (
                ("_side_c", self.party_c, st.eta_c, st.chi_c, spread_c),
                ("_side_b", self.party_b, st.eta_b, st.chi_b, spread_b)):
            object.__setattr__(self, name, SideRates(
                party.bond, party.liquidity, spread,
                float(eta) if protected else 0.0, float(chi) if funded else 0.0))

    def side(self, side: int) -> SideRates:
        """r_e's inputs where sign V = side: +1 (V > 0) party C's, else B's."""
        return self._side_c if side > 0 else self._side_b

    def funded_spread_curve(self, side: int) -> RateCurve:
        """Funded-leg spread over risk-free: r_L - r for cash, r_p - r otherwise."""
        return self.side(side).spread


def risk_free_spec(risk_free: RateCurve) -> EffectiveRateSpec:
    """The spec of the risk-free value V*: nothing protected (eta = 0) and
    both parties at the risk-free curve, so r_e is r * 1.0 + 0.0, r bit for bit."""
    party = PartyCurves(bond=risk_free, liquidity=risk_free)
    return EffectiveRateSpec(party_b=party, party_c=party, risk_free=risk_free,
                             state=CollateralState(), mode="uncollateralized")


def counterparty_risk_spec(spec: EffectiveRateSpec) -> EffectiveRateSpec:
    """The counterparty-risk-only twin of ``spec``: each side keeps the eta
    its mode resolved, and that protected share earns the risk-free rate
    (chi = 1, no spread), so r_e's adjustment is only the unsecured (1 - eta)
    part."""
    return replace(spec, mode="noncash", cash_rate=None, repo_spread_c=None, repo_spread_b=None,
                   state=CollateralState(eta_b=spec.side(-1).eta, eta_c=spec.side(+1).eta))


def blend_rate(f_unsec, f_mu, f_r, f_spread, eta, chi):
    """The r_e convex combination; arguments may be scalars or arrays.

    The blend is linear in the rates, so it also turns the per-curve
    integrals over an interval (eta and chi held constant) into the
    integral of r_e.
    """
    return f_unsec * (1.0 - eta) + eta * ((1.0 - chi) * f_mu + chi * (f_r + f_spread))

