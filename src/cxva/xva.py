"""XVA decomposition by quadrature over exposure profiles.

The total adjustment against the risk-free value is

    U = integral of (r_e - r) * V*(s) * exp(-int r_e) ds

split into CVA - DVA + CFA - DFA + LVA by splitting the spread r_e - r:
the default premium and funding basis of the unsecured share give
CVA/DVA and CFA/DFA (together CRA), the collateral share gives LVA, whose
repo-funded part is colVA.

Numerics: the quadrature grid is refined with every curve node so spread
integrals per segment are exact (each distinct curve is integrated once
per grid, as differences of its integral from 0), and each segment
integrates weight * [exposure * DF] with the log-mean of the endpoint
products, which is exact when the bracket is a pure exponential
(flat-rate cases, unit payoffs, martingale exposures) and second-order
otherwise. The discount factor on positive-exposure terms compounds
r_ec, on negative ones r_eb - the deterministic-eta surrogate of the
path-wise switching rate, exact for single-sign profiles.

One per-side quadrature runs twice: on the EPE with side +1 (CVA, CFA and
the C leg of LVA/colVA) and on the ENE with side -1 (DVA, DFA and the B
leg). The risk-free segment integrals, and those of any curve both sides
hold (the optimizer's specs hold one poster's on both), are shared and
tabulated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discounting import EffectiveRateSpec, SideRates, blend_rate
from .exposure import ExposureProfile
from .intervals import INTEGER, POSITIVE, bounded


class XvaError(ValueError):
    """Invalid XVA computation request."""


# largest uniform quadrature grid a scenario may ask for (quadrature_steps)
MAX_QUADRATURE_STEPS = 10_000
# decompose's n_steps, which SCHEMA's quadrature_steps reads
QUADRATURE_STEPS = (1, MAX_QUADRATURE_STEPS, "[]")


_FIELDS = ("cva", "dva", "cfa", "dfa", "lva", "colva", "cra", "xva", "npv")


@dataclass(frozen=True)
class XvaReport:
    """Valuation adjustments in currency units plus optional running-spread
    twins in basis points (filled by to_running_spread).

    Identities hold by construction: cra = cva - dva + cfa - dfa and
    xva = cra + lva, with colva the funded part of lva. Every field must be
    finite (the identity checks alone cannot see a NaN).
    """

    cva: float
    dva: float
    cfa: float
    dfa: float
    lva: float
    colva: float
    cra: float
    xva: float
    npv: float
    bp: dict[str, float] | None = None

    def __post_init__(self) -> None:
        values = [getattr(self, k) for k in _FIELDS] + list((self.bp or {}).values())
        if not all(math.isfinite(x) for x in values):
            raise XvaError("XVA report fields must be finite")
        scale = max(1.0, abs(self.xva))
        if abs(self.cra - (self.cva - self.dva + self.cfa - self.dfa)) > 1e-12 * scale:
            raise XvaError("cra must equal cva - dva + cfa - dfa")
        if abs(self.xva - (self.cra + self.lva)) > 1e-12 * scale:
            raise XvaError("xva must equal cra + lva")

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in _FIELDS}
        if self.bp is not None:
            out["bp"] = dict(self.bp)
        return out


def to_running_spread(report: XvaReport, annuity: float) -> XvaReport:
    """Fill the basis-point twins: value / annuity * 1e4."""
    bounded(annuity, POSITIVE, "annuity", XvaError)
    bp = {k: getattr(report, k) / annuity * 1e4 for k in _FIELDS}
    return replace(report, bp=bp)


def _log_mean(ga: float, gb: float) -> float:
    """Mean of an exponential arc through (ga, gb); arithmetic fallback when
    the exponential model is unusable (sign change, zeros, extreme ratios)."""
    if ga <= 0.0 or gb <= 0.0:
        return 0.5 * (ga + gb)
    r = ga / gb
    if r > 1e8 or r < 1e-8:
        return 0.5 * (ga + gb)
    lr = math.log(r)
    if abs(lr) < 1e-9:
        return 0.5 * (ga + gb)
    return (ga - gb) / lr


def _quad_grid(profile: ExposureProfile, curves, n_steps: int) -> np.ndarray:
    """The uniform grid of ``n_steps`` intervals, refined with every profile
    time and curve tenor inside the horizon."""
    horizon = profile.horizon
    knots = np.concatenate((profile.times, *(c.tenors for c in curves)))
    return np.unique(np.concatenate((np.linspace(0.0, horizon, n_steps + 1),
                                     knots[(knots > 0.0) & (knots < horizon)])))


def _side_adjustments(exposure: np.ndarray, side: SideRates, i_r: list[float],
                      i_bonds: list[float], i_mus: list[float],
                      i_ss: list[float]) -> tuple[float, float, float, float]:
    """One side's (default, funding, lva, colva) parts, CVA/CFA on the EPE
    or DVA/DFA on the ENE, from each segment's integral of the risk-free
    curve and of the side's bond, liquidity and spread curves."""
    eta, chi = side.eta, side.chi
    # the weights of eta and chi, taken once: each is the double it was when
    # written out in the loop, so every sum keeps its bits
    unsecured, unfunded, funded = 1.0 - eta, 1.0 - chi, eta * chi
    default = funding = lva = colva = 0.0
    df = 1.0
    exposure = exposure.tolist()
    for e0, e1, i_rf, i_bond, i_mu, i_s in zip(exposure, exposure[1:], i_r, i_bonds, i_mus,
                                                i_ss):
        g0 = e0 * df
        df *= math.exp(-blend_rate(i_bond, i_mu, i_rf, i_s, eta, chi))
        lm = _log_mean(g0, e1 * df)
        i_mu_rf = i_mu - i_rf
        default += unsecured * (i_bond - i_mu) * lm
        funding += unsecured * i_mu_rf * lm
        lva += eta * (unfunded * i_mu_rf + chi * i_s) * lm
        colva += funded * i_s * lm
    return default, funding, lva, colva


def decompose(profile: ExposureProfile, spec: EffectiveRateSpec, *,
              n_steps: int = 200, grid=None) -> XvaReport:
    """CVA/DVA/CFA/DFA/LVA/colVA of a netting set under the spec's
    constant eta and chi per side.

    ``grid`` overrides the quadrature grid (must start at 0); otherwise a
    uniform grid with ``n_steps`` intervals is refined with all profile and
    curve knots.
    """
    bounded(n_steps, QUADRATURE_STEPS, "n_steps", XvaError, INTEGER)
    sides = spec.side(+1), spec.side(-1)
    curves = [spec.risk_free] + [c for s in sides for c in (s.bond, s.liquidity, s.spread)]
    if grid is None:
        grid = _quad_grid(profile, curves, n_steps)
    else:
        grid = np.asarray(grid, dtype=float)
        if not (grid[0] == 0.0 and (grid[1:] > grid[:-1]).all()):  # NaN fails too
            raise XvaError("quadrature grid must start at 0 and increase")
        if grid[-1] > profile.horizon + 1e-9:
            raise XvaError("quadrature grid extends beyond the profile horizon")
    # each segment's integral of each distinct curve: z(t)t at the grid's
    # ends differenced, which is integral(grid[:-1], grid[1:]) bit for bit
    segments = {}
    for c in curves:
        if id(c) not in segments:
            segments[id(c)] = np.diff(c.integral(0.0, grid)).tolist()
    i_r, *legs = (segments[id(c)] for c in curves)
    cva, cfa, lva_c, colva_c = _side_adjustments(
        np.interp(grid, profile.times, profile.epe), sides[0], i_r, *legs[:3])
    dva, dfa, lva_b, colva_b = _side_adjustments(
        np.interp(grid, profile.times, profile.ene), sides[1], i_r, *legs[3:])

    lva = lva_c - lva_b
    colva = colva_c - colva_b
    cra = cva - dva + cfa - dfa
    xva = cra + lva
    return XvaReport(cva=cva, dva=dva, cfa=cfa, dfa=dfa, lva=lva, colva=colva,
                     cra=cra, xva=xva, npv=profile.mtm0 - xva)

