"""XVA decomposition by quadrature over exposure profiles.

The total adjustment against the risk-free value is

    U = integral of (r_e - r) * V*(s) * exp(-int r_e) ds

split into CVA - DVA + CFA - DFA + LVA by splitting the spread r_e - r:
the default premium and funding basis of the unsecured share give
CVA/DVA and CFA/DFA (together CRA), the collateral share gives LVA, whose
repo-funded part is colVA.

Numerics: the quadrature grid is refined with every curve node so spread
integrals per segment are exact, and each segment integrates
weight * [exposure * DF] with the log-mean of the endpoint products, which
is exact when the bracket is a pure exponential (flat-rate cases, unit
payoffs, martingale exposures) and second-order otherwise. The
discount factor on positive-exposure terms compounds r_ec, on negative
ones r_eb - the deterministic-eta surrogate of the path-wise switching
rate, exact for single-sign profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import RateCurve
from .discounting import EffectiveRateSpec, blend_rate
from .exposure import ExposureProfile


class XvaError(ValueError):
    """Invalid XVA computation request."""


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
    if not annuity > 0.0:
        raise XvaError("annuity must be > 0")
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


def _quad_grid(profile: ExposureProfile, spec: EffectiveRateSpec,
               n_steps: int) -> np.ndarray:
    horizon = profile.horizon
    base = np.linspace(0.0, horizon, n_steps + 1)
    knots = set(base)
    knots.update(t for t in profile.times if 0.0 < t < horizon)
    curves = [spec.risk_free, spec.party_b.bond, spec.party_b.liquidity,
              spec.party_c.bond, spec.party_c.liquidity,
              spec.funded_spread_curve(+1), spec.funded_spread_curve(-1)]
    for c in curves:
        knots.update(t for t in c.tenors if 0.0 < t < horizon)
    return np.array(sorted(knots))


def decompose(profile: ExposureProfile, spec: EffectiveRateSpec, *,
              n_steps: int = 200, grid=None) -> XvaReport:
    """CVA/DVA/CFA/DFA/LVA/colVA of a netting set under the spec's
    constant eta and chi per side.

    ``grid`` overrides the quadrature grid (must start at 0); otherwise a
    uniform grid with ``n_steps`` intervals is refined with all profile and
    curve knots.
    """
    if grid is None:
        grid = _quad_grid(profile, spec, n_steps)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
            raise XvaError("quadrature grid must start at 0 and increase")
        if grid[-1] > profile.horizon + 1e-9:
            raise XvaError("quadrature grid extends beyond the profile horizon")
    epe = np.interp(grid, profile.times, profile.epe)
    ene = np.interp(grid, profile.times, profile.ene)
    spread_curve_c = spec.funded_spread_curve(+1)
    spread_curve_b = spec.funded_spread_curve(-1)
    eta_c, chi_c = spec.eta(+1), spec.chi(+1)
    eta_b, chi_b = spec.eta(-1), spec.chi(-1)

    cva = dva = cfa = dfa = lva_c = lva_b = colva_c = colva_b = 0.0
    df_c = 1.0
    df_b = 1.0
    for k in range(len(grid) - 1):
        a, b = grid[k], grid[k + 1]
        i_r = spec.risk_free.integral(a, b)
        # C side (positive exposure)
        i_rc = spec.party_c.bond.integral(a, b)
        i_mc = spec.party_c.liquidity.integral(a, b)
        i_sc = spread_curve_c.integral(a, b)
        i_rec = blend_rate(i_rc, i_mc, i_r, i_sc, eta_c, chi_c)
        g0 = epe[k] * df_c
        df_c *= math.exp(-i_rec)
        lm_c = _log_mean(g0, epe[k + 1] * df_c)
        cva += (1.0 - eta_c) * (i_rc - i_mc) * lm_c
        cfa += (1.0 - eta_c) * (i_mc - i_r) * lm_c
        lva_c += eta_c * ((1.0 - chi_c) * (i_mc - i_r) + chi_c * i_sc) * lm_c
        colva_c += eta_c * chi_c * i_sc * lm_c
        # B side (negative exposure)
        i_rb = spec.party_b.bond.integral(a, b)
        i_mb = spec.party_b.liquidity.integral(a, b)
        i_sb = spread_curve_b.integral(a, b)
        i_reb = blend_rate(i_rb, i_mb, i_r, i_sb, eta_b, chi_b)
        g0 = ene[k] * df_b
        df_b *= math.exp(-i_reb)
        lm_b = _log_mean(g0, ene[k + 1] * df_b)
        dva += (1.0 - eta_b) * (i_rb - i_mb) * lm_b
        dfa += (1.0 - eta_b) * (i_mb - i_r) * lm_b
        lva_b += eta_b * ((1.0 - chi_b) * (i_mb - i_r) + chi_b * i_sb) * lm_b
        colva_b += eta_b * chi_b * i_sb * lm_b

    lva = lva_c - lva_b
    colva = colva_c - colva_b
    cra = cva - dva + cfa - dfa
    xva = cra + lva
    return XvaReport(cva=cva, dva=dva, cfa=cfa, dfa=dfa, lva=lva, colva=colva,
                     cra=cra, xva=xva, npv=profile.mtm0 - xva)


def martingale_epe_profile(v_star0: float, risk_free: RateCurve, times,
                           annuity: float = 1.0) -> ExposureProfile:
    """Profile of a single-sign claim: E[V*(t)] = V*(0) / DF(0, t).

    The discounted risk-free value is a martingale, so a claim whose value
    never changes sign has this exact expected exposure; it feeds the
    quadrature when cross-checking the PDE solver.
    """
    times = np.asarray(times, dtype=float)
    growth = np.exp(risk_free.integral(0.0, times))
    path = abs(v_star0) * growth
    zero = np.zeros_like(path)
    if v_star0 >= 0.0:
        return ExposureProfile(times, path, zero, v_star0, annuity)
    return ExposureProfile(times, zero, path, v_star0, annuity)
