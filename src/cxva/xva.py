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

One per-side quadrature runs twice: on the EPE with side +1 (CVA, CFA and
the C leg of LVA/colVA) and on the ENE with side -1 (DVA, DFA and the B
leg). The risk-free segment integrals are shared and tabulated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discounting import EffectiveRateSpec, SideRates, blend_rate
from .exposure import ExposureProfile


class XvaError(ValueError):
    """Invalid XVA computation request."""


# largest uniform quadrature grid a scenario may ask for (quadrature_steps)
MAX_QUADRATURE_STEPS = 10_000


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
    curves = [spec.risk_free]
    for side in (spec.side(+1), spec.side(-1)):
        curves += [side.bond, side.liquidity, side.spread]
    for c in curves:
        knots.update(t for t in c.tenors if 0.0 < t < horizon)
    return np.array(sorted(knots))


def _side_adjustments(grid: np.ndarray, exposure: np.ndarray, side: SideRates,
                      i_r: list[float]) -> tuple[float, float, float, float]:
    """One side's (default, funding, lva, colva) parts, CVA/CFA on the EPE
    or DVA/DFA on the ENE; ``i_r`` holds each segment's risk-free integral."""
    eta, chi = side.eta, side.chi
    default = funding = lva = colva = 0.0
    df = 1.0
    ends = grid[:-1], grid[1:]
    i_bonds = side.bond.integral(*ends).tolist()
    i_mus = side.liquidity.integral(*ends).tolist()
    i_ss = side.spread.integral(*ends).tolist()
    exposure = exposure.tolist()
    for k, (i_rf, i_bond, i_mu, i_s) in enumerate(zip(i_r, i_bonds, i_mus, i_ss)):
        g0 = exposure[k] * df
        df *= math.exp(-blend_rate(i_bond, i_mu, i_rf, i_s, eta, chi))
        lm = _log_mean(g0, exposure[k + 1] * df)
        default += (1.0 - eta) * (i_bond - i_mu) * lm
        funding += (1.0 - eta) * (i_mu - i_rf) * lm
        lva += eta * ((1.0 - chi) * (i_mu - i_rf) + chi * i_s) * lm
        colva += eta * chi * i_s * lm
    return default, funding, lva, colva


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
    # element-wise, the array form does a scalar call's arithmetic
    i_r = spec.risk_free.integral(grid[:-1], grid[1:]).tolist()
    cva, cfa, lva_c, colva_c = _side_adjustments(
        grid, np.interp(grid, profile.times, profile.epe), spec.side(+1), i_r)
    dva, dfa, lva_b, colva_b = _side_adjustments(
        grid, np.interp(grid, profile.times, profile.ene), spec.side(-1), i_r)

    lva = lva_c - lva_b
    colva = colva_c - colva_b
    cra = cva - dva + cfa - dfa
    xva = cra + lva
    return XvaReport(cva=cva, dva=dva, cfa=cfa, dfa=dfa, lva=lva, colva=colva,
                     cra=cra, xva=xva, npv=profile.mtm0 - xva)

