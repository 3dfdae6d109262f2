"""Independent reference values for the correctness gates.

Each oracle re-derives a workload's answer without running the cxva
solver that the workload exercises:

- option_sweep: flat curves and a single-sign payoff make the effective
  rate a constant per side, so V = V* exp(-(r_e - r) T) in closed form;
- stochastic_book: the one-factor book value at time t is a smooth
  function of the Gaussian factor x(t) ~ N(0, phi_t), so EPE/ENE (and
  their Monte Carlo standard errors) follow from a 1-D integral, with no
  paths;
- stochastic_book and allocation: the XVA of an exposure profile is a
  dense trapezoid of exact rate integrals on curves rebuilt from their
  nodes, so neither cxva.curves nor cxva.xva runs;
- allocation: unit LVAs and per-round LVAs follow from the deterministic
  forward values of the books, the break-even repo spreads and the posted
  blend;
- allocation and lp_resolve: the allocation LP is re-solved with HiGHS.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev
from scipy.optimize import linprog


# -- closed-form option under a constant effective rate ------------------------

def black_scholes_call(spot: float, strike: float, rate: float, vol: float,
                       maturity: float) -> float:
    sd = vol * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * maturity) / sd
    d2 = d1 - sd

    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return spot * cdf(d1) - strike * math.exp(-rate * maturity) * cdf(d2)


def flat_blend(unsec: float, mu: float, r: float, spread: float, eta: float,
               chi: float) -> float:
    """r_e = r_unsec (1-eta) + eta ((1-chi) mu + chi (r + s)), flat curves."""
    return unsec * (1.0 - eta) + eta * ((1.0 - chi) * mu + chi * (r + spread))


def option_sweep_rows(scenario: dict, etas) -> list[list[float]]:
    """sweep.csv rows (eta, cra_long, xva_long, cra_short, xva_short) for a
    call with flat curves and noncash collateral at chi = 1."""
    r = float(scenario["curves"]["risk_free"]["flat"])
    opt = scenario["option"]
    spread = float(scenario["collateral"]["repo_spread"])
    v_star = black_scholes_call(opt["spot"], opt["strike"], r, opt["vol"],
                                opt["maturity"])
    t = float(opt["maturity"])
    rows = []
    for eta in etas:
        row = [float(eta)]
        # long: V > 0, party C is the liability side; short: party B
        for side, sign in (("c", 1.0), ("b", -1.0)):
            p = scenario["parties"][side]
            unsec = r + p["bond_spread"]
            mu = r + p["liquidity_spread"]
            for r_e in (flat_blend(unsec, mu, r, 0.0, eta, 1.0),      # CRA twin
                        flat_blend(unsec, mu, r, spread, eta, 1.0)):  # total
                row.append(sign * v_star * (1.0 - math.exp(-(r_e - r) * t)))
        rows.append(row)
    return rows


# -- curves and exposure-profile XVA, without cxva.curves or cxva.xva -------------

class LogLinearCurve:
    """Weighted sum of zero curves with log-linear discount factors.

    Each term's -ln DF(0, t) = z(t) t is linear between (0, 0) and its
    nodes and has a flat zero rate beyond the last node, which is the
    paper's piecewise-constant forward convention. Sums and scalings of
    such curves keep it exactly, so a spread, a party curve (risk-free plus
    a spread) or a collateral blend is one object.
    """

    def __init__(self, terms) -> None:
        self.terms = list(terms)  # (weight, node tenors with 0, z t at them, last zero)

    @classmethod
    def from_nodes(cls, nodes) -> "LogLinearCurve":
        ts, zs = (np.asarray(x, dtype=float) for x in zip(*sorted(nodes)))
        return cls([(1.0, np.concatenate(([0.0], ts)), np.concatenate(([0.0], zs * ts)),
                     float(zs[-1]))])

    @classmethod
    def flat(cls, rate: float) -> "LogLinearCurve":
        return cls.from_nodes([(1.0, rate)])

    @classmethod
    def combine(cls, curves, weights) -> "LogLinearCurve":
        return cls([(k * w, ts, zts, z) for curve, k in zip(curves, weights)
                    for w, ts, zts, z in curve.terms])

    def __add__(self, other: "LogLinearCurve") -> "LogLinearCurve":
        return LogLinearCurve.combine([self, other], [1.0, 1.0])

    @property
    def knots(self) -> set[float]:
        return {float(t) for _, ts, _, _ in self.terms for t in ts[1:]}

    def zt(self, t):
        """-ln DF(0, t), the integral of the forward from 0 to t."""
        t = np.asarray(t, dtype=float)
        return sum(w * np.where(t > ts[-1], z * t, np.interp(t, ts, zts))
                   for w, ts, zts, z in self.terms)

    def df(self, t):
        return np.exp(-self.zt(t))

    def zero_rate(self, t: float) -> float:
        return float(self.zt(t)) / t


def xva_fields(times, epe, ene, mtm0: float, risk_free: LogLinearCurve, sides: dict,
               eta: float, chi: float, dense: int = 20000) -> dict:
    """CVA, DVA, CFA, DFA, LVA, colVA, CRA, XVA and NPV of an exposure profile
    under constant eta and chi, by a dense trapezoid rule.

    ``sides`` maps "c" (positive exposure, discounted at r_e of party C) and
    "b" (negative exposure, party B) to (bond, liquidity, funded spread)
    curves. On each side the discount rate is
    r_e = (1 - eta) r_bond + eta ((1 - chi) mu + chi (r + s)), and the
    adjustment splits r_e - r into the default premium r_bond - mu and the
    funding basis mu - r of the unsecured share (CVA/DVA, CFA/DFA) and the
    collateral share (LVA, of which colVA is the funded spread). EPE and
    ENE are linear between profile times. Rate integrals are exact on each
    sub-interval; only exposure times discount factor is averaged.
    """
    times = np.asarray(times, dtype=float)
    horizon = float(times[-1])
    knots = set(times.tolist()) | risk_free.knots
    for curves in sides.values():
        for curve in curves:
            knots |= curve.knots
    grid = np.union1d(np.linspace(0.0, horizon, dense + 1),
                      [k for k in knots if 0.0 < k < horizon])
    d_r = np.diff(risk_free.zt(grid))
    parts = {}
    for side, exposure in (("c", epe), ("b", ene)):
        d_bond, d_mu, d_s = (np.diff(curve.zt(grid)) for curve in sides[side])
        d_re = (1.0 - eta) * d_bond + eta * ((1.0 - chi) * d_mu + chi * (d_r + d_s))
        g = np.interp(grid, times, exposure) * np.exp(-np.concatenate(([0.0], np.cumsum(d_re))))
        g_mean = 0.5 * (g[:-1] + g[1:])
        parts[side] = ((1.0 - eta) * np.dot(d_bond - d_mu, g_mean),
                       (1.0 - eta) * np.dot(d_mu - d_r, g_mean),
                       eta * np.dot((1.0 - chi) * (d_mu - d_r) + chi * d_s, g_mean),
                       eta * chi * np.dot(d_s, g_mean))
    (cva, cfa, lva_c, colva_c), (dva, dfa, lva_b, colva_b) = parts["c"], parts["b"]
    cra = cva - dva + cfa - dfa
    lva = lva_c - lva_b
    xva = cra + lva
    return {"cva": cva, "dva": dva, "cfa": cfa, "dfa": dfa, "lva": lva,
            "colva": colva_c - colva_b, "cra": cra, "xva": xva, "npv": mtm0 - xva}


def quadrature_gap(times, epe, ene, risk_free: LogLinearCurve, sides: dict,
                   eta: float, chi: float) -> float:
    """How far a second-order quadrature on the profile's own grid may sit
    from ``xva_fields``.

    On each profile segment, the mean of g = exposure x DF(r_e) by an
    exponential arc (the log-mean) and by a straight line differ by about
    (g_b - g_a)^2 / (6 (g_a + g_b)). Summed over segments, weighted by the
    segment's integral of every spread over risk-free, this bounds every
    field's error from the profile's roughness: a noisy Monte Carlo
    profile gets a wider tolerance than a smooth one.
    """
    t = np.asarray(times, dtype=float)
    z_r = risk_free.zt(t)
    gap = 0.0
    for side, exposure in (("c", epe), ("b", ene)):
        z_bond, z_mu, z_s = (curve.zt(t) for curve in sides[side])
        z_re = (1.0 - eta) * z_bond + eta * ((1.0 - chi) * z_mu + chi * (z_r + z_s))
        g = np.asarray(exposure, dtype=float) * np.exp(-z_re)
        weight = np.abs(np.diff((z_bond - z_r) + (z_mu - z_r) + z_s))
        total = g[:-1] + g[1:]
        live = total > 0.0
        gap += float(np.sum(weight[live] * np.diff(g)[live] ** 2 / (6.0 * total[live])))
    return gap


def funded_fraction(h_repo: float, h_csa: float) -> float:
    """chi = 1 - (h_repo - h_csa)+ / (1 - h_csa): the share of posted value
    that repo funds."""
    return 1.0 - max(h_repo - h_csa, 0.0) / (1.0 - h_csa)


def breakeven_spread_curve(roe: float, econ_capital: float, mu0: LogLinearCurve,
                           tenors) -> LogLinearCurve:
    """Term repo spread over risk-free, RoE * E_c + mu_0(t), at the tenors,
    with no expected gap loss."""
    return LogLinearCurve.from_nodes([(t, roe * econ_capital + mu0.zero_rate(t))
                                      for t in tenors])


# -- swap book values: deterministic and noise-free one-factor ----------------------

def _cash_flows(swaps):
    """Dates and weights of every fixed coupon and floating-leg terminal
    term, plus each swap's signed notional and maturity. A swap is worth
    (1 - P(t, T)) - K sum_{u > t} delta P(t, u) to the fixed payer."""
    dates, weights = [], []
    for s in swaps:
        sgn = s.sign * s.notional
        pay = s.payment_times()
        dates += [pay, [s.maturity]]
        weights += [np.full(len(pay), -sgn * s.fixed_rate / s.pay_freq), [-sgn]]
    return (np.concatenate(dates), np.concatenate(weights),
            np.array([s.sign * s.notional for s in swaps]), np.array([s.maturity for s in swaps]))


def forward_values(swaps, curve: LogLinearCurve, times: np.ndarray) -> np.ndarray:
    """Book value at each time along today's forward curve."""
    dates, weights, notional, maturities = _cash_flows(swaps)
    df_dates, df_times = curve.df(dates), curve.df(times)
    return np.array([np.sum(notional[maturities > t + 1e-12])
                     + np.sum((weights * df_dates)[dates > t + 1e-12]) / df_times[k]
                     for k, t in enumerate(times)])


def one_factor_exposure(swaps, curve: LogLinearCurve, times: np.ndarray,
                        mean_reversion: float, vol: float, nodes: int = 24,
                        dense: int = 4001):
    """EPE, ENE and the standard deviations of V+ and V- averaged over an
    antithetic pair (x, -x), on the grid.

    Hull-White bond reconstitution: P(t, u | x) = DF(u)/DF(t)
    exp(-B x - B^2 phi_t / 2) with B = (1 - exp(-a (u - t))) / a.
    V_t(x) is sampled at Chebyshev nodes on +-8 sd and its interpolant is
    integrated densely against N(0, phi_t), which handles the max(., 0)
    kink without root finding.
    """
    a = mean_reversion
    phi = vol * vol * (1.0 - np.exp(-2.0 * a * times)) / (2.0 * a)
    dates, weights, notional, maturities = _cash_flows(swaps)
    df_dates = curve.df(dates)
    df_times = curve.df(times)

    epe = np.zeros(len(times))
    ene = np.zeros(len(times))
    sd_pos = np.zeros(len(times))
    sd_neg = np.zeros(len(times))
    for k, t in enumerate(times):
        live = dates > t + 1e-12
        if not np.any(live):
            continue
        const = float(np.sum(notional[maturities > t + 1e-12]))
        b = (1.0 - np.exp(-a * (dates[live] - t))) / a
        w = weights[live] * df_dates[live] / df_times[k] * np.exp(-0.5 * b * b * phi[k])

        def value(x):
            return const + np.exp(-np.outer(x, b)) @ w

        if phi[k] <= 0.0:
            v0 = float(value(np.zeros(1))[0])
            epe[k], ene[k] = max(v0, 0.0), max(-v0, 0.0)
            continue
        sd = math.sqrt(phi[k])
        cheb_x = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)  # on [-1, 1]
        coef = chebyshev.chebfit(cheb_x, value(8.0 * sd * cheb_x), nodes - 1)
        z = np.linspace(-1.0, 1.0, dense)
        v = chebyshev.chebval(z, coef)
        pdf = np.exp(-0.5 * (8.0 * z) ** 2)
        pdf /= np.trapezoid(pdf, z)
        pos, neg = np.maximum(v, 0.0), np.maximum(-v, 0.0)
        epe[k] = np.trapezoid(pos * pdf, z)
        ene[k] = np.trapezoid(neg * pdf, z)
        # the grid is symmetric, so reversing it evaluates the antithetic twin
        pair_pos, pair_neg = 0.5 * (pos + pos[::-1]), 0.5 * (neg + neg[::-1])
        sd_pos[k] = math.sqrt(max(np.trapezoid(pair_pos ** 2 * pdf, z) - epe[k] ** 2, 0.0))
        sd_neg[k] = math.sqrt(max(np.trapezoid(pair_neg ** 2 * pdf, z) - ene[k] ** 2, 0.0))
    return epe, ene, sd_pos, sd_neg


# -- allocation LP by HiGHS ----------------------------------------------------------

def highs_allocation(unit_lva: np.ndarray, price, quantity, h_csa, h_lcr,
                     requirement, upper: np.ndarray, hqla_floor: float) -> float:
    """Optimal objective of max sum q_ij e_ij under the cxva allocation LP:
    inventory rows with slacks, CSA funding equalities, an HQLA floor on the
    unposted inventory and 0 <= q_ij <= upper_ij."""
    e = np.asarray(unit_lva, dtype=float)
    m, n = e.shape
    price, quantity = np.asarray(price, float), np.asarray(quantity, float)
    h_csa, h_lcr = np.asarray(h_csa, float), np.asarray(h_lcr, float)
    nvar = m * n + m
    a_eq = np.zeros((m + n, nvar))
    b_eq = np.concatenate([quantity, np.asarray(requirement, float)])
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
        a_eq[i, m * n + i] = 1.0
        for j in range(n):
            a_eq[m + j, i * n + j] = (1.0 - h_csa[i]) * price[i]
    a_ub = b_ub = None
    if hqla_floor > 0.0:
        a_ub = np.zeros((1, nvar))
        a_ub[0, m * n:] = -(1.0 - h_lcr) * price
        b_ub = np.array([-hqla_floor])
    cap = np.minimum(np.asarray(upper, float), quantity[:, None]).ravel()
    bounds = [(0.0, float(u)) for u in cap] + [(0.0, float(q)) for q in quantity]
    c = np.concatenate([-e.ravel(), np.zeros(m)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS could not solve the reference LP: {res.message}")
    return -float(res.fun)
