"""Independent oracles used by the test suite only.

These deliberately avoid the library's own code paths: Black-Scholes in
closed form, direct discount sums for swap values, exhaustive lattice
search for small allocation LPs, a survival-discounted colVA, and the
exact expected exposure of a claim whose value never changes sign.
"""

import math

import numpy as np

from cxva.exposure import ExposureProfile


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes(spot, strike, vol, maturity, rate, div_yield=0.0, kind="call"):
    """Closed-form European option value under flat rates."""
    sq = vol * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate - div_yield + 0.5 * vol * vol) * maturity) / sq
    d2 = d1 - sq
    call = (spot * math.exp(-div_yield * maturity) * norm_cdf(d1)
            - strike * math.exp(-rate * maturity) * norm_cdf(d2))
    if kind == "call":
        return call
    # put via parity
    return call - spot * math.exp(-div_yield * maturity) + strike * math.exp(-rate * maturity)


def swap_forward_value(notional, fixed_rate, sign, maturity, pay_freq,
                       df, t):
    """Forward MTM of one swap at time t from a DF function, written
    independently of the library's vectorized valuation; sign is +1 for the
    fixed payer, -1 for the receiver."""
    if maturity <= t + 1e-12:
        return 0.0
    n = int(math.ceil(maturity * pay_freq - 1e-9))
    pay_times = [maturity - k / pay_freq for k in range(n)][::-1]
    pay_times = [u for u in pay_times if u > t + 1e-12]
    annuity = sum(df(u) for u in pay_times) / pay_freq / df(t)
    float_leg = 1.0 - df(maturity) / df(t)
    return sign * notional * (float_leg - fixed_rate * annuity)


def lattice_lp_optimum(e, q_max, v_req, conv, step_frac=1e-3):
    """Exhaustive search of a 2-asset x 2-set allocation LP on a lattice.

    Funding equalities pin q[1, j] once q[0, j] is chosen, so the search is
    two-dimensional over (q00, q01). conv[i] = (1 - h_i) * B_i. Returns the
    best objective over feasible lattice points (-inf if none).
    """
    e = np.asarray(e)
    h0 = step_frac * q_max[0]
    g = np.arange(0.0, q_max[0] + 0.5 * h0, h0)
    q00, q01 = np.meshgrid(g, g, indexing="ij")
    q10 = (v_req[0] - q00 * conv[0]) / conv[1]
    q11 = (v_req[1] - q01 * conv[0]) / conv[1]
    feasible = ((q10 >= -1e-12) & (q11 >= -1e-12)
                & (q00 + q01 <= q_max[0] + 1e-12)
                & (q10 + q11 <= q_max[1] + 1e-12))
    obj = (e[0, 0] * q00 + e[0, 1] * q01
           + e[1, 0] * np.maximum(q10, 0.0) + e[1, 1] * np.maximum(q11, 0.0))
    obj = np.where(feasible, obj, -np.inf)
    return float(obj.max())


def _log_mean(ga: float, gb: float) -> float:
    """Mean of an exponential arc through (ga, gb), arithmetic when the
    exponential model does not apply."""
    if ga <= 0.0 or gb <= 0.0 or ga == gb:
        return 0.5 * (ga + gb)
    return (ga - gb) / math.log(ga / gb)


def colva_bk(profile, spread, hazard_b, hazard_c, risk_free, n_steps=200):
    """Survival-discounted collateral-spread colVA.

    Integrates s_x(u) * exp(-int (r + lambda_B + lambda_C)) * E[X(u)] with
    the collateral balance X approximated by epe - ene. The curves only
    need ``integral(a, b)`` and ``tenors``.
    """
    horizon = profile.horizon
    knots = set(np.linspace(0.0, horizon, n_steps + 1))
    knots.update(t for t in profile.times if 0.0 < t < horizon)
    for c in (spread, hazard_b, hazard_c, risk_free):
        knots.update(t for t in c.tenors if 0.0 < t < horizon)
    grid = np.array(sorted(knots))
    x = np.interp(grid, profile.times, profile.epe) \
        - np.interp(grid, profile.times, profile.ene)

    total = 0.0
    df = 1.0
    for a, b, xa, xb in zip(grid[:-1], grid[1:], x[:-1], x[1:]):
        g0 = xa * df
        df *= math.exp(-(risk_free.integral(a, b) + hazard_b.integral(a, b)
                         + hazard_c.integral(a, b)))
        total += spread.integral(a, b) * _log_mean(g0, xb * df)
    return total


def forward_exposure(spot, strike, vol, maturity, rate, div_yield, times):
    """Closed-form Black (EPE, ENE) of a long forward S - K under flat rates.

    The risk-free value at t is V*(t) = S_t exp(-q tau) - K exp(-r tau),
    tau = T - t, so EPE(t) = E[V*(t)+] and ENE(t) = E[V*(t)-] are Black
    call and put values on S_t struck at K exp(-(r - q) tau), undiscounted
    at t. The log-moneyness ln(F_t / K_t) = ln(S/K) + (r - q) T does not
    depend on t.
    """
    epe, ene = [], []
    for t in times:
        carry = math.exp(-div_yield * (maturity - t))
        fwd = spot * math.exp((rate - div_yield) * t)
        k_t = strike * math.exp(-(rate - div_yield) * (maturity - t))
        if t <= 0.0:
            epe.append(carry * max(fwd - k_t, 0.0))
            ene.append(carry * max(k_t - fwd, 0.0))
            continue
        sq = vol * math.sqrt(t)
        d1 = (math.log(fwd / k_t) + 0.5 * sq * sq) / sq
        d2 = d1 - sq
        epe.append(carry * (fwd * norm_cdf(d1) - k_t * norm_cdf(d2)))
        ene.append(carry * (k_t * norm_cdf(-d2) - fwd * norm_cdf(-d1)))
    return epe, ene


def martingale_epe_profile(v_star0: float, risk_free, times) -> ExposureProfile:
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
        return ExposureProfile(times, path, zero, v_star0, 1.0)
    return ExposureProfile(times, zero, path, v_star0, 1.0)
