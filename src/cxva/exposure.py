"""Swap netting sets and risk-free exposure profiles.

Two backends produce E[V*+](t) and E[V*-](t) on a time grid:

- deterministic: the netting set is revalued along today's forward curve,
  adequate for deep in/out-of-the-money books whose value rarely changes
  sign;
- one-factor Monte Carlo: a mean-reverting Gaussian short rate fitted to
  the initial curve (Hull-White style bond reconstitution), with antithetic
  pairs and one RNG stream per pair so results do not depend on how paths
  are chunked across workers. At each grid time the book is revalued one
  block of paths at a time in a preallocated buffer of
  max(32 768, cash-flow dates) float64 values (256 KB for books of up to
  32 768 cash-flow dates), so the kernel's transient memory is that buffer
  beside the (paths x grid times) factor array.

Swaps are vanilla fixed-for-float, single curve, with regular accrual
periods counted back from maturity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .curves import RateCurve


class ExposureError(ValueError):
    """Invalid exposure inputs (including empty portfolios)."""


@dataclass(frozen=True)
class Swap:
    """Fixed-for-floating interest rate swap; direction is the fixed leg."""

    notional: float
    fixed_rate: float
    direction: str  # "payer" pays fixed / "receiver" receives fixed
    maturity: float
    pay_freq: int = 2

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 < self.notional < math.inf:
            raise ExposureError("notional must be finite and > 0")
        if not 0.0 < self.maturity < math.inf:
            raise ExposureError("maturity must be finite and > 0")
        if self.pay_freq not in (1, 2, 4):
            raise ExposureError("pay_freq must be one of 1, 2, 4")
        if self.direction not in ("payer", "receiver"):
            raise ExposureError("direction must be 'payer' or 'receiver'")

    @property
    def sign(self) -> float:
        """+1 for payer (gains when rates rise), -1 for receiver."""
        return 1.0 if self.direction == "payer" else -1.0

    def payment_times(self) -> np.ndarray:
        """Regular payment times counted back from maturity, all > 0."""
        n = int(np.ceil(self.maturity * self.pay_freq - 1e-9))
        times = self.maturity - np.arange(n)[::-1] / self.pay_freq
        return times[times > 1e-9]


@dataclass(frozen=True)
class ExposureProfile:
    """Netting-set exposure: epe_k = E[V*+(t_k)], ene_k = E[V*-(t_k)].

    annuity is the portfolio gross notional-weighted annuity used for the
    running-spread conversion (sum over swaps of notional * PV01-annuity).
    """

    times: np.ndarray
    epe: np.ndarray
    ene: np.ndarray
    mtm0: float
    annuity: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        epe = np.asarray(self.epe, dtype=float)
        ene = np.asarray(self.ene, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ExposureError("profile needs at least two time points")
        for name, value in (("times", times), ("epe", epe), ("ene", ene),
                            ("mtm0", self.mtm0), ("annuity", self.annuity)):
            if not np.all(np.isfinite(value)):
                raise ExposureError(f"profile {name} must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ExposureError("profile times must be strictly increasing")
        if len(epe) != len(times) or len(ene) != len(times):
            raise ExposureError("epe/ene must match the time grid")
        if np.any(epe < 0.0) or np.any(ene < 0.0):
            raise ExposureError("epe/ene must be non-negative")
        if times[0] == 0.0:
            scale = max(1.0, abs(self.mtm0))
            if abs((epe[0] - ene[0]) - self.mtm0) > 1e-9 * scale:
                raise ExposureError("epe_0 - ene_0 must equal mtm0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "epe", epe)
        object.__setattr__(self, "ene", ene)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def scaled(self, k: float) -> "ExposureProfile":
        """Profile of the portfolio with all notionals scaled by k > 0."""
        if k <= 0.0:
            raise ExposureError("scale factor must be > 0")
        return ExposureProfile(self.times, self.epe * k, self.ene * k,
                               self.mtm0 * k, self.annuity * k)


# -- portfolio generation ----------------------------------------------------

def par_rate(curve: RateCurve, maturity: float, pay_freq: int = 2) -> float:
    """Single-curve par swap rate (1 - DF(T)) / annuity."""
    n = int(np.ceil(maturity * pay_freq - 1e-9))
    pay = maturity - np.arange(n)[::-1] / pay_freq
    pay = pay[pay > 1e-9]
    annuity = np.sum(curve.df(pay)) / pay_freq
    return float((1.0 - curve.df(maturity)) / annuity)


def generate_portfolio(n: int, payer_frac: float, maturity_range: tuple[float, float],
                       rate_band: float, seed: int, curve: RateCurve, *,
                       rate_offset: float = 0.0, pay_freq: int = 2,
                       notional: float = 1.0) -> list[Swap]:
    """Random swap portfolio, deterministic given the seed.

    Maturities are uniform on the range; fixed rates uniform in
    [atm - band, atm + band] around the curve's 10y par rate (optionally
    shifted by ``rate_offset`` to build off-market books); the first
    round(n * payer_frac) swaps pay fixed.
    """
    if n < 1:
        raise ExposureError("n must be >= 1")
    # written so that NaN fails every check
    if not 0.0 <= payer_frac <= 1.0:
        raise ExposureError("payer_frac must be in [0, 1]")
    if not 0.0 <= rate_band < math.inf:
        raise ExposureError("rate_band must be finite and >= 0")
    if not math.isfinite(rate_offset):
        raise ExposureError("rate_offset must be finite")
    lo, hi = maturity_range
    if not 0.0 < lo <= hi < math.inf:
        raise ExposureError("maturity_range must satisfy 0 < lo <= hi < inf")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    maturities = rng.uniform(lo, hi, n) if hi > lo else np.full(n, float(lo))
    atm = par_rate(curve, 10.0, pay_freq) + rate_offset
    rates = atm + (rng.uniform(-rate_band, rate_band, n) if rate_band > 0.0
                   else np.zeros(n))
    n_payer = int(round(n * payer_frac))
    return [Swap(notional, float(rates[i]), "payer" if i < n_payer else "receiver",
                 float(maturities[i]), pay_freq) for i in range(n)]


# -- valuation helpers -------------------------------------------------------

def _payment_matrix(portfolio: Sequence[Swap]):
    """Padded (n_swaps, max_payments) matrices of payment dates and accruals."""
    times = [s.payment_times() for s in portfolio]
    width = max(len(t) for t in times)
    dates = np.zeros((len(portfolio), width))
    mask = np.zeros_like(dates, dtype=bool)
    for i, t in enumerate(times):
        dates[i, :len(t)] = t
        mask[i, :len(t)] = True
    accrual = np.array([1.0 / s.pay_freq for s in portfolio])
    return dates, mask, accrual


def _forward_values(portfolio: Sequence[Swap], curve: RateCurve,
                    grid: np.ndarray) -> np.ndarray:
    dates, mask, accrual = _payment_matrix(portfolio)
    df_dates = np.where(mask, curve.df(np.where(mask, dates, 1.0)), 0.0)
    maturities = np.array([s.maturity for s in portfolio])
    df_mat = curve.df(maturities)
    signs = np.array([s.sign for s in portfolio])
    notionals = np.array([s.notional for s in portfolio])
    fixed = np.array([s.fixed_rate for s in portfolio])
    out = np.empty(len(grid))
    df0 = curve.df(grid)
    for k, t in enumerate(grid):
        alive = maturities > t + 1e-12
        pay_alive = mask & (dates > t + 1e-12)
        annuity_t = (df_dates * pay_alive).sum(axis=1) * accrual / df0[k]
        float_leg = np.where(alive, 1.0 - df_mat / df0[k], 0.0)
        values = signs * notionals * (float_leg - fixed * annuity_t * alive)
        out[k] = values.sum()
    return out


def gross_annuity(portfolio: Sequence[Swap], curve: RateCurve) -> float:
    """Sum over swaps of notional times the time-0 annuity, direction-blind."""
    dates, mask, accrual = _payment_matrix(portfolio)
    df_dates = np.where(mask, curve.df(np.where(mask, dates, 1.0)), 0.0)
    notionals = np.array([s.notional for s in portfolio])
    return float(np.sum(notionals * df_dates.sum(axis=1) * accrual))


# -- exposure models ---------------------------------------------------------

@dataclass(frozen=True)
class DeterministicModel:
    """Exposure along today's forward curve: epe = V_fwd+, ene = V_fwd-."""


@dataclass(frozen=True)
class OneFactorMcModel:
    """Mean-reverting Gaussian short rate fitted to the initial curve."""

    mean_reversion: float
    vol: float
    paths: int
    seed: int

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not 0.0 < self.mean_reversion < math.inf:
            raise ExposureError("mean_reversion must be finite and > 0")
        if not 0.0 <= self.vol < math.inf:
            raise ExposureError("vol must be finite and >= 0")
        if self.paths < 1000:
            raise ExposureError("Monte Carlo needs at least 1000 paths")


def exposure_profile(portfolio: Sequence[Swap], model, points: int,
                     curve: RateCurve) -> ExposureProfile:
    """Risk-free exposure profile of a netting set on ``points`` equally
    spaced times from 0 to the last maturity.

    Raises ExposureError on an empty portfolio.
    """
    if not portfolio:
        raise ExposureError("cannot build an exposure profile for an empty portfolio")
    if points < 2:
        raise ExposureError("grid needs at least 2 points")
    times = np.linspace(0.0, max(s.maturity for s in portfolio), points)
    annuity = gross_annuity(portfolio, curve)
    if isinstance(model, DeterministicModel):
        values = _forward_values(portfolio, curve, times)
        epe = np.maximum(values, 0.0)
        ene = np.maximum(-values, 0.0)
        return ExposureProfile(times, epe, ene, float(values[0]), annuity)
    if isinstance(model, OneFactorMcModel):
        epe, ene, mtm0 = _mc_exposure(portfolio, model, times, curve)
        return ExposureProfile(times, epe, ene, mtm0, annuity)
    raise ExposureError(f"unknown exposure model {model!r}")


def _ou_paths(model: OneFactorMcModel, times: np.ndarray) -> np.ndarray:
    """Zero-mean OU factor paths, antithetic in pairs.

    Pair j draws from its own stream spawned off the model seed, so the
    result is identical however paths are partitioned across workers.
    """
    a = model.mean_reversion
    n_pairs = (model.paths + 1) // 2
    dts = np.diff(times)
    decay = np.exp(-a * dts)
    stds = model.vol * np.sqrt((1.0 - np.exp(-2.0 * a * dts)) / (2.0 * a))
    children = np.random.SeedSequence(model.seed).spawn(n_pairs)
    z = np.array([np.random.default_rng(ss).standard_normal(len(dts))
                  for ss in children])
    x = np.zeros((2 * n_pairs, len(times)))
    up, down = x[0::2], x[1::2]
    for k in range(len(dts)):
        up[:, k + 1] = up[:, k] * decay[k] + stds[k] * z[:, k]
        down[:, k + 1] = down[:, k] * decay[k] - stds[k] * z[:, k]
    return x[:model.paths]


# Elements of the (path rows x live cash-flow dates) buffer that the exposure
# kernel fills, exponentiates and contracts in place, one block of paths at a
# time. 256 KB stays in cache; a one-shot (paths x dates) matrix runs to tens
# of MB and spends most of the kernel's time in memory traffic.
_BLOCK_ELEMENTS = 32_768


def _mc_exposure(portfolio: Sequence[Swap], model: OneFactorMcModel,
                 times: np.ndarray, curve: RateCurve):
    a = model.mean_reversion
    phi = model.vol ** 2 * (1.0 - np.exp(-2.0 * a * times)) / (2.0 * a)
    x = _ou_paths(model, times)

    dates, mask, accrual = _payment_matrix(portfolio)
    signs = np.array([s.sign for s in portfolio])
    notionals = np.array([s.notional for s in portfolio])
    fixed = np.array([s.fixed_rate for s in portfolio])
    maturities = np.array([s.maturity for s in portfolio])

    # flatten fixed coupons and float-leg terminal DF terms into one list of
    # (date, weight) plus an alive-notional constant per grid time
    coupon_dates = dates[mask]
    coupon_w = (-(signs * notionals * fixed * accrual)[:, None] * np.ones_like(dates))[mask]
    term_dates = maturities
    term_w = -signs * notionals
    all_dates = np.concatenate([coupon_dates, term_dates])
    all_w = np.concatenate([coupon_w, term_w])
    df_all = curve.df(all_dates)

    epe = np.zeros(len(times))
    ene = np.zeros(len(times))
    mtm0 = 0.0
    df_grid = curve.df(times)
    values = np.empty(len(x))
    buf = np.empty(max(_BLOCK_ELEMENTS, len(all_dates)))
    for k, t in enumerate(times):
        live = all_dates > t + 1e-12
        u = all_dates[live]
        if len(u) == 0:
            continue
        b = (1.0 - np.exp(-a * (u - t))) / a
        fwd_df = df_all[live] / df_grid[k]
        gauss = np.exp(-0.5 * b * b * phi[k])
        const = float(np.sum(signs * notionals * (maturities > t + 1e-12)))
        weights = all_w[live] * fwd_df * gauss
        neg_b = -b
        rows = max(1, _BLOCK_ELEMENTS // len(b))
        for lo in range(0, len(x), rows):
            hi = min(lo + rows, len(x))
            block = buf[:(hi - lo) * len(b)].reshape(hi - lo, len(b))
            np.multiply.outer(x[lo:hi, k], neg_b, out=block)
            np.exp(block, out=block)
            np.dot(block, weights, out=values[lo:hi])
        values += const
        epe[k] = np.mean(np.maximum(values, 0.0))
        ene[k] = np.mean(np.maximum(-values, 0.0))
        if k == 0:
            mtm0 = float(np.mean(values))
    return epe, ene, mtm0
