"""Swap netting sets and risk-free exposure profiles.

Two backends produce E[V*+](t) and E[V*-](t) on a time grid:

- deterministic: the netting set is revalued along today's forward curve,
  adequate for deep in/out-of-the-money books whose value rarely changes
  sign;
- one-factor Monte Carlo: a mean-reverting Gaussian short rate fitted to
  the initial curve (Hull-White style bond reconstitution), with antithetic
  pairs drawn from one generator seeded by the model seed. At each grid
  time the book is revalued one block of paths at a time in a preallocated
  buffer of max(32 768, cash-flow dates) float64 values (256 KB for books
  of up to 32 768 cash-flow dates), so the kernel's transient memory is
  that buffer beside the (paths x grid times) factor array.

Swaps are vanilla fixed-for-float, single curve, with regular accrual
periods counted back from maturity. A book is built once per profile as
one cash-flow list of discount-factor claims (every fixed coupon, swap by
swap, then every float leg's terminal discount factor); the deterministic
profile (its value with the factor at 0), the Monte Carlo kernel and the
gross annuity all read that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .curves import RateCurve


class ExposureError(ValueError):
    """Invalid exposure inputs (including empty portfolios)."""


# Largest book, swap maturity (years), Monte Carlo path count and profile
# grid a scenario may ask for. A 100-year quarterly swap adds 401 claims to
# the cash-flow list (20 000 of them: 64 MB per array and per Monte Carlo
# buffer); the factor paths are a (paths x profile points) array
# (50 000 x 500: 200 MB).
MAX_SWAPS = 20_000
MAX_MATURITY = 100.0
MAX_PATHS = 50_000
MAX_PROFILE_POINTS = 500
# coupon payments a year
PAY_FREQS = (1, 2, 4)


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
        if not 0.0 < self.maturity <= MAX_MATURITY:
            raise ExposureError(f"maturity must be in (0, {MAX_MATURITY:g}] years")
        if self.pay_freq not in PAY_FREQS:
            raise ExposureError(f"pay_freq must be one of {', '.join(map(str, PAY_FREQS))}")
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
    pay = Swap(1.0, 0.0, "payer", maturity, pay_freq).payment_times()
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
    if not 0.0 < lo <= hi <= MAX_MATURITY:
        raise ExposureError(f"maturity_range must satisfy 0 < maturity_min <= maturity_max <= "
                            f"{MAX_MATURITY:g} (years), got ({lo!r}, {hi!r})")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    maturities = rng.uniform(lo, hi, n) if hi > lo else np.full(n, float(lo))
    atm = par_rate(curve, 10.0, pay_freq) + rate_offset
    rates = atm + (rng.uniform(-rate_band, rate_band, n) if rate_band > 0.0
                   else np.zeros(n))
    n_payer = int(round(n * payer_frac))
    return [Swap(notional, float(rates[i]), "payer" if i < n_payer else "receiver",
                 float(maturities[i]), pay_freq) for i in range(n)]


# -- the book as discount-factor claims ------------------------------------------

@dataclass(frozen=True)
class _CashFlows:
    """A swap book's discount-factor claims. At time t the book is worth the
    signed notional of the swaps alive (each float leg's 1 at t) plus
    ``weights`` times the discount factor from t of each claim after t."""

    dates: np.ndarray
    weights: np.ndarray
    df: np.ndarray  # discount factor from 0 of each date
    accruals: np.ndarray  # notional * accrual per coupon, 0 per float-leg claim
    maturities: np.ndarray
    signed_notionals: np.ndarray

    @classmethod
    def of(cls, portfolio: Sequence[Swap], curve: RateCurve) -> "_CashFlows":
        pay = [s.payment_times() for s in portfolio]
        counts = [len(p) for p in pay]
        maturities = np.array([s.maturity for s in portfolio])
        signed = np.array([s.sign * s.notional for s in portfolio])
        coupon = [-(s.sign * s.notional * s.fixed_rate * (1.0 / s.pay_freq)) for s in portfolio]
        accrual = [s.notional / s.pay_freq for s in portfolio]
        dates = np.concatenate(pay + [maturities])
        return cls(dates=dates, df=curve.df(dates),
                   weights=np.concatenate((np.repeat(coupon, counts), -signed)),
                   accruals=np.concatenate((np.repeat(accrual, counts),
                                            np.zeros(len(portfolio)))),
                   maturities=maturities, signed_notionals=signed)

    def alive_notional(self, t: float) -> float:
        return float(np.sum(self.signed_notionals * (self.maturities > t + 1e-12)))

    def claims_after(self, t: float, df_t: float):
        """Dates and time-t values of the claims dated after t, given the
        discount factor ``df_t`` of t."""
        live = self.dates > t + 1e-12
        return self.dates[live], self.weights[live] * (self.df[live] / df_t)

    def forward_value(self, t: float, df_t: float) -> float:
        """Book value at t along today's forward curve (the factor at 0)."""
        return self.alive_notional(t) + float(np.sum(self.claims_after(t, df_t)[1]))

    @property
    def annuity(self) -> float:
        """Sum over swaps of notional times the time-0 annuity, direction-blind."""
        return float(np.sum(self.accruals * self.df))


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
    book = _CashFlows.of(portfolio, curve)
    if isinstance(model, DeterministicModel):
        values = np.array([book.forward_value(t, df_t) for t, df_t in zip(times, curve.df(times))])
        epe = np.maximum(values, 0.0)
        ene = np.maximum(-values, 0.0)
        return ExposureProfile(times, epe, ene, float(values[0]), book.annuity)
    if isinstance(model, OneFactorMcModel):
        epe, ene, mtm0 = _mc_exposure(book, model, times, curve)
        return ExposureProfile(times, epe, ene, mtm0, book.annuity)
    raise ExposureError(f"unknown exposure model {model!r}")


def _ou_paths(model: OneFactorMcModel, times: np.ndarray) -> np.ndarray:
    """Zero-mean OU factor paths, antithetic in pairs.

    Pair j takes row j of one (pairs x steps) draw of standard normals from
    a generator seeded by the model seed.
    """
    a = model.mean_reversion
    n_pairs = (model.paths + 1) // 2
    dts = np.diff(times)
    decay = np.exp(-a * dts)
    stds = model.vol * np.sqrt((1.0 - np.exp(-2.0 * a * dts)) / (2.0 * a))
    z = np.random.default_rng(model.seed).standard_normal((n_pairs, len(dts)))
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


def _mc_exposure(book: _CashFlows, model: OneFactorMcModel,
                 times: np.ndarray, curve: RateCurve):
    a = model.mean_reversion
    phi = model.vol ** 2 * (1.0 - np.exp(-2.0 * a * times)) / (2.0 * a)
    x = _ou_paths(model, times)

    epe = np.zeros(len(times))
    ene = np.zeros(len(times))
    mtm0 = 0.0
    df_grid = curve.df(times)
    values = np.empty(len(x))
    buf = np.empty(max(_BLOCK_ELEMENTS, len(book.dates)))
    for k, t in enumerate(times):
        u, claims = book.claims_after(t, df_grid[k])
        if len(u) == 0:
            continue
        b = (1.0 - np.exp(-a * (u - t))) / a
        gauss = np.exp(-0.5 * b * b * phi[k])
        const = book.alive_notional(t)
        weights = claims * gauss
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
