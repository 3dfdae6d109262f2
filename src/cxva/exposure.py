"""Swap netting sets and risk-free exposure profiles.

Two backends produce E[V*+](t) and E[V*-](t) on a time grid:

- deterministic: the netting set is revalued along today's forward curve,
  adequate for deep in/out-of-the-money books whose value rarely changes
  sign;
- one-factor Monte Carlo: a mean-reverting Gaussian short rate fitted to
  the initial curve (Hull-White style bond reconstitution), with antithetic
  pairs drawn from one generator seeded by the model seed; EPE and ENE are
  means over the paths. At grid time t_k the book's value is one smooth
  function of the factor, V_k(x) = A_k + sum_i w_i exp(-x b_i) over the
  claims owed, b_i = (1 - exp(-a (T_i - t_k))) / a at mean reversion a, so
  it is revalued at n first-kind Chebyshev nodes of [min x_k, max x_k] and
  interpolated to every path (coefficients from a cosine matrix, then
  Clenshaw's recurrence). n is the smallest count of at least 8 with
  (beta / 2)^n / n! <= 2^-60, beta = max_i b_i times half the range: 8 to
  17 on books of 0.25-30 year swaps at mean reversion 0.05 and vol 1 %,
  against 1000 paths. Should n reach the path count, the paths themselves
  are revalued; where every path has one factor value (t = 0, or vol 0)
  that one value is. Each revaluation runs one block of points at a time
  in a preallocated buffer of max(32 768, cash-flow dates) float64 values
  (256 KB for books of up to 32 768 cash-flow dates), so the kernel's
  transient memory is that buffer beside the (paths x grid times) factor
  array.

Swaps are vanilla fixed-for-float, single curve, with regular accrual
periods counted back from maturity: a swap maturing at m and paying f
times a year has ceil(m f - 1e-9) coupons, dated m - j / f for j = 0, 1,
..., which puts the first above 1e-9 / f years. ``generate_portfolio``
returns a ``SwapBook``: arrays of notional, fixed rate, sign, maturity and
payment frequency, checked entry by entry by the check each ``Swap`` runs
(``_check_swaps``), and read as a sequence of ``Swap`` views. A book is
built once per profile as one cash-flow list of discount-factor claims
(every fixed coupon, swap by swap and each swap's dates ascending, then
every float leg's terminal discount factor), laid out from a (swaps x most
coupons) grid of coupon dates. The grid, like the list, holds at most
MAX_SWAPS x 401 dates (64 MB), and is freed before the list's discount
factors are taken.

A claim dated T is still owed at t when T > t + 1e-12. One owed-count
table decides this for every claim and profile time at once: for each
claim, how many of the increasing profile times it is owed at. Both
backends read it. The Monte Carlo kernel revalues the claims owed at each
step; the deterministic profile (the book's value with the factor at 0)
bins each claim's weight * DF(0, T) and each swap's signed notional by
their counts and sums the bins from the end: V(t) = A(t) + C(t) / DF(0, t),
with no loop over profile times. The gross annuity reads the list too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
# The one-factor model's mean reversion a (a year) and vol, as the Monte
# Carlo kernel can represent them. It takes (1 - exp(-a tau)) / a through
# expm1, exact while a tau is a normal double, over intervals tau that
# exceed 1e-15 years where they matter (claims are owed over 1e-12 years
# ahead; the grid has at most 499 steps): a > 1e-290 > float min / 1e-15
# (at a = 5e-324 the factor never moves). 2 a t stays finite for t up to
# MAX_MATURITY: a <= 1e305. exp(-x b), with x within 8 of its standard
# deviations (at most vol sqrt(t)) and b <= T - t, keeps its exponent under
# 8 vol max_t sqrt(t) (T - t) = 8 * 0.2 * 385 = 616 < ln(float max) = 709.8.
MIN_MEAN_REVERSION = 1e-290
MAX_MEAN_REVERSION = 1e305
MAX_FACTOR_VOL = 0.2


def _check_swaps(notional, maturity, pay_freq) -> None:
    """The checks every swap passes, on one swap's numbers or on a book's
    arrays entry by entry; written so that NaN fails them."""
    def every(ok) -> bool:
        return ok.all() if isinstance(ok, np.ndarray) else ok

    if not every((0.0 < notional) & (notional < math.inf)):
        raise ExposureError("notional must be finite and > 0")
    if not every((0.0 < maturity) & (maturity <= MAX_MATURITY)):
        raise ExposureError(f"maturity must be in (0, {MAX_MATURITY:g}] years")
    if not every(functools.reduce(operator.or_, (pay_freq == f for f in PAY_FREQS))):
        raise ExposureError(f"pay_freq must be one of {', '.join(map(str, PAY_FREQS))}")


@dataclass(frozen=True)
class Swap:
    """Fixed-for-floating interest rate swap; direction is the fixed leg."""

    notional: float
    fixed_rate: float
    direction: str  # "payer" pays fixed / "receiver" receives fixed
    maturity: float
    pay_freq: int = 2

    def __post_init__(self) -> None:
        _check_swaps(self.notional, self.maturity, self.pay_freq)
        if self.direction not in ("payer", "receiver"):
            raise ExposureError("direction must be 'payer' or 'receiver'")

    @property
    def sign(self) -> float:
        """+1 for payer (gains when rates rise), -1 for receiver."""
        return 1.0 if self.direction == "payer" else -1.0

    def payment_times(self) -> np.ndarray:
        """Regular payment times counted back from maturity, the first above
        1e-9 / pay_freq years: ``_coupon_dates`` of this one swap. The
        library reads the book's dates at once; the benchmark's tracer
        (``perfbench/tracer.py``, the Monte Carlo cash-flow count) and its
        oracles (``perfbench/oracles.py::_cash_flows``) call this per swap."""
        return _coupon_dates(np.array([self.maturity]), np.array([float(self.pay_freq)]))[0]


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
    _check_swaps(1.0, maturity, pay_freq)
    pay, _ = _coupon_dates(np.array([float(maturity)]), np.array([float(pay_freq)]))
    annuity = np.sum(curve.df(pay)) / pay_freq
    return float((1.0 - curve.df(maturity)) / annuity)


def generate_portfolio(n: int, payer_frac: float, maturity_range: tuple[float, float],
                       rate_band: float, seed: int, curve: RateCurve, *,
                       rate_offset: float = 0.0, pay_freq: int = 2,
                       notional: float = 1.0) -> SwapBook:
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
    return SwapBook(notional=np.full(n, float(notional)), fixed_rate=rates,
                    sign=np.where(np.arange(n) < n_payer, 1.0, -1.0), maturity=maturities,
                    pay_freq=np.full(n, pay_freq))


_BOOK_FIELDS = ("notional", "fixed_rate", "sign", "maturity", "pay_freq")


@dataclass(frozen=True, eq=False)
class SwapBook(Sequence):
    """A swap book held as arrays, one entry per swap. As a ``Sequence[Swap]``
    it gives a ``Swap`` view of each entry, and ``==`` compares contents."""

    notional: np.ndarray
    fixed_rate: np.ndarray
    sign: np.ndarray  # +1 payer, -1 receiver
    maturity: np.ndarray
    pay_freq: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(getattr(self, name)) for name in _BOOK_FIELDS]
        if any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
            raise ExposureError("swap book fields must be 1-d arrays of one length")
        notional, fixed_rate, sign, maturity, pay_freq = arrays
        _check_swaps(notional, maturity, pay_freq)
        if not np.all(np.abs(sign) == 1.0):
            raise ExposureError("sign must be +1 (payer) or -1 (receiver)")
        for name, a in zip(_BOOK_FIELDS, arrays):
            object.__setattr__(self, name, a.astype(np.int64 if name == "pay_freq" else float))

    @classmethod
    def of(cls, swaps: Sequence[Swap]) -> SwapBook:
        """``swaps`` itself if it is a book, else a book of its entries."""
        if isinstance(swaps, SwapBook):
            return swaps
        return cls(*(np.array([getattr(s, name) for s in swaps]) for name in _BOOK_FIELDS))

    def __len__(self) -> int:
        return len(self.notional)

    @staticmethod
    def _view(notional, fixed_rate, sign, maturity, pay_freq) -> Swap:
        return Swap(notional, fixed_rate, "payer" if sign > 0.0 else "receiver", maturity,
                    pay_freq)

    def __getitem__(self, i: int) -> Swap:
        return self._view(*(getattr(self, name)[i].item() for name in _BOOK_FIELDS))

    def __iter__(self):
        return itertools.starmap(self._view, zip(*(getattr(self, name).tolist()
                                                   for name in _BOOK_FIELDS)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SwapBook):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in _BOOK_FIELDS)

    __hash__ = None


# -- the book as discount-factor claims ------------------------------------------

def _coupon_dates(maturity: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every coupon date, swap by swap, and the number of each swap's dates:
    the one coupon rule, which ``Swap.payment_times`` and ``par_rate`` read
    too."""
    counts = np.ceil(maturity * f - 1e-9)
    # coupon j of swap i is paid (counts_i - 1 - j) periods before its
    # maturity: a (swaps x most coupons) grid, masked to each swap's coupons
    # and read row by row
    cols = np.arange(counts.max())
    grid = counts[:, None] - 1.0 - cols
    np.divide(grid, f[:, None], out=grid)
    np.subtract(maturity[:, None], grid, out=grid)
    paid = cols < counts[:, None]
    return grid[paid], paid.sum(axis=1)


@dataclass(frozen=True)
class _CashFlows:
    """A swap book's discount-factor claims. At time t the book is worth the
    signed notional of the swaps alive (each float leg's 1 at t) plus
    ``weights`` times the discount factor from t of each claim still owed at
    t, as ``owed_counts`` decides."""

    dates: np.ndarray
    weights: np.ndarray
    df: np.ndarray  # discount factor from 0 of each date
    accruals: np.ndarray  # notional * accrual per coupon, 0 per float-leg claim
    signed_notionals: np.ndarray

    @classmethod
    def of(cls, portfolio: Sequence[Swap], curve: RateCurve) -> "_CashFlows":
        book = SwapBook.of(portfolio)
        f = book.pay_freq.astype(float)
        coupon_dates, per_swap = _coupon_dates(book.maturity, f)
        signed = book.sign * book.notional
        coupon = -(signed * book.fixed_rate * (1.0 / f))
        dates = np.concatenate((coupon_dates, book.maturity))
        return cls(dates=dates, df=curve.df(dates),
                   weights=np.concatenate((np.repeat(coupon, per_swap), -signed)),
                   accruals=np.concatenate((np.repeat(book.notional / f, per_swap),
                                            np.zeros(len(book)))),
                   signed_notionals=signed)

    def owed_counts(self, times: np.ndarray) -> np.ndarray:
        """The owed-count table: for each claim, how many of the increasing
        ``times`` it is still owed at. The claim dated T is owed at t_k, T >
        t_k + 1e-12, exactly when its count is greater than k. The float
        legs' counts are the last ``len(signed_notionals)``."""
        return np.searchsorted(times + 1e-12, self.dates)

    def forward_values(self, times: np.ndarray, df_times: np.ndarray) -> np.ndarray:
        """Book value at each of the increasing ``times`` along today's forward
        curve (the factor at 0), given their discount factors: A(t) + C(t) /
        DF(0, t), with A the signed notional alive at t and C the sum of
        weight * DF(0, T) over the claims owed at t."""
        def owed_sum(counts, values):
            # a claim counts at t_k for k below its count: bin, then sum
            # each bin's suffix
            bins = np.bincount(counts, values, minlength=len(times) + 1)
            return np.cumsum(bins[::-1])[::-1][1:]
        owed = self.owed_counts(times)
        return (owed_sum(owed[-len(self.signed_notionals):], self.signed_notionals)
                + owed_sum(owed, self.weights * self.df) / df_times)

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
        if not MIN_MEAN_REVERSION < self.mean_reversion <= MAX_MEAN_REVERSION:
            raise ExposureError(f"mean_reversion must be in ({MIN_MEAN_REVERSION:g}, "
                                f"{MAX_MEAN_REVERSION:g}]")
        if not 0.0 <= self.vol <= MAX_FACTOR_VOL:
            raise ExposureError(f"vol must be in [0, {MAX_FACTOR_VOL:g}]")
        if self.paths < 1000:
            raise ExposureError("Monte Carlo needs at least 1000 paths")


def exposure_profile(portfolio: Sequence[Swap], model, points: int,
                     curve: RateCurve) -> ExposureProfile:
    """Risk-free exposure profile of a netting set on ``points`` equally
    spaced times from 0 to the last maturity.

    Raises ExposureError on an empty portfolio.
    """
    if len(portfolio) == 0:
        raise ExposureError("cannot build an exposure profile for an empty portfolio")
    if points < 2:
        raise ExposureError("grid needs at least 2 points")
    book = _CashFlows.of(portfolio, curve)
    # the float legs' dates, the tail of the list, are the maturities
    times = np.linspace(0.0, book.dates[-len(book.signed_notionals):].max(), points)
    if isinstance(model, DeterministicModel):
        values = book.forward_values(times, curve.df(times))
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
    stds = model.vol * np.sqrt(-np.expm1(-2.0 * a * dts) / (2.0 * a))
    z = np.random.default_rng(model.seed).standard_normal((n_pairs, len(dts)))
    x = np.zeros((2 * n_pairs, len(times)))
    up, down = x[0::2], x[1::2]
    for k in range(len(dts)):
        up[:, k + 1] = up[:, k] * decay[k] + stds[k] * z[:, k]
        down[:, k + 1] = down[:, k] * decay[k] - stds[k] * z[:, k]
    return x[:model.paths]


# Elements of the (points x live cash-flow dates) buffer that the exposure
# kernel fills, exponentiates and contracts in place, one block of points at a
# time. 256 KB stays in cache; a one-shot (points x dates) matrix runs to tens
# of MB and spends most of its time in memory traffic.
_BLOCK_ELEMENTS = 32_768
# Truncation bound on the Chebyshev series of exp(-beta s) on [-1, 1]:
# (beta / 2)^n / n! is the leading term of I_n(beta), half its degree-n
# coefficient.
_SERIES_TAIL = 2.0 ** -60
_MIN_NODES = 8


def _claim_sums(points: np.ndarray, b: np.ndarray, weights: np.ndarray,
                buf: np.ndarray) -> np.ndarray:
    """sum_i weights_i exp(-point b_i) at each point, one block of points
    at a time in ``buf``."""
    out = np.empty(len(points))
    rows = max(1, _BLOCK_ELEMENTS // len(b))
    for lo in range(0, len(points), rows):
        hi = min(lo + rows, len(points))
        block = buf[:(hi - lo) * len(b)].reshape(hi - lo, len(b))
        np.multiply.outer(-points[lo:hi], b, out=block)
        np.exp(block, out=block)
        np.dot(block, weights, out=out[lo:hi])
    return out


def _node_count(beta: float, cap: int) -> int:
    """Smallest n >= _MIN_NODES with (beta / 2)^n / n! <= _SERIES_TAIL, or
    ``cap`` if none is below it."""
    term = 1.0
    for n in range(1, cap):
        term *= 0.5 * beta / n
        if n >= _MIN_NODES and term <= _SERIES_TAIL:
            return n
    return cap


def _factor_sums(x: np.ndarray, b: np.ndarray, weights: np.ndarray,
                 buf: np.ndarray) -> np.ndarray:
    """``_claim_sums`` at every path's factor value x, from its values at n
    first-kind Chebyshev nodes of [min x, max x] interpolated by Clenshaw's
    recurrence; at the paths themselves when n reaches the path count."""
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return np.full(len(x), _claim_sums(x[:1], b, weights, buf)[0])
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = _node_count(float(b.max()) * half, len(x))
    if n == len(x):
        return _claim_sums(x, b, weights, buf)
    theta = np.pi * (np.arange(n) + 0.5) / n
    values = _claim_sums(mid + half * np.cos(theta), b, weights, buf)
    coeffs = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ values)
    coeffs[0] *= 0.5
    s = np.clip((x - mid) / half, -1.0, 1.0)
    two_s = 2.0 * s
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + two_s * b1 - b2, b1
    return coeffs[0] + s * b1 - b2


def _mc_exposure(book: _CashFlows, model: OneFactorMcModel,
                 times: np.ndarray, curve: RateCurve):
    a = model.mean_reversion
    # -expm1(-y), not 1 - exp(-y), which is 0 for y below 1e-16: as a -> 0,
    # phi -> vol^2 t and b -> u - t
    phi = model.vol ** 2 * -np.expm1(-2.0 * a * times) / (2.0 * a)
    x = _ou_paths(model, times)

    epe = np.zeros(len(times))
    ene = np.zeros(len(times))
    mtm0 = 0.0
    df_grid = curve.df(times)
    buf = np.empty(max(_BLOCK_ELEMENTS, len(book.dates)))
    owed = book.owed_counts(times)
    alive = owed[-len(book.signed_notionals):]
    for k, t in enumerate(times):
        live = owed > k
        u = book.dates[live]
        if len(u) == 0:
            continue
        claims = book.weights[live] * (book.df[live] / df_grid[k])
        b = -np.expm1(-a * (u - t)) / a
        weights = claims * np.exp(-0.5 * b * b * phi[k])
        const = float(np.sum(book.signed_notionals * (alive > k)))
        values = _factor_sums(x[:, k], b, weights, buf) + const
        epe[k] = np.mean(np.maximum(values, 0.0))
        ene[k] = np.mean(np.maximum(-values, 0.0))
        if k == 0:
            mtm0 = float(np.mean(values))
    return epe, ene, mtm0
