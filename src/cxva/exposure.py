"""Swap netting sets and risk-free exposure profiles.

Two backends produce E[V*+](t) and E[V*-](t) on a time grid:

- deterministic: the netting set is revalued along today's forward curve,
  adequate for deep in/out-of-the-money books whose value rarely changes
  sign;
- one-factor Monte Carlo: a mean-reverting Gaussian short rate fitted to
  the initial curve (Hull-White style bond reconstitution), with antithetic
  pairs drawn from one generator seeded by the model seed, held as a (grid
  times x paths) array, one row per time; EPE and ENE are means over the
  paths. At grid time t_k the book's value is one smooth function of the
  factor, V_k(x) = A_k + sum_i w_i exp(-x b_i) over the claims owed, b_i =
  (1 - exp(-a (T_i - t_k))) / a at mean reversion a, so it is revalued at n
  first-kind Chebyshev nodes of [min x_k, max x_k] and interpolated to every
  path (coefficients from a cosine matrix built once per n and profile,
  then Clenshaw's recurrence). n is the smallest count of at least 8 with
  (beta / 2)^n / n! <= 2^-60, beta = max_i b_i times half the range: 8 to
  17 on books of 0.25-30 year swaps at mean reversion 0.05 and vol 1 %,
  against 1000 paths. Should n reach the path count, the paths themselves
  are revalued; where every path has one factor value (t = 0, or vol 0)
  that one value is. The kernel fits six steps, then runs Clenshaw's
  recurrence over their rows at once, each step's coefficients padded with
  leading zeros to the six's largest n. Revaluations and recurrence share
  one preallocated buffer of max(32 768, cash-flow dates, 30 x paths)
  float64 values (256 KB for books of up to 32 768 cash-flow dates at up to
  1092 paths). Each step's loadings and weights are built in place in two
  more rows of claims, so the kernel's transient memory is that buffer, the
  rows and one sorted copy of the cash-flow list beside the factor array.

Swaps are vanilla fixed-for-float, single curve, with regular accrual
periods counted back from maturity: a swap maturing at m and paying f
times a year has ceil(m f - 1e-9) coupons, dated m - j / f for j = 0, 1,
..., which puts the first above 1e-9 / f years. ``generate_portfolio``
returns a ``SwapBook``: arrays of notional, fixed rate, sign (+1 payer, -1
receiver), maturity and payment frequency, each entry checked when the book
is built. The profiles take a book and read its arrays; iterating it yields
one ``Swap`` row of Python scalars per swap, which no profile builds. A book
is built once per profile as one cash-flow list of discount-factor claims
(every fixed coupon, swap by swap and each swap's dates ascending, then
every float leg's terminal discount factor), each coupon date taken from
its swap's maturity, payment frequency and place in the list. The list
holds at most MAX_SWAPS x 401 dates (64 MB).

A claim dated T is still owed at t when T > t + 1e-12. One owed-count
table decides this for every claim and profile time at once: for each
claim, how many of the increasing profile times it is owed at. Both
backends read it, and take A(t), the signed notional of the swaps alive at
t, by binning each swap's signed notional by its float leg's count and
summing the bins from the end. The Monte Carlo kernel copies the list
sorted by owed count once, so the claims owed at each step are a suffix of
the copy, and revalues them; the deterministic profile (the book's value
with the factor at 0) bins each claim's weight * DF(0, T) the same way:
V(t) = A(t) + C(t) / DF(0, t), with no loop over profile times. The gross
annuity reads the list too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import RateCurve
from .intervals import FINITE, FRACTION, INTEGER, NON_NEGATIVE, POSITIVE, RATE, bounded, chosen


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
MATURITY = (0.0, MAX_MATURITY, "(]")
PROFILE_POINTS = (2, MAX_PROFILE_POINTS, "[]")
# the interval each number of generate_portfolio lies in (its maturities': MATURITY)
PORTFOLIO_BOUNDS = {"n": (1, MAX_SWAPS, "[]"), "payer_frac": FRACTION, "rate_band": FRACTION,
                    "rate_offset": RATE}
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
MC_BOUNDS = {"mean_reversion": (MIN_MEAN_REVERSION, MAX_MEAN_REVERSION, "(]"),
             "vol": (0.0, MAX_FACTOR_VOL, "[]"), "paths": (1000, MAX_PATHS, "[]")}
# Largest swap notional. A book's value at any time and factor value sums at
# most MAX_SWAPS x (4 MAX_MATURITY + 2) = 8.04e6 claims (every coupon and
# each float leg), each worth notional x max(1, |fixed rate| / pay_freq) x
# DF(t, T), times exp(-x b) <= e^616 in the Monte Carlo kernel (above). That
# leaves e^(709.8 - 616) = 5e40 below float max, so at notional 1e20 a
# claim's fixed rate and forward discount factor may still grow the sum
# 5e40 / (1e20 x 8.04e6) = 6e13-fold, e^31: a forward rate averaging -31 %
# a year over 100 years. The deterministic profile has no exp(-x b).
MAX_NOTIONAL = 1e20
# the interval every entry of a SwapBook's number arrays lies in
SWAP_BOUNDS = {"notional": (0.0, MAX_NOTIONAL, "(]"), "maturity": MATURITY}


class Swap(NamedTuple):
    """One fixed-for-floating swap of a book, as iterating a ``SwapBook``
    yields it: Python scalars, ``sign`` +1 for a payer (pays fixed, gains
    when rates rise) and -1 for a receiver."""

    notional: float
    fixed_rate: float
    sign: float
    maturity: float
    pay_freq: int

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
        for name, value, bounds in (("times", times, FINITE), ("epe", epe, NON_NEGATIVE),
                                    ("ene", ene, NON_NEGATIVE), ("mtm0", self.mtm0, FINITE),
                                    ("annuity", self.annuity, FINITE)):
            bounded(value, bounds, f"profile {name}", ExposureError)
        if np.any(np.diff(times) <= 0.0):
            raise ExposureError("profile times must be strictly increasing")
        if len(epe) != len(times) or len(ene) != len(times):
            raise ExposureError("epe/ene must match the time grid")
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
        bounded(k, POSITIVE, "scale factor", ExposureError)
        return ExposureProfile(self.times, self.epe * k, self.ene * k,
                               self.mtm0 * k, self.annuity * k)


# -- portfolio generation ----------------------------------------------------

def par_rate(curve: RateCurve, maturity: float, pay_freq: int = 2) -> float:
    """Single-curve par swap rate (1 - DF(T)) / annuity."""
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
    bounded(n, PORTFOLIO_BOUNDS["n"], "n", ExposureError, INTEGER)
    for name, value in dict(payer_frac=payer_frac, rate_band=rate_band,
                            rate_offset=rate_offset).items():
        bounded(value, PORTFOLIO_BOUNDS[name], name, ExposureError)
    lo, hi = maturity_range
    bounded(lo, MATURITY, "maturity_min", ExposureError)
    bounded(hi, MATURITY, "maturity_max", ExposureError)
    if not lo <= hi:
        raise ExposureError(f"maturity_min must be at most maturity_max, got {lo!r} > {hi!r}")
    chosen(pay_freq, PAY_FREQS, "pay_freq", ExposureError)  # before par_rate divides by it
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    maturities = rng.uniform(lo, hi, n) if hi > lo else np.full(n, float(lo))
    atm = par_rate(curve, 10.0, pay_freq) + rate_offset
    rates = atm + (rng.uniform(-rate_band, rate_band, n) if rate_band > 0.0
                   else np.zeros(n))
    n_payer = int(round(n * payer_frac))
    return SwapBook(notional=np.full(n, float(notional)), fixed_rate=rates,
                    sign=np.where(np.arange(n) < n_payer, 1.0, -1.0), maturity=maturities,
                    pay_freq=np.full(n, pay_freq))


@dataclass(frozen=True, eq=False)
class SwapBook:
    """A swap book held as arrays, one entry per swap, each entry checked
    when the book is built. Iterating it yields each entry as a ``Swap``."""

    notional: np.ndarray
    fixed_rate: np.ndarray
    sign: np.ndarray  # +1 payer, -1 receiver
    maturity: np.ndarray
    pay_freq: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(getattr(self, name)) for name in Swap._fields]
        if any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
            raise ExposureError("swap book fields must be 1-d arrays of one length")
        notional, _, sign, maturity, pay_freq = arrays
        for name, a in (("notional", notional), ("maturity", maturity)):
            bounded(a, SWAP_BOUNDS[name], name, ExposureError)
        for f in np.unique(pay_freq).tolist():
            chosen(f, PAY_FREQS, "pay_freq", ExposureError)
        if not np.all(np.abs(sign) == 1.0):
            raise ExposureError("sign must be +1 (payer) or -1 (receiver)")
        for name, a in zip(Swap._fields, arrays):
            object.__setattr__(self, name, a.astype(np.int64 if name == "pay_freq" else float))

    def __len__(self) -> int:
        return len(self.notional)

    def __iter__(self):
        return itertools.starmap(Swap, zip(*(getattr(self, name).tolist()
                                             for name in Swap._fields)))


# -- the book as discount-factor claims ------------------------------------------

def _coupon_dates(maturity: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every coupon date, swap by swap, and the number of each swap's dates:
    the one coupon rule, which ``Swap.payment_times`` and ``par_rate`` read
    too."""
    per_swap = np.ceil(maturity * f - 1e-9).astype(np.int64)
    # coupon j of swap i is paid (counts_i - 1 - j) periods before its
    # maturity: ends_i - 1 - k at the list's k-th date, ends the running sum
    # of the counts (whole numbers, held exactly)
    periods = np.repeat(np.cumsum(per_swap) - 1, per_swap)
    periods -= np.arange(len(periods))
    dates = np.divide(periods, np.repeat(f, per_swap))
    return np.subtract(np.repeat(maturity, per_swap), dates, out=dates), per_swap


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
    def of(cls, book: SwapBook, curve: RateCurve) -> "_CashFlows":
        f = book.pay_freq.astype(float)
        coupon_dates, per_swap = _coupon_dates(book.maturity, f)
        signed = book.sign * book.notional
        coupon = -(signed * book.fixed_rate * (1.0 / f))
        dates = np.concatenate((coupon_dates, book.maturity))
        # one claim per coupon, then one per float leg
        per_claim = np.concatenate((per_swap, np.ones(len(book), dtype=np.int64)))
        return cls(dates=dates, df=curve.df(dates),
                   weights=np.repeat(np.concatenate((coupon, -signed)), per_claim),
                   accruals=np.repeat(np.concatenate((book.notional / f, np.zeros(len(book)))),
                                      per_claim),
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
        owed = self.owed_counts(times)
        return (_owed_sum(owed[-len(self.signed_notionals):], self.signed_notionals, len(times))
                + _owed_sum(owed, self.weights * self.df, len(times)) / df_times)

    @property
    def annuity(self) -> float:
        """Sum over swaps of notional times the time-0 annuity, whatever the sign."""
        return float(np.sum(self.accruals * self.df))


def _owed_sum(counts: np.ndarray, values: np.ndarray, points: int) -> np.ndarray:
    """At each of ``points`` times, the sum of the ``values`` whose owed
    counts exceed its index: a claim counts at t_k for k below its count, so
    bin by count, then sum each bin's suffix."""
    bins = np.bincount(counts, values, minlength=points + 1)
    return np.cumsum(bins[::-1])[::-1][1:]


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
        for name in ("mean_reversion", "vol"):
            bounded(getattr(self, name), MC_BOUNDS[name], name, ExposureError)
        bounded(self.paths, MC_BOUNDS["paths"], "paths", ExposureError, INTEGER)


def exposure_profile(portfolio: SwapBook, model, points: int,
                     curve: RateCurve) -> ExposureProfile:
    """Risk-free exposure profile of a netting set on ``points`` equally
    spaced times from 0 to the last maturity.

    Raises ExposureError on an empty portfolio.
    """
    if len(portfolio) == 0:
        raise ExposureError("cannot build an exposure profile for an empty portfolio")
    bounded(points, PROFILE_POINTS, "points", ExposureError, INTEGER)
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
    """Zero-mean OU factor paths, antithetic in pairs, as a (paths x times)
    view of a (times x paths) array: each time's row is contiguous.

    Pair j takes row j of one (pairs x steps) draw of standard normals from
    a generator seeded by the model seed. The odd path of a pair is the
    negated even one: the recursion's rounding is symmetric in sign.
    """
    a = model.mean_reversion
    n_pairs = (model.paths + 1) // 2
    dts = np.diff(times)
    decay = np.exp(-a * dts)
    stds = model.vol * np.sqrt(-np.expm1(-2.0 * a * dts) / (2.0 * a))
    shocks = np.random.default_rng(model.seed).standard_normal((n_pairs, len(dts)))
    shocks *= stds
    x = np.zeros((len(times), 2 * n_pairs))
    up = x[:, 0::2]
    for k in range(len(dts)):
        np.multiply(up[k], decay[k], out=up[k + 1])
        up[k + 1] += shocks[:, k]
    np.negative(up[1:], out=x[1:, 1::2])
    return x[:, :model.paths].T


# Elements of the (points x live cash-flow dates) buffer that the exposure
# kernel fills, exponentiates and contracts in place, one block of points at a
# time. 256 KB stays in cache; a one-shot (points x dates) matrix runs to tens
# of MB and spends most of its time in memory traffic.
_BLOCK_ELEMENTS = 32_768
# Steps whose paths Clenshaw's recurrence interpolates together, in five
# (steps x paths) arrays carved from the same buffer: 240 KB at 1000 paths.
_STEP_BLOCK = 6
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


def _step_claims(dates: np.ndarray, claims: np.ndarray, df: np.ndarray, t: float,
                 df_t: float, a: float, phi_t: float, out: tuple):
    """The factor loadings b = (1 - exp(-a (T - t))) / a and the weights
    claim x DF(t, T) x exp(-b^2 phi_t / 2) of the claims dated T in
    ``dates``, built in place in the first two of the three arrays ``out``
    of their length; the third is scratch."""
    b, weights, tmp = out
    # -expm1(-y), not 1 - exp(-y), which is 0 for y below 1e-16: as a -> 0,
    # b -> T - t
    np.subtract(dates, t, out=b)
    np.multiply(b, -a, out=b)
    np.expm1(b, out=b)
    np.divide(b, -a, out=b)
    np.divide(df, df_t, out=weights)
    np.multiply(claims, weights, out=weights)
    np.multiply(b, -0.5, out=tmp)
    np.multiply(tmp, b, out=tmp)
    np.multiply(tmp, phi_t, out=tmp)
    np.exp(tmp, out=tmp)
    np.multiply(weights, tmp, out=weights)
    return b, weights


def _node_fit(lo: float, hi: float, b: np.ndarray, weights: np.ndarray,
              buf: np.ndarray, cosines: dict, cap: int) -> np.ndarray | None:
    """Chebyshev coefficients of ``_claim_sums`` on [lo, hi], lo < hi, from
    its values at n first-kind Chebyshev nodes, or None when n reaches
    ``cap``. ``cosines`` keeps each n's node cosines and cosine matrix."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = _node_count(float(b.max()) * half, cap)
    if n == cap:
        return None
    if n not in cosines:
        theta = np.pi * (np.arange(n) + 0.5) / n
        cosines[n] = np.cos(theta), np.cos(np.outer(np.arange(n), theta))
    nodes, matrix = cosines[n]
    fit = (2.0 / n) * (matrix @ _claim_sums(mid + half * nodes, b, weights, buf))
    fit[0] *= 0.5
    return fit


def _clenshaw(coeffs: np.ndarray, s: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sum_j coeffs[r, j] T_j(s[r]) for each row r of ``s``, by Clenshaw's
    recurrence in the four ``work`` arrays of its shape, the first of which
    it leaves free; returns the one holding the sums. Zero leading
    coefficients leave a row's sum unchanged bit for bit."""
    two_s, b1, b2, t = work
    np.multiply(s, 2.0, out=two_s)
    b1[:] = coeffs[:, -1:]
    b2.fill(0.0)
    for c in coeffs[:, -2:0:-1].T:
        np.multiply(two_s, b1, out=t)
        np.add(t, c[:, None], out=t)
        np.subtract(t, b2, out=t)
        b1, b2, t = t, b1, b2
    np.multiply(s, b1, out=t)
    np.add(t, coeffs[:, :1], out=t)
    return np.subtract(t, b2, out=t)


def _mc_exposure(book: _CashFlows, model: OneFactorMcModel,
                 times: np.ndarray, curve: RateCurve):
    a = model.mean_reversion
    # -expm1(-y), as in _step_claims: as a -> 0, phi -> vol^2 t
    phi = model.vol ** 2 * -np.expm1(-2.0 * a * times) / (2.0 * a)
    x = _ou_paths(model, times).T
    steps, paths = x.shape
    lows, highs = x.min(axis=1), x.max(axis=1)
    df_grid = curve.df(times)
    owed = book.owed_counts(times)
    const = _owed_sum(owed[-len(book.signed_notionals):], book.signed_notionals, steps)
    # the claims in owed-count order: those owed at step k are the suffix
    # from starts[k], past the claims owed at no more than k steps
    starts = np.cumsum(np.bincount(owed, minlength=steps + 1))[:steps]
    order = np.argsort(owed, kind="stable")
    dates, claims, df = book.dates[order], book.weights[order], book.df[order]
    del owed, order  # not held through the loop, where the kernel's memory peaks
    rows = min(_STEP_BLOCK, steps)
    buf = np.empty(max(_BLOCK_ELEMENTS, len(book.dates), 5 * rows * paths))
    loadings, weighted = np.empty((2, len(dates)))
    cosines = {}
    epe = np.zeros(steps)
    ene = np.zeros(steps)
    mtm0 = 0.0

    def record(ks, values, spare=None):
        nonlocal mtm0
        if ks[0] == 0:
            mtm0 = float(np.mean(values[0]))
        epe[ks] = np.mean(np.maximum(values, 0.0, out=spare), axis=1)
        ene[ks] = np.mean(np.maximum(np.negative(values, out=spare), 0.0, out=spare), axis=1)

    for first in range(0, steps, rows):
        # fit each step of the block at the nodes; a step whose paths share
        # one factor value, or whose n reaches the path count, is valued
        # at its paths at once
        fitted, fits = [], []
        for k in range(first, min(first + rows, steps)):
            start = starts[k]
            if start == len(dates):
                break
            # the buffer's head is free until _claim_sums fills it
            b, weights = _step_claims(dates[start:], claims[start:], df[start:], times[k],
                                      df_grid[k], a, phi[k],
                                      (loadings[start:], weighted[start:], buf[:len(dates) - start]))
            if lows[k] == highs[k]:
                values = np.full((1, paths), _claim_sums(x[k, :1], b, weights, buf)[0])
            else:
                fit = _node_fit(lows[k], highs[k], b, weights, buf, cosines, paths)
                if fit is not None:
                    fitted.append(k)
                    fits.append(fit)
                    continue
                values = _claim_sums(x[k], b, weights, buf)[None]
            values += const[k]
            record([k], values)
        if not fitted:
            continue
        # interpolate the fitted steps' paths together, each fit padded with
        # leading zeros to the block's largest n
        coeffs = np.zeros((len(fits), max(map(len, fits))))
        for row, fit in zip(coeffs, fits):
            row[:len(fit)] = fit
        s, *work = buf[:5 * len(fitted) * paths].reshape(5, len(fitted), paths)
        lo, hi = lows[fitted, None], highs[fitted, None]
        np.take(x, fitted, axis=0, out=s, mode="clip")  # "raise" copies through a temporary
        np.subtract(s, 0.5 * (lo + hi), out=s)
        np.divide(s, 0.5 * (hi - lo), out=s)
        np.clip(s, -1.0, 1.0, out=s)
        values = _clenshaw(coeffs, s, work)
        values += const[fitted, None]
        record(fitted, values, spare=work[0])
    return epe, ene, mtm0
