import itertools
import math
import tracemalloc

import numpy as np
import pytest

import cxva.exposure
from cxva.curves import RateCurve
from cxva.exposure import (DeterministicModel, ExposureError, ExposureProfile,
                           OneFactorMcModel, Swap, SwapBook, exposure_profile,
                           generate_portfolio, par_rate,
                           _CashFlows, _coupon_dates, _ou_paths)

from oracles import swap_forward_value


def book_of(swaps) -> SwapBook:
    """The book of ``swaps``, a list of ``Swap`` rows."""
    columns = zip(*swaps) if swaps else [()] * len(Swap._fields)
    return SwapBook(*(np.array(column, dtype=float) for column in columns))


def same_book(a: SwapBook, b: SwapBook) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in Swap._fields)


@pytest.fixture
def curve():
    return RateCurve.from_nodes([(0.25, 0.010), (2.0, 0.013), (10.0, 0.022),
                                 (30.0, 0.030)], "OIS")


class TestGeneratePortfolio:
    def test_counts_and_ranges(self, curve):
        book = generate_portfolio(1000, 0.9, (0.25, 30.0), 0.01, seed=7, curve=curve)
        assert len(book) == 1000
        assert np.array_equal(book.sign, np.repeat([1.0, -1.0], [900, 100]))
        assert np.all((0.25 <= book.maturity) & (book.maturity <= 30.0))
        atm = par_rate(curve, 10.0)
        assert np.all(np.abs(book.fixed_rate - atm) <= 0.01 + 1e-12)

    def test_deterministic_given_seed(self, curve):
        a = generate_portfolio(50, 0.5, (1.0, 10.0), 0.01, seed=3, curve=curve)
        b = generate_portfolio(50, 0.5, (1.0, 10.0), 0.01, seed=3, curve=curve)
        assert same_book(a, b)
        c = generate_portfolio(50, 0.5, (1.0, 10.0), 0.01, seed=4, curve=curve)
        assert not same_book(a, c)

    def test_single_par_swap_prices_to_zero(self, curve):
        book = generate_portfolio(1, 1.0, (10.0, 10.0), 0.0, seed=1, curve=curve)
        mtm0 = exposure_profile(book, DeterministicModel(), 2, curve).mtm0
        assert mtm0 == pytest.approx(0.0, abs=1e-12)

    def test_invalid_fraction(self, curve):
        with pytest.raises(ExposureError):
            generate_portfolio(10, 1.5, (1.0, 2.0), 0.01, seed=1, curve=curve)

    @pytest.mark.parametrize("pay_freq", [0, 3, float("nan")])
    def test_pay_freq_checked_before_the_par_rate(self, curve, pay_freq):
        with pytest.raises(ExposureError, match="pay_freq must be one of 1, 2, 4"):
            generate_portfolio(10, 0.5, (1.0, 2.0), 0.01, seed=1, curve=curve,
                               pay_freq=pay_freq)

    def test_maturity_bound(self, curve):
        top = cxva.exposure.MAX_MATURITY
        assert Swap(1.0, 0.02, 1.0, top, 2).payment_times()[-1] == top
        with pytest.raises(ExposureError, match="maturity"):
            book_of([Swap(1.0, 0.02, 1.0, top * (1.0 + 1e-15), 2)])
        with pytest.raises(ExposureError, match="maturity_max"):
            generate_portfolio(10, 0.5, (1.0, 1e12), 0.01, seed=1, curve=curve)
        with pytest.raises(ExposureError, match="maturity_min"):
            generate_portfolio(10, 0.5, (2.0, 1.0), 0.01, seed=1, curve=curve)

    def test_rate_offset_shifts_band(self, curve):
        book = generate_portfolio(200, 1.0, (1.0, 30.0), 0.005, seed=5,
                                  curve=curve, rate_offset=0.02)
        atm = par_rate(curve, 10.0)
        assert min(s.fixed_rate for s in book) > atm + 0.0149


def random_swaps(seed: int, n: int = 60) -> list[Swap]:
    """Swaps paying 1, 2 and 4 times a year, a third maturing on an exact
    coupon multiple, a third with a short first period and a third anywhere
    in (0, 30], plus maturities within 1e-9 of a multiple and below one
    period."""
    rng = np.random.default_rng(seed)
    swaps = []
    for k in range(n):
        freq = int(rng.choice([1, 2, 4]))
        periods = int(rng.integers(1, 40))
        maturity = [periods / freq, (periods + rng.uniform(0.05, 0.95)) / freq,
                     rng.uniform(1e-3, 30.0)][k % 3]
        swaps.append(Swap(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.01, 0.05)),
                          1.0 if rng.uniform() < 0.5 else -1.0, maturity, freq))
    edges = [(3.0 + 4e-10, 4), (3.0 - 4e-10, 2), (0.1, 1), (1e-10, 2), (2.5e-10, 4)]
    return swaps + [Swap(1.0, 0.02, 1.0, m, f) for m, f in edges]


def per_swap_cash_flows(swaps):
    """Dates, weights and accruals built swap by swap, each swap's coupons
    dated m - j / f for j < ceil(m f - 1e-9), ascending: every fixed coupon,
    swap by swap, then every float leg's maturity."""
    pay = [[s.maturity - j / s.pay_freq
            for j in reversed(range(math.ceil(s.maturity * s.pay_freq - 1e-9)))]
           for s in swaps]
    dates = np.concatenate(pay + [[s.maturity for s in swaps]])
    weights = np.concatenate(
        [np.full(len(p), -(s.sign * s.notional * s.fixed_rate * (1.0 / s.pay_freq)))
         for s, p in zip(swaps, pay)] + [[-(s.sign * s.notional) for s in swaps]])
    accruals = np.concatenate([np.full(len(p), s.notional / s.pay_freq)
                               for s, p in zip(swaps, pay)] + [np.zeros(len(swaps))])
    return dates, weights, accruals


def padded_coupon_dates(maturity, f):
    """The coupon dates of every swap as a (swaps x most coupons) grid, masked
    to each swap's coupons and read row by row: the reference construction."""
    counts = np.ceil(maturity * f - 1e-9)
    cols = np.arange(counts.max())
    grid = counts[:, None] - 1.0 - cols
    np.divide(grid, f[:, None], out=grid)
    np.subtract(maturity[:, None], grid, out=grid)
    paid = cols < counts[:, None]
    return grid[paid], paid.sum(axis=1)


class TestSwapBook:
    def test_coupon_dates_match_padded_grid_bitwise(self):
        rng = np.random.default_rng(2024)
        for k in range(2000):
            n = int(rng.integers(1, 25))
            # log-uniform over 1e-9..100 y, plus maturities on and within
            # 1e-9 of a coupon date
            maturity = np.exp(rng.uniform(math.log(1e-9), math.log(100.0), n))
            freqs = np.array([1.0, 2.0, 4.0])
            f = rng.choice(freqs, n) if k % 4 == 3 else np.full(n, freqs[k % 4])
            on = rng.integers(1, 100, n) / f
            near = np.clip(on + rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.0, 2e-9, n),
                           1e-9, 100.0)
            maturity = np.where(rng.random(n) < 0.3, near, maturity)
            dates, counts = _coupon_dates(maturity, f)
            want_dates, want_counts = padded_coupon_dates(maturity, f)
            assert dates.tobytes() == want_dates.tobytes(), k
            assert counts.tobytes() == want_counts.tobytes(), k

    def test_rows_are_the_entries(self, curve):
        # the contract the benchmark's tracer and oracles read: one row of
        # Python scalars per swap, and the swap's own coupon dates
        book = generate_portfolio(30, 0.4, (1.0, 12.0), 0.01, seed=5, curve=curve,
                                  pay_freq=4)
        assert isinstance(book, SwapBook) and len(book) == 30
        rows = list(book)
        assert len(rows) == 30 and all(isinstance(row, Swap) for row in rows)
        for i, row in enumerate(rows):
            for name, value in zip(Swap._fields, row):
                entry = getattr(book, name)[i]
                assert type(value) is type(entry.item()) and value == entry, (i, name)
        assert [row.sign for row in rows] == [1.0] * 12 + [-1.0] * 18
        dates, counts = _coupon_dates(book.maturity, book.pay_freq.astype(float))
        ends = np.cumsum(counts)
        for row, lo, hi in zip(rows, ends - counts, ends):
            assert np.array_equal(row.payment_times(), dates[lo:hi])

    @pytest.mark.parametrize("field, bad, message", [
        ("notional", float("nan"), "notional"),
        ("notional", 0.0, "notional"),
        ("fixed_rate", float("nan"), "fixed_rate"),
        ("fixed_rate", float("inf"), "fixed_rate"),
        ("maturity", float("nan"), "maturity"),
        ("maturity", cxva.exposure.MAX_MATURITY * (1.0 + 1e-15), "maturity"),
        ("pay_freq", 3, "pay_freq"),
        ("sign", 0.0, "sign"),
    ])
    def test_checks_every_entry(self, field, bad, message):
        fields = dict(notional=np.ones(3), fixed_rate=np.full(3, 0.02),
                      sign=np.array([1.0, -1.0, 1.0]), maturity=np.array([1.0, 2.0, 3.0]),
                      pay_freq=np.array([1, 2, 4]))
        fields[field] = fields[field].astype(type(bad))
        fields[field][2] = bad
        with pytest.raises(ExposureError, match=message):
            SwapBook(**fields)

    @pytest.mark.parametrize("seed", range(8))
    def test_cash_flows_match_per_swap_construction(self, curve, seed):
        swaps = random_swaps(seed)
        want_dates, want_weights, want_accruals = per_swap_cash_flows(swaps)
        flows = _CashFlows.of(book_of(swaps), curve)
        assert np.array_equal(flows.dates, want_dates)
        assert np.array_equal(flows.weights, want_weights)
        assert np.array_equal(flows.accruals, want_accruals)
        assert np.array_equal(flows.df, curve.df(want_dates))
        assert np.array_equal(flows.dates[-len(swaps):], [s.maturity for s in swaps])


def whole_list_profile(book: SwapBook, points: int, curve):
    """The deterministic profile from the whole cash-flow list at once, every
    claim's weight * DF binned by one bincount: the walk over ranges of swaps
    must give these bits."""
    flows = _CashFlows.of(book, curve)
    times = np.linspace(0.0, flows.dates[-len(book):].max(), points)
    owed = flows.owed_counts(times)

    def owed_sum(counts, values):
        bins = np.bincount(counts, values, minlength=points + 1)
        return np.cumsum(bins[::-1])[::-1][1:]

    values = (owed_sum(owed[-len(book):], flows.signed_notionals)
              + owed_sum(owed, flows.weights * flows.df) / curve.df(times))
    return ExposureProfile(times, np.maximum(values, 0.0), np.maximum(-values, 0.0),
                           float(values[0]), float(np.sum(flows.accruals * flows.df)))


def random_book(rng, n: int, points: int) -> SwapBook:
    """n swaps with log-uniform maturities over 1e-9..100 y and mixed payment
    frequencies, a third of the maturities on or within 2e-9 years of a time
    of the book's ``points``-point profile grid."""
    maturity = np.exp(rng.uniform(math.log(1e-9), math.log(100.0), n))
    top = maturity.max()
    times = np.linspace(0.0, top, points)
    near = times[rng.integers(1, points, n)] + rng.choice([-1.0, 0.0, 1.0], n) * \
        rng.uniform(0.0, 2e-9, n)
    maturity = np.where(rng.random(n) < 0.33, np.clip(near, 1e-9, top), maturity)
    return SwapBook(notional=rng.uniform(0.5, 2.0, n), fixed_rate=rng.uniform(-0.01, 0.06, n),
                    sign=rng.choice([1.0, -1.0], n), maturity=maturity,
                    pay_freq=rng.choice([1, 2, 4], n))


def same_profile_bits(a: ExposureProfile, b: ExposureProfile) -> bool:
    return (all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
                for name in ("times", "epe", "ene"))
            and a.mtm0 == b.mtm0 and a.annuity == b.annuity)


class TestDeterministicProfile:
    def test_matches_whole_list_bitwise(self, curve):
        rng = np.random.default_rng(31)
        for k in range(40):
            points = int(rng.integers(2, 501))
            book = random_book(rng, int(rng.integers(1, 3001)), points)
            profile = exposure_profile(book, DeterministicModel(), points, curve)
            assert same_profile_bits(profile, whole_list_profile(book, points, curve)), k

    @pytest.mark.parametrize("block", [1, 10 ** 9])
    def test_claim_block_leaves_the_bits(self, curve, monkeypatch, block):
        # one swap a range, and the whole book in one range
        rng = np.random.default_rng(7)
        books = [(random_book(rng, int(rng.integers(1, 300)), points), points)
                 for points in (2, 61, 500)]
        books.append((generate_portfolio(1000, 0.9, (0.25, 30.0), 0.01, seed=1, curve=curve,
                                         rate_offset=0.025), 121))
        want = [exposure_profile(book, DeterministicModel(), points, curve)
                for book, points in books]
        monkeypatch.setattr(cxva.exposure, "_CLAIM_BLOCK", block)
        for (book, points), w in zip(books, want):
            got = exposure_profile(book, DeterministicModel(), points, curve)
            assert same_profile_bits(got, w)

    def test_transient_memory_of_an_allocation_profile(self, curve):
        # 1000 semiannual swaps of 0.25-30 years on 121 times, as each set
        # of the allocation scenario: the one claim-length row of accrual *
        # DF (256 KB) and the rows of one range of swaps; the whole list at
        # once, with its temporaries, peaked at 1.48 MiB
        book = generate_portfolio(1000, 0.9, (0.25, 30.0), 0.01, seed=1, curve=curve,
                                  rate_offset=0.025)
        exposure_profile(book, DeterministicModel(), 121, curve)
        tracemalloc.start()
        try:
            exposure_profile(book, DeterministicModel(), 121, curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2 ** 20

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_time_sum(self, curve, seed):
        # the 10y swap sets the grid 0, 0.5, ..., 10: the 5y swap matures on
        # a profile time and every one of its coupons falls on one; the
        # 2.5y swap's dates fall 5e-13 after one, which is not after it
        swaps = [Swap(1.0, 0.02, 1.0, 10.0, 1), Swap(2.0, 0.03, -1.0, 5.0, 2),
                 Swap(1.5, 0.04, 1.0, 2.5 + 5e-13, 2)]
        swaps += [s for s in random_swaps(seed, 30) if s.maturity < 10.0]
        profile = exposure_profile(book_of(swaps), DeterministicModel(), 21, curve)
        assert profile.times[10] == 5.0 and np.all(profile.times % 0.5 == 0.0)
        gross = sum(s.notional for s in swaps)
        for k, t in enumerate(profile.times):
            # the oracle builds its own schedule: it keeps every coupon dated
            # after t + 1e-12, those of random_swaps' edge maturities within
            # 1e-9 years of a coupon multiple included, as the library does
            want = sum(swap_forward_value(s.notional, s.fixed_rate, s.sign, s.maturity,
                                          s.pay_freq, curve.df, t) for s in swaps)
            assert abs(profile.epe[k] - profile.ene[k] - want) <= 1e-12 * gross
        assert profile.mtm0 == profile.epe[0] - profile.ene[0]

    @pytest.mark.parametrize("maturity, first", [(3.0 + 4e-10, 4e-10), (8e-10, 8e-10)])
    def test_coupon_just_after_zero_is_owed(self, curve, maturity, first):
        # a quarterly swap's first coupon dated a few 1e-10 years after 0 is
        # still owed at 0 (T > 0 + 1e-12): in mtm0 it is worth 0.005
        swap = Swap(1.0, 0.02, 1.0, maturity, 4)
        assert swap.payment_times()[0] == pytest.approx(first, rel=1e-5)
        want = swap_forward_value(1.0, 0.02, 1.0, maturity, 4, curve.df, 0.0)
        det = exposure_profile(book_of([swap]), DeterministicModel(), 2, curve)
        mc = exposure_profile(book_of([swap]), OneFactorMcModel(0.05, 0.01, 1000, seed=1), 2,
                              curve)
        assert abs(det.mtm0 - want) <= 1e-15
        assert abs(mc.mtm0 - want) <= 1e-15

    def test_matches_per_swap_oracle(self, curve):
        book = generate_portfolio(20, 0.5, (1.0, 20.0), 0.01, seed=11, curve=curve)
        profile = exposure_profile(book, DeterministicModel(), 41, curve)
        for k in (0, 7, 23, 40):
            t = profile.times[k]
            oracle = sum(swap_forward_value(s.notional, s.fixed_rate, s.sign,
                                            s.maturity, s.pay_freq, curve.df, t)
                         for s in book)
            assert profile.epe[k] - profile.ene[k] == pytest.approx(oracle, abs=1e-9)

    def test_epe_zero_at_horizon(self, curve):
        book = generate_portfolio(30, 0.5, (1.0, 12.0), 0.01, seed=2, curve=curve)
        profile = exposure_profile(book, DeterministicModel(), 25, curve)
        assert profile.epe[-1] == 0.0
        assert profile.ene[-1] == 0.0

    def test_mtm0_identity(self, curve):
        book = generate_portfolio(30, 0.2, (1.0, 12.0), 0.01, seed=2, curve=curve)
        profile = exposure_profile(book, DeterministicModel(), 25, curve)
        assert profile.epe[0] - profile.ene[0] == pytest.approx(profile.mtm0, abs=1e-12)

    def test_deep_off_market_receiver(self, curve):
        # receiver paying well above market: pure receivable, epe equals the
        # forward annuity-weighted rate gap
        swap = Swap(1.0, par_rate(curve, 10.0) + 0.05, -1.0, 10.0, 2)
        profile = exposure_profile(book_of([swap]), DeterministicModel(), 21, curve)
        assert np.all(profile.ene == 0.0)
        t = profile.times[5]
        oracle = swap_forward_value(1.0, swap.fixed_rate, -1.0, 10.0, 2,
                                    curve.df, t)
        assert profile.epe[5] == pytest.approx(oracle, rel=1e-10)

    def test_empty_portfolio(self, curve):
        with pytest.raises(ExposureError):
            exposure_profile(book_of([]), DeterministicModel(), 10, curve)


def dense_profile(book: SwapBook, model: OneFactorMcModel, times: np.ndarray, curve):
    """EPE, ENE and mtm0 of ``book`` with every path revalued at every time
    from per-swap claims: the kernel's reference."""
    a = model.mean_reversion
    phi = model.vol ** 2 * (1.0 - np.exp(-2.0 * a * times)) / (2.0 * a)
    x = _ou_paths(model, times)
    dates = np.concatenate([s.payment_times() for s in book] + [[s.maturity for s in book]])
    w = np.concatenate([np.full(len(s.payment_times()),
                                -s.sign * s.notional * s.fixed_rate / s.pay_freq)
                        for s in book] + [[-s.sign * s.notional for s in book]])
    epe, ene, mtm0 = np.zeros(len(times)), np.zeros(len(times)), 0.0
    for k, t in enumerate(times):
        live = dates > t + 1e-12
        b = (1.0 - np.exp(-a * (dates[live] - t))) / a
        weights = w[live] * curve.df(dates[live]) / curve.df(t) * np.exp(-0.5 * b * b * phi[k])
        const = sum(s.sign * s.notional for s in book if s.maturity > t + 1e-12)
        values = const + np.exp(-np.outer(x[:, k], b)) @ weights
        epe[k], ene[k] = np.mean(np.maximum(values, 0.0)), np.mean(np.maximum(-values, 0.0))
        mtm0 = float(np.mean(values)) if k == 0 else mtm0
    return epe, ene, mtm0


class TestMcProfile:
    def test_zero_vol_equals_deterministic(self, curve):
        book = generate_portfolio(25, 0.5, (1.0, 15.0), 0.01, seed=9, curve=curve)
        det = exposure_profile(book, DeterministicModel(), 31, curve)
        mc = exposure_profile(book, OneFactorMcModel(0.05, 0.0, 1000, seed=1),
                              31, curve)
        assert np.max(np.abs(mc.epe - det.epe)) < 1e-10
        assert np.max(np.abs(mc.ene - det.ene)) < 1e-10

    def test_mean_matches_forward_within_three_se(self, curve):
        book = generate_portfolio(10, 0.5, (2.0, 10.0), 0.01, seed=21, curve=curve)
        det = exposure_profile(book, DeterministicModel(), 21, curve)
        mc = exposure_profile(book, OneFactorMcModel(0.1, 0.01, 2000, seed=5),
                              21, curve)
        # net mean exposure is nearly a martingale-consistent forward value;
        # antithetic pairs center the factor exactly, so tolerance is loose
        # only for convexity
        mid = 10
        assert (mc.epe[mid] - mc.ene[mid]) == pytest.approx(
            det.epe[mid] - det.ene[mid], abs=3.0 * 0.01 * 5.0)

    def test_antithetic_factor_centering(self):
        times = np.linspace(0.0, 5.0, 11)
        x = _ou_paths(OneFactorMcModel(0.1, 0.02, 1000, seed=3), times)
        assert np.max(np.abs(x.mean(axis=0))) < 1e-15

    def test_worker_chunk_invariance(self):
        # the normals are drawn row by row from one stream: a smaller run
        # equals the leading paths of a larger one
        times = np.linspace(0.0, 5.0, 6)
        big = _ou_paths(OneFactorMcModel(0.1, 0.02, 1200, seed=13), times)
        small = _ou_paths(OneFactorMcModel(0.1, 0.02, 1000, seed=13), times)
        assert np.array_equal(big[:1000], small)

    def test_ou_paths_match_scalar_recursion(self):
        # the scalar recursion on one stream drawn pair by pair, antithetic
        # partner in the odd row
        model = OneFactorMcModel(0.07, 0.015, 1001, seed=4)
        times = np.linspace(0.0, 7.0, 15)
        a, dts = model.mean_reversion, np.diff(times)
        decay = np.exp(-a * dts)
        stds = model.vol * np.sqrt(-np.expm1(-2.0 * a * dts) / (2.0 * a))
        ref = np.zeros((1002, len(times)))
        rng = np.random.default_rng(model.seed)
        for j in range(501):
            z = rng.standard_normal(len(dts))
            for k in range(len(dts)):
                ref[2 * j, k + 1] = ref[2 * j, k] * decay[k] + stds[k] * z[k]
                ref[2 * j + 1, k + 1] = ref[2 * j + 1, k] * decay[k] - stds[k] * z[k]
        assert np.array_equal(_ou_paths(model, times), ref[:1001])

    @pytest.mark.parametrize("n, maturities, freq, model, points", [
        # ~1200 live cash-flow dates at t = 0
        (40, (5.0, 30.0), 2, OneFactorMcModel(0.05, 0.01, 1000, seed=3), 31),
        # slow reversion, high vol, 50-100y quarterly: over 100 nodes a step
        (8, (50.0, 100.0), 4, OneFactorMcModel(0.001, 0.05, 2000, seed=3), 41),
        (40, (5.0, 30.0), 2, OneFactorMcModel(1.0, 0.03, 1000, seed=3), 31),
    ], ids=["base", "slow-reversion-100y", "fast-reversion"])
    def test_blocked_kernel_matches_dense_reference(self, curve, n, maturities, freq,
                                                    model, points):
        book = generate_portfolio(n, 0.5, maturities, 0.01, seed=8, curve=curve,
                                  pay_freq=freq)
        profile = exposure_profile(book, model, points, curve)
        times = profile.times
        a = model.mean_reversion
        phi = model.vol ** 2 * (1.0 - np.exp(-2.0 * a * times)) / (2.0 * a)
        x = _ou_paths(model, times)
        # fixed coupons, then each float leg's terminal discount factor
        dates = np.concatenate([s.payment_times() for s in book]
                               + [[s.maturity for s in book]])
        w = np.concatenate([np.full(len(s.payment_times()),
                                    -s.sign * s.notional * s.fixed_rate / s.pay_freq)
                            for s in book] + [[-s.sign * s.notional for s in book]])
        gross = sum(s.notional for s in book)
        for k, t in enumerate(times):
            live = dates > t + 1e-12
            u = dates[live]
            b = (1.0 - np.exp(-a * (u - t))) / a
            weights = w[live] * curve.df(u) / curve.df(t) * np.exp(-0.5 * b * b * phi[k])
            const = sum(s.sign * s.notional for s in book if s.maturity > t + 1e-12)
            values = const + np.concatenate([np.exp(-np.outer(xs, b)) @ weights
                                             for xs in np.array_split(x[:, k], 4)])
            assert abs(profile.epe[k] - np.mean(np.maximum(values, 0.0))) <= 1e-13 * gross
            assert abs(profile.ene[k] - np.mean(np.maximum(-values, 0.0))) <= 1e-13 * gross
            if k == 0:
                assert abs(profile.mtm0 - np.mean(values)) <= 1e-13 * gross

    def test_each_step_revalues_few_points(self, curve, monkeypatch):
        # a book shaped like the stochastic_book workload's: revaluing every
        # path would send all 1000 to the evaluator at each step
        book = generate_portfolio(200, 0.55, (0.25, 30.0), 0.01, seed=1, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=1)
        sent = []
        claim_sums = cxva.exposure._claim_sums

        def counting(points, *args):
            sent.append(len(points))
            return claim_sums(points, *args)

        monkeypatch.setattr(cxva.exposure, "_claim_sums", counting)
        exposure_profile(book, model, 121, curve)
        # every step but the horizon, where no claim is owed
        assert len(sent) == 120
        assert max(sent) <= 32

    def test_node_work_on_a_stochastic_book(self, curve, monkeypatch):
        # points x live claims sent to the evaluator on the stochastic_book
        # workload's book shape: each step's node count and claim set
        book = generate_portfolio(200, 0.55, (0.25, 30.0), 0.01, seed=1, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=1)
        work = []
        claim_sums = cxva.exposure._claim_sums

        def counting(points, b, *args):
            work.append(len(points) * len(b))
            return claim_sums(points, b, *args)

        monkeypatch.setattr(cxva.exposure, "_claim_sums", counting)
        exposure_profile(book, model, 121, curve)
        assert sum(work) == 3_952_371

    @pytest.mark.parametrize("rows", [1, 121], ids=["one-step", "whole-grid"])
    def test_step_block_invariance(self, curve, monkeypatch, rows):
        book = generate_portfolio(200, 0.55, (0.25, 30.0), 0.01, seed=1, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=1)
        base = exposure_profile(book, model, 121, curve)
        monkeypatch.setattr(cxva.exposure, "_STEP_BLOCK", rows)
        blocked = exposure_profile(book, model, 121, curve)
        assert np.max(np.abs(blocked.epe - base.epe)) <= 1e-14
        assert np.max(np.abs(blocked.ene - base.ene)) <= 1e-14
        assert abs(blocked.mtm0 - base.mtm0) <= 1e-14

    def test_mixed_node_and_path_steps_match_dense_reference(self, curve, monkeypatch):
        # every third fitted step reaches the path count and revalues its
        # paths; the steps of its block around it interpolate from nodes
        book = generate_portfolio(40, 0.5, (5.0, 30.0), 0.01, seed=8, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=3)
        node_count = cxva.exposure._node_count
        calls = itertools.count()
        monkeypatch.setattr(cxva.exposure, "_node_count", lambda beta, cap: (
            cap if next(calls) % 3 == 0 else node_count(beta, cap)))
        sent = []
        claim_sums = cxva.exposure._claim_sums

        def counting(points, *args):
            sent.append(len(points))
            return claim_sums(points, *args)

        monkeypatch.setattr(cxva.exposure, "_claim_sums", counting)
        profile = exposure_profile(book, model, 31, curve)
        assert sent.count(1000) == 10 and sum(1 < n <= 32 for n in sent) == 19
        epe, ene, mtm0 = dense_profile(book, model, profile.times, curve)
        assert np.max(np.abs(profile.epe - epe)) <= 1e-13 * 40
        assert np.max(np.abs(profile.ene - ene)) <= 1e-13 * 40
        assert abs(profile.mtm0 - mtm0) <= 1e-13 * 40

    def test_node_cap_revalues_every_path(self, curve, monkeypatch):
        # with a truncation bound no node count meets, the count reaches the
        # path count and each path is revalued at its own factor value
        book = generate_portfolio(40, 0.5, (5.0, 30.0), 0.01, seed=8, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=3)
        base = exposure_profile(book, model, 31, curve)
        monkeypatch.setattr(cxva.exposure, "_SERIES_TAIL", 0.0)
        paths = exposure_profile(book, model, 31, curve)
        assert np.max(np.abs(paths.epe - base.epe)) <= 1e-13 * 40
        assert np.max(np.abs(paths.ene - base.ene)) <= 1e-13 * 40
        assert abs(paths.mtm0 - base.mtm0) <= 1e-13 * 40

    def test_tiny_mean_reversion_keeps_the_factor_random(self):
        # a -> 0 is Brownian motion: x(10) has std vol sqrt(10); the sample
        # std of 1000 antithetic pairs is off by about 2.2 % of it
        times = np.linspace(0.0, 10.0, 11)
        x = _ou_paths(OneFactorMcModel(1e-20, 0.01, 2000, seed=5), times)
        assert np.std(x[:, -1]) == pytest.approx(0.01 * np.sqrt(10.0), rel=0.1)

    def test_tiny_mean_reversion_profile(self, curve):
        # a = 1e-20 is the a -> 0 limit, which a = 1e-9 matches to O(a t),
        # not the deterministic profile
        book = generate_portfolio(10, 0.5, (2.0, 10.0), 0.01, seed=21, curve=curve)
        det = exposure_profile(book, DeterministicModel(), 21, curve)
        tiny, small = (exposure_profile(book, OneFactorMcModel(a, 0.01, 2000, seed=5),
                                        21, curve) for a in (1e-20, 1e-9))
        assert np.max(np.abs(tiny.ene - det.ene)) > 0.01
        assert np.max(np.abs(tiny.epe - small.epe)) < 1e-8
        assert np.max(np.abs(tiny.ene - small.ene)) < 1e-8

    def test_block_size_invariance(self, curve, monkeypatch):
        book = generate_portfolio(40, 0.5, (5.0, 30.0), 0.01, seed=8, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=3)
        base = exposure_profile(book, model, 31, curve)
        # one path per block wherever more than 64 dates are live
        monkeypatch.setattr(cxva.exposure, "_BLOCK_ELEMENTS", 64)
        small = exposure_profile(book, model, 31, curve)
        assert np.max(np.abs(small.epe - base.epe)) <= 1e-14
        assert np.max(np.abs(small.ene - base.ene)) <= 1e-14
        assert abs(small.mtm0 - base.mtm0) <= 1e-14

    def test_transient_memory_bound(self, curve):
        # a one-shot (paths x dates) matrix for this book takes over 30 MB
        book = generate_portfolio(200, 0.55, (0.25, 30.0), 0.01, seed=1, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=18)
        tracemalloc.start()
        try:
            exposure_profile(book, model, 121, curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_transient_memory_near_the_factor_array(self, curve):
        # the (paths x times) factor array is 0.92 MiB; beside it the
        # pair draws, the cash-flow list sorted by owed count, two rows of
        # claims and the kernel's one 256 KB buffer
        book = generate_portfolio(200, 0.55, (0.25, 30.0), 0.01, seed=1, curve=curve)
        model = OneFactorMcModel(0.05, 0.01, 1000, seed=18)
        tracemalloc.start()
        try:
            exposure_profile(book, model, 121, curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("field", ["mean_reversion", "vol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_model_rejects_non_finite(self, field, bad):
        params = dict(mean_reversion=0.05, vol=0.01, paths=1000, seed=1)
        params[field] = bad
        with pytest.raises(ExposureError, match=field):
            OneFactorMcModel(**params)

    @pytest.mark.parametrize("field, bad", [
        ("mean_reversion", cxva.exposure.MIN_MEAN_REVERSION),
        ("mean_reversion", 5e-324),
        ("mean_reversion", cxva.exposure.MAX_MEAN_REVERSION * 1.01),
        ("vol", -1e-3),
        ("vol", cxva.exposure.MAX_FACTOR_VOL * (1.0 + 1e-15)),
    ])
    def test_model_rejects_what_the_kernel_cannot_represent(self, field, bad):
        params = dict(mean_reversion=0.05, vol=0.01, paths=1000, seed=1)
        params[field] = bad
        with pytest.raises(ExposureError, match=field):
            OneFactorMcModel(**params)

    def test_determinism(self, curve):
        book = generate_portfolio(10, 0.5, (2.0, 8.0), 0.01, seed=2, curve=curve)
        model = OneFactorMcModel(0.1, 0.01, 1000, seed=9)
        a = exposure_profile(book, model, 11, curve)
        b = exposure_profile(book, model, 11, curve)
        assert np.array_equal(a.epe, b.epe)


class TestProfileType:
    def test_validation(self):
        with pytest.raises(ExposureError):
            ExposureProfile(np.array([0.0, 1.0]), np.array([1.0, -0.1]),
                            np.zeros(2), 1.0, 1.0)
        with pytest.raises(ExposureError):
            ExposureProfile(np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                            np.zeros(2), 5.0, 1.0)  # mtm0 mismatch

    @pytest.mark.parametrize("field", ["times", "epe", "ene", "mtm0", "annuity"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, bad):
        fields = dict(times=np.array([0.0, 1.0]), epe=np.array([1.0, 0.5]),
                      ene=np.zeros(2), mtm0=1.0, annuity=1.0)
        if field in ("mtm0", "annuity"):
            fields[field] = bad
        else:
            fields[field][1] = bad
        with pytest.raises(ExposureError, match=field):
            ExposureProfile(**fields)

    def test_scaled(self):
        p = ExposureProfile(np.array([0.0, 1.0]), np.array([2.0, 1.0]),
                            np.zeros(2), 2.0, 10.0)
        q = p.scaled(3.0)
        assert q.mtm0 == 6.0 and q.annuity == 30.0
        assert np.array_equal(q.epe, p.epe * 3.0)


class TestAnnuity:
    def test_gross_annuity_direction_blind(self, curve):
        def annuity(sign):
            book = book_of([Swap(1.0, 0.02, sign, 10.0, 2)])
            return exposure_profile(book, DeterministicModel(), 2, curve).annuity
        assert annuity(1.0) == pytest.approx(annuity(-1.0))
        # a 10y semiannual annuity at ~2% rates is a bit under 10
        assert 8.0 < annuity(1.0) < 10.0
