import numpy as np
import pytest

from cxva.curves import RateCurve
from cxva.exposure import (DeterministicModel, ExposureError, ExposureProfile,
                           OneFactorMcModel, Swap, exposure_profile,
                           generate_portfolio, gross_annuity, par_rate,
                           _ou_paths)

from oracles import swap_forward_value


@pytest.fixture
def curve():
    return RateCurve.from_nodes([(0.25, 0.010), (2.0, 0.013), (10.0, 0.022),
                                 (30.0, 0.030)], "OIS")


class TestGeneratePortfolio:
    def test_counts_and_ranges(self, curve):
        book = generate_portfolio(1000, 0.9, (0.25, 30.0), 0.01, seed=7, curve=curve)
        assert len(book) == 1000
        assert sum(1 for s in book if s.direction == "payer") == 900
        assert all(0.25 <= s.maturity <= 30.0 for s in book)
        atm = par_rate(curve, 10.0)
        assert all(abs(s.fixed_rate - atm) <= 0.01 + 1e-12 for s in book)

    def test_deterministic_given_seed(self, curve):
        a = generate_portfolio(50, 0.5, (1.0, 10.0), 0.01, seed=3, curve=curve)
        b = generate_portfolio(50, 0.5, (1.0, 10.0), 0.01, seed=3, curve=curve)
        assert a == b
        c = generate_portfolio(50, 0.5, (1.0, 10.0), 0.01, seed=4, curve=curve)
        assert a != c

    def test_single_par_swap_prices_to_zero(self, curve):
        book = generate_portfolio(1, 1.0, (10.0, 10.0), 0.0, seed=1, curve=curve)
        mtm0 = exposure_profile(book, DeterministicModel(), 2, curve).mtm0
        assert mtm0 == pytest.approx(0.0, abs=1e-12)

    def test_invalid_fraction(self, curve):
        with pytest.raises(ExposureError):
            generate_portfolio(10, 1.5, (1.0, 2.0), 0.01, seed=1, curve=curve)

    def test_rate_offset_shifts_band(self, curve):
        book = generate_portfolio(200, 1.0, (1.0, 30.0), 0.005, seed=5,
                                  curve=curve, rate_offset=0.02)
        atm = par_rate(curve, 10.0)
        assert min(s.fixed_rate for s in book) > atm + 0.0149


class TestDeterministicProfile:
    def test_matches_per_swap_oracle(self, curve):
        book = generate_portfolio(20, 0.5, (1.0, 20.0), 0.01, seed=11, curve=curve)
        profile = exposure_profile(book, DeterministicModel(), 41, curve)
        for k in (0, 7, 23, 40):
            t = profile.times[k]
            oracle = sum(swap_forward_value(s.notional, s.fixed_rate, s.direction,
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
        swap = Swap(1.0, par_rate(curve, 10.0) + 0.05, "receiver", 10.0)
        profile = exposure_profile([swap], DeterministicModel(), 21, curve)
        assert np.all(profile.ene == 0.0)
        t = profile.times[5]
        oracle = swap_forward_value(1.0, swap.fixed_rate, "receiver", 10.0, 2,
                                    curve.df, t)
        assert profile.epe[5] == pytest.approx(oracle, rel=1e-10)

    def test_empty_portfolio(self, curve):
        with pytest.raises(ExposureError):
            exposure_profile([], DeterministicModel(), 10, curve)


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
        # pair streams derive from (seed, pair index): a smaller run equals
        # the leading paths of a larger one, so partitioning across workers
        # cannot change results
        times = np.linspace(0.0, 5.0, 6)
        big = _ou_paths(OneFactorMcModel(0.1, 0.02, 1200, seed=13), times)
        small = _ou_paths(OneFactorMcModel(0.1, 0.02, 1000, seed=13), times)
        assert np.array_equal(big[:1000], small)

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

    def test_scaled(self):
        p = ExposureProfile(np.array([0.0, 1.0]), np.array([2.0, 1.0]),
                            np.zeros(2), 2.0, 10.0)
        q = p.scaled(3.0)
        assert q.mtm0 == 6.0 and q.annuity == 30.0
        assert np.array_equal(q.epe, p.epe * 3.0)


class TestAnnuity:
    def test_gross_annuity_direction_blind(self, curve):
        pay = [Swap(1.0, 0.02, "payer", 10.0)]
        rec = [Swap(1.0, 0.02, "receiver", 10.0)]
        assert gross_annuity(pay, curve) == pytest.approx(gross_annuity(rec, curve))
        # a 10y semiannual annuity at ~2% rates is a bit under 10
        assert 8.0 < gross_annuity(pay, curve) < 10.0
