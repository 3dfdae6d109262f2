import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxva.collateral import (CollateralAsset, CollateralError, CollateralState,
                             blend_spread_curve, chi)
from cxva.curves import RateCurve


class TestChi:
    def test_repo_haircut_below_csa(self):
        # UST_30y style: 3% repo haircut, 4% CSA haircut
        assert chi(0.03, 0.04) == 1.0

    def test_equal_haircuts(self):
        assert chi(0.07, 0.07) == 1.0

    def test_mismatch(self):
        assert chi(0.10, 0.05) == pytest.approx(1.0 - 0.05 / 0.95, rel=1e-12)

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, h_csa, hp1, hp2):
        lo, hi = sorted((hp1, hp2))
        assert chi(hi, h_csa) <= chi(lo, h_csa) + 1e-12

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.98), st.floats(0.0, 0.98))
    @settings(max_examples=100, deadline=None)
    def test_increasing_in_csa_haircut(self, h_repo, hc1, hc2):
        lo, hi = sorted((hc1, hc2))
        assert chi(h_repo, hi) >= chi(h_repo, lo) - 1e-12


def flat_blend(assets):
    """blend_spread_curve on flat spreads: entries are (market value, h_csa,
    h_repo, spread); returns (protected value, chi, funded spread)."""
    protection, x, curve = blend_spread_curve(
        [(mv, h_c, h_p, RateCurve.flat(s)) for mv, h_c, h_p, s in assets])
    return protection, x, curve.zero_rate(1.0)


class TestPortfolioBlend:
    def test_single_asset_identity(self):
        protection, x, funded = flat_blend([(100.0, 0.05, 0.03, 0.001)])
        assert protection == pytest.approx(95.0, rel=1e-12)
        assert x == 1.0
        assert funded == pytest.approx(0.001, rel=1e-12)

    def test_two_asset_hand_value(self):
        # both weights 0.5: asset1 (h_p=0.10, h_c=0.05, 100bp), asset2
        # (h_p=0.03, h_c=0.04, 20bp)
        protection, x, funded = flat_blend([(50.0 / 0.95, 0.05, 0.10, 0.01),
                                            (50.0 / 0.96, 0.04, 0.03, 0.002)])
        assert protection == pytest.approx(100.0, rel=1e-12)
        assert 1.0 - x == pytest.approx(0.5 * 0.05 / 0.95, rel=1e-12)
        # the effective rate multiplies the funded spread by chi
        assert x * funded == pytest.approx(
            0.5 * (1.0 - 0.05 / 0.95) * 0.01 + 0.5 * 0.002, rel=1e-12)
        assert x * funded == pytest.approx(0.0057368, rel=1e-4)

    def test_all_cash(self):
        protection, x, funded = flat_blend([(100.0, 0.0, 0.0, 0.0)])
        assert protection == 100.0
        assert x == 1.0
        assert funded == 0.0

    def test_single_asset_reduces_to_chi_times_spread(self):
        h_c, h_p, s = 0.08, 0.12, 0.004
        protection, x, funded = flat_blend([(10.0 / (1 - h_c), h_c, h_p, s)])
        assert protection == pytest.approx(10.0, rel=1e-12)
        assert x == pytest.approx(chi(h_p, h_c), rel=1e-12)
        assert funded == pytest.approx(s, rel=1e-12)
        assert x * funded == pytest.approx(chi(h_p, h_c) * s, rel=1e-12)

    def test_bad_protection(self):
        # a posting with no CSA-protected value
        with pytest.raises(CollateralError):
            flat_blend([(0.0, 0.0, 0.0, 0.0)])


class TestBlendSpreadCurve:
    def test_matches_scalar_blend_for_flat_curves(self):
        s1 = RateCurve.flat(0.01)
        s2 = RateCurve.flat(0.002)
        _, x, curve = blend_spread_curve(
            [(50.0 / 0.95, 0.05, 0.10, s1), (50.0 / 0.96, 0.04, 0.03, s2)])
        # scalar blend: weights 0.5 each, asset1 funded on 1 - 0.05/0.95
        assert x == pytest.approx(1.0 - 0.5 * 0.05 / 0.95, rel=1e-12)
        scalar = (0.5 * (1.0 - 0.05 / 0.95) * 0.01 + 0.5 * 0.002) / x
        for t in (0.5, 2.0, 10.0):
            assert curve.zero_rate(t) == pytest.approx(scalar, rel=1e-12)


class TestState:
    def test_range_validation(self):
        with pytest.raises(CollateralError):
            CollateralState(eta_c=1.5)


class TestAsset:
    def test_validation(self):
        with pytest.raises(CollateralError):
            CollateralAsset("x", -1.0, 1.0, 0.0, 0.0, 0.0, {})
        with pytest.raises(CollateralError):
            CollateralAsset("x", 1.0, 1.0, 1.0, 0.0, 0.0, {})
