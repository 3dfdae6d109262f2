import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxva.curves import CurveError, PartyCurves, RateCurve, combine_curves


class TestZeroRate:
    def test_single_node_lookup(self):
        curve = RateCurve.from_nodes([(1.0, 0.04)])
        assert curve.zero_rate(1.0) == pytest.approx(0.04, abs=0)

    def test_flat_extrapolation(self):
        curve = RateCurve.from_nodes([(1.0, 0.04)])
        assert curve.zero_rate(10.0) == pytest.approx(0.04, rel=1e-15)

    def test_log_linear_df_interpolation(self):
        # lnDF(1) = -0.02, lnDF(3) = -0.12; log-linear at t=2 gives
        # lnDF(2) = -0.07, i.e. a 3.5% zero rate (hand-computed oracle)
        curve = RateCurve.from_nodes([(1.0, 0.02), (3.0, 0.04)])
        ln_df2 = 0.5 * (-0.02) + 0.5 * (-0.12)
        assert curve.df(2.0) == pytest.approx(math.exp(ln_df2), rel=1e-15)
        assert curve.zero_rate(2.0) == pytest.approx(-ln_df2 / 2.0, rel=1e-15)
        assert curve.zero_rate(2.0) == pytest.approx(0.035, rel=1e-12)

    def test_round_trips_nodes_exactly(self):
        nodes = [(0.5, 0.012), (2.0, 0.019), (7.0, 0.024), (30.0, 0.031)]
        curve = RateCurve.from_nodes(nodes)
        for t, z in nodes:
            assert curve.zero_rate(t) == pytest.approx(z, rel=1e-14)

    def test_domain_error(self):
        curve = RateCurve.flat(0.02)
        with pytest.raises(CurveError):
            curve.zero_rate(0.0)
        with pytest.raises(CurveError):
            curve.zero_rate(-1.0)

    def test_invalid_nodes(self):
        with pytest.raises(CurveError):
            RateCurve((1.0, 1.0), (0.01, 0.02))
        with pytest.raises(CurveError):
            RateCurve((0.0, 1.0), (0.01, 0.02))
        with pytest.raises(CurveError):
            RateCurve((), ())

    @pytest.mark.parametrize("tenors, rates", [
        ((1.0, 2.0), (float("nan"), 0.01)),
        ((1.0, 2.0), (0.01, float("inf"))),
        ((float("nan"), 2.0), (0.01, 0.01)),
        ((1.0, float("inf")), (0.01, 0.01)),
    ])
    def test_non_finite_nodes(self, tenors, rates):
        with pytest.raises(CurveError, match="finite"):
            RateCurve(tenors, rates)


class TestDiscountFactor:
    def test_flat_closed_form(self):
        curve = RateCurve.flat(0.04)
        assert curve.df(1.0) == pytest.approx(math.exp(-0.04), rel=1e-15)

    def test_identity_at_equal_times(self):
        curve = RateCurve.from_nodes([(1.0, 0.02), (5.0, 0.03)])
        assert curve.df(0.0) == 1.0
        assert curve.integral(2.5, 2.5) == 0.0

    def test_order_error(self):
        curve = RateCurve.flat(0.02)
        with pytest.raises(CurveError):
            curve.df(-1.0)
        with pytest.raises(CurveError):
            curve.integral(2.0, 1.0)

    def test_vectorized(self):
        curve = RateCurve.from_nodes([(1.0, 0.02), (5.0, 0.03)])
        ts = np.array([0.5, 1.0, 3.0, 10.0])
        dfs = curve.df(ts)
        assert dfs.shape == (4,)
        assert dfs[0] == pytest.approx(curve.df(0.5))


@st.composite
def curves(draw, nonneg_forwards=False):
    n = draw(st.integers(min_value=1, max_value=6))
    tenors = sorted(draw(st.lists(st.floats(0.1, 30.0), min_size=n, max_size=n,
                                  unique=True)))
    if nonneg_forwards:
        # build from per-segment forwards so z(t)*t is non-decreasing
        fwds = draw(st.lists(st.floats(0.0, 0.15), min_size=n, max_size=n))
        zts, prev_t, acc = [], 0.0, 0.0
        for t, f in zip(tenors, fwds):
            acc += f * (t - prev_t)
            zts.append(acc)
            prev_t = t
        rates = [zt / t for zt, t in zip(zts, tenors)]
    else:
        rates = draw(st.lists(st.floats(0.0, 0.15), min_size=n, max_size=n))
    return RateCurve(tuple(tenors), tuple(rates))


class TestProperties:
    @given(curves(), st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    @settings(max_examples=100, deadline=None)
    def test_semigroup(self, curve, a, b, c):
        t1, t2, t3 = sorted((a, b, c))
        lhs = curve.df(t3)
        rhs = curve.df(t1) * math.exp(-curve.integral(t1, t2)) * math.exp(-curve.integral(t2, t3))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(curves(nonneg_forwards=True), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_non_increasing(self, curve, a, b):
        # monotone DF requires non-negative forwards, which the strategy builds
        t1, t2 = sorted((a, b))
        assert curve.df(t2) > 0.0
        assert curve.df(t2) <= curve.df(t1) * (1.0 + 1e-12)

    @given(curves())
    @settings(max_examples=50, deadline=None)
    def test_forward_integral_consistency(self, curve):
        # integral equals z(t)*t rebuilt from zero rates
        for t in (0.3, 1.7, 12.0, 35.0):
            assert curve.integral(0.0, t) == pytest.approx(curve.zero_rate(t) * t,
                                                           rel=1e-12, abs=1e-15)


class TestCombine:
    def test_flat_spread_is_parallel_bump(self):
        curve = RateCurve.from_nodes([(1.0, 0.02), (5.0, 0.03)])
        bumped = combine_curves([curve, RateCurve.flat(1e-4)], [1.0, 1.0])
        for t in (0.5, 1.0, 3.0, 10.0):
            assert bumped.zero_rate(t) - curve.zero_rate(t) == pytest.approx(
                1e-4, rel=1e-9)

    def test_weighted_sum_pointwise(self):
        c1 = RateCurve.from_nodes([(1.0, 0.02), (5.0, 0.03)])
        c2 = RateCurve.from_nodes([(2.0, 0.01), (10.0, 0.015)])
        combo = combine_curves([c1, c2], [1.0, -1.0])
        for t in (0.4, 1.0, 1.5, 2.0, 4.0, 7.0, 10.0, 20.0):
            expect = c1.zero_rate(t) - c2.zero_rate(t)
            assert combo.zero_rate(t) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_spread_curve_integrals_are_exact(self):
        c1 = RateCurve.from_nodes([(1.0, 0.02), (5.0, 0.03)])
        c2 = RateCurve.flat(0.01)
        combo = combine_curves([c1, c2], [1.0, -1.0])
        assert combo.integral(0.5, 4.0) == pytest.approx(
            c1.integral(0.5, 4.0) - c2.integral(0.5, 4.0), rel=1e-13)


class TestPartyCurves:
    def test_liquidity_from_hazard_identity(self):
        bond = RateCurve.flat(0.05, "bond_C")
        hazard = RateCurve.flat(0.02, "hazard_C")
        party = PartyCurves(bond=bond, hazard=hazard)
        assert party.liquidity.zero_rate(3.0) == pytest.approx(0.03, rel=1e-12)

    def test_bond_must_dominate_liquidity(self):
        with pytest.raises(CurveError):
            PartyCurves(bond=RateCurve.flat(0.02), liquidity=RateCurve.flat(0.03))

    def test_needs_liquidity_or_hazard(self):
        with pytest.raises(CurveError):
            PartyCurves(bond=RateCurve.flat(0.02))
