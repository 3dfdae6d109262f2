import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxva.collateral import CollateralAsset
from cxva.curves import RateCurve
from cxva.repo import (RepoModelError, RepoModelParams, breakeven_spread,
                       repo_curve, spread_curve)


@pytest.fixture
def params():
    return RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.001, "mu0"),
                           hazard=RateCurve.flat(0.02, "hazard"))


@pytest.fixture
def ust10():
    return CollateralAsset("UST_10y", 1.0, 75.0, 0.02, 0.03, 0.0,
                           {"AA": 0.0008, "A": 0.0017, "BBB": 0.004, "BB": 0.008})


class TestBreakevenSpread:
    def test_table_style_value(self, params):
        # RoE 10% on 0.4% economic capital plus 10bp funding liquidity
        assert breakeven_spread(params, 0.004, 1.0) == pytest.approx(0.0014, rel=1e-12)

    def test_degenerate_zero(self):
        p = RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.0),
                            hazard=RateCurve.flat(0.02))
        assert breakeven_spread(p, 0.0, 1.0) == 0.0

    def test_gap_loss_term(self):
        p = RepoModelParams(roe=0.0, mu0_curve=RateCurve.flat(0.0),
                            hazard=RateCurve.flat(0.02), expected_gap_loss=0.01)
        assert breakeven_spread(p, 0.0, 1.0) == pytest.approx(0.0002, rel=1e-12)

    def test_negative_ec_rejected(self, params):
        with pytest.raises(RepoModelError):
            breakeven_spread(params, -0.001, 1.0)

    def test_affine_in_ec_with_slope_roe(self, params):
        f0 = breakeven_spread(params, 0.004, 5.0)
        f1 = breakeven_spread(params, 1.004, 5.0)
        assert abs((f1 - f0) - params.roe) < 1e-14

    def test_affine_in_el_with_slope_hazard(self):
        base = dict(roe=0.10, mu0_curve=RateCurve.flat(0.001),
                    hazard=RateCurve.flat(0.02))
        f0 = breakeven_spread(RepoModelParams(expected_gap_loss=0.0, **base), 0.004, 5.0)
        f1 = breakeven_spread(RepoModelParams(expected_gap_loss=1.0, **base), 0.004, 5.0)
        assert abs((f1 - f0) - 0.02) < 1e-14

    @given(st.floats(0.0, 0.1), st.floats(0.0, 0.1), st.floats(0.1, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, ec, el, t):
        p = RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.001),
                            hazard=RateCurve.flat(0.02), expected_gap_loss=el)
        assert breakeven_spread(p, ec, t) >= 0.0


class TestSpreadCurve:
    def test_flat_inputs_flat_curve(self, params):
        curve = spread_curve(params, 0.004, (0.25, 1.0, 5.0, 30.0))
        values = {curve.zero_rate(t) for t in (0.25, 1.0, 5.0, 30.0)}
        assert len({round(v, 15) for v in values}) == 1

    def test_mu0_term_structure_carries_through(self):
        # 10bp at 3m to 50bp at 30y Libor-OIS proxy
        mu0 = RateCurve.from_nodes([(0.25, 0.001), (30.0, 0.005)], "mu0")
        p = RepoModelParams(roe=0.10, mu0_curve=mu0, hazard=RateCurve.flat(0.0))
        curve = spread_curve(p, 0.004, (0.25, 30.0))
        assert curve.zero_rate(30.0) - curve.zero_rate(0.25) == pytest.approx(
            0.004, rel=1e-12)

    def test_nodes_equal_breakeven_spread(self):
        # term structures in both mu0 and the hazard, a gap loss, and
        # tenors before, between, on and beyond their nodes
        p = RepoModelParams(roe=0.12, mu0_curve=RateCurve.from_nodes(
                                [(0.5, 0.001), (2.0, 0.0023), (10.0, 0.0041)]),
                            hazard=RateCurve.from_nodes([(1.0, 0.011), (7.0, 0.017)]),
                            expected_gap_loss=0.003)
        tenors = (0.1, 0.25, 0.5, 1.0, 1.7, 2.0, 3.0, 5.0, 7.0, 10.0, 30.0, 50.0)
        curve = spread_curve(p, 0.0042, tenors)
        assert curve.tenors == tenors
        assert curve.rates == tuple(breakeven_spread(p, 0.0042, t) for t in tenors)

    @pytest.mark.parametrize("ec, tenors, error, message", [
        (-0.001, (0.25, 1.0), RepoModelError, "economic capital"),
        (0.004, (0.25, 0.0), RepoModelError, "tenor"),
        (0.004, (-1.0, 1.0), RepoModelError, "tenor"),
        (0.004, (float("-inf"),), RepoModelError, "tenor"),
        (0.004, (1.0, float("nan")), RepoModelError, "tenor"),
        (0.004, (1.0, float("inf")), RepoModelError, "tenor"),
    ])
    def test_errors_as_breakeven_spread(self, params, ec, tenors, error, message):
        with pytest.raises(error, match=message):
            spread_curve(params, ec, tenors)
        # the error of the first failing call, tenor by tenor
        with pytest.raises(error, match=message):
            for t in tenors:
                breakeven_spread(params, ec, t)

    def test_flat_extrapolation(self, params):
        curve = spread_curve(params, 0.0, (0.25, 1.0))
        assert curve.zero_rate(40.0) == pytest.approx(curve.zero_rate(1.0), rel=1e-12)


class TestRepoCurve:
    def test_adds_risk_free(self, params, ust10):
        # the spread over risk-free; `cxva repo-curve` adds the risk-free
        # zero rate (checked in test_cli.py)
        curve = repo_curve(params, ust10, "BBB", (0.25, 1.0, 5.0))
        assert curve.zero_rate(1.0) == pytest.approx(0.0014 + 0.02 * 0.0, rel=1e-12)
        assert curve.zero_rate(5.0) == pytest.approx(breakeven_spread(params, 0.004, 5.0),
                                                     rel=1e-12)

    def test_unknown_rating(self, params, ust10):
        with pytest.raises(KeyError):
            repo_curve(params, ust10, "CCC", (1.0,))

    def test_spread_monotone_in_rating(self, params, ust10):
        rates = [repo_curve(params, ust10, r, (1.0,)).zero_rate(1.0)
                 for r in ("AA", "A", "BBB", "BB")]
        assert all(a < b for a, b in zip(rates, rates[1:]))
