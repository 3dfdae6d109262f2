import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxva.curves import PartyCurves, RateCurve
from cxva.exposure import (DeterministicModel, ExposureProfile, exposure_profile,
                           generate_portfolio)
from cxva.xva import XvaError, XvaReport, decompose, to_running_spread

from conftest import make_spec
from oracles import colva_bk, martingale_epe_profile


def flat_profile(epe=100.0, ene=0.0, horizon=1.0, n=5, annuity=1.0):
    times = np.linspace(0.0, horizon, n)
    return ExposureProfile(times, np.full(n, epe), np.full(n, ene),
                           epe - ene, annuity)


@pytest.fixture
def payable_portfolio(ois_sloped):
    book = generate_portfolio(200, 0.9, (0.25, 30.0), 0.01, seed=42,
                              curve=ois_sloped, rate_offset=0.0175)
    return exposure_profile(book, DeterministicModel(), 61, ois_sloped)


class TestDecomposeStructure:
    def test_perfect_cash_all_zero(self, spec_factory, ois_flat):
        spec = spec_factory(eta=1.0, mode="cash_comingled", cash_rate=ois_flat)
        report = decompose(flat_profile(), spec)
        for k in ("cva", "dva", "cfa", "dfa", "lva", "colva", "xva"):
            assert getattr(report, k) == 0.0

    def test_full_collateral_kills_cra(self, spec_factory):
        spec = spec_factory(eta=1.0, chi=1.0, repo_spread=0.01)
        report = decompose(flat_profile(epe=50.0, ene=20.0), spec)
        assert report.cva == 0.0 and report.dva == 0.0
        assert report.cfa == 0.0 and report.dfa == 0.0
        assert report.xva == report.lva != 0.0

    def test_uncollateralized_kills_lva(self, spec_factory):
        spec = spec_factory(mode="uncollateralized")
        report = decompose(flat_profile(epe=50.0, ene=20.0), spec)
        assert report.lva == 0.0 and report.colva == 0.0
        assert report.xva == report.cra != 0.0

    def test_additivity_identity(self, spec_factory):
        spec = spec_factory(eta=0.5, chi=0.8, repo_spread=0.006)
        r = decompose(flat_profile(epe=70.0, ene=35.0, horizon=8.0), spec)
        assert abs(r.cva - r.dva + r.cfa - r.dfa + r.lva - r.xva) \
            <= 1e-12 * max(1.0, abs(r.xva))

    def test_npv_is_mtm_minus_xva(self, spec_factory):
        spec = spec_factory(eta=0.5, chi=1.0, repo_spread=0.01)
        profile = flat_profile(epe=80.0, ene=10.0)
        r = decompose(profile, spec)
        assert r.npv == pytest.approx(profile.mtm0 - r.xva, abs=1e-12)

    def test_grid_validation(self, spec_factory):
        spec = spec_factory()
        with pytest.raises(XvaError):
            decompose(flat_profile(), spec, grid=np.array([0.5, 1.0]))
        with pytest.raises(XvaError):
            decompose(flat_profile(horizon=1.0), spec, grid=np.array([0.0, 2.0]))


class TestDecomposeValues:
    def test_uncollateralized_single_sign_closed_form(self, spec_factory, ois_flat):
        # epe follows the martingale profile: U = V0*(1 - exp(-(r_c - r) T)),
        # exact for the exponential quadrature
        spec = spec_factory(mode="uncollateralized")
        v0 = 0.9
        profile = martingale_epe_profile(v0, ois_flat, np.linspace(0.0, 1.0, 11))
        r = decompose(profile, spec, grid=profile.times)
        assert r.xva == pytest.approx(v0 * (1.0 - math.exp(-0.03)), rel=1e-12)
        assert r.npv == pytest.approx(v0 * math.exp(-0.03), rel=1e-12)

    def test_zcb_prices_at_unsecured_rate_exactly(self, party_b, party_c):
        # unit payoff from C, r_c = 4% flat, T = 1: quadrature value is
        # exp(-0.04) to machine precision
        risk_free = RateCurve.flat(0.01)
        spec = make_spec(party_b, party_c, risk_free, mode="uncollateralized")
        v_star = risk_free.df(1.0)
        profile = martingale_epe_profile(v_star, risk_free, np.linspace(0.0, 1.0, 21))
        r = decompose(profile, spec, grid=profile.times)
        assert r.npv == pytest.approx(math.exp(-0.04), rel=1e-12)

    def test_payable_lva_is_benefit(self, spec_factory, payable_portfolio):
        spec = spec_factory(eta=1.0, chi=1.0, repo_spread=0.001)
        r = decompose(payable_portfolio, spec)
        assert r.lva < 0.0  # posting party's cost is the holder's benefit
        assert abs(r.npv) < abs(payable_portfolio.mtm0)

    def test_receivable_lva_is_cost(self, spec_factory):
        spec = spec_factory(eta=1.0, chi=1.0, repo_spread=0.001)
        r = decompose(flat_profile(epe=100.0, ene=0.0, horizon=5.0), spec)
        assert r.lva > 0.0


class TestLvaReceivable:
    """LVA and colVA of a pure receivable (ene = 0)."""

    def test_comingled_equal_haircuts_lva_equals_colva(self, spec_factory):
        spec = spec_factory(eta=1.0, chi=1.0, repo_spread=0.002)
        r = decompose(flat_profile(epe=100.0), spec)
        assert r.lva == pytest.approx(r.colva, rel=1e-14)

    def test_cash_at_risk_free_has_zero_lva(self, spec_factory, ois_flat):
        spec = spec_factory(eta=1.0, mode="cash_comingled", cash_rate=ois_flat)
        r = decompose(flat_profile(epe=100.0), spec)
        assert r.lva == 0.0 and r.colva == 0.0

    def test_flat_closed_form(self, party_b):
        # flat epe=100 on [0,1], eta=chi=1, 10bp spread, r=1%:
        # colva = 100*0.001*(1-exp(-0.011))/0.011
        party_c = PartyCurves(bond=RateCurve.flat(0.011),
                              liquidity=RateCurve.flat(0.011))
        spec = make_spec(party_b, party_c, RateCurve.flat(0.01),
                         eta=1.0, chi=1.0, repo_spread=0.001)
        r = decompose(flat_profile(epe=100.0), spec)
        expect = 100.0 * 0.001 * (1.0 - math.exp(-0.011)) / 0.011
        assert r.colva == pytest.approx(expect, rel=1e-12)
        assert r.colva == pytest.approx(0.09945, rel=1e-4)
        assert r.lva == pytest.approx(r.colva, rel=1e-12)

    def test_segregated_liquidity_part_only(self, spec_factory, ois_flat):
        spec = spec_factory(eta=1.0, mode="cash_segregated", cash_rate=ois_flat)
        r = decompose(flat_profile(epe=100.0, horizon=2.0), spec)
        assert r.colva == 0.0
        assert r.lva > 0.0  # mu_c - r = 1% liquidity basis

    def test_segregated_cash_is_initial_margin(self, spec_factory, payable_portfolio):
        # both are protected and unfunded (chi = 0): the cash curve, whose
        # nodes would otherwise add quadrature knots, is not read
        cash = RateCurve.from_nodes([(0.7, 0.012), (13.0, 0.02)])
        for eta, chi in ((1.0, 1.0), (0.6, 0.3)):
            seg = spec_factory(eta=eta, chi=chi, mode="cash_segregated", cash_rate=cash)
            im = spec_factory(eta=eta, chi=chi, mode="initial_margin", cash_rate=cash)
            assert decompose(payable_portfolio, seg) == decompose(payable_portfolio, im)


class TestColvaBk:
    def test_zero_spread(self, ois_flat):
        profile = flat_profile(epe=50.0)
        assert colva_bk(profile, RateCurve.flat(0.0), RateCurve.flat(0.01),
                        RateCurve.flat(0.01), ois_flat) == 0.0

    def test_reduces_to_engine_colva_without_hazards(self, spec_factory, ois_flat):
        # lambda_B = lambda_C = 0 matches the engine's colVA at eta=chi=1 up
        # to first order in the spread (the engine discounts at r_p = r + s,
        # the survival-discounted variant at r): relative gap is about s*T/2
        s = 0.001
        horizon = 1.0
        profile = flat_profile(epe=100.0, horizon=horizon)
        spec = spec_factory(eta=1.0, chi=1.0, repo_spread=s)
        ours = decompose(profile, spec).colva
        theirs = colva_bk(profile, RateCurve.flat(s), RateCurve.flat(0.0),
                          RateCurve.flat(0.0), ois_flat)
        assert theirs == pytest.approx(ours, rel=s * horizon)

    def test_hazard_discounting_shrinks(self, ois_flat):
        profile = flat_profile(epe=100.0, horizon=5.0)
        spread = RateCurve.flat(0.001)
        lam0 = colva_bk(profile, spread, RateCurve.flat(0.0), RateCurve.flat(0.0),
                        ois_flat)
        lam2 = colva_bk(profile, spread, RateCurve.flat(0.01), RateCurve.flat(0.01),
                        ois_flat)
        assert abs(lam2) < abs(lam0)


class TestRunningSpread:
    def test_zero_maps_to_zero(self, spec_factory, ois_flat):
        spec = spec_factory(eta=1.0, mode="cash_comingled", cash_rate=ois_flat)
        r = to_running_spread(decompose(flat_profile(annuity=250.0), spec), 250.0)
        assert r.bp["xva"] == 0.0

    def test_round_trip(self, spec_factory):
        spec = spec_factory(eta=0.5, chi=1.0, repo_spread=0.01)
        profile = flat_profile(epe=80.0, ene=10.0, annuity=321.0)
        r = to_running_spread(decompose(profile, spec), profile.annuity)
        assert r.bp["xva"] * profile.annuity / 1e4 == pytest.approx(r.xva, rel=1e-12)

    def test_annuity_must_be_positive(self, spec_factory):
        r = decompose(flat_profile(), spec_factory())
        with pytest.raises(XvaError):
            to_running_spread(r, 0.0)


class TestReportInvariants:
    def test_identities_enforced(self):
        with pytest.raises(XvaError):
            XvaReport(cva=1.0, dva=0.0, cfa=0.0, dfa=0.0, lva=0.0, colva=0.0,
                      cra=0.5, xva=0.5, npv=0.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.02),
           st.floats(10.0, 200.0), st.floats(0.0, 150.0))
    @settings(max_examples=60, deadline=None)
    def test_additivity_random_specs(self, e, x, s, epe, ene):
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        spec = make_spec(party_b, party_c, RateCurve.flat(0.01),
                         eta=e, chi=x, repo_spread=s)
        r = decompose(flat_profile(epe=epe, ene=ene, horizon=7.0), spec)
        assert abs(r.cva - r.dva + r.cfa - r.dfa + r.lva - r.xva) \
            <= 1e-12 * max(1.0, abs(r.xva))
        assert abs(r.cra - (r.cva - r.dva + r.cfa - r.dfa)) \
            <= 1e-12 * max(1.0, abs(r.cra))


class TestCollateralizationSweep:
    def test_monotone_cra_down_lva_up(self, spec_factory, payable_portfolio):
        etas = np.linspace(0.0, 1.0, 11)
        reports = [decompose(payable_portfolio,
                             spec_factory(eta=float(e), chi=1.0, repo_spread=0.01))
                   for e in etas]
        cra = np.array([abs(r.cra) for r in reports])
        lva = np.array([abs(r.lva) for r in reports])
        assert np.all(np.diff(cra) <= 1e-12)
        assert np.all(np.diff(lva) >= -1e-12)
        assert cra[-1] == 0.0
        assert lva[0] == 0.0
