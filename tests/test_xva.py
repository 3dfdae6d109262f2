import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxva.collateral import CollateralState
from cxva.curves import PartyCurves, RateCurve
from cxva.discounting import EffectiveRateSpec, blend_rate
from cxva.exposure import (DeterministicModel, ExposureProfile, exposure_profile,
                           generate_portfolio)
from cxva.xva import (MAX_QUADRATURE_STEPS, XvaError, XvaReport, _log_mean, decompose,
                      to_running_spread)

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

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, 0.5, math.nan], [math.nan, 1.0]])
    def test_nan_grid_rejected(self, spec_factory, grid):
        with pytest.raises(XvaError, match="must start at 0 and increase"):
            decompose(flat_profile(horizon=1.0), spec_factory(), grid=np.array(grid))


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


def set_grid_decompose(profile, spec, n_steps=200, grid=None) -> dict:
    """decompose in its earlier form, the reference the shared curve
    integrals must match bit for bit: the grid built through a set and
    sorted, and each side's curves integrated over (grid[:-1], grid[1:])."""
    if grid is None:
        horizon = profile.horizon
        knots = set(np.linspace(0.0, horizon, n_steps + 1))
        knots.update(t for t in profile.times if 0.0 < t < horizon)
        curves = [spec.risk_free]
        for side in (spec.side(+1), spec.side(-1)):
            curves += [side.bond, side.liquidity, side.spread]
        for c in curves:
            knots.update(t for t in c.tenors if 0.0 < t < horizon)
        grid = np.array(sorted(knots))
    ends = grid[:-1], grid[1:]
    i_r = spec.risk_free.integral(*ends).tolist()
    parts = []
    for sign, exposure in ((+1, profile.epe), (-1, profile.ene)):
        side = spec.side(sign)
        eta, chi = side.eta, side.chi
        default = funding = lva = colva = 0.0
        df = 1.0
        values = np.interp(grid, profile.times, exposure).tolist()
        integrals = [c.integral(*ends).tolist() for c in (side.bond, side.liquidity, side.spread)]
        for k, (i_rf, i_bond, i_mu, i_s) in enumerate(zip(i_r, *integrals)):
            g0 = values[k] * df
            df *= math.exp(-blend_rate(i_bond, i_mu, i_rf, i_s, eta, chi))
            lm = _log_mean(g0, values[k + 1] * df)
            default += (1.0 - eta) * (i_bond - i_mu) * lm
            funding += (1.0 - eta) * (i_mu - i_rf) * lm
            lva += eta * ((1.0 - chi) * (i_mu - i_rf) + chi * i_s) * lm
            colva += eta * chi * i_s * lm
        parts.append((default, funding, lva, colva))
    (cva, cfa, lva_c, colva_c), (dva, dfa, lva_b, colva_b) = parts
    cra = cva - dva + cfa - dfa
    xva = cra + (lva_c - lva_b)
    return dict(cva=cva, dva=dva, cfa=cfa, dfa=dfa, lva=lva_c - lva_b,
                colva=colva_c - colva_b, cra=cra, xva=xva, npv=profile.mtm0 - xva)


def bits(report: dict) -> dict:
    return {k: float(v).hex() for k, v in report.items()}


POSTER = PartyCurves(bond=RateCurve.from_nodes([(0.5, 0.020), (3.0, 0.026), (12.0, 0.034)]),
                     liquidity=RateCurve.from_nodes([(1.0, 0.015), (7.0, 0.024), (25.0, 0.031)]))
OTHER = PartyCurves(bond=RateCurve.from_nodes([(2.0, 0.045), (15.0, 0.05)]),
                    hazard=RateCurve.from_nodes([(4.0, 0.01), (20.0, 0.012)]))
SPREAD_C = RateCurve.from_nodes([(2.0, 0.004), (9.0, 0.007)])
SPREAD_B = RateCurve.from_nodes([(0.75, 0.002), (6.0, 0.005)])


def quadrature_specs(risk_free) -> dict:
    """An optimizer-style spec (one poster on both sides, one repo spread),
    one whose sides differ in every curve, eta and chi, and comingled cash."""
    cash = RateCurve.from_nodes([(1.0, 0.013), (10.0, 0.025)])
    return {
        "optimizer": EffectiveRateSpec(
            party_b=POSTER, party_c=POSTER, risk_free=risk_free, mode="noncash",
            state=CollateralState(eta_b=0.7, eta_c=0.7, chi_b=0.4, chi_c=0.4),
            repo_spread_c=SPREAD_C),
        "sides_differ": EffectiveRateSpec(
            party_b=POSTER, party_c=OTHER, risk_free=risk_free, mode="noncash",
            state=CollateralState(eta_b=0.3, eta_c=0.8, chi_b=0.9, chi_c=0.25),
            repo_spread_c=SPREAD_C, repo_spread_b=SPREAD_B),
        "cash_comingled": EffectiveRateSpec(
            party_b=OTHER, party_c=POSTER, risk_free=risk_free, mode="cash_comingled",
            state=CollateralState(eta_b=0.5, eta_c=0.6, chi_b=1.0, chi_c=0.5),
            cash_rate=cash),
    }


@pytest.fixture
def mixed_profile():
    """EPE and ENE both live, as a Monte Carlo profile's are, with a stretch
    of zero ENE (the log mean's arithmetic fallback)."""
    times = np.linspace(0.0, 12.3, 41)
    epe = 0.5 + 4.0 * np.sqrt(times) * np.exp(-0.15 * times)
    ene = 0.2 + 3.0 * np.sqrt(times) * np.exp(-0.25 * times)
    ene[30:35] = 0.0
    return ExposureProfile(times, epe, ene, 0.3, 40.0)


class TestQuadratureCurveWork:
    @pytest.mark.parametrize("name", ["optimizer", "sides_differ", "cash_comingled"])
    @pytest.mark.parametrize("n_steps", [1, 7, 61, 200])
    def test_matches_set_grid_form_bitwise(self, ois_sloped, mixed_profile, name, n_steps):
        spec = quadrature_specs(ois_sloped)[name]
        got = decompose(mixed_profile, spec, n_steps=n_steps).to_dict()
        assert bits(got) == bits(set_grid_decompose(mixed_profile, spec, n_steps=n_steps))

    @pytest.mark.parametrize("name", ["optimizer", "sides_differ", "cash_comingled"])
    def test_explicit_grid_matches_bitwise(self, ois_sloped, mixed_profile, name):
        spec = quadrature_specs(ois_sloped)[name]
        rng = np.random.default_rng(5)
        horizon = mixed_profile.horizon
        grid = np.concatenate(([0.0], np.sort(rng.uniform(0.0, horizon, 37)), [horizon]))
        got = decompose(mixed_profile, spec, grid=grid).to_dict()
        assert bits(got) == bits(set_grid_decompose(mixed_profile, spec, grid=grid))

    @pytest.mark.parametrize("name, calls", [("optimizer", 4), ("sides_differ", 7),
                                             ("cash_comingled", 6)])
    def test_each_distinct_curve_integrated_once(self, ois_sloped, mixed_profile, monkeypatch,
                                                 name, calls):
        # comingled cash funds both sides at one r_L - r curve
        spec = quadrature_specs(ois_sloped)[name]
        seen = []
        integral = RateCurve.integral

        def counted(curve, t1, t2):
            seen.append(curve)
            return integral(curve, t1, t2)

        monkeypatch.setattr(RateCurve, "integral", counted)
        decompose(mixed_profile, spec, n_steps=61)
        assert len(seen) == calls == len({id(c) for c in seen})

    @pytest.mark.parametrize("bad", [0, -3, MAX_QUADRATURE_STEPS + 1, True, 10.5, 200.0])
    def test_n_steps_checked(self, spec_factory, bad):
        # n_steps = 0 used to drop the last segment (a 10 y flat CVA of 7.887
        # against 8.639)
        with pytest.raises(XvaError, match="n_steps must be an integer in"):
            decompose(flat_profile(horizon=10.0), spec_factory(), n_steps=bad)

    def test_n_steps_ends_accepted(self, spec_factory):
        spec = spec_factory(mode="uncollateralized")
        one = decompose(flat_profile(horizon=10.0, n=2), spec, n_steps=1)
        most = decompose(flat_profile(horizon=10.0, n=2), spec, n_steps=MAX_QUADRATURE_STEPS)
        assert one.cva == pytest.approx(most.cva, rel=1e-12) and one.cva > 8.0
