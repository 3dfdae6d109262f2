import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxva.curves import PartyCurves, RateCurve
from cxva.collateral import CollateralState
from cxva.discounting import MODES, EffectiveRateSpec, counterparty_risk_spec
from conftest import effective_rate, make_spec


class TestEffectiveRate:
    def test_fully_funded_noncash_gives_repo_rate(self, spec_factory):
        spec = spec_factory(eta=1.0, chi=1.0, mode="noncash", repo_spread=0.012)
        # r_e = r + spread on both sides
        assert effective_rate(spec, 0.5, +1) == pytest.approx(0.022, rel=1e-12)
        assert effective_rate(spec, 0.5, -1) == pytest.approx(0.022, rel=1e-12)

    def test_uncollateralized_gives_unsecured_rate(self, spec_factory):
        spec = spec_factory(mode="uncollateralized")
        assert effective_rate(spec, 1.0, +1) == pytest.approx(0.04, rel=1e-12)
        assert effective_rate(spec, 1.0, -1) == pytest.approx(0.0225, rel=1e-12)

    def test_full_segregation_gives_liquidity_rate(self, spec_factory, ois_flat):
        spec = spec_factory(eta=1.0, mode="cash_segregated", cash_rate=ois_flat)
        assert effective_rate(spec, 1.0, +1) == pytest.approx(0.02, rel=1e-12)
        assert effective_rate(spec, 1.0, -1) == pytest.approx(0.015, rel=1e-12)

    def test_initial_margin_forces_unfunded(self, spec_factory):
        im = spec_factory(eta=1.0, chi=1.0, mode="initial_margin", repo_spread=0.01)
        seg = spec_factory(eta=1.0, mode="cash_segregated",
                           cash_rate=RateCurve.flat(0.01))
        assert effective_rate(im, 2.0, +1) == pytest.approx(
            effective_rate(seg, 2.0, +1), rel=1e-12)

    def test_cash_comingled_blend(self, spec_factory):
        cash = RateCurve.flat(0.012)
        spec = spec_factory(eta=0.4, mode="cash_comingled", cash_rate=cash)
        # r_ec = 0.6*r_c + 0.4*r_L
        assert effective_rate(spec, 1.0, +1) == pytest.approx(
            0.6 * 0.04 + 0.4 * 0.012, rel=1e-12)

    def test_side_specific_repo_spread(self, spec_factory):
        spec = spec_factory(eta=1.0, chi=1.0, repo_spread=0.01, repo_spread_b=0.002)
        assert effective_rate(spec, 1.0, +1) == pytest.approx(0.02, rel=1e-12)
        assert effective_rate(spec, 1.0, -1) == pytest.approx(0.012, rel=1e-12)

    def test_b_side_spread_alone(self, party_b, party_c, ois_flat):
        # an omitted C-side spread is zero and leaves the given B side alone
        spec = EffectiveRateSpec(party_b, party_c, ois_flat, CollateralState(),
                                 repo_spread_b=0.01)
        assert effective_rate(spec, 1.0, -1) == pytest.approx(0.02, rel=1e-12)
        assert effective_rate(spec, 1.0, +1) == pytest.approx(0.01, rel=1e-12)
        assert (spec.repo_spread_c, spec.repo_spread_b) == (None, 0.01)

    @pytest.mark.parametrize("mode", MODES)
    def test_counterparty_risk_twin(self, spec_factory, mode):
        # each side keeps the eta its mode resolved; that share earns r
        spec = spec_factory(eta=0.7, chi=0.4, eta_b=0.3, mode=mode, repo_spread=0.01,
                            cash_rate=RateCurve.flat(0.012))
        twin = counterparty_risk_spec(spec)
        for side, unsecured in ((+1, 0.04), (-1, 0.0225)):
            eta = spec.side(side).eta
            assert twin.side(side).eta == eta
            assert effective_rate(twin, 1.0, side) == pytest.approx(
                (1.0 - eta) * unsecured + eta * 0.01, rel=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_convex_combination_bounds(self, e, x):
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        spec = make_spec(party_b, party_c, RateCurve.flat(0.01),
                         eta=e, chi=x, repo_spread=0.005)
        r = effective_rate(spec, 1.0, +1)
        corners = (0.04, 0.02, 0.015)  # unsecured, liquidity, funded r+spread
        assert min(corners) - 1e-12 <= r <= max(corners) + 1e-12

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_eta_when_rates_ordered(self, etas):
        # with r_c >= funded rate and chi = 1, r_ec falls as eta rises
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        rates = [effective_rate(
            make_spec(party_b, party_c, RateCurve.flat(0.01), eta=e, chi=1.0,
                      repo_spread=0.005), 1.0, +1) for e in sorted(etas)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_chi_when_liquidity_above_funded(self, chis):
        # with mu_c >= r + spread, shifting weight from the liquidity leg to
        # the funded leg lowers r_ec
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        rates = [effective_rate(
            make_spec(party_b, party_c, RateCurve.flat(0.01), eta=0.8, chi=x,
                      repo_spread=0.005), 1.0, +1) for x in sorted(chis)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_liquidity_below_risk_free_rejected(self):
        party = PartyCurves(bond=RateCurve.flat(0.02),
                            liquidity=RateCurve.flat(0.002))
        with pytest.raises(Exception):
            make_spec(party, party, RateCurve.flat(0.01))


class TestFromCsa:
    """Cash CSA terms: collateralization target as eta, segregation per
    posting direction as chi = 0 (comingled chi = 1)."""

    def test_comingled_terms(self, party_b, party_c, ois_flat):
        spec = make_spec(party_b, party_c, ois_flat, eta=0.4, chi=1.0,
                         mode="cash_comingled", cash_rate=RateCurve.flat(0.012))
        assert effective_rate(spec, 1.0, +1) == pytest.approx(
            0.6 * 0.04 + 0.4 * 0.012, rel=1e-12)

    def test_fully_segregated_terms(self, party_b, party_c, ois_flat):
        spec = make_spec(party_b, party_c, ois_flat, eta=1.0, chi=0.0,
                         mode="cash_segregated", cash_rate=ois_flat)
        assert effective_rate(spec, 1.0, +1) == pytest.approx(0.02, rel=1e-12)

    def test_mixed_segregation(self, party_b, party_c, ois_flat):
        # C posts into a segregated account, B's posting comingles
        spec = make_spec(party_b, party_c, ois_flat, eta=1.0, chi=0.0, chi_b=1.0,
                         mode="cash_comingled", cash_rate=RateCurve.flat(0.012))
        assert effective_rate(spec, 1.0, +1) == pytest.approx(0.02, rel=1e-12)
        assert effective_rate(spec, 1.0, -1) == pytest.approx(0.012, rel=1e-12)

