import math
from pathlib import Path

import numpy as np
import pytest

from cxva import pde
from cxva.collateral import CollateralState
from cxva.curves import PartyCurves, RateCurve, load_curve_csv
from cxva.discounting import EffectiveRateSpec, effective_rate
from cxva.pde import (GridSpec, OptionSpec, PdeError, PicardConvergenceError,
                      solve, xva_pde)

from conftest import make_spec
from oracles import black_scholes

ATM_CALL = OptionSpec(payoff="call", strike=100.0, maturity=1.0, spot=100.0,
                       vol=0.5)


@pytest.fixture
def uncol_spec(party_b, party_c, ois_flat):
    return make_spec(party_b, party_c, ois_flat, mode="uncollateralized")


@pytest.fixture
def cash_spec(party_b, party_c, ois_flat):
    return make_spec(party_b, party_c, ois_flat, eta=1.0, mode="cash_comingled",
                     cash_rate=ois_flat)


class TestSpecs:
    def test_option_validation(self):
        with pytest.raises(PdeError):
            OptionSpec(payoff="call", strike=-1.0, maturity=1.0, spot=100.0, vol=0.5)
        with pytest.raises(PdeError):
            OptionSpec(payoff="custom", strike=0.0, maturity=1.0, spot=100.0, vol=0.5)

    def test_grid_validation(self):
        with pytest.raises(PdeError):
            GridSpec(s_nodes=10)
        with pytest.raises(PdeError):
            GridSpec(picard_tol=0.0)


class TestKnownValues:
    def test_zcb_prices_at_unsecured_rate(self, uncol_spec):
        zcb = OptionSpec(payoff="zcb", strike=0.0, maturity=1.0, spot=100.0, vol=0.5)
        sol = solve(zcb, uncol_spec, GridSpec(s_nodes=100, t_steps=100))
        assert sol.value == pytest.approx(math.exp(-0.04), rel=1e-6)

    def test_black_scholes_reduction(self, cash_spec):
        sol = solve(ATM_CALL, cash_spec, GridSpec(s_nodes=200, t_steps=200))
        bs = black_scholes(100.0, 100.0, 0.5, 1.0, 0.01)
        assert sol.value == pytest.approx(bs, rel=1e-3)

    def test_degenerate_rates_give_risk_free(self, ois_flat):
        party = PartyCurves(bond=ois_flat, liquidity=ois_flat)
        spec = make_spec(party, party, ois_flat, mode="uncollateralized")
        res = xva_pde(ATM_CALL, spec, GridSpec(s_nodes=100, t_steps=100))
        assert res.u == pytest.approx(0.0, abs=1e-10)

    def test_full_cash_at_risk_free_zero_xva(self, cash_spec):
        res = xva_pde(ATM_CALL, cash_spec, GridSpec(s_nodes=100, t_steps=100))
        assert res.u == 0.0  # identical rate vectors, bitwise equal solves

    def test_put_call_parity_single_sign(self, uncol_spec):
        # long call and long put are both assets: both discount at r_ec = r_c,
        # so C - P = S exp(-(r_c - r) T) - K exp(-r_c T) with r_s = r, q = 0
        grid = GridSpec(s_nodes=300, t_steps=200)
        put = OptionSpec(payoff="put", strike=100.0, maturity=1.0, spot=100.0, vol=0.5)
        c = solve(ATM_CALL, uncol_spec, grid).value
        p = solve(put, uncol_spec, grid).value
        target = 100.0 * math.exp(-0.03) - 100.0 * math.exp(-0.04)
        assert c - p == pytest.approx(target, abs=1e-4)


class TestNumerics:
    def test_grid_convergence_under_point_one_percent(self, spec_factory):
        spec = spec_factory(eta=0.5, chi=1.0, repo_spread=0.01)
        coarse = solve(ATM_CALL, spec, GridSpec(s_nodes=200, t_steps=200)).value
        fine = solve(ATM_CALL, spec, GridSpec(s_nodes=400, t_steps=400)).value
        assert abs(fine - coarse) / abs(fine) < 1e-3

    def test_picard_budget_on_atm_call(self, spec_factory):
        spec = spec_factory(eta=0.5, chi=1.0, repo_spread=0.01)
        sol = solve(ATM_CALL, spec, GridSpec(s_nodes=200, t_steps=200,
                                              picard_tol=1e-10))
        assert sol.max_picard_iters <= 5

    def test_comparison_principle(self, party_b, ois_flat):
        # raising the receivable-side rate never raises the value of a
        # non-negative payoff
        lo = PartyCurves(bond=RateCurve.flat(0.03), liquidity=RateCurve.flat(0.02))
        hi = PartyCurves(bond=RateCurve.flat(0.06), liquidity=RateCurve.flat(0.02))
        v_lo = solve(ATM_CALL, make_spec(party_b, lo, ois_flat,
                                          mode="uncollateralized"),
                     GridSpec(s_nodes=150, t_steps=150)).value
        v_hi = solve(ATM_CALL, make_spec(party_b, hi, ois_flat,
                                          mode="uncollateralized"),
                     GridSpec(s_nodes=150, t_steps=150)).value
        assert v_hi <= v_lo + 1e-12

    def test_picard_failure_raises_with_diagnostics(self, spec_factory):
        # a payoff that changes sign forces at least one sign sweep per step
        spec = spec_factory(mode="uncollateralized")
        fwd = OptionSpec(payoff="custom", strike=0.0, maturity=1.0, spot=100.0,
                         vol=0.5, custom_payoff=((0.0, 500.0), (-100.0, 400.0)))
        with pytest.raises(PicardConvergenceError) as err:
            solve(fwd, spec, GridSpec(s_nodes=100, t_steps=100,
                                      picard_tol=1e-14, picard_max_iter=1))
        assert err.value.iterations == 1
        assert err.value.residual > 0.0


class TestCollateralSchedule:
    def test_value_fraction_schedule_matches_scalar_eta(self, party_b, party_c,
                                                        ois_flat):
        spec_half = make_spec(party_b, party_c, ois_flat, eta=0.5, chi=1.0,
                              repo_spread=0.01)
        spec_sched = make_spec(party_b, party_c, ois_flat, eta=0.0, chi=1.0,
                               repo_spread=0.01)
        grid = GridSpec(s_nodes=150, t_steps=150)
        v_scalar = solve(ATM_CALL, spec_half, grid).value
        v_sched = solve(ATM_CALL, spec_sched, grid,
                        collateral_schedule=lambda t, v: 0.5 * np.abs(v)).value
        assert v_sched == pytest.approx(v_scalar, rel=1e-12)


class TestShortPosition:
    def test_long_dominates_short_across_sweep(self, spec_factory):
        # bid/ask structure: XVA of the long exceeds XVA of the short
        short = OptionSpec(payoff="call", strike=100.0, maturity=1.0, spot=100.0,
                           vol=0.5, position=-1.0)
        grid = GridSpec(s_nodes=120, t_steps=120)
        for eta in (0.0, 0.5, 1.0):
            spec = spec_factory(eta=eta, chi=1.0, repo_spread=0.01)
            u_long = xva_pde(ATM_CALL, spec, grid).u
            u_short = xva_pde(short, spec, grid).u
            assert u_long >= u_short - 1e-12


class TestRateTable:
    """The forwards tabulated once per solve give the solver exactly the
    rates a scalar ``effective_rate`` lookup gives at every step time."""

    OIS = load_curve_csv(Path(__file__).resolve().parent.parent / "scenarios"
                         / "curves" / "ois_sloped.csv", "OIS")
    FINANCING = RateCurve.from_nodes([(0.5, 0.02), (1.5, 0.024), (3.0, 0.021)],
                                     "stock")
    # sign-changing payoff, so both sides' rates are read
    OPTION = OptionSpec(payoff="custom", strike=0.0, maturity=3.0, spot=100.0,
                        vol=0.3, div_yield=0.005, stock_financing=FINANCING,
                        custom_payoff=((0.0, 80.0, 120.0, 500.0),
                                       (-20.0, -5.0, 5.0, 60.0)))
    GRID = GridSpec(s_nodes=60, t_steps=60)

    def _spec(self, mode: str) -> EffectiveRateSpec:
        ois = self.OIS
        return EffectiveRateSpec(
            party_b=PartyCurves(bond=ois.shifted(0.0125), liquidity=ois.shifted(0.005)),
            party_c=PartyCurves(bond=ois.shifted(0.03), liquidity=ois.shifted(0.01)),
            risk_free=ois,
            state=CollateralState(eta_b=0.4, eta_c=0.6, chi_b=0.3, chi_c=0.7),
            mode=mode,
            cash_rate=RateCurve.from_nodes([(0.5, 0.012), (2.0, 0.016), (4.0, 0.015)],
                                           "cash") if mode == "cash_comingled" else None,
            repo_spread_c=RateCurve.from_nodes([(1.0, 0.01), (3.0, 0.012)], "repo"),
            repo_spread_b=0.008)

    def _step_times(self) -> np.ndarray:
        times = np.linspace(self.OPTION.maturity, 0.0, self.GRID.t_steps + 1)
        dt = self.OPTION.maturity / self.GRID.t_steps
        return np.concatenate(([times[0], times[0] - dt / 2.0], times[1:]))

    def _spy(self, monkeypatch, *names: str) -> list:
        """Log (name, args, result) of each call to the named pde helpers."""
        log = []
        for name in names:
            def spy(*args, _name=name, _real=getattr(pde, name)):
                out = _real(*args)
                log.append((_name, args, out))
                return out
            monkeypatch.setattr(pde, name, spy)
        return log

    def test_step_times_hit_curve_tenors(self):
        step_t = set(self._step_times())
        assert {0.25, 1.0, 2.0} <= step_t & set(self.OIS.tenors)
        assert {0.5, 1.5} <= step_t & set(self.FINANCING.tenors)

    @pytest.mark.parametrize("mode", ["noncash", "cash_comingled"])
    def test_node_rates_equal_effective_rate(self, monkeypatch, mode):
        spec = self._spec(mode)
        log = self._spy(monkeypatch, "_node_rates", "_operator")
        solve(self.OPTION, spec, self.GRID)
        # each operator is built right after the node rates it uses
        assert [name for name, _, _ in log] == ["_node_rates", "_operator"] * (len(log) // 2)
        seen = set()
        for (_, rate_args, rates), (_, op_args, _) in zip(log[0::2], log[1::2]):
            t = rate_args[1].t[rate_args[2]]
            v = rate_args[3]
            expected = np.where(v > 0.0, effective_rate(spec, t, +1),
                                effective_rate(spec, t, -1))
            assert np.array_equal(rates, expected), t
            assert np.array_equal(op_args[4], expected), t
            assert op_args[2] == self.FINANCING.forward_rate(t) - self.OPTION.div_yield, t
            seen.add(float(t))
        assert seen == set(self._step_times())
        signs = np.concatenate([args[3] > 0.0 for _, args, _ in log[0::2]])
        assert signs.any() and not signs.all()

    def test_risk_free_override_reads_risk_free_forward(self, monkeypatch):
        log = self._spy(monkeypatch, "_operator")
        solve(self.OPTION, self._spec("noncash"), self.GRID,
              risk_free_override=True)
        step_t = self._step_times()
        conv = self.FINANCING.forward_rate(step_t) - self.OPTION.div_yield
        rates = self.OIS.forward_rate(step_t)
        assert log
        for _, (_, _, c, _, rho), _ in log:
            # some step time gives both the convection and the flat rate
            assert any(c == conv[k] and np.all(rho == rates[k])
                       for k in range(len(step_t)))
