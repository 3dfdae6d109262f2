import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cxva import pde
from cxva.collateral import CollateralState
from cxva.curves import PartyCurves, RateCurve, combine_curves
from cxva.discounting import EffectiveRateSpec, counterparty_risk_spec, risk_free_spec
from cxva.exposure import ExposureProfile
from cxva.pde import (GridSpec, OptionSpec, PdeError, PicardConvergenceError,
                      solve, xva_pde)
from cxva.scenario import Scenario
from cxva.xva import decompose

from conftest import effective_rate, make_spec
from oracles import black_scholes, forward_exposure

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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
            OptionSpec(payoff="custom", strike=100.0, maturity=1.0, spot=100.0, vol=0.5)
        with pytest.raises(PdeError):
            OptionSpec(payoff="forward", strike=0.0, maturity=1.0, spot=100.0, vol=0.5)

    def test_grid_validation(self):
        with pytest.raises(PdeError):
            GridSpec(s_nodes=10, t_steps=100)

    @pytest.mark.parametrize("field", ["s_nodes", "t_steps"])
    def test_grid_size_bound(self, field):
        sizes = {"s_nodes": 100, "t_steps": 100}
        GridSpec(**{**sizes, field: pde.MAX_GRID_SIZE})
        with pytest.raises(PdeError, match=field):
            GridSpec(**{**sizes, field: pde.MAX_GRID_SIZE + 1})


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
        sol = solve(ATM_CALL, spec, GridSpec(s_nodes=200, t_steps=200))
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

    def test_picard_failure_raises_with_diagnostics(self, spec_factory, monkeypatch):
        # a payoff that changes sign forces at least one sign sweep per step
        monkeypatch.setattr(pde, "PICARD_TOL", 1e-14)
        monkeypatch.setattr(pde, "PICARD_MAX_ITER", 1)
        spec = spec_factory(mode="uncollateralized")
        fwd = OptionSpec(payoff="forward", strike=100.0, maturity=1.0, spot=100.0,
                         vol=0.5)
        with pytest.raises(PicardConvergenceError) as err:
            solve(fwd, spec, GridSpec(s_nodes=100, t_steps=100))
        assert err.value.iterations == 1
        assert err.value.residual > 0.0


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

    OIS = RateCurve.from_nodes(np.loadtxt(SCENARIOS / "curves" / "ois_sloped.csv", delimiter=",",
                                          skiprows=1), "OIS")
    CASH = RateCurve.from_nodes([(0.5, 0.012), (2.0, 0.016), (4.0, 0.015)], "cash")
    # sign-changing payoff, so both sides' rates are read
    OPTION = OptionSpec(payoff="forward", strike=100.0, maturity=3.0, spot=100.0,
                        vol=0.3, div_yield=0.005)
    GRID = GridSpec(s_nodes=60, t_steps=60)

    def _over_ois(self, spread: float) -> RateCurve:
        return combine_curves([self.OIS, RateCurve.flat(spread)], [1.0, 1.0])

    def _spec(self, mode: str) -> EffectiveRateSpec:
        if mode == "symmetric":
            # both parties alike: a sign flip does not change the rate
            party = PartyCurves(bond=self._over_ois(0.02), liquidity=self._over_ois(0.007))
            return EffectiveRateSpec(
                party_b=party, party_c=party, risk_free=self.OIS,
                state=CollateralState(eta_b=0.5, eta_c=0.5, chi_b=0.6, chi_c=0.6),
                repo_spread_c=0.009)
        if mode == "crossing":
            # alike parties, but C's repo spread crosses B's flat 0.009: its
            # forward is 0.006, 0.009 and 0.018 on [0, 1), [1, 2) and [2, 3),
            # so both sides' r_e are equal only at step times in [1, 2)
            party = PartyCurves(bond=self._over_ois(0.02), liquidity=self._over_ois(0.007))
            return EffectiveRateSpec(
                party_b=party, party_c=party, risk_free=self.OIS,
                state=CollateralState(eta_b=0.5, eta_c=0.5, chi_b=0.6, chi_c=0.6),
                repo_spread_c=RateCurve.from_nodes([(1.0, 0.006), (2.0, 0.0075), (3.0, 0.011)],
                                                   "repo"),
                repo_spread_b=0.009)
        return EffectiveRateSpec(
            party_b=PartyCurves(bond=self._over_ois(0.0125), liquidity=self._over_ois(0.005)),
            party_c=PartyCurves(bond=self._over_ois(0.03), liquidity=self._over_ois(0.01)),
            risk_free=self.OIS,
            state=CollateralState(eta_b=0.4, eta_c=0.6, chi_b=0.3, chi_c=0.7),
            mode=mode,
            cash_rate=self.CASH if mode == "cash_comingled" else None,
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
        assert {0.5, 2.0} <= step_t & set(self.CASH.tenors)

    def _is_operator(self, band, diag, conv, rho) -> bool:
        """Whether the solver's bands and main diagonal are the whole
        operator's at convection ``conv`` and node rates ``rho``."""
        s = np.linspace(0.0, self.GRID.s_max_mult * max(self.OPTION.spot, self.OPTION.strike),
                        self.GRID.s_nodes + 1)
        lower, want_diag, upper = _operator(s, s[1] - s[0], conv, self.OPTION.vol, rho)
        return (np.array_equal(band.lower, lower[1:]) and np.array_equal(diag, want_diag)
                and np.array_equal(band.upper, upper[:-1]))

    @pytest.mark.parametrize("mode", ["noncash", "cash_comingled"])
    def test_node_rates_equal_effective_rate(self, monkeypatch, mode):
        # every system solved is 1 - theta h A for the whole operator A at
        # the step's convection and at the rates a scalar effective_rate
        # lookup gives the signs of the iterate the sweep started from, and
        # its right-hand side is v + (1 - theta) h A v at the step's start;
        # Rannacher: theta = 1 and h = dt/2 on the first two steps, then
        # theta = 1/2 and h = dt
        spec = self._spec(mode)
        log = []

        def spy(*args, _real=pde.solve_banded):
            x = _real(*args)
            log.append([np.array(arg) for arg in args] + [x])  # the solver reuses buffers
            return x

        monkeypatch.setattr(pde, "solve_banded", spy)
        solve(self.OPTION, spec, self.GRID)
        s = np.linspace(0.0, self.GRID.s_max_mult * max(self.OPTION.spot, self.OPTION.strike),
                        self.GRID.s_nodes + 1)
        step_t = self._step_times()
        dt = self.OPTION.maturity / self.GRID.t_steps

        def operator(t, v):
            rho = np.where(v > 0.0, effective_rate(spec, t, +1), effective_rate(spec, t, -1))
            # the stock is financed at the risk-free rate
            conv = self.OIS.forward_rate(t) - self.OPTION.div_yield
            return _operator(s, s[1] - s[0], conv, self.OPTION.vol, rho)

        start = self.OPTION.terminal_value(s)
        i, rhs_i, signs = -1, None, []
        for lower, diag, upper, rhs, x in log:
            # a sweep of the same step solves for the same right-hand side;
            # each step starts from the value the last one accepted
            if rhs_i is None or not np.array_equal(rhs, rhs_i):
                i, rhs_i = i + 1, rhs
                theta, h = (1.0, dt / 2.0) if i < 2 else (0.5, dt)
                assert np.array_equal(
                    rhs, start + (1.0 - theta) * h * _apply(*operator(step_t[i], start), start))
            op_lower, op_diag, op_upper = operator(step_t[i + 1], start)
            th = theta * h
            assert np.array_equal(lower, -th * op_lower[1:]), step_t[i + 1]
            assert np.array_equal(diag, 1.0 - th * op_diag), step_t[i + 1]
            assert np.array_equal(upper, -th * op_upper[:-1]), step_t[i + 1]
            signs.append(start > 0.0)
            start = x
        assert i == len(step_t) - 2
        signs = np.concatenate(signs)
        assert signs.any() and not signs.all()

    def test_risk_free_spec_rate_is_risk_free_forward(self):
        step_t = self._step_times()
        rates = self.OIS.forward_rate(step_t)
        spec = risk_free_spec(self.OIS)
        fwd = pde._ForwardTable.build(spec, step_t)
        assert np.array_equal(fwd.rates, np.stack((rates, rates), axis=1))
        for t, rate in zip(step_t, rates):
            assert effective_rate(spec, t, +1) == rate == effective_rate(spec, t, -1), t

    def test_risk_free_spec_reads_risk_free_forward(self, monkeypatch):
        log = self._spy(monkeypatch, "_diagonal")
        solve(self.OPTION, risk_free_spec(self.OIS), self.GRID)
        step_t = self._step_times()
        conv = self.OIS.forward_rate(step_t) - self.OPTION.div_yield
        rates = self.OIS.forward_rate(step_t)
        assert log
        for _, (_, band, rho), diag in log:
            # some step time gives both the convection and the flat rate
            assert any(np.all(rho == rates[k]) and self._is_operator(band, diag, conv[k], rho)
                       for k in range(len(step_t)))


def _operator(s, ds, conv, sigma, rho):
    """Tridiagonal space operator A with AV ~ (r_s-q)S V' + 0.5 sig^2 S^2 V'' - rho V.

    Returns (lower, diag, upper) bands. The S=0 row reduces to -rho by
    itself since both S-terms vanish; the far boundary drops the second
    derivative and takes one-sided convection.
    """
    d1 = conv * s / (2.0 * ds)
    d2 = 0.5 * sigma * sigma * s * s / (ds * ds)
    lower = d2 - d1
    diag = -2.0 * d2 - rho
    upper = d2 + d1
    lower[-1] = -conv * s[-1] / ds
    diag[-1] = conv * s[-1] / ds - rho[-1]
    upper[0] = 0.0
    lower[0] = 0.0
    return lower, diag, upper


def _apply(lower, diag, upper, v):
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out


def reference_solve(option: OptionSpec, rates: EffectiveRateSpec, grid: GridSpec, *,
                    risk_free_override: bool = False) -> tuple[np.ndarray, list]:
    """(v0, each step's stop sweep) of the full-sweep Picard iteration:
    every sweep rebuilds its node rates from scalar ``effective_rate``
    lookups and its operator from them, and solves with
    ``scipy.linalg.solve_banded``; a step accepts its value only once the
    residual falls below ``pde.PICARD_TOL``. A step's stop sweep is its
    first whose result rebuilds the node rates that sweep used, or whose
    residual is below the tolerance; a step with none within
    ``pde.PICARD_MAX_ITER`` sweeps raises. After a stop at a fixed point
    the next sweep solves the same system and its residual is 0, so the
    iteration runs at most one sweep past the budget."""
    from scipy.linalg import solve_banded

    s = np.linspace(0.0, grid.s_max_mult * max(option.spot, option.strike),
                    grid.s_nodes + 1)
    ds = s[1] - s[0]
    dt = option.maturity / grid.t_steps
    times = np.linspace(option.maturity, 0.0, grid.t_steps + 1)
    step_t = np.concatenate(([times[0], times[0] - dt / 2.0], times[1:]))

    def node_rates(t, v):
        if risk_free_override:
            return np.full(len(s), rates.risk_free.forward_rate(t))
        return np.where(v > 0.0, effective_rate(rates, t, +1), effective_rate(rates, t, -1))

    def operator(t, rho):
        conv = rates.risk_free.forward_rate(t) - option.div_yield
        return _operator(s, ds, conv, option.vol, rho)

    v = option.terminal_value(s)
    stops = []
    for i in range(len(step_t) - 1):
        # Rannacher: two implicit half-steps, then Crank-Nicolson steps
        theta, h = (1.0, dt / 2.0) if i < 2 else (0.5, dt)
        rhs = v + (1.0 - theta) * h * _apply(*operator(step_t[i], node_rates(step_t[i], v)), v)
        guess, rho, stop = v, node_rates(step_t[i + 1], v), None
        for it in range(1, pde.PICARD_MAX_ITER + 2):
            lower, diag, upper = operator(step_t[i + 1], rho)
            ab = np.zeros((3, len(s)))
            ab[0, 1:] = (-theta * h * upper)[:-1]
            ab[1, :] = 1.0 - theta * h * diag
            ab[2, :-1] = (-theta * h * lower)[1:]
            v_new = solve_banded((1, 1), ab, rhs)
            residual = float(np.max(np.abs(v_new - guess))) / max(1.0, float(np.max(np.abs(v_new))))
            rebuilt = node_rates(step_t[i + 1], v_new)
            if stop is None and (np.array_equal(rebuilt, rho) or residual < pde.PICARD_TOL):
                stop = it
            elif stop is None and it == pde.PICARD_MAX_ITER:
                raise PicardConvergenceError(step_t[i + 1], residual, pde.PICARD_MAX_ITER)
            guess, rho = v_new, rebuilt
            if residual < pde.PICARD_TOL:
                break
        stops.append(stop)
        v = guess
    return v, stops


class TestFixedPointStop:
    """A step stops at the first sweep whose result rebuilds the node rates
    that sweep used, or whose residual is below tolerance: its value is the
    full-sweep iteration's bit for bit, and it runs one banded solve for
    each sweep up to the reference's stop sweep."""

    GRID = GridSpec(s_nodes=80, t_steps=60)

    @staticmethod
    def _option(payoff: str, position: float) -> OptionSpec:
        return dataclasses.replace(TestRateTable.OPTION, payoff=payoff, position=position)

    def _count_solves(self, monkeypatch) -> list:
        """Log the right-hand side of each banded solve."""
        calls = []

        def counting(*args, _real=pde.solve_banded):
            calls.append(args[3].copy())
            return _real(*args)

        monkeypatch.setattr(pde, "solve_banded", counting)
        return calls

    @staticmethod
    def _solves_per_step(calls: list) -> list:
        """Banded solves of each step: a step's sweeps share its right-hand
        side."""
        counts = []
        for k, rhs in enumerate(calls):
            if k == 0 or not np.array_equal(rhs, calls[k - 1]):
                counts.append(0)
            counts[-1] += 1
        return counts

    def _assert_sweeps(self, sol, calls: list, stops: list) -> None:
        """The solve reports its most banded solves in one step, and each
        step ran as many as the reference's stop sweep."""
        per_step = self._solves_per_step(calls)
        assert sol.max_picard_iters == max(per_step)
        assert per_step == stops

    @pytest.mark.parametrize("star", [False, True])
    @pytest.mark.parametrize("position", [1.0, -1.0])
    @pytest.mark.parametrize("payoff", ["call", "put", "forward"])
    @pytest.mark.parametrize("mode", ["noncash", "cash_comingled", "symmetric"])
    def test_equals_full_sweep_iteration(self, monkeypatch, mode, payoff, position, star):
        # star: V* under the risk-free spec against the oracle's r_e = r
        calls = self._count_solves(monkeypatch)
        option = self._option(payoff, position)
        spec = TestRateTable()._spec(mode)
        sol = solve(option, risk_free_spec(spec.risk_free) if star else spec, self.GRID)
        v0, stops = reference_solve(option, spec, self.GRID, risk_free_override=star)
        assert np.array_equal(sol.v0, v0)
        self._assert_sweeps(sol, calls, stops)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("position", [1.0, -1.0])
    def test_equals_full_sweep_iteration_on_sweep_shape(self, monkeypatch, position, eta):
        # the option sweep's solves on its 300 x 60 grid: the total spec,
        # its counterparty-risk twin and V*, from the shipped atm_call and
        # atm_forward inputs
        calls = self._count_solves(monkeypatch)
        grid = GridSpec(s_nodes=300, t_steps=60)
        for name in ("atm_call", "atm_forward"):
            scenario = Scenario.load(SCENARIOS / f"{name}.json")
            option = scenario.option(position=position)
            spec = scenario.effective_spec(collateralization=eta)
            for rates, star in ((spec, False), (counterparty_risk_spec(spec), False),
                                (spec, True)):
                calls.clear()
                sol = solve(option, risk_free_spec(rates.risk_free) if star else rates, grid)
                v0, stops = reference_solve(option, rates, grid, risk_free_override=star)
                assert np.array_equal(sol.v0, v0), (name, rates.mode, star)
                self._assert_sweeps(sol, calls, stops)

    @pytest.mark.parametrize("mode", ["noncash", "cash_comingled"])
    def test_late_step_raises_sweep_count(self, monkeypatch, mode):
        # a short forward on a 300-node grid: every step before a late one
        # stops after its first sweep; the late one moves a sign, so it runs
        # a second sweep, more than any earlier step
        calls = self._count_solves(monkeypatch)
        option = self._option("forward", -1.0)
        spec = TestRateTable()._spec(mode)
        grid = GridSpec(s_nodes=300, t_steps=60)
        sol = solve(option, spec, grid)
        per_step = self._solves_per_step(calls)
        late = per_step.index(2)
        assert late > 10 and set(per_step[:late]) == {1}
        v0, stops = reference_solve(option, spec, grid)
        assert np.array_equal(sol.v0, v0)
        self._assert_sweeps(sol, calls, stops)
        assert sol.max_picard_iters == 2

    @pytest.mark.parametrize("position", [1.0, -1.0])
    def test_equal_side_rates_decided_per_step(self, monkeypatch, position):
        # both sides' r_e are equal at some step times and differ at others:
        # only the equal ones may skip rebuilding the node rates
        spec = TestRateTable()._spec("crossing")
        rates = pde._ForwardTable.build(spec, TestRateTable()._step_times()).rates
        equal = rates[:, 0] == rates[:, 1]
        assert equal.any() and not equal.all()
        calls = self._count_solves(monkeypatch)
        option = self._option("forward", position)
        sol = solve(option, spec, self.GRID)
        v0, stops = reference_solve(option, spec, self.GRID)
        assert np.array_equal(sol.v0, v0)
        self._assert_sweeps(sol, calls, stops)

    def test_residual_stop_before_signs_settle(self, monkeypatch):
        # at a loose tolerance a step can stop on the residual while a node
        # near the forward's zero still changes sign: the next step must
        # rebuild its explicit side from the accepted signs
        monkeypatch.setattr(pde, "PICARD_TOL", 1e-3)
        calls = self._count_solves(monkeypatch)
        option = self._option("forward", -1.0)
        spec = TestRateTable()._spec("noncash")
        grid = GridSpec(s_nodes=150, t_steps=50)
        v0, stops = reference_solve(option, spec, grid)
        sol = solve(option, spec, grid)
        assert np.array_equal(sol.v0, v0)
        self._assert_sweeps(sol, calls, stops)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_sweep_budget_as_full_sweep_iteration(self, max_iter, monkeypatch):
        # at a residual no sweep reaches, a step stops only at its fixed
        # point: the solve raises exactly when the reference runs out of
        # budget before a step's stop sweep
        monkeypatch.setattr(pde, "PICARD_TOL", 1e-16)
        monkeypatch.setattr(pde, "PICARD_MAX_ITER", max_iter)
        calls = self._count_solves(monkeypatch)
        option = self._option("forward", 1.0)
        spec = TestRateTable()._spec("noncash")
        grid = GridSpec(s_nodes=60, t_steps=50)
        try:
            v0, stops = reference_solve(option, spec, grid)
        except PicardConvergenceError as err:
            with pytest.raises(PicardConvergenceError) as got:
                solve(option, spec, grid)
            assert (got.value.t, got.value.residual, got.value.iterations) == \
                (err.t, err.residual, err.iterations)
        else:
            sol = solve(option, spec, grid)
            assert np.array_equal(sol.v0, v0)
            self._assert_sweeps(sol, calls, stops)

    def test_risk_free_value_solves_once_per_step(self, monkeypatch, ois_flat):
        calls = self._count_solves(monkeypatch)
        grid = GridSpec(s_nodes=100, t_steps=80)
        sol = solve(ATM_CALL, risk_free_spec(ois_flat), grid)
        assert len(calls) == grid.t_steps + 1  # Rannacher: two half-steps
        assert sol.max_picard_iters == max(self._solves_per_step(calls)) == 1

    def test_symmetric_parties_solve_once_per_step(self, monkeypatch):
        # the forward's sign flips move nodes between the parties, whose
        # rates are equal: every step stops after its first sweep
        calls = self._count_solves(monkeypatch)
        sol = solve(self._option("forward", 1.0), TestRateTable()._spec("symmetric"),
                    self.GRID)
        assert len(calls) == self.GRID.t_steps + 1
        assert sol.max_picard_iters == max(self._solves_per_step(calls)) == 1

    def test_adjusted_call_solves_about_once_per_step(self, monkeypatch, spec_factory):
        calls = self._count_solves(monkeypatch)
        grid = GridSpec(s_nodes=200, t_steps=200)
        solve(ATM_CALL, spec_factory(eta=0.5, chi=1.0, repo_spread=0.01), grid)
        assert len(calls) < 1.1 * (grid.t_steps + 1)


class TestSolveBanded:
    N = 6

    def _system(self):
        lower = np.full(self.N - 1, -1.0)
        upper = np.full(self.N - 1, -1.0)
        return lower, np.full(self.N, 4.0), upper, np.arange(1.0, self.N + 1.0)

    def test_solves_the_system(self):
        lower, diag, upper, rhs = self._system()
        x = pde.solve_banded(lower, diag, upper, rhs)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        assert np.allclose(dense @ x, rhs, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("arg", range(4))
    def test_non_finite_input_raises_value_error(self, arg, value):
        args = list(self._system())
        args[arg][1] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            pde.solve_banded(*args)

    def test_singular_system_raises(self):
        lower, _, upper, rhs = self._system()
        with pytest.raises(np.linalg.LinAlgError):
            pde.solve_banded(np.zeros_like(lower), np.zeros(self.N), np.zeros_like(upper),
                             rhs)


class TestSignChangingCrossOracle:
    """PDE against quadrature on an ATM forward S - K, whose value changes
    sign: the quadrature discounts EPE and ENE at fixed per-side rates
    instead of switching with the path's sign, which is exact to first
    order in the spreads over risk-free. With every spread scaled by eps,
    the gap U_pde - xva_quad is therefore eps^2 times a constant; a PDE or
    quadrature that mispriced a first-order term would make gap / eps^2
    grow like 1 / eps."""

    RATE, SPOT, STRIKE, VOL, MATURITY = 0.01, 100.0, 100.0, 0.3, 1.0

    def spec(self, eps, mode):
        r = self.RATE
        party_b = PartyCurves(bond=RateCurve.flat(r + eps * 0.0125),
                              liquidity=RateCurve.flat(r + eps * 0.005))
        party_c = PartyCurves(bond=RateCurve.flat(r + eps * 0.04),
                              liquidity=RateCurve.flat(r + eps * 0.02))
        if mode == "uncollateralized":
            return EffectiveRateSpec(party_b=party_b, party_c=party_c,
                                     risk_free=RateCurve.flat(r), state=CollateralState(),
                                     mode=mode)
        return EffectiveRateSpec(party_b=party_b, party_c=party_c,
                                 risk_free=RateCurve.flat(r), mode=mode,
                                 state=CollateralState(eta_b=0.5, eta_c=0.5, chi_b=0.5,
                                                       chi_c=0.5),
                                 repo_spread_c=eps * 0.01)

    # measured gaps at eps = 1: 1.066e-3 and 4.880e-4 (gap / eps^2 spread
    # over eps = 1, 1/2, 1/4: 0.6 % and 1.3 %); the bounds leave 13 % margin
    @pytest.mark.parametrize("mode, bound", [("uncollateralized", 1.2e-3),
                                             ("noncash", 5.5e-4)])
    def test_gap_is_second_order_in_spreads(self, mode, bound):
        times = np.linspace(0.0, self.MATURITY, 401)
        epe, ene = forward_exposure(self.SPOT, self.STRIKE, self.VOL, self.MATURITY,
                                    self.RATE, 0.0, times)
        mtm0 = self.SPOT - self.STRIKE * math.exp(-self.RATE * self.MATURITY)
        profile = ExposureProfile(times, np.array(epe), np.array(ene), mtm0, 1.0)
        # the oracle's mean exposure is the martingale V*(0) / DF(0, t)
        assert np.allclose(profile.epe - profile.ene, mtm0 * np.exp(self.RATE * times),
                           rtol=1e-12, atol=1e-12)
        option = OptionSpec(payoff="forward", strike=self.STRIKE, maturity=self.MATURITY,
                            spot=self.SPOT, vol=self.VOL)
        scaled = []
        for eps in (1.0, 0.5, 0.25):
            spec = self.spec(eps, mode)
            gap = (xva_pde(option, spec, GridSpec(s_nodes=800, t_steps=400)).u
                   - decompose(profile, spec, grid=times).xva)
            if eps == 1.0:
                assert 0.0 < gap < bound
            scaled.append(gap / eps ** 2)
        # discretization error, first order in eps, is what moves the ratio
        assert max(scaled) / min(scaled) - 1.0 < 0.03, scaled
