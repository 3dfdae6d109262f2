"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria cover the consistency anchors (zero-coupon pricing at the
unsecured rate, Black-Scholes reduction under perfect cash), structural
zeros and monotonicity of the collateralization sweep, exact additivity of
the decomposition, the PDE/quadrature cross-oracle, break-even spread
affinity, the allocation-LP reproduction and brute-force bracket, the
reference LVA magnitude band, allocation iteration behavior, bit-level
determinism of the command line, and the paper's headline claim that LVA
grows with a swap book's duration and with how far in or out of the money
it is.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from cxva.cli import main as cli_main
from cxva.collateral import CollateralAsset, CollateralState
from cxva.curves import PartyCurves, RateCurve, combine_curves
from cxva.discounting import EffectiveRateSpec
from cxva.exposure import DeterministicModel, exposure_profile, generate_portfolio
from cxva.optimizer import AllocationProblem, NettingSet, solve_lp
from cxva.pde import GridSpec, OptionSpec, solve, xva_pde
from cxva.repo import RepoModelParams, breakeven_spread
from cxva.scenario import Scenario
from cxva.xva import decompose, to_running_spread

from oracles import black_scholes, lattice_lp_optimum, martingale_epe_profile

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _ok(label: str) -> None:
    print(f"{label} PASS")


# -- shared fixtures -----------------------------------------------------------

@pytest.fixture(scope="module")
def ois_flat():
    return RateCurve.flat(0.01, "OIS")


@pytest.fixture(scope="module")
def payer_book_setup():
    """Sloped OIS, 125bp spreads both parties, 100bp repo spread, 90% payer
    1000-swap book tilted out of the money."""
    ois = RateCurve.from_nodes([(0.25, 0.010), (1.0, 0.011), (2.0, 0.013),
                                (5.0, 0.017), (10.0, 0.022), (20.0, 0.027),
                                (30.0, 0.030)], "OIS")
    def over(s, lab):
        return combine_curves([ois, RateCurve.flat(s)], [1.0, 1.0], lab)
    party = PartyCurves(bond=over(0.0125, "bond"), liquidity=over(0.005, "liq"))
    book = generate_portfolio(1000, 0.9, (0.25, 30.0), 0.01, seed=20240701,
                              curve=ois, rate_offset=0.025)
    profile = exposure_profile(book, DeterministicModel(), 121, ois)
    return ois, party, profile


def _fig2_spec(ois, party, eta, spread=0.01):
    state = CollateralState(eta_b=eta, eta_c=eta)
    return EffectiveRateSpec(party_b=party, party_c=party, risk_free=ois,
                             state=state, mode="noncash", repo_spread_c=spread)


# -- criteria -------------------------------------------------------------------

class TestAC01ZcbConsistency:
    def test_zcb_prices_at_unsecured_rate(self, ois_flat):
        start = time.perf_counter()
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        spec = EffectiveRateSpec(party_b=party_b, party_c=party_c,
                                 risk_free=ois_flat, state=CollateralState(),
                                 mode="uncollateralized")
        target = math.exp(-0.04)
        # PDE route
        zcb = OptionSpec(payoff="zcb", strike=0.0, maturity=1.0, spot=100.0,
                         vol=0.5)
        pde_value = solve(zcb, spec, GridSpec(s_nodes=200, t_steps=200)).value
        assert pde_value == pytest.approx(target, rel=1e-4)
        # quadrature route: exact for the exponential profile on its own grid
        v_star = ois_flat.df(1.0)
        profile = martingale_epe_profile(v_star, ois_flat,
                                         np.linspace(0.0, 1.0, 101))
        quad_value = decompose(profile, spec, grid=profile.times).npv
        assert quad_value == pytest.approx(target, rel=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _ok(f"AC-01 zcb consistency (pde rel {abs(pde_value-target)/target:.1e}, "
            f"quad rel {abs(quad_value-target)/target:.1e}, {elapsed:.2f}s)")


class TestAC02RiskFreeReduction:
    def test_black_scholes_on_400_grid(self, ois_flat):
        start = time.perf_counter()
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        spec = EffectiveRateSpec(party_b=party_b, party_c=party_c,
                                 risk_free=ois_flat, state=CollateralState(),
                                 mode="cash_comingled", cash_rate=ois_flat)
        option = OptionSpec(payoff="call", strike=100.0, maturity=1.0,
                            spot=100.0, vol=0.5)
        value = solve(option, spec, GridSpec(s_nodes=400, t_steps=400)).value
        bs = black_scholes(100.0, 100.0, 0.5, 1.0, 0.01)
        rel = abs(value - bs) / bs
        assert rel < 5e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _ok(f"AC-02 Black-Scholes reduction (rel {rel:.1e}, {elapsed:.2f}s)")


class TestAC03StructuralZeros:
    def test_sweep_zeros_and_monotonicity(self, payer_book_setup):
        ois, party, profile = payer_book_setup
        etas = np.linspace(0.0, 1.0, 11)
        reports = [decompose(profile, _fig2_spec(ois, party, float(e)),
                             n_steps=121) for e in etas]
        full = reports[-1]
        assert full.cva == 0.0 and full.dva == 0.0
        assert full.cfa == 0.0 and full.dfa == 0.0
        assert full.xva == full.lva
        assert reports[0].lva == 0.0
        cra = np.array([abs(r.cra) for r in reports])
        lva = np.array([abs(r.lva) for r in reports])
        assert np.all(np.diff(cra) <= 1e-12)
        assert np.all(np.diff(lva) >= -1e-12)
        _ok("AC-03 structural zeros and sweep monotonicity")


class TestAC04DecompositionIdentity:
    def test_identity_across_scenarios(self, payer_book_setup, ois_flat):
        ois, party, profile = payer_book_setup
        reports = []
        for eta in np.linspace(0.0, 1.0, 11):
            reports.append(decompose(profile, _fig2_spec(ois, party, float(eta)),
                                     n_steps=121))
        # other modes on the same book
        state = CollateralState()
        cash_seg = EffectiveRateSpec(party_b=party, party_c=party, risk_free=ois,
                                     state=state, mode="cash_segregated",
                                     cash_rate=ois)
        im = EffectiveRateSpec(party_b=party, party_c=party, risk_free=ois,
                               state=state, mode="initial_margin",
                               repo_spread_c=0.005)
        half = EffectiveRateSpec(party_b=party, party_c=party, risk_free=ois,
                                 state=CollateralState(eta_b=0.37, eta_c=0.61,
                                                       chi_b=0.8, chi_c=0.4),
                                 mode="noncash", repo_spread_c=0.003)
        for spec in (cash_seg, im, half):
            reports.append(decompose(profile, spec, n_steps=121))
        for r in reports:
            assert abs(r.cva - r.dva + r.cfa - r.dfa + r.lva - r.xva) \
                <= 1e-12 * max(1.0, abs(r.xva))
        _ok(f"AC-04 decomposition identity on {len(reports)} reports")


class TestAC05PdeQuadratureCrossOracle:
    def test_deep_itm_call(self, ois_flat):
        party_b = PartyCurves(bond=RateCurve.flat(0.0225),
                              liquidity=RateCurve.flat(0.015))
        party_c = PartyCurves(bond=RateCurve.flat(0.04),
                              liquidity=RateCurve.flat(0.02))
        spec = EffectiveRateSpec(party_b=party_b, party_c=party_c,
                                 risk_free=ois_flat, state=CollateralState(),
                                 mode="uncollateralized")
        option = OptionSpec(payoff="call", strike=20.0, maturity=1.0,
                            spot=100.0, vol=0.5)
        res = xva_pde(option, spec, GridSpec(s_nodes=400, t_steps=200))
        profile = martingale_epe_profile(res.v_star, ois_flat,
                                         np.linspace(0.0, 1.0, 101))
        quad = decompose(profile, spec, grid=profile.times)
        rel = abs(res.u - quad.xva) / abs(quad.xva)
        assert rel < 5e-3
        _ok(f"AC-05 pde/quadrature cross-oracle (rel {rel:.1e})")


class TestAC06BreakevenAffinity:
    def test_exact_finite_differences(self):
        params = RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.001),
                                 hazard=RateCurve.flat(0.02),
                                 expected_gap_loss=0.005)
        t = 5.0
        slope_ec = breakeven_spread(params, 1.004, t) \
            - breakeven_spread(params, 0.004, t)
        assert abs(slope_ec - params.roe) < 1e-14
        base = dict(roe=0.10, mu0_curve=RateCurve.flat(0.001),
                    hazard=RateCurve.flat(0.02))
        f0 = breakeven_spread(RepoModelParams(expected_gap_loss=0.0, **base),
                              0.004, t)
        f1 = breakeven_spread(RepoModelParams(expected_gap_loss=1.0, **base),
                              0.004, t)
        lam = RateCurve.flat(0.02).zero_rate(t)
        assert abs((f1 - f0) - lam) < 1e-14
        _ok("AC-06 break-even spread affinity (slopes RoE and lambda, <1e-14)")


REF_HAIRCUTS = {"UST_10y": 0.02, "UST_30y": 0.04, "S&P_500": 0.15,
                   "CMBS_AAA5y": 0.12, "CMBS_AA5y10": 0.18, "Corp_A5y10": 0.09}
REF_UNIT_LVA = np.array([
    [0.0441, 0.0439, 0.0424, 0.0414],
    [0.0587, 0.0584, 0.0564, 0.0551],
    [0.0665, 0.0660, 0.0638, 0.0623],
    [0.0492, 0.0489, 0.0472, 0.0460],
    [0.0653, 0.0648, 0.0625, 0.0609],
    [0.0425, 0.0423, 0.0409, 0.0400],
])
REF_ALLOCATION = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [1.15, 68.85, 0.0, 0.0],
    [70.0, 0.0, 0.0, 0.0],
    [0.0, 27.9, 42.1, 0.0],
    [70.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 26.3, 32.87],
])
REQUIREMENTS = np.array([118.007, 90.641, 60.98, 29.915])
INVENTORY = 70.0  # column sums of the reference allocation cap at 70


def _table_problem():
    dummy = np.linspace(0.0, 1.0, 3)
    from cxva.exposure import ExposureProfile
    profile = ExposureProfile(dummy, np.zeros(3), np.ones(3), -1.0, 1.0)
    assets = tuple(CollateralAsset(name, 1.0, INVENTORY, h, 0.0, 0.0, {})
                   for name, h in REF_HAIRCUTS.items())
    sets = tuple(NettingSet(f"{r}-set", float(v), r, profile)
                 for r, v in zip(("AA", "A", "BBB", "BB"), REQUIREMENTS))
    return AllocationProblem(assets, sets, REF_UNIT_LVA)


class TestAC07TableReproduction:
    def test_lp_reproduction(self):
        start = time.perf_counter()
        problem = _table_problem()
        alloc = solve_lp(problem)
        conv = np.array([1.0 - h for h in REF_HAIRCUTS.values()])

        # independent LP oracle on identical inputs: objectives must agree
        m, n = 6, 4
        a_ub = np.zeros((m, m * n))
        for i in range(m):
            a_ub[i, i * n:(i + 1) * n] = 1.0
        a_eq = np.zeros((n, m * n))
        for j in range(n):
            a_eq[j, j::n] = conv
        ref = linprog(-REF_UNIT_LVA.flatten(), A_ub=a_ub,
                      b_ub=np.full(m, INVENTORY), A_eq=a_eq, b_eq=REQUIREMENTS,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        oracle_obj = -ref.fun
        rel_oracle = abs(alloc.objective - oracle_obj) / abs(oracle_obj)
        assert rel_oracle < 1e-6

        # the published allocation is feasible: funding identities within 0.01
        posted = (REF_ALLOCATION * conv[:, None]).sum(axis=0)
        assert np.all(np.abs(posted - REQUIREMENTS) < 0.01)
        assert np.all(REF_ALLOCATION.sum(axis=1) <= INVENTORY + 1e-9)
        # the solver's optimum sits within the input-rounding band of the
        # published allocation's objective: the four-decimal unit LVAs flip a
        # near-degenerate pairing worth ~2.9e-6 of objective, so exact 1e-6
        # agreement with the printed table is not attainable
        table_obj = float(np.sum(REF_ALLOCATION * REF_UNIT_LVA))
        rel_table = abs(alloc.objective - table_obj) / table_obj
        assert rel_table < 1e-5

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _ok(f"AC-07 allocation LP reproduction (oracle rel {rel_oracle:.1e}, "
            f"table rel {rel_table:.1e}, {elapsed:.2f}s)")

    @pytest.mark.xfail(
        strict=True,
        reason="published unit LVAs are rounded to four decimals, which flips "
               "a near-degenerate asset pairing worth ~2.9e-6 of objective; "
               "1e-6 agreement with the printed allocation is unattainable")
    def test_literal_table_objective_tolerance(self):
        alloc = solve_lp(_table_problem())
        table_obj = float(np.sum(REF_ALLOCATION * REF_UNIT_LVA))
        assert abs(alloc.objective - table_obj) / table_obj < 1e-6


class TestAC08LatticeBracket:
    def test_hundred_seeded_instances(self):
        from cxva.exposure import ExposureProfile
        dummy = np.linspace(0.0, 1.0, 3)
        profile = ExposureProfile(dummy, np.zeros(3), np.ones(3), -1.0, 1.0)
        step_frac = 1e-3
        for seed in range(100):
            rng = np.random.default_rng(seed)
            h = rng.uniform(0.0, 0.3, 2)
            price = rng.uniform(0.5, 2.0, 2)
            conv = (1.0 - h) * price
            q_max = rng.uniform(5.0, 10.0, 2)
            cap = min(q_max[0] * conv[0], q_max[1] * conv[1])
            total = rng.uniform(0.3, 0.6) * cap
            split = rng.uniform(0.25, 0.75)
            v_req = np.array([total * split, total * (1.0 - split)])
            e = rng.uniform(0.0, 0.1, (2, 2))

            assets = tuple(CollateralAsset(f"a{i}", float(price[i]),
                                           float(q_max[i]), float(h[i]), 0.0,
                                           0.0, {}) for i in range(2))
            sets = tuple(NettingSet(f"s{j}", float(v_req[j]), "A", profile)
                         for j in range(2))
            alloc = solve_lp(AllocationProblem(assets, sets, e))
            lattice = lattice_lp_optimum(e, q_max, v_req, conv,
                                         step_frac=step_frac)
            h0 = step_frac * q_max[0]
            bound = h0 * sum(e[0, j] + e[1, j] * conv[0] / conv[1]
                             for j in range(2))
            assert alloc.objective >= lattice - 1e-9
            assert alloc.objective <= lattice + bound + 1e-9
        _ok("AC-08 lattice brute-force bracket on 100 instances")


class TestAC09LvaMagnitudeBand:
    def test_reference_band(self):
        start = time.perf_counter()
        scenario = Scenario.load(SCENARIO_DIR / "treasuries_repo_lva.json")
        profile = scenario.portfolio_profile()
        spec = scenario.effective_spec(collateralization=1.0)
        report = to_running_spread(
            decompose(profile, spec, n_steps=scenario.quadrature_steps),
            profile.annuity)
        lva_bp = report.bp["lva"]
        assert 0.5 <= abs(lva_bp) <= 2.5
        assert lva_bp < 0.0  # payable book: posting benefit
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        _ok(f"AC-09 LVA running-spread band (|{lva_bp:.2f}|bp, {elapsed:.1f}s)")


class TestAC10IterationBehavior:
    def test_allocation_iteration(self):
        from cxva.optimizer import iterate_allocation
        scenario = Scenario.load(SCENARIO_DIR / "allocation_reference.json")
        cfg = scenario.optimizer_cfg()
        assets = scenario.assets()
        sets = scenario.netting_sets()
        result = iterate_allocation(assets, sets, scenario.party("c"),
                                    scenario.risk_free, scenario.repo_params(),
                                    tol=float(cfg["tol"]),
                                    max_iter=int(cfg["max_iter"]),
                                    n_steps=scenario.quadrature_steps)
        assert result.status == "converged"
        assert len(result.states) <= 3
        initial = np.array([ns.profile.mtm0 for ns in sets])
        first = result.states[0].mtms
        assert np.all(np.abs(first) < np.abs(initial))  # strict shrink
        assert np.all(np.sign(first) == np.sign(initial))
        _ok(f"AC-10 iteration convergence in {len(result.states)} rounds, "
            f"|MTM| strictly decreasing")


class TestAC11Determinism:
    def _run_twice(self, cmd, scenario, tmp_path, tag):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{tag}_{sub}"
            assert cli_main([cmd, "--scenario", str(scenario),
                             "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    def test_byte_identical_outputs(self, tmp_path):
        self._run_twice("price", SCENARIO_DIR / "atm_call.json", tmp_path,
                        "price")
        self._run_twice("xva", SCENARIO_DIR / "treasuries_repo_lva.json", tmp_path, "xva")
        self._run_twice("repo-curve", SCENARIO_DIR / "repo_ust10.json", tmp_path,
                        "repo")
        self._run_twice("optimize", SCENARIO_DIR / "allocation_reference.json",
                        tmp_path, "opt")
        _ok("AC-11 byte-identical reruns for price/xva/repo-curve/optimize")


class TestAC12LvaDurationAndMoneyness:
    """The paper's claim: LVA is sizable for long average duration, deep in
    or out of the money swap portfolios. payer_book at n = 200, eta = 1."""

    OFFSETS = (-0.03, -0.015, 0.015, 0.03)
    MATURITIES = (5.0, 10.0, 30.0)

    def test_lva_grows_with_duration_and_moneyness(self):
        start = time.perf_counter()
        path = SCENARIO_DIR / "payer_book.json"
        scenario = Scenario.load(path)
        book = json.loads(path.read_text(encoding="utf-8"))["portfolio"]
        spec = scenario.effective_spec(collateralization=1.0)
        lva = {}
        for offset in self.OFFSETS:
            for maturity in self.MATURITIES:
                profile = scenario.portfolio_profile(
                    dict(book, n=200, rate_offset=offset, maturity_max=maturity))
                report = to_running_spread(
                    decompose(profile, spec, n_steps=scenario.quadrature_steps),
                    profile.annuity)
                lva[offset, maturity] = report.bp["lva"]
        for offset in self.OFFSETS:
            row = [lva[offset, m] for m in self.MATURITIES]
            # a book paying below market is an asset, one paying above a liability
            assert all(math.copysign(1.0, x) == -math.copysign(1.0, offset) for x in row)
            assert all(abs(a) < abs(b) for a, b in zip(row, row[1:])), (offset, row)
        for near, deep in ((-0.015, -0.03), (0.015, 0.03)):
            for m in self.MATURITIES:
                assert abs(lva[near, m]) < abs(lva[deep, m]), (near, deep, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _ok(f"AC-12 |LVA| rises with duration and moneyness "
            f"({lva[-0.03, 30.0]:.2f}bp to {lva[0.03, 30.0]:.2f}bp at 30y, {elapsed:.2f}s)")
