import numpy as np
import pytest

import cxva.optimizer
from cxva.collateral import CollateralAsset
from cxva.curves import PartyCurves, RateCurve
from cxva.exposure import ExposureProfile
from cxva.optimizer import (AllocationError, AllocationInfeasibleError,
                            AllocationProblem, NettingSet, iterate_allocation,
                            solve_lp)
from cxva.repo import RepoModelParams
from cxva.simplex import LpResult, LpSolverError, solve_bounded_lp


def simple_asset(id="A1", price=1.0, quantity=100.0, h_csa=0.0, h_repo=0.0,
                 h_lcr=0.0, ec=0.004):
    return CollateralAsset(id, price, quantity, h_csa, h_repo, h_lcr,
                           {"AA": ec, "A": ec, "BBB": ec, "BB": ec})


def payable_profile(mtm=-100.0, horizon=10.0, n=21):
    times = np.linspace(0.0, horizon, n)
    decay = np.linspace(1.0, 0.0, n)
    return ExposureProfile(times, np.zeros(n), -mtm * decay, mtm, abs(mtm) * 5.0)


def simple_set(id="S1", req=50.0, rating="A", mtm=None):
    mtm = -req if mtm is None else mtm
    return NettingSet(id, req, rating, payable_profile(mtm=mtm))


@pytest.fixture
def ois():
    return RateCurve.flat(0.01, "OIS")


@pytest.fixture
def poster(ois):
    bond = RateCurve.flat(0.035, "bond_C")
    liq = RateCurve.flat(0.02, "liquidity_C")
    return PartyCurves(bond=bond, liquidity=liq)


@pytest.fixture
def repo_params():
    return RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.001, "mu0"),
                           hazard=RateCurve.flat(0.02, "hazard"))


class TestSolveLp:
    def test_single_asset_single_set(self):
        asset = simple_asset(h_csa=0.1, quantity=200.0)
        ns = simple_set(req=90.0)
        problem = AllocationProblem((asset,), (ns,), np.array([[0.05]]))
        alloc = solve_lp(problem)
        assert alloc.q[0, 0] == pytest.approx(90.0 / 0.9, rel=1e-12)
        assert alloc.objective == pytest.approx(0.05 * 100.0, rel=1e-12)

    def test_prefers_higher_unit_lva(self):
        a1 = simple_asset("low", quantity=100.0)
        a2 = simple_asset("high", quantity=100.0)
        ns = simple_set(req=50.0)
        problem = AllocationProblem((a1, a2), (ns,), np.array([[0.01], [0.03]]))
        alloc = solve_lp(problem)
        assert alloc.q[1, 0] == pytest.approx(50.0)
        assert alloc.q[0, 0] == 0.0

    def test_eligibility_bounds_respected(self):
        # a zero bound makes an asset ineligible for the set, even when it
        # earns the most there
        a1 = simple_asset("a1", quantity=100.0)
        a2 = simple_asset("a2", quantity=100.0)
        ns = simple_set("s1", req=50.0)
        bounds = np.array([[0.0], [np.inf]])
        problem = AllocationProblem((a1, a2), (ns,), np.array([[0.05], [0.01]]),
                                    bounds=bounds)
        alloc = solve_lp(problem)
        assert alloc.q[0, 0] == 0.0
        assert alloc.q[1, 0] == pytest.approx(50.0)

    def test_eligible_for_filter(self):
        # eligibility is per set: an asset barred from s1 by a zero bound is
        # still posted to s2
        a1 = simple_asset("a1", quantity=100.0)
        a2 = simple_asset("a2", quantity=100.0)
        sets = (simple_set("s1", req=50.0), simple_set("s2", req=30.0))
        bounds = np.array([[0.0, np.inf], [np.inf, np.inf]])
        problem = AllocationProblem((a1, a2), sets,
                                    np.array([[0.05, 0.05], [0.01, 0.01]]),
                                    bounds=bounds)
        alloc = solve_lp(problem)
        assert alloc.q[0, 0] == 0.0
        assert alloc.q[1, 0] == pytest.approx(50.0)
        assert alloc.q[0, 1] == pytest.approx(30.0)

    def test_infeasible_names_requirement(self):
        asset = simple_asset(quantity=10.0)
        ns = simple_set("BIG", req=50.0)
        problem = AllocationProblem((asset,), (ns,), np.array([[0.05]]))
        with pytest.raises(AllocationInfeasibleError) as err:
            solve_lp(problem)
        assert any("BIG" in lab for lab in err.value.labels)

    def test_hqla_floor_never_increases_objective(self):
        a1 = simple_asset("a1", quantity=100.0, h_lcr=0.0)
        a2 = simple_asset("a2", quantity=100.0, h_lcr=0.5)
        sets = (simple_set("s1", req=60.0), simple_set("s2", req=40.0))
        e = np.array([[0.05, 0.04], [0.02, 0.01]])
        free = solve_lp(AllocationProblem((a1, a2), sets, e))
        floored = solve_lp(AllocationProblem((a1, a2), sets, e, hqla_floor=80.0))
        assert floored.objective <= free.objective + 1e-9
        # the floor binds: the unposted HQLA value is exactly the floor
        hqla_weight = np.array([(1.0 - a.h_lcr) * a.price for a in (a1, a2)])
        assert floored.slacks @ hqla_weight == pytest.approx(80.0)

    def test_objective_scales_with_unit_lva(self):
        a1 = simple_asset("a1", quantity=100.0, h_csa=0.1)
        a2 = simple_asset("a2", quantity=100.0, h_csa=0.2)
        sets = (simple_set("s1", req=60.0), simple_set("s2", req=40.0))
        e = np.array([[0.05, 0.04], [0.02, 0.01]])
        base = solve_lp(AllocationProblem((a1, a2), sets, e))
        scaled = solve_lp(AllocationProblem((a1, a2), sets, 3.0 * e))
        assert scaled.objective == pytest.approx(3.0 * base.objective, rel=1e-9)
        assert np.allclose(scaled.q, base.q, atol=1e-9)

    def test_equal_unit_lva_pins_objective(self):
        # same conversion factor for all assets: posted units are pinned by
        # the funding equalities, so any feasible vertex shares the objective
        a1 = simple_asset("a1", quantity=100.0, h_csa=0.1)
        a2 = simple_asset("a2", quantity=100.0, h_csa=0.1)
        sets = (simple_set("s1", req=45.0), simple_set("s2", req=27.0))
        e = np.full((2, 2), 0.03)
        alloc = solve_lp(AllocationProblem((a1, a2), sets, e))
        units = (45.0 + 27.0) / 0.9
        assert alloc.objective == pytest.approx(0.03 * units, rel=1e-12)

    def test_layout_matches_hand_written_lp(self, monkeypatch):
        # columns q11 q12 q21 q22, unused u1 u2, HQLA surplus; rows
        # inventory a1 a2, funding s1 s2, HQLA floor
        a1 = simple_asset("a1", price=2.0, quantity=100.0, h_csa=0.25, h_lcr=0.5)
        a2 = simple_asset("a2", price=1.0, quantity=80.0, h_csa=0.5, h_lcr=0.25)
        sets = (simple_set("s1", req=30.0), simple_set("s2", req=20.0))
        e = np.array([[0.05, 0.04], [0.02, 0.03]])
        bounds = np.array([[np.inf, 40.0], [np.inf, np.inf]])
        seen = []

        def capture(c, a, b, upper):
            seen.append((c, a, b, upper))
            return solve_bounded_lp(c, a, b, upper)

        monkeypatch.setattr(cxva.optimizer, "solve_bounded_lp", capture)
        solve_lp(AllocationProblem((a1, a2), sets, e, hqla_floor=50.0, bounds=bounds))
        (c, a, b, upper), = seen
        inf = np.inf
        assert np.array_equal(c, [0.05, 0.04, 0.02, 0.03, 0.0, 0.0, 0.0])
        assert np.array_equal(upper, [100.0, 40.0, 80.0, 80.0, 100.0, 80.0, inf])
        assert np.array_equal(b, [100.0, 80.0, 30.0, 20.0, 50.0])
        assert np.array_equal(a, [[1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0],
                                  [1.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0],
                                  [0.0, 1.5, 0.0, 0.5, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0, 0.0, 1.0, 0.75, -1.0]])

    def test_unmet_hqla_floor_names_it(self):
        # 40 units stay unposted at most, against a floor of 80
        asset = simple_asset(quantity=100.0)
        ns = simple_set("S1", req=60.0)
        problem = AllocationProblem((asset,), (ns,), np.array([[0.05]]), hqla_floor=80.0)
        with pytest.raises(AllocationInfeasibleError) as err:
            solve_lp(problem)
        assert "hqla_floor" in err.value.labels

    def test_unmet_requirement_named_under_a_floor(self):
        # the requirement is beyond the inventory with or without the floor,
        # which the 10 units would meet unposted: the requirement is named
        asset = simple_asset(quantity=10.0)
        ns = simple_set("BIG", req=50.0)
        problem = AllocationProblem((asset,), (ns,), np.array([[0.05]]), hqla_floor=5.0)
        with pytest.raises(AllocationInfeasibleError) as err:
            solve_lp(problem)
        assert err.value.labels == ["funding:BIG"]

    def test_unmet_floor_named_beside_unmet_requirement(self):
        # the 10 units meet neither the requirement nor, held back, the floor
        asset = simple_asset(quantity=10.0)
        ns = simple_set("BIG", req=50.0)
        problem = AllocationProblem((asset,), (ns,), np.array([[0.05]]), hqla_floor=80.0)
        with pytest.raises(AllocationInfeasibleError) as err:
            solve_lp(problem)
        assert err.value.labels == ["funding:BIG", "hqla_floor"]

    def test_binding_names_exhausted_asset_and_capped_pair(self):
        # s2 takes at most 10 of a2, so a1 covers the rest of s2 and runs out
        a1 = simple_asset("a1", quantity=50.0)
        a2 = simple_asset("a2", quantity=200.0)
        sets = (simple_set("s1", req=80.0), simple_set("s2", req=40.0))
        e = np.array([[0.05, 0.01], [0.02, 0.04]])
        bounds = np.array([[np.inf, np.inf], [np.inf, 10.0]])
        alloc = solve_lp(AllocationProblem((a1, a2), sets, e, bounds=bounds))
        assert alloc.q == pytest.approx(np.array([[20.0, 30.0], [60.0, 10.0]]))
        assert alloc.slacks[0] == pytest.approx(0.0)

    def test_funding_haircut_variant(self):
        asset = simple_asset(h_csa=0.1, h_repo=0.2, quantity=200.0)
        ns = simple_set(req=90.0)
        csa = solve_lp(AllocationProblem((asset,), (ns,), np.array([[0.05]]),
                                         funding_haircut="csa"))
        repo = solve_lp(AllocationProblem((asset,), (ns,), np.array([[0.05]]),
                                          funding_haircut="repo"))
        assert csa.q[0, 0] == pytest.approx(90.0 / 0.9)
        assert repo.q[0, 0] == pytest.approx(90.0 / 0.8)


# LP columns: CAPPED's q_a1s1, q_a2s1, u_a1, u_a2; FLOORED's q, u and the HQLA surplus
CAPPED = AllocationProblem((simple_asset("a1"), simple_asset("a2")), (simple_set("s1"),),
                           np.array([[0.05], [0.01]]), bounds=np.array([[10.0], [np.inf]]))
FLOORED = AllocationProblem((simple_asset("a1"),), (simple_set("s1", req=60.0),),
                            np.array([[0.05]]), hqla_floor=45.0)


class TestAnswerCheck:
    """A simplex answer that breaks the LP it was given is a solver failure
    naming what it breaks."""

    @pytest.mark.parametrize("problem, x, broken", [
        (CAPPED, [10.0, 40.0, 91.0, 60.0], "inventory:a1"),
        (CAPPED, [10.0, 39.0, 90.0, 61.0], "funding:s1"),
        # 40 of HQLA held back against a floor of 45, the floor row met by
        # a negative surplus
        (FLOORED, [60.0, 40.0, -5.0], "hqla_floor"),
        # the same shortfall with the surplus at 0: the floor row itself is off
        (FLOORED, [60.0, 40.0, 0.0], "hqla_floor"),
        # every row met, a1 posted to s1 beyond its eligibility cap of 10
        (CAPPED, [20.0, 30.0, 80.0, 70.0], "q:a1:s1"),
    ], ids=["inventory", "funding", "floor", "floor-row", "cap"])
    def test_broken_answer_raises(self, monkeypatch, problem, x, broken):
        def tampered(c, a, b, upper):
            return LpResult(np.array(x), float(c @ x), [], 0)

        monkeypatch.setattr(cxva.optimizer, "solve_bounded_lp", tampered)
        with pytest.raises(LpSolverError, match=f"breaks {broken}$"):
            solve_lp(problem)


def first_unit_lva(assets, sets, poster, ois, params):
    """Unit-LVA matrix of the first allocation round (requirements = |MTM|)."""
    return iterate_allocation(assets, sets, poster, ois, params,
                              max_iter=1, n_steps=120).states[0].unit_lva


class TestUnitLva:
    def test_cash_has_zero_unit_lva(self, poster, ois):
        cash = simple_asset("cash", h_csa=0.0, h_repo=0.0, ec=0.0)
        params = RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.0),
                                 hazard=RateCurve.flat(0.0))
        ns = simple_set(req=50.0)
        assert first_unit_lva([cash], [ns], poster, ois, params)[0, 0] == 0.0

    def test_zero_requirement_convention(self, poster, ois, repo_params):
        ns = NettingSet("empty", 0.0, "A", payable_profile(mtm=0.0))
        assert first_unit_lva([simple_asset()], [ns], poster, ois,
                              repo_params)[0, 0] == 0.0

    def test_higher_spread_larger_benefit(self, poster, ois):
        lo = RepoModelParams(roe=0.10, mu0_curve=RateCurve.flat(0.001),
                             hazard=RateCurve.flat(0.0))
        hi = RepoModelParams(roe=0.20, mu0_curve=RateCurve.flat(0.002),
                             hazard=RateCurve.flat(0.0))
        ns = simple_set(req=50.0)
        asset = simple_asset(ec=0.01)
        assert first_unit_lva([asset], [ns], poster, ois, hi)[0, 0] \
            > first_unit_lva([asset], [ns], poster, ois, lo)[0, 0]

    def test_unknown_rating_raises(self, poster, ois, repo_params):
        asset = CollateralAsset("x", 1.0, 10.0, 0.0, 0.0, 0.0, {"AA": 0.001})
        ns = simple_set(rating="BBB", req=10.0)
        with pytest.raises(KeyError, match="no economic capital for rating 'BBB'"):
            first_unit_lva([asset], [ns], poster, ois, repo_params)

    def test_matrix_shape(self, poster, ois, repo_params):
        assets = [simple_asset("a1"), simple_asset("a2", h_csa=0.1)]
        sets = [simple_set("s1"), simple_set("s2", rating="BB")]
        e = first_unit_lva(assets, sets, poster, ois, repo_params)
        assert e.shape == (2, 2)
        assert np.all(e >= 0.0)


class TestIterateAllocation:
    def test_zero_spread_fixed_point(self, poster, ois):
        params = RepoModelParams(roe=0.0, mu0_curve=RateCurve.flat(0.0),
                                 hazard=RateCurve.flat(0.0))
        assets = [simple_asset("a1", quantity=200.0)]
        sets = [simple_set("s1", req=50.0, mtm=-50.0)]
        result = iterate_allocation(assets, sets, poster, ois, params, tol=0.01, n_steps=120)
        assert result.status == "converged"
        assert len(result.states) == 1
        assert result.final.mtms[0] == pytest.approx(-50.0, abs=1e-12)

    def test_mtms_shrink_in_magnitude(self, poster, ois, repo_params):
        assets = [simple_asset("a1", quantity=500.0, h_csa=0.05, h_repo=0.03,
                               ec=0.02),
                  simple_asset("a2", quantity=500.0, h_csa=0.15, h_repo=0.075,
                               ec=0.03)]
        sets = [simple_set("s1", req=100.0, mtm=-100.0),
                simple_set("s2", req=60.0, mtm=-60.0)]
        result = iterate_allocation(assets, sets, poster, ois, repo_params,
                                    tol=0.01, max_iter=5, n_steps=120)
        assert result.status == "converged"
        first = result.states[0]
        assert np.all(np.abs(first.mtms) < np.array([100.0, 60.0]))
        # requirements track the revalued MTMs on the next round
        if len(result.states) > 1:
            assert np.allclose(result.states[1].requirements,
                               np.abs(first.mtms))

    def test_trajectory_records_allocations(self, poster, ois, repo_params):
        assets = [simple_asset("a1", quantity=300.0, ec=0.01)]
        sets = [simple_set("s1", req=80.0, mtm=-80.0)]
        result = iterate_allocation(assets, sets, poster, ois, repo_params, n_steps=120)
        state = result.states[0]
        assert state.allocation.q[0, 0] == pytest.approx(80.0, rel=1e-9)
        assert state.unit_lva[0, 0] > 0.0


class TestProblemValidation:
    def test_bad_matrix_shape(self):
        with pytest.raises(AllocationError):
            AllocationProblem((simple_asset(),), (simple_set(),),
                              np.zeros((2, 2)))

    def test_negative_requirement(self):
        with pytest.raises(AllocationError):
            NettingSet("x", -1.0, "A", payable_profile())

    @pytest.mark.parametrize("requirement", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_requirement(self, requirement):
        with pytest.raises(AllocationError, match=r"x: requirement must be a finite number in \[0, inf\)"):
            NettingSet("x", requirement, "A", payable_profile())
