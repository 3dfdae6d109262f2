from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import cxva.optimizer
from cxva.simplex import (LpInfeasibleError, LpSolverError, LpUnboundedError,
                          _phase, solve_bounded_lp)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def scipy_reference(c, a, b, upper):
    bounds = [(0.0, None if not np.isfinite(u) else u) for u in upper]
    return linprog(-np.asarray(c), A_eq=a, b_eq=b, bounds=bounds, method="highs")


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, m + 8))
        a = rng.normal(size=(m, n))
        b = a @ rng.uniform(0.0, 2.0, n)  # feasible by construction
        upper = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(2.0, 6.0, n))
        c = rng.normal(size=n)
        ref = scipy_reference(c, a, b, upper)
        if ref.status == 3:
            return  # unbounded; covered separately
        res = solve_bounded_lp(c, a, b, upper)
        assert ref.status == 0
        assert res.objective == pytest.approx(-ref.fun, abs=1e-7, rel=1e-9)
        assert np.all(res.x >= -1e-9)
        assert np.all(res.x <= upper + 1e-9)
        assert np.max(np.abs(a @ res.x - b)) < 1e-7

    def test_unbounded_detected(self):
        with pytest.raises(LpUnboundedError):
            solve_bounded_lp([0.0, 1.0], [[1.0, 0.0]], [1.0], [np.inf, np.inf])

    def test_infeasible_names_rows(self):
        # x1 = 1 and x1 = 2 cannot both hold
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(LpInfeasibleError) as err:
            solve_bounded_lp([1.0, 1.0], a, [1.0, 2.0], [np.inf, np.inf])
        assert err.value.rows  # at least one offending row reported

    def test_bound_flip_path(self):
        # optimum sits at an upper bound, exercising the flip logic
        res = solve_bounded_lp([1.0, 0.0], [[1.0, 1.0]], [3.0], [2.0, np.inf])
        assert res.x[0] == pytest.approx(2.0)
        assert res.objective == pytest.approx(2.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 7))
        b = a @ rng.uniform(0.0, 1.0, 7)
        c = rng.normal(size=7)
        upper = np.full(7, 4.0)
        r1 = solve_bounded_lp(c, a, b, upper)
        r2 = solve_bounded_lp(c, a, b, upper)
        assert np.array_equal(r1.x, r2.x)
        assert r1.basis == r2.basis

    def test_iteration_cap(self):
        with pytest.raises(LpSolverError, match="exceeded 1 iterations"):
            solve_bounded_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [np.inf, np.inf],
                             max_iter=1)


class TestDegenerate:
    def test_beale_cycling_example(self):
        # Beale (1955): max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 with slacks x1..x3,
        # on which largest-coefficient pricing without an anti-cycling rule
        # cycles forever through degenerate vertices
        a = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        c = [0.0, 0.0, 0.0, 0.75, -20.0, 0.5, -6.0]
        b, upper = np.array([0.0, 0.0, 1.0]), np.full(7, np.inf)
        res = solve_bounded_lp(c, a, b, upper)
        assert res.objective == pytest.approx(1.25, abs=1e-12)
        assert res.x[[3, 5]] == pytest.approx([1.0, 1.0], abs=1e-12)
        # from the slack basis, where that cycle starts, the Bland fallback
        # reaches the optimum
        x, _ = _phase(np.array(c), a, b, upper, np.arange(3), np.zeros(7, dtype=bool),
                      max_iter=100)
        assert float(np.dot(c, x)) == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_degenerate_problems(self, seed):
        # b = A x0 with most of x0 at a bound, so many vertices are degenerate
        rng = np.random.default_rng([seed, 55])
        m = int(rng.integers(3, 10))
        n = int(rng.integers(m + 2, m + 16))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        upper = np.where(rng.random(n) < 0.3, np.inf, rng.integers(1, 4, n).astype(float))
        x0 = np.where(rng.random(n) < 0.6, 0.0, np.minimum(upper, 1.0))
        b = a @ x0
        c = rng.integers(-5, 6, n).astype(float)
        ref = scipy_reference(c, a, b, upper)
        if ref.status == 3:
            with pytest.raises(LpUnboundedError):
                solve_bounded_lp(c, a, b, upper)
            return
        assert ref.status == 0
        res = solve_bounded_lp(c, a, b, upper)
        assert res.objective == pytest.approx(-ref.fun, abs=1e-9, rel=1e-9)
        assert np.max(np.abs(a @ res.x - b)) < 1e-9


@pytest.fixture(scope="module")
def lp_resolve_lps(tmp_path_factory):
    """(c, a, b, upper) of every LP the benchmark's lp_resolve workload
    hands the kernel, 6x4 to 36x18 allocations, for seeds 1 and 97."""
    lps = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        from workloads import LpResolve

        def record(c, a, b, upper):
            lps[seed].append((c, a, b, upper))
            return solve_bounded_lp(c, a, b, upper)

        mp.setattr(cxva.optimizer, "solve_bounded_lp", record)
        for seed in (1, 97):
            lps[seed] = []
            dest = tmp_path_factory.mktemp(f"lp_resolve_{seed}")
            LpResolve().generate(seed, dest)
            for problem in LpResolve().prepare(dest):
                cxva.optimizer.solve_lp(problem)
    return lps


@pytest.mark.parametrize("seed", [1, 97])
def test_lp_resolve_shapes_match_highs(lp_resolve_lps, seed):
    assert len(lp_resolve_lps[seed]) == 5
    for c, a, b, upper in lp_resolve_lps[seed]:
        ref = scipy_reference(c, a, b, upper)
        assert ref.status == 0
        res = solve_bounded_lp(c, a, b, upper)
        assert res.objective == pytest.approx(-ref.fun, rel=1e-12)
        assert res.x == pytest.approx(ref.x, abs=1e-9)
