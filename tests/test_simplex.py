from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import cxva.optimizer
import cxva.simplex
from cxva.cli import main
from cxva.simplex import (_ITERATIONS_PER_SIZE, _TOL, LpInfeasibleError, LpResult,
                          LpSolverError, LpUnboundedError, _inverse, _phase, solve_bounded_lp)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


# Beale (1955): max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 with slacks x1..x3, on
# which largest-coefficient pricing without an anti-cycling rule cycles
# forever through degenerate vertices
BEALE_A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                    [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
BEALE_C = [0.0, 0.0, 0.0, 0.75, -20.0, 0.5, -6.0]
BEALE_B = np.array([0.0, 0.0, 1.0])


def random_problem(seed):
    """A feasible LP with a few infinite upper bounds (m <= 5)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, m + 8))
    a = rng.normal(size=(m, n))
    b = a @ rng.uniform(0.0, 2.0, n)  # feasible by construction
    upper = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(2.0, 6.0, n))
    c = rng.normal(size=n)
    return c, a, b, upper


def degenerate_problem(seed):
    """b = A x0 with most of x0 at a bound, so many vertices are degenerate."""
    rng = np.random.default_rng([seed, 55])
    m = int(rng.integers(3, 10))
    n = int(rng.integers(m + 2, m + 16))
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    upper = np.where(rng.random(n) < 0.3, np.inf, rng.integers(1, 4, n).astype(float))
    x0 = np.where(rng.random(n) < 0.6, 0.0, np.minimum(upper, 1.0))
    b = a @ x0
    c = rng.integers(-5, 6, n).astype(float)
    return c, a, b, upper


def capped_problem(seed):
    """A feasible LP whose columns nearly all have small finite caps, so the
    simplex often runs an entering column to its cap (a bound flip)."""
    rng = np.random.default_rng([seed, 77])
    m = int(rng.integers(2, 12))
    n = int(rng.integers(m + 4, m + 40))
    a = rng.uniform(-1.0, 2.0, size=(m, n))
    upper = np.where(rng.random(n) < 0.1, np.inf, rng.uniform(0.1, 1.0, n))
    b = a @ (rng.uniform(0.0, 1.0, n) * np.minimum(upper, 1.0))
    c = rng.normal(size=n)
    return c, a, b, upper


def scipy_reference(c, a, b, upper):
    bounds = [(0.0, None if not np.isfinite(u) else u) for u in upper]
    return linprog(-np.asarray(c), A_eq=a, b_eq=b, bounds=bounds, method="highs")


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems(self, seed):
        c, a, b, upper = random_problem(seed)
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

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(cxva.simplex, "_ITERATIONS_PER_SIZE", 0)
        with pytest.raises(LpSolverError, match="exceeded 0 iterations"):
            solve_bounded_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [np.inf, np.inf])


class TestDegenerate:
    def test_beale_cycling_example(self):
        a, c, b, upper = BEALE_A, BEALE_C, BEALE_B, np.full(7, np.inf)
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
        c, a, b, upper = degenerate_problem(seed)
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


# cxva.simplex._phase and solve_bounded_lp as they were before each iteration
# kept what a bound flip or a pivot leaves unchanged; the pivot oracle below
# holds the kernel to this pivot sequence bit for bit

def _reference_phase(c, a, b, upper, basis, at_upper, max_iter):
    """Primal simplex sweeps from a feasible basis; mutates basis/at_upper."""
    m, n = a.shape
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    binv = _inverse(a[:, basis])
    changes = 0
    degenerate = False
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iter:
            raise LpSolverError(f"simplex exceeded {max_iter} iterations")
        x_n = np.where(at_upper & ~in_basis, upper, 0.0)
        x_b = binv @ (b - a @ x_n)
        rc = c - (c[basis] @ binv) @ a
        eligible = ~in_basis & np.where(at_upper, rc < -_TOL, rc > _TOL)
        if not eligible.any():
            break
        if degenerate:
            entering = int(np.argmax(eligible))
        else:
            entering = int(np.argmax(np.where(eligible, np.abs(rc), -1.0)))

        # entering moves by step >= 0: up from 0, or down from its upper bound
        column = binv @ a[:, entering]
        d = -column if at_upper[entering] else column
        u_b = upper[basis]
        falls = d > _TOL
        rises = (d < -_TOL) & np.isfinite(u_b)
        rows = np.flatnonzero(falls | rises)
        ratios = np.where(falls, x_b, u_b - x_b)[rows] / np.abs(d[rows])

        step = upper[entering] if np.isfinite(upper[entering]) else np.inf
        leave_row = -1
        leave_at_upper = False
        for i, t_i, hit_upper in zip(rows.tolist(), ratios.tolist(),
                                     rises[rows].tolist()):
            # Bland tie-break: strictly smaller step, or same step with a
            # smaller basic variable index
            if t_i < step - _TOL or (t_i < step + _TOL and leave_row >= 0
                                     and basis[i] < basis[leave_row]):
                step = max(t_i, 0.0)
                leave_row = i
                leave_at_upper = hit_upper
        if not np.isfinite(step):
            raise LpUnboundedError("objective unbounded above")
        degenerate = step <= _TOL

        if leave_row < 0:
            # bound flip: the entering variable runs to its other bound
            at_upper[entering] = not at_upper[entering]
            continue
        leaving = basis[leave_row]
        basis[leave_row] = entering
        in_basis[leaving] = False
        in_basis[entering] = True
        at_upper[entering] = False
        at_upper[leaving] = leave_at_upper
        changes += 1
        if changes % m == 0:
            binv = _inverse(a[:, basis])
        else:
            pivot = binv[leave_row] / column[leave_row]
            binv -= np.outer(column, pivot)
            binv[leave_row] = pivot

    nb_up = at_upper & ~in_basis
    try:
        x_b = np.linalg.solve(a[:, basis], b - a[:, nb_up] @ upper[nb_up])
    except np.linalg.LinAlgError as err:
        raise LpSolverError("singular simplex basis") from err
    x = np.zeros(n)
    x[nb_up] = upper[nb_up]
    x[basis] = x_b
    return x, iterations


def reference_bounded_lp(c, a, b, upper) -> LpResult:
    """cxva.simplex.solve_bounded_lp as it was before each iteration kept
    what a bound flip or a pivot leaves unchanged: every iteration rebuilds
    x_N, b - A x_N, c_B, the reduced costs and the basic upper bounds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = a.shape
    if len(b) != m or len(c) != n or len(upper) != n:
        raise ValueError("inconsistent LP dimensions")
    if np.any(upper < -_TOL):
        raise ValueError("upper bounds must be non-negative")
    max_iter = _ITERATIONS_PER_SIZE * (m + n + 10)

    # phase 1: artificials with +/-1 coefficients so they start at |b| >= 0
    signs = np.where(b < 0.0, -1.0, 1.0)
    a1 = np.hstack([a, np.diag(signs)])
    c1 = np.concatenate([np.zeros(n), -np.ones(m)])
    u1 = np.concatenate([upper, np.full(m, np.inf)])
    basis = np.arange(n, n + m)
    at_upper = np.zeros(n + m, dtype=bool)
    x1, it1 = _reference_phase(c1, a1, b, u1, basis, at_upper, max_iter)
    infeas = float(np.sum(x1[n:]))
    if infeas > 1e-7 * max(1.0, float(np.max(np.abs(b))) if m else 1.0):
        bad = [i for i in range(m) if x1[n + i] > 1e-7 * max(1.0, abs(b[i]))]
        raise LpInfeasibleError(bad)

    # phase 2: lock artificials at zero and optimize the real objective
    u1[n:] = 0.0
    c2 = np.concatenate([c, np.zeros(m)])
    x2, it2 = _reference_phase(c2, a1, b, u1, basis, at_upper, max_iter)
    x = x2[:n]
    return LpResult(x=x, objective=float(c @ x), basis=[j for j in basis.tolist() if j < n],
                    iterations=it1 + it2)


@pytest.fixture(scope="module")
def allocation_reference_lps(tmp_path_factory):
    """(c, a, b, upper) of the LPs that cxva optimize solves on the shipped
    allocation_reference scenario, one per allocation round."""
    lps = []

    def record(c, a, b, upper):
        lps.append((c, a, b, upper))
        return solve_bounded_lp(c, a, b, upper)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cxva.optimizer, "solve_bounded_lp", record)
        assert main(["optimize", "--scenario", str(ROOT / "scenarios" / "allocation_reference.json"),
                     "--out", str(tmp_path_factory.mktemp("allocation"))]) == 0
    return lps


def solve_or_error(solve, lp):
    try:
        return solve(*lp)
    except (LpInfeasibleError, LpUnboundedError, LpSolverError) as err:
        return type(err), str(err)


def assert_same_pivots(lp):
    """solve_bounded_lp makes the reference's pivots: bitwise the same x,
    basis, iteration count and objective, or the same error."""
    got, want = solve_or_error(solve_bounded_lp, lp), solve_or_error(reference_bounded_lp, lp)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.x.tobytes() == want.x.tobytes()
    assert got.basis == want.basis
    assert got.iterations == want.iterations
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()


class TestSamePivots:
    @pytest.mark.parametrize("seed", [1, 97])
    def test_lp_resolve(self, lp_resolve_lps, seed):
        for lp in lp_resolve_lps[seed]:
            assert_same_pivots(lp)

    def test_allocation_reference(self, allocation_reference_lps):
        assert len(allocation_reference_lps) == 3
        for lp in allocation_reference_lps:
            assert_same_pivots(lp)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_problems(self, seed):
        assert_same_pivots(random_problem(seed))

    @pytest.mark.parametrize("seed", range(30))
    def test_degenerate_problems(self, seed):
        assert_same_pivots(degenerate_problem(seed))

    @pytest.mark.parametrize("seed", range(30))
    def test_capped_problems(self, seed):
        assert_same_pivots(capped_problem(seed))

    def test_beale(self):
        assert_same_pivots((BEALE_C, BEALE_A, BEALE_B, np.full(7, np.inf)))
        runs = []
        for phase in (_phase, _reference_phase):
            basis, at_upper = np.arange(3), np.zeros(7, dtype=bool)
            x, iterations = phase(np.array(BEALE_C), BEALE_A, BEALE_B, np.full(7, np.inf),
                                  basis, at_upper, max_iter=100)
            runs.append((x.tobytes(), iterations, basis.tolist(), at_upper.tolist()))
        assert runs[0] == runs[1]


def test_no_floating_point_warnings(lp_resolve_lps):
    # cxva optimize solves its LPs with over/divide/invalid raising
    with np.errstate(all="raise"):
        for seed in (1, 97):
            for lp in lp_resolve_lps[seed]:
                solve_bounded_lp(*lp)
        for seed in range(30):
            solve_or_error(solve_bounded_lp, degenerate_problem(seed))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c", "a", "b"])
    def test_rejected(self, name, value):
        lp = {"c": np.array([1.0, 0.0]), "a": np.array([[1.0, 1.0]]), "b": np.array([1.0]),
              "upper": np.array([np.inf, 2.0])}
        lp[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"^LP {name} must be finite$"):
            solve_bounded_lp(**lp)

    def test_nan_upper_rejected(self):
        with pytest.raises(ValueError, match="^LP upper must not be NaN$"):
            solve_bounded_lp([1.0, 0.0], [[1.0, 1.0]], [1.0], [np.nan, 2.0])
