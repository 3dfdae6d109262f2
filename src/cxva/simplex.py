"""Dense bounded-variable revised primal simplex.

Solves   max c.x   s.t.  A x = b,  0 <= x <= upper   (upper may be +inf).

Two phases: artificials establish feasibility, then the real objective is
optimized with the artificials locked at zero. Each phase keeps an explicit
basis inverse, updated by a rank-one (product-form) pivot and refactored
from the basis columns once every m basis changes (m = row count). Pricing
is Dantzig's (largest |reduced cost|, ties to the smallest index) after a
nondegenerate pivot and Bland's smallest-index rule while the previous
pivot was degenerate; the ratio test breaks ties by Bland's rule too. A
cycle is made only of degenerate pivots, all priced by Bland's rule, which
never cycles, so the solve terminates; every choice is deterministic. The
returned x comes from one dense solve on the final basis.

An iteration either pivots or flips the entering column to its other bound
without a basis change. Iteration counts include the flips. Each iteration
recomputes only what its inputs moved:
- x_B = B^-1 (b - A x_N), every iteration;
- b - A x_N, only after a flip or a pivot that moves a nonbasic column
  to or from its upper bound;
- the reduced costs c - (c_B B^-1) A and the pricing scores built from
  them, only after a pivot: a flip leaves the basis and B^-1 as they were,
  and only negates the flipped column's score.
c_B and the basic upper bounds are kept as arrays, updated at each pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
# each phase's iteration cap on an m x n problem: _ITERATIONS_PER_SIZE * (m + n + 10)
_ITERATIONS_PER_SIZE = 50


class LpInfeasibleError(ValueError):
    """Phase 1 ended with positive artificials; rows lists the offenders."""

    def __init__(self, rows: list[int]):
        self.rows = rows
        super().__init__(f"LP infeasible; unsatisfiable constraint rows: {rows}")


class LpUnboundedError(ValueError):
    """The objective increases without bound along a feasible ray."""


class LpSolverError(RuntimeError):
    """The solve broke down: iteration cap, singular basis, or a result the
    model rules out."""


@dataclass
class LpResult:
    x: np.ndarray
    objective: float
    basis: list[int]
    iterations: int


def _inverse(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as err:
        raise LpSolverError("singular simplex basis") from err


def _phase(c, a, b, upper, basis, at_upper, max_iter):
    """Primal simplex sweeps from a feasible basis; mutates basis/at_upper."""
    m, n = a.shape
    a_t = np.ascontiguousarray(a.T)  # row j is column j of A
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    upper_l = upper.tolist()
    c_b = c[basis]
    upper_b = upper[basis]
    finite_b = np.isfinite(upper_b)
    binv = _inverse(a[:, basis])
    changes = 0
    degenerate = False
    iterations = 0
    r = None  # b - A x_N; None when the nonbasic columns at upper bound moved
    score = None  # signed reduced costs, basic columns masked; None after a pivot
    while True:
        iterations += 1
        if iterations > max_iter:
            raise LpSolverError(f"simplex exceeded {max_iter} iterations")
        if r is None:
            r = b - a @ np.where(at_upper & ~in_basis, upper, 0.0)
        x_b = binv @ r
        if score is None:
            rc = c - (c_b @ binv) @ a
            # > _TOL where raising (at 0) or lowering (at upper) the column improves
            score = np.where(at_upper, -rc, rc)
            score[in_basis] = -math.inf
        if degenerate:
            entering = int((score > _TOL).argmax())
        else:
            entering = int(score.argmax())
        if not score[entering] > _TOL:
            break

        # entering moves by step >= 0: up from 0, or down from its upper bound
        column = binv @ a_t[entering]
        entering_at_upper = bool(at_upper[entering])
        d = -column if entering_at_upper else column
        falls = d > _TOL
        rises = (d < -_TOL) & finite_b
        rows = (falls | rises).nonzero()[0]
        x_r = x_b[rows]
        ratios = np.where(falls[rows], x_r, upper_b[rows] - x_r) / np.abs(d[rows])

        step = upper_l[entering]
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
        if not math.isfinite(step):
            raise LpUnboundedError("objective unbounded above")
        degenerate = step <= _TOL

        if leave_row < 0:
            # bound flip: the basis and B^-1, hence the reduced costs, stay;
            # the entering column runs to its other bound
            at_upper[entering] = not entering_at_upper
            score[entering] = -score[entering]
            r = None
            continue
        leaving = basis[leave_row]
        basis[leave_row] = entering
        in_basis[leaving] = False
        in_basis[entering] = True
        at_upper[entering] = False
        at_upper[leaving] = leave_at_upper
        c_b[leave_row] = c[entering]
        upper_b[leave_row] = upper_l[entering]
        finite_b[leave_row] = math.isfinite(upper_l[entering])
        score = None
        if entering_at_upper or leave_at_upper:
            r = None
        changes += 1
        if changes % m == 0:
            binv = _inverse(a[:, basis])
        else:
            pivot = binv[leave_row] / column[leave_row]
            binv -= column[:, None] * pivot
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


def solve_bounded_lp(c, a, b, upper) -> LpResult:
    """Maximize c.x subject to A x = b and 0 <= x <= upper."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = a.shape
    if len(b) != m or len(c) != n or len(upper) != n:
        raise ValueError("inconsistent LP dimensions")
    for name, value in (("c", c), ("a", a), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"LP {name} must be finite")
    if np.isnan(upper).any():
        raise ValueError("LP upper must not be NaN")
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
    x1, it1 = _phase(c1, a1, b, u1, basis, at_upper, max_iter)
    infeas = float(np.sum(x1[n:]))
    if infeas > 1e-7 * max(1.0, float(np.max(np.abs(b))) if m else 1.0):
        bad = [i for i in range(m) if x1[n + i] > 1e-7 * max(1.0, abs(b[i]))]
        raise LpInfeasibleError(bad)

    # phase 2: lock artificials at zero and optimize the real objective
    u1[n:] = 0.0
    c2 = np.concatenate([c, np.zeros(m)])
    x2, it2 = _phase(c2, a1, b, u1, basis, at_upper, max_iter)
    x = x2[:n]
    return LpResult(x=x, objective=float(c @ x), basis=[j for j in basis.tolist() if j < n],
                    iterations=it1 + it2)
