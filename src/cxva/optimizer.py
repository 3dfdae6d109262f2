"""LVA-maximizing collateral allocation across netting sets.

Pipeline: price each asset's benefit per unit against each netting set
(unit LVA), then solve the LP below. Its columns are the posted q_ij
(row-major), each asset's unused quantity u_i and, when H > 0, the HQLA
surplus z; its rows, by the names infeasibility reports, are

    max  sum_ij e_ij q_ij   subject to
    inventory:<asset>  sum_j q_ij + u_i = Q_i
    funding:<set>      sum_i (1 - h_i) B_i q_ij = V_j
    hqla_floor         sum_i (1 - h_Li) B_i u_i - z = H     (only when H > 0)
    0 <= q_ij <= min(bounds_ij, Q_i),  0 <= u_i <= Q_i,  z >= 0

(the simplex's answer is checked against these rows and bounds), and
iterate allocation <-> revaluation: posting imperfect collateral changes
each liability's fair value, hence the posting requirement, hence the
allocation.

The funding equality uses CSA haircuts by default: the netting set demands
CSA-protected value. A switch reproduces the repo-haircut variant.

Spread curves come from ``repo.repo_curve``, each posted blend's (L, chi,
s) from ``collateral.blend_spread_curve``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

from .collateral import CollateralAsset, CollateralState, blend_spread_curve, chi
from .curves import PartyCurves, RateCurve
from .discounting import EffectiveRateSpec
from .exposure import ExposureProfile
from .intervals import COUNT, INTEGER, NON_NEGATIVE, POSITIVE, bounded, chosen
from .repo import RepoModelParams, repo_curve
from .simplex import (LpInfeasibleError, LpSolverError, LpUnboundedError,
                      solve_bounded_lp)
from .xva import decompose

DEFAULT_SPREAD_TENORS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)
# the haircut h_<name> the funding equality values posted collateral at
FUNDING_HAIRCUTS = ("csa", "repo")
# the interval iterate_allocation's stop test and round count lie in
ITERATION_BOUNDS = {"tol": POSITIVE, "max_iter": COUNT}


class AllocationError(ValueError):
    """Invalid allocation problem."""


class AllocationInfeasibleError(ValueError):
    """No feasible posting plan; names the requirements that cannot be met."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        super().__init__("allocation infeasible; violated constraints: "
                         + ", ".join(labels))


@dataclass(frozen=True)
class NettingSet:
    """A posting obligation: requirement is the |MTM| to collateralize,
    profile the risk-free exposure of the set, rating the counterparty's
    (it drives the repo rate of rehypothecated collateral).
    """

    id: str
    requirement: float
    rating: str
    profile: ExposureProfile

    def __post_init__(self) -> None:
        bounded(self.requirement, NON_NEGATIVE, f"{self.id}: requirement", AllocationError)


@dataclass(frozen=True)
class AllocationProblem:
    """LP inputs; unit_lva is the M x N benefit-per-unit matrix."""

    assets: tuple[CollateralAsset, ...]
    netting_sets: tuple[NettingSet, ...]
    unit_lva: np.ndarray
    hqla_floor: float = 0.0
    bounds: np.ndarray | None = None  # M x N upper bounds on q_ij (np.inf allowed; None: none)
    funding_haircut: str = "csa"  # one of FUNDING_HAIRCUTS

    def __post_init__(self) -> None:
        e = np.asarray(self.unit_lva, dtype=float)
        m, n = len(self.assets), len(self.netting_sets)
        if e.shape != (m, n):
            raise AllocationError(f"unit_lva must be {m}x{n}")
        if not np.all(np.isfinite(e)):
            raise AllocationError("unit_lva entries must be finite")
        bounded(self.hqla_floor, NON_NEGATIVE, "hqla_floor", AllocationError)
        chosen(self.funding_haircut, FUNDING_HAIRCUTS, "funding_haircut", AllocationError)
        object.__setattr__(self, "unit_lva", e)
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "netting_sets", tuple(self.netting_sets))
        bnd = np.full((m, n), np.inf) if self.bounds is None else np.asarray(self.bounds, float)
        if bnd.shape != (m, n):
            raise AllocationError(f"bounds must be {m}x{n}")
        object.__setattr__(self, "bounds", bnd)


@dataclass(frozen=True)
class Allocation:
    """Solved q matrix with each asset's unused quantity (slacks)."""

    q: np.ndarray
    slacks: np.ndarray
    objective: float


def solve_lp(problem: AllocationProblem) -> Allocation:
    """Vertex-optimal allocation via the bounded-variable simplex.

    Raises AllocationInfeasibleError with the violated requirement names
    when no feasible plan exists, and LpSolverError when the solve breaks
    down or its answer breaks a row or a column bound of the LP it solved.
    """
    assets, sets = problem.assets, problem.netting_sets
    m, n = len(assets), len(sets)
    nq = m * n
    quantity = np.array([asset.quantity for asset in assets], dtype=float)
    weight = np.array([(1.0 - getattr(asset, f"h_{problem.funding_haircut}")) * asset.price
                       for asset in assets])
    hqla_weight = np.array([(1.0 - asset.h_lcr) * asset.price for asset in assets])
    hqla_stock = float(hqla_weight @ quantity)  # the floor's reach: nothing posted
    floor = [problem.hqla_floor] if problem.hqla_floor > 0.0 else []

    # the module docstring's layout, block by block; u_i and z named by their rows
    rows = ([f"inventory:{asset.id}" for asset in assets] + [f"funding:{ns.id}" for ns in sets]
            + ["hqla_floor"] * len(floor))
    cols = [f"q:{asset.id}:{ns.id}" for asset in assets for ns in sets] + rows[:m] + rows[m + n:]
    a = np.zeros((len(rows), nq + m + len(floor)))
    a[:m, :nq] = np.kron(np.eye(m), np.ones(n))
    a[:m, nq:nq + m] = np.eye(m)
    a[m:m + n, :nq] = np.kron(weight, np.eye(n))
    if floor:
        a[-1, nq:nq + m] = hqla_weight
        a[-1, -1] = -1.0
    b = np.concatenate([quantity, [ns.requirement for ns in sets], floor])
    c = np.concatenate([problem.unit_lva.ravel(), np.zeros(m + len(floor))])
    upper = np.concatenate([np.minimum(problem.bounds, quantity[:, None]).ravel(), quantity,
                            [np.inf] * len(floor)])

    try:
        res = solve_bounded_lp(c, a, b, upper)
    except LpInfeasibleError as err:
        violated = err.rows
        if floor:
            # phase 1 may leave the floor's shortfall on another row: the
            # floor is to blame alone if the LP without it is feasible, and
            # also if the whole inventory held back falls short of it
            try:
                solve_bounded_lp(c[:-1], a[:-1, :-1], b[:-1], upper[:-1])
                violated = [len(rows) - 1]
            except LpInfeasibleError as floor_free:
                violated = floor_free.rows + [len(rows) - 1] * (hqla_stock < floor[0])
        raise AllocationInfeasibleError([rows[r] for r in violated]) from err
    except LpUnboundedError as err:  # impossible with finite Q and bounds
        raise LpSolverError("allocation LP cannot be unbounded") from err

    # the answer against the LP: inventory rows to 1e-9 of Q, funding and floor rows
    # to 1e-6 of V and H, each column in [0, upper] to 1e-9 of Q_i (z: of hqla_stock)
    x = res.x
    row_tol = np.where(np.arange(len(rows)) < m, 1e-9, 1e-6) * np.maximum(1.0, b)
    col_tol = 1e-9 * np.maximum(1.0, np.concatenate([np.repeat(quantity, n), quantity,
                                                     [hqla_stock] * len(floor)]))
    broken = ([rows[r] for r in np.flatnonzero(np.abs(a @ x - b) > row_tol)]
              + [cols[k] for k in np.flatnonzero((x < -col_tol) | (x > upper + col_tol))])
    if broken:
        raise LpSolverError("simplex answer breaks " + ", ".join(dict.fromkeys(broken)))
    return Allocation(q=x[:nq].reshape(m, n), slacks=x[nq:nq + m], objective=res.objective)


# -- unit LVA -----------------------------------------------------------------

def _lva(profile: ExposureProfile, poster: PartyCurves, risk_free: RateCurve,
         eta: float, x: float, spread: RateCurve, n_steps: int) -> float:
    """Signed LVA of a profile (negative = posting benefit on a payable) with
    eta protected, chi = x of that funded at ``spread`` over risk-free."""
    state = CollateralState(eta_b=eta, eta_c=eta, chi_b=x, chi_c=x)
    spec = EffectiveRateSpec(party_b=poster, party_c=poster, risk_free=risk_free,
                             state=state, mode="noncash", repo_spread_c=spread)
    return decompose(profile, spec, n_steps=n_steps).lva


# -- iterative allocation ------------------------------------------------------

@dataclass(frozen=True)
class IterationState:
    """One allocation round: requirements used, unit LVAs, solved allocation,
    the revalued MTMs (mtm* - the LVA each set earns under it) and delta, the
    largest MTM move from the round before, which the stop test reads."""

    requirements: np.ndarray
    unit_lva: np.ndarray
    allocation: Allocation
    mtms: np.ndarray
    delta: float


@dataclass(frozen=True)
class IterationResult:
    states: list[IterationState]
    status: str  # "converged" | "max_iter"

    @property
    def final(self) -> IterationState:
        return self.states[-1]


def iterate_allocation(assets: Sequence[CollateralAsset], sets: Sequence[NettingSet],
                       poster: PartyCurves, risk_free: RateCurve,
                       repo_params: RepoModelParams, *, hqla_floor: float = 0.0,
                       funding_haircut: str = "csa", tol: float = 0.01,
                       max_iter: int = 5, n_steps: int = 120) -> IterationResult:
    """Alternate LP allocation and netting-set revaluation to a fixed point.

    Requirements start at the OIS-discounted MTM magnitudes (the sets'
    profile mtm0); each round re-normalizes the unit-LVA matrix by the
    current requirements, e_ij = |LVA_ij| B_i (1 - h_csa_i) / V_j (0 when
    V_j = 0), re-solves the LP, then reprices every set under its posted
    blend: MTM = mtm* - LVA. Stops when MTMs move less than tol.
    """
    bounded(tol, ITERATION_BOUNDS["tol"], "tol", AllocationError)
    bounded(max_iter, ITERATION_BOUNDS["max_iter"], "max_iter", AllocationError, INTEGER)
    mtm_star = np.array([ns.profile.mtm0 for ns in sets], dtype=float)
    benefit = np.zeros((len(assets), len(sets)))
    spreads: dict[tuple[int, str], RateCurve] = {}  # one curve per (asset, rating)
    for i, a in enumerate(assets):
        for j, ns in enumerate(sets):
            key = (i, ns.rating)
            if key not in spreads:
                spreads[key] = repo_curve(repo_params, a, ns.rating, DEFAULT_SPREAD_TENORS)
            # the whole set collateralized by this asset in unlimited quantity
            benefit[i, j] = abs(_lva(ns.profile, poster, risk_free, 1.0,
                                     chi(a.h_repo, a.h_csa), spreads[key], n_steps))

    conv = np.array([a.price * (1.0 - a.h_csa) for a in assets])
    prev = mtm_star.copy()
    states: list[IterationState] = []
    status = "max_iter"
    for _ in range(max_iter):
        req = np.abs(prev)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where(req > 0.0, benefit * conv[:, None] / req[None, :], 0.0)
        current = [replace(ns, requirement=float(req[j])) for j, ns in enumerate(sets)]
        problem = AllocationProblem(tuple(assets), tuple(current), e, hqla_floor=hqla_floor,
                                    funding_haircut=funding_haircut)
        alloc = solve_lp(problem)
        lva = np.zeros(len(sets))
        for j, ns in enumerate(current):
            posted = [(alloc.q[i, j] * a.price, a.h_csa, a.h_repo,
                       spreads[(i, ns.rating)])
                      for i, a in enumerate(assets) if alloc.q[i, j] > 1e-12]
            if not posted or ns.requirement <= 0.0:
                continue
            # under the CSA funding equality the protected value equals the
            # requirement, so eta = 1; the repo-haircut variant can leave
            # partial protection
            protection, x, spread = blend_spread_curve(posted)
            eta = min(1.0, protection / ns.requirement)
            lva[j] = _lva(ns.profile, poster, risk_free, eta, x, spread, n_steps)
        mtms = mtm_star - lva
        delta = float(np.max(np.abs(mtms - prev)))
        states.append(IterationState(requirements=req, unit_lva=e,
                                     allocation=alloc, mtms=mtms, delta=delta))
        prev = mtms
        if delta < tol:
            status = "converged"
            break
    return IterationResult(states=states, status=status)
