"""LVA-maximizing collateral allocation across netting sets.

Pipeline: price each asset's benefit per unit against each netting set
(unit LVA), then solve

    max sum_ij q_ij e_ij
    s.t.  sum_j q_ij + s_i = Q_i,          s_i >= 0        (inventory)
          sum_i q_ij (1 - h_i) B_i = V_j                    (funding)
          sum_i s_i (1 - h_Li) B_i >= H                     (HQLA floor)
          0 <= q_ij <= bounds_ij                            (eligibility)

and iterate allocation <-> revaluation: posting imperfect collateral
changes each liability's fair value, hence the posting requirement, hence
the allocation.

The funding equality uses CSA haircuts by default: the netting set demands
CSA-protected value. A switch reproduces the repo-haircut variant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

from .collateral import CollateralAsset, CollateralState, blend_spread_curve, chi
from .curves import PartyCurves, RateCurve
from .discounting import EffectiveRateSpec
from .exposure import ExposureProfile
from .repo import RepoModelParams, spread_curve
from .simplex import (LpInfeasibleError, LpSolverError, LpUnboundedError,
                      solve_bounded_lp)
from .xva import decompose

DEFAULT_SPREAD_TENORS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)


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
        if self.requirement < 0.0:
            raise AllocationError(f"{self.id}: requirement must be >= 0")


@dataclass(frozen=True)
class AllocationProblem:
    """LP inputs; unit_lva is the M x N benefit-per-unit matrix."""

    assets: tuple[CollateralAsset, ...]
    netting_sets: tuple[NettingSet, ...]
    unit_lva: np.ndarray
    hqla_floor: float = 0.0
    bounds: np.ndarray | None = None  # M x N upper bounds on q_ij (np.inf allowed)
    funding_haircut: str = "csa"  # "csa" | "repo"

    def __post_init__(self) -> None:
        e = np.asarray(self.unit_lva, dtype=float)
        m, n = len(self.assets), len(self.netting_sets)
        if e.shape != (m, n):
            raise AllocationError(f"unit_lva must be {m}x{n}")
        if not np.all(np.isfinite(e)):
            raise AllocationError("unit_lva entries must be finite")
        if not 0.0 <= self.hqla_floor < np.inf:
            raise AllocationError("hqla_floor must be finite and >= 0")
        if self.funding_haircut not in ("csa", "repo"):
            raise AllocationError("funding_haircut must be 'csa' or 'repo'")
        object.__setattr__(self, "unit_lva", e)
        object.__setattr__(self, "assets", tuple(self.assets))
        object.__setattr__(self, "netting_sets", tuple(self.netting_sets))
        if self.bounds is not None:
            bnd = np.asarray(self.bounds, dtype=float)
            if bnd.shape != (m, n):
                raise AllocationError(f"bounds must be {m}x{n}")
            object.__setattr__(self, "bounds", bnd)

    def funding_weight(self, asset: CollateralAsset) -> float:
        h = asset.h_csa if self.funding_haircut == "csa" else asset.h_repo
        return (1.0 - h) * asset.price


@dataclass(frozen=True)
class Allocation:
    """Solved q matrix with inventory slacks and binding-constraint summary."""

    q: np.ndarray
    slacks: np.ndarray
    objective: float
    binding: dict


def solve_lp(problem: AllocationProblem) -> Allocation:
    """Vertex-optimal allocation via the bounded-variable simplex.

    Raises AllocationInfeasibleError with the violated requirement names
    when no feasible plan exists, and LpSolverError when the solve breaks
    down.
    """
    assets, sets = problem.assets, problem.netting_sets
    m, n = len(assets), len(sets)
    use_hqla = problem.hqla_floor > 0.0
    nvar = m * n + m + (1 if use_hqla else 0)
    nrow = m + n + (1 if use_hqla else 0)

    def qvar(i, j):
        return i * n + j

    a = np.zeros((nrow, nvar))
    b = np.zeros(nrow)
    c = np.zeros(nvar)
    upper = np.full(nvar, np.inf)

    bounds = np.full((m, n), np.inf) if problem.bounds is None else problem.bounds
    for i, asset in enumerate(assets):
        for j in range(n):
            c[qvar(i, j)] = problem.unit_lva[i, j]
            upper[qvar(i, j)] = min(bounds[i, j], asset.quantity)
        # inventory row i
        a[i, qvar(i, 0):qvar(i, n - 1) + 1] = 1.0
        a[i, m * n + i] = 1.0
        b[i] = asset.quantity
        upper[m * n + i] = asset.quantity
    for j, ns in enumerate(sets):
        for i, asset in enumerate(assets):
            a[m + j, qvar(i, j)] = problem.funding_weight(asset)
        b[m + j] = ns.requirement
    if use_hqla:
        row = m + n
        for i, asset in enumerate(assets):
            a[row, m * n + i] = (1.0 - asset.h_lcr) * asset.price
        a[row, nvar - 1] = -1.0
        b[row] = problem.hqla_floor

    try:
        res = solve_bounded_lp(c, a, b, upper)
    except LpInfeasibleError as err:
        labels = []
        for r in err.rows:
            if r < m:
                labels.append(f"inventory:{assets[r].id}")
            elif r < m + n:
                labels.append(f"funding:{sets[r - m].id}")
            else:
                labels.append("hqla_floor")
        raise AllocationInfeasibleError(labels) from err
    except LpUnboundedError as err:  # impossible with finite Q and bounds
        raise LpSolverError("allocation LP cannot be unbounded") from err

    q = res.x[:m * n].reshape(m, n)
    slacks = res.x[m * n:m * n + m]
    _check_feasible(problem, q, slacks)
    hqla_value = float(sum(slacks[i] * (1.0 - a_.h_lcr) * a_.price
                           for i, a_ in enumerate(assets)))
    binding = {
        "inventory": [assets[i].id for i in range(m) if slacks[i] <= 1e-9],
        "hqla": use_hqla and hqla_value <= problem.hqla_floor + 1e-9,
        "bounds": [(assets[i].id, sets[j].id) for i in range(m) for j in range(n)
                   if np.isfinite(bounds[i, j]) and bounds[i, j] > 0.0
                   and q[i, j] >= bounds[i, j] - 1e-9],
    }
    return Allocation(q=q, slacks=slacks, objective=res.objective, binding=binding)


def _check_feasible(problem: AllocationProblem, q: np.ndarray, slacks: np.ndarray) -> None:
    for i, asset in enumerate(problem.assets):
        if abs(q[i].sum() + slacks[i] - asset.quantity) > 1e-9 * max(1.0, asset.quantity):
            raise LpSolverError(f"inventory identity violated for {asset.id}")
    for j, ns in enumerate(problem.netting_sets):
        posted = sum(q[i, j] * problem.funding_weight(a)
                     for i, a in enumerate(problem.assets))
        if abs(posted - ns.requirement) > 1e-6 * max(1.0, ns.requirement):
            raise LpSolverError(f"funding identity violated for {ns.id}")


# -- unit LVA -----------------------------------------------------------------

def _repo_spread(asset: CollateralAsset, rating: str,
                 repo_params: RepoModelParams) -> RateCurve:
    """Break-even repo spread curve of the asset lent to a borrower of this rating."""
    if rating not in asset.econ_capital:
        raise KeyError(f"asset {asset.id!r} has no economic capital for rating {rating!r}")
    return spread_curve(repo_params, asset.econ_capital[rating], DEFAULT_SPREAD_TENORS,
                        label=f"{asset.id}_{rating}")


def set_lva(asset: CollateralAsset, netting_set: NettingSet, spread: RateCurve,
            poster: PartyCurves, risk_free: RateCurve, *, n_steps: int = 120) -> float:
    """Signed LVA of the whole set when fully collateralized by one asset
    in unlimited quantity (negative = posting benefit on a payable);
    ``spread`` is the asset's repo spread over risk-free."""
    x = chi(asset.h_repo, asset.h_csa)
    state = CollateralState(eta_b=1.0, eta_c=1.0, chi_b=x, chi_c=x)
    spec = EffectiveRateSpec(party_b=poster, party_c=poster, risk_free=risk_free,
                             state=state, mode="noncash", repo_spread_c=spread)
    return decompose(netting_set.profile, spec, n_steps=n_steps).lva


# -- iterative allocation ------------------------------------------------------

@dataclass(frozen=True)
class IterationState:
    """One allocation round: requirements used, solved allocation, the LVA
    each set earns under it, and the revalued MTMs."""

    requirements: np.ndarray
    unit_lva: np.ndarray
    allocation: Allocation
    lva: np.ndarray
    mtms: np.ndarray


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
                       bounds: np.ndarray | None = None,
                       funding_haircut: str = "csa", tol: float = 0.01,
                       max_iter: int = 5, n_steps: int = 120) -> IterationResult:
    """Alternate LP allocation and netting-set revaluation to a fixed point.

    Requirements start at the OIS-discounted MTM magnitudes (the sets'
    profile mtm0); each round re-normalizes the unit-LVA matrix by the
    current requirements, e_ij = |LVA_ij| B_i (1 - h_csa_i) / V_j (0 when
    V_j = 0), re-solves the LP, then reprices every set under its posted
    blend: MTM = mtm* - LVA. Stops when MTMs move less than tol.
    """
    if not tol > 0.0:
        raise AllocationError("tol must be > 0")
    mtm_star = np.array([ns.profile.mtm0 for ns in sets], dtype=float)
    benefit = np.zeros((len(assets), len(sets)))
    spreads: dict[tuple[int, str], RateCurve] = {}  # one curve per (asset, rating)
    for i, a in enumerate(assets):
        for j, ns in enumerate(sets):
            key = (i, ns.rating)
            if key not in spreads:
                spreads[key] = _repo_spread(a, ns.rating, repo_params)
            benefit[i, j] = abs(set_lva(a, ns, spreads[key], poster, risk_free,
                                        n_steps=n_steps))

    prev = mtm_star.copy()
    states: list[IterationState] = []
    status = "max_iter"
    for _ in range(max_iter):
        req = np.abs(prev)
        conv = np.array([a.price * (1.0 - a.h_csa) for a in assets])
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where(req > 0.0, benefit * conv[:, None] / req[None, :], 0.0)
        current = [replace(ns, requirement=float(req[j])) for j, ns in enumerate(sets)]
        problem = AllocationProblem(tuple(assets), tuple(current), e,
                                    hqla_floor=hqla_floor, bounds=bounds,
                                    funding_haircut=funding_haircut)
        alloc = solve_lp(problem)
        lva = np.zeros(len(sets))
        for j, ns in enumerate(current):
            posted = [(alloc.q[i, j] * a.price, a.h_csa, a.h_repo,
                       spreads[(i, ns.rating)])
                      for i, a in enumerate(assets) if alloc.q[i, j] > 1e-12]
            if not posted or ns.requirement <= 0.0:
                continue
            # blend over the posted CSA-protected value (weights sum to 1);
            # under the CSA funding equality this equals the requirement, so
            # eta = 1; the repo-haircut variant can leave partial protection
            csa_value = sum(mv * (1.0 - h_c) for mv, h_c, _, _ in posted)
            x, funded = blend_spread_curve(posted, csa_value)
            spread = funded if x <= 0.0 else scale_curve(funded, 1.0 / x)
            eta = min(1.0, csa_value / ns.requirement)
            state = CollateralState(eta_b=eta, eta_c=eta, chi_b=x, chi_c=x)
            spec = EffectiveRateSpec(party_b=poster, party_c=poster,
                                     risk_free=risk_free, state=state,
                                     mode="noncash", repo_spread_c=spread)
            lva[j] = decompose(ns.profile, spec, n_steps=n_steps).lva
        mtms = mtm_star - lva
        states.append(IterationState(requirements=req, unit_lva=e,
                                     allocation=alloc, lva=lva, mtms=mtms))
        delta = float(np.max(np.abs(mtms - prev)))
        prev = mtms
        if delta < tol:
            status = "converged"
            break
    return IterationResult(states=states, status=status)


def scale_curve(curve: RateCurve, scale: float) -> RateCurve:
    """Scale a spread curve by a constant (exact node-wise operation)."""
    return RateCurve(curve.tenors, tuple(z * scale for z in curve.rates), curve.label)
