"""cxva: pricing and optimizing derivatives under imperfect collateral.

Building blocks: zero curves with exact segment integrals, the (eta, chi)
collateralization state, the sign-switching effective discount rate r_e,
break-even term repo spreads, a Crank-Nicolson PDE pricer, swap exposure
profiles, the CVA/DVA/CFA/DFA/LVA/colVA quadrature, and an LP-based
collateral allocator with an HQLA floor, iterated against revaluation.
"""

from .curves import PartyCurves, RateCurve, combine_curves
from .collateral import CollateralAsset, CollateralState, chi
from .discounting import EffectiveRateSpec
from .repo import RepoModelParams, breakeven_spread, repo_curve, spread_curve
from .exposure import (DeterministicModel, ExposureProfile, OneFactorMcModel, Swap,
                       SwapBook, exposure_profile, generate_portfolio)
from .xva import XvaReport, decompose, to_running_spread
from .pde import GridSpec, OptionSpec, solve, xva_pde
from .optimizer import (Allocation, AllocationProblem, NettingSet, iterate_allocation,
                        solve_lp)

__all__ = [
    "Allocation", "AllocationProblem", "CollateralAsset", "CollateralState",
    "DeterministicModel", "EffectiveRateSpec", "ExposureProfile", "GridSpec",
    "NettingSet", "OneFactorMcModel", "OptionSpec", "PartyCurves", "RateCurve",
    "Swap", "SwapBook", "RepoModelParams", "XvaReport", "breakeven_spread", "chi",
    "combine_curves", "decompose", "exposure_profile", "generate_portfolio",
    "iterate_allocation", "repo_curve", "solve", "solve_lp", "spread_curve",
    "to_running_spread", "xva_pde",
]

__version__ = "0.1.0"
