"""The library's intervals: each class or function checks every number it
takes against the interval its module declares for it, so a value outside
(NaN, an infinity or the nearest number past an end) raises that module's
error naming the field, and the nearest number inside each finite end is
accepted. ``cxva.scenario.SCHEMA`` reads the same constants
(``test_scenario.py``)."""

import math

import numpy as np
import pytest

from cxva import collateral, exposure, intervals, optimizer, pde, repo
from cxva.collateral import CollateralAsset, CollateralError, CollateralState, chi
from cxva.curves import HAZARD, CurveError, PartyCurves, RateCurve
from cxva.exposure import (DeterministicModel, ExposureError, ExposureProfile, OneFactorMcModel,
                           SwapBook, exposure_profile, generate_portfolio)
from cxva.optimizer import AllocationError, AllocationProblem, NettingSet, iterate_allocation
from cxva.pde import GridSpec, OptionSpec, PdeError
from cxva.repo import RepoModelError, RepoModelParams
from cxva.scenario import SCHEMA
from test_scenario_fuzz import outside

CURVE = RateCurve.flat(0.02)
# a payable set of MTM -1
PROFILE = ExposureProfile(np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 0.5]), -1.0, 1.0)
BOOK = dict(notional=np.ones(2), fixed_rate=np.full(2, 0.02), sign=np.array([1.0, -1.0]),
            maturity=np.array([1.0, 2.0]), pay_freq=np.array([2, 2]))
ASSET = dict(id="x", price=1.0, quantity=10.0, h_csa=0.05, h_repo=0.03, h_lcr=0.0)


def swap_book(**fields):
    """BOOK with each given field's second entry set to its value."""
    arrays = {name: a.astype(float) for name, a in BOOK.items()}
    for name, value in fields.items():
        arrays[name][1] = value
    return SwapBook(**arrays)


def asset(econ_capital=0.004, **fields):
    return CollateralAsset(**{**ASSET, **fields}, econ_capital={"A": econ_capital})


def allocation(**fields):
    return iterate_allocation([asset()], [NettingSet("s", 1.0, "A", PROFILE)],
                              PartyCurves(bond=RateCurve.flat(0.03), liquidity=CURVE), CURVE,
                              RepoModelParams(roe=0.1, mu0_curve=CURVE, hazard=CURVE),
                              n_steps=4, **fields)


# (name, build taking the fields by keyword, each field's interval, error)
CASES = [
    ("OptionSpec", lambda **f: OptionSpec(**{"payoff": "zcb", "strike": 0.0, "maturity": 1.0,
                                             "spot": 100.0, "vol": 0.2, **f}),
     pde.OPTION_BOUNDS, PdeError),
    ("GridSpec", lambda **f: GridSpec(**{"s_nodes": 100, "t_steps": 100, **f}),
     pde.GRID_BOUNDS, PdeError),
    ("generate_portfolio",
     lambda maturity=1.0, **f: generate_portfolio(**{"n": 2, "payer_frac": 0.5,
                                                     "maturity_range": (maturity, maturity),
                                                     "rate_band": 0.01, "seed": 1,
                                                     "curve": CURVE, **f}),
     {**exposure.PORTFOLIO_BOUNDS, "maturity": exposure.MATURITY}, ExposureError),
    ("SwapBook", swap_book, exposure.SWAP_BOUNDS, ExposureError),
    ("OneFactorMcModel", lambda **f: OneFactorMcModel(**{"mean_reversion": 0.05, "vol": 0.01,
                                                         "paths": 1000, "seed": 1, **f}),
     exposure.MC_BOUNDS, ExposureError),
    ("exposure_profile",
     lambda points: exposure_profile(swap_book(), DeterministicModel(), points, CURVE),
     {"points": exposure.PROFILE_POINTS}, ExposureError),
    ("CollateralAsset", asset,
     {**collateral.ASSET_BOUNDS, "econ_capital": intervals.NON_NEGATIVE}, CollateralError),
    ("CollateralState", CollateralState, collateral.STATE_BOUNDS, CollateralError),
    ("chi", lambda **f: chi(**{"h_repo": 0.0, "h_csa": 0.0, **f}),
     {"h_repo": collateral.HAIRCUT, "h_csa": collateral.HAIRCUT}, CollateralError),
    ("RepoModelParams", lambda **f: RepoModelParams(**{"roe": 0.1, "mu0_curve": CURVE,
                                                       "hazard": CURVE, **f}),
     repo.REPO_BOUNDS, RepoModelError),
    ("NettingSet", lambda requirement: NettingSet("x", requirement, "A", PROFILE),
     {"requirement": intervals.NON_NEGATIVE}, AllocationError),
    ("AllocationProblem",
     lambda hqla_floor: AllocationProblem((asset(),), (NettingSet("s", 1.0, "A", PROFILE),),
                                          np.zeros((1, 1)), hqla_floor=hqla_floor),
     {"hqla_floor": intervals.NON_NEGATIVE}, AllocationError),
    ("iterate_allocation", allocation, optimizer.ITERATION_BOUNDS, AllocationError),
]
FIELDS = [(name, build, field, bounds, error)
          for name, build, table, error in CASES for field, bounds in table.items()]


def inside(bounds) -> list:
    """The nearest numbers inside each finite end of the interval ``bounds``."""
    lo, hi, (left, right) = bounds
    values = []
    if math.isfinite(lo):
        values.append(lo if left == "[" else math.nextafter(lo, math.inf))
    if math.isfinite(hi):
        values.append(hi if right == "]" else math.nextafter(hi, -math.inf))
    return values


@pytest.mark.parametrize("name, build, field, bounds, error", FIELDS,
                         ids=[f"{name}-{field}" for name, _, field, _, _ in FIELDS])
def test_library_field_interval(name, build, field, bounds, error):
    for value in outside(bounds):
        with pytest.raises(error, match=field):
            build(**{field: value})
    for value in inside(bounds):
        build(**{field: value})


# the library's count fields: a value of their interval that is not an
# integer raises as bounded(..., INTEGER) words it
COUNTS = [(name, build, field, bounds, error) for name, build, field, bounds, error in FIELDS
          if (name, field) in {("GridSpec", "s_nodes"), ("GridSpec", "t_steps"),
                               ("generate_portfolio", "n"), ("OneFactorMcModel", "paths"),
                               ("exposure_profile", "points"), ("iterate_allocation", "max_iter")}]


@pytest.mark.parametrize("name, build, field, bounds, error", COUNTS,
                         ids=[f"{name}-{field}" for name, _, field, _, _ in COUNTS])
def test_library_count_is_an_integer(name, build, field, bounds, error):
    lo = bounds[0]
    for value in (lo + 0.5, float(lo), np.float64(lo), True, str(lo)):
        with pytest.raises(error, match=rf"^{field} must be an integer in \[{lo:g}, "):
            build(**{field: value})
    build(**{field: np.int64(lo)})


@pytest.mark.parametrize("build, error", [
    (lambda hazard: PartyCurves(bond=RateCurve.flat(1.5), hazard=hazard), CurveError),
    (lambda hazard: RepoModelParams(roe=0.1, mu0_curve=CURVE, hazard=hazard), RepoModelError),
], ids=["PartyCurves", "RepoModelParams"])
def test_hazard_interval(build, error):
    # every zero rate of a hazard curve; RateCurve itself rejects NaN and infinities
    for rate in outside(HAZARD)[3:]:
        with pytest.raises(error, match="hazard"):
            build(RateCurve.from_nodes([(1.0, 0.01), (2.0, rate)]))
    for rate in inside(HAZARD):
        build(RateCurve.from_nodes([(1.0, 0.01), (2.0, rate)]))


def schema_intervals() -> list:
    """Every interval SCHEMA holds, an array item's included."""
    keys = [key for section in SCHEMA.values() for key in section.values()]
    return [key.bounds for key in keys + [key.item for key in keys if key.item is not None]]


def test_every_interval_is_well_formed():
    found = [bounds for _, _, table, _ in CASES for bounds in table.values()]
    found += [HAZARD, *schema_intervals()]
    for lo, hi, brackets in found:
        assert lo < hi and brackets in ("()", "(]", "[)", "[]"), (lo, hi, brackets)


@pytest.mark.parametrize("value, bounds, held", [
    (1, (1, math.inf, "[]"), True), (math.inf, (1, math.inf, "[]"), False),
    (-math.inf, (-math.inf, 0.0, "[)"), False), (10 ** 400, (0, math.inf, "[]"), True),
    (np.array([0.5, 1.0]), intervals.FRACTION, True), (np.array([]), intervals.POSITIVE, True),
    (np.array([0.5, math.nan]), intervals.FRACTION, False),
])
def test_bounded(value, bounds, held):
    # a closed end at infinity holds no infinity; an array is held when its
    # least and greatest entries are, an empty one always
    if held:
        assert intervals.bounded(value, bounds, "v", ValueError) is value
    else:
        with pytest.raises(ValueError, match=r"^v must be a finite number in "):
            intervals.bounded(value, bounds, "v", ValueError)
