"""Side symmetry: swapping the parties B and C, with their collateral
state and repo spreads, swaps the two sides of r_e and of the quadrature.

The spec resolves each side's inputs once (``EffectiveRateSpec.side``), so
the mirrored spec's side +1 is the original's side -1 with the same
curves and numbers, and the results match bit for bit. The PDE is left
out: V = 0 counts as a payable, so a mirrored solve is not exact.
"""

import numpy as np
import pytest

from cxva.collateral import CollateralState
from cxva.curves import PartyCurves, RateCurve
from cxva.discounting import MODES, EffectiveRateSpec
from cxva.exposure import (DeterministicModel, ExposureProfile, exposure_profile,
                           generate_portfolio)
from cxva.xva import decompose

from conftest import effective_rate

OIS = RateCurve.from_nodes([(0.25, 0.010), (1.0, 0.011), (2.0, 0.013), (5.0, 0.017),
                            (10.0, 0.022), (20.0, 0.027), (30.0, 0.030)], "OIS")
CASH = RateCurve.from_nodes([(0.5, 0.012), (3.0, 0.016), (12.0, 0.026)], "cash")
PARTY_B = PartyCurves(
    bond=RateCurve.from_nodes([(1.0, 0.02), (7.0, 0.03), (30.0, 0.04)], "bond_B"),
    liquidity=RateCurve.from_nodes([(2.0, 0.015), (9.0, 0.024), (30.0, 0.031)], "liq_B"))
PARTY_C = PartyCurves(
    bond=RateCurve.from_nodes([(0.5, 0.035), (15.0, 0.045)], "bond_C"),
    liquidity=RateCurve.from_nodes([(1.0, 0.02), (20.0, 0.033)], "liq_C"))
REPO_C = RateCurve.from_nodes([(1.5, 0.004), (6.0, 0.007)], "repo_C")
REPO_B = RateCurve.from_nodes([(0.75, 0.002), (4.0, 0.005)], "repo_B")
TIMES = [0.0, 0.1, 0.5, 0.75, 1.0, 2.5, 4.0, 6.0, 12.0, 25.0, 40.0]


def spec_and_mirror(mode: str):
    cash = CASH if mode.startswith("cash") else None
    spec = EffectiveRateSpec(PARTY_B, PARTY_C, OIS, CollateralState(0.3, 0.7, 0.4, 0.9),
                             mode, cash_rate=cash, repo_spread_c=REPO_C,
                             repo_spread_b=REPO_B)
    mirror = EffectiveRateSpec(PARTY_C, PARTY_B, OIS, CollateralState(0.7, 0.3, 0.9, 0.4),
                               mode, cash_rate=cash, repo_spread_c=REPO_B,
                               repo_spread_b=REPO_C)
    return spec, mirror


@pytest.mark.parametrize("mode", MODES)
def test_effective_rate_mirrors(mode):
    spec, mirror = spec_and_mirror(mode)
    for t in TIMES:
        for side in (+1, -1):
            assert effective_rate(mirror, t, side) == effective_rate(spec, t, -side), (t, side)


@pytest.mark.parametrize("mode", MODES)
def test_decompose_mirrors(mode):
    spec, mirror = spec_and_mirror(mode)
    # a mixed book: both EPE and ENE are non-zero
    book = generate_portfolio(40, 0.55, (0.25, 30.0), 0.01, seed=4, curve=OIS)
    profile = exposure_profile(book, DeterministicModel(), 61, OIS)
    assert np.any(profile.epe > 0.0) and np.any(profile.ene > 0.0)
    mirrored = ExposureProfile(profile.times, profile.ene, profile.epe, -profile.mtm0,
                               profile.annuity)
    r = decompose(profile, spec)
    m = decompose(mirrored, mirror)
    assert (m.cva, m.dva, m.cfa, m.dfa, m.lva, m.colva) == \
        (r.dva, r.cva, r.dfa, r.cfa, -r.lva, -r.colva)
