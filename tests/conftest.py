import pytest

from cxva.collateral import CollateralState
from cxva.curves import PartyCurves, RateCurve
from cxva.discounting import EffectiveRateSpec


@pytest.fixture
def ois_flat():
    return RateCurve.flat(0.01, "OIS")


@pytest.fixture
def ois_sloped():
    # 1% short end drifting to 3% at 30y
    nodes = [(0.25, 0.010), (1.0, 0.011), (2.0, 0.013), (5.0, 0.017),
             (10.0, 0.022), (20.0, 0.027), (30.0, 0.030)]
    return RateCurve.from_nodes(nodes, "OIS")


@pytest.fixture
def party_b(ois_flat):
    # 125bp credit spread, 50bp of it funding basis
    return PartyCurves(bond=RateCurve.flat(0.0225, "bond_B"),
                       liquidity=RateCurve.flat(0.015, "liquidity_B"))


@pytest.fixture
def party_c(ois_flat):
    # 300bp credit spread, 100bp of it funding basis
    return PartyCurves(bond=RateCurve.flat(0.04, "bond_C"),
                       liquidity=RateCurve.flat(0.02, "liquidity_C"))


def make_spec(party_b, party_c, risk_free, *, eta=1.0, chi=1.0, mode="noncash",
              repo_spread=0.0, cash_rate=None, eta_b=None, chi_b=None,
              repo_spread_b=None):
    state = CollateralState(eta_b=eta if eta_b is None else eta_b,
                            eta_c=eta,
                            chi_b=chi if chi_b is None else chi_b,
                            chi_c=chi)
    return EffectiveRateSpec(party_b=party_b, party_c=party_c,
                             risk_free=risk_free, state=state, mode=mode,
                             cash_rate=cash_rate, repo_spread_c=repo_spread,
                             repo_spread_b=repo_spread_b)


def effective_rate(spec, t, side):
    """r_e at t where sign V = side (+1 when V > 0, -1 when V <= 0), as a
    float: the scalar lookup the PDE's rate table is checked against."""
    return float(spec.side(side).rate(t, spec.risk_free.forward_rate(t)))


@pytest.fixture
def spec_factory(party_b, party_c, ois_flat):
    def _make(**kwargs):
        risk_free = kwargs.pop("risk_free", ois_flat)
        return make_spec(party_b, party_c, risk_free, **kwargs)
    return _make
