"""Crank-Nicolson solver for the Black-Scholes PDE under the switching
effective discount rate.

    dV/dt + (r_s - q) S dV/dS + 1/2 sigma^2 S^2 d2V/dS2 - r_e V = 0

r_e depends on sign(V) (liability-side switching) and on the
collateralization state, so each backward step is mildly nonlinear: the
sign-frozen linear system is solved and Picard-iterated until the value
stops moving. Rannacher startup (two implicit half-steps) damps the payoff
kink. Boundaries: at S = 0 the PDE degenerates to the reaction ODE on its
own; at S_max the second derivative is dropped (payoff linearity) with
one-sided convection.

The Picard iteration is a policy iteration on the node rates: a sweep's
operator depends on the value only through the rate each node reads, the
r_e of the side sign(V) selects. A step stops when the node rates rebuilt
from a sweep's result equal the rates that sweep used: the next sweep
would rebuild a bitwise-identical system and return the same vector with
residual exactly 0, so that confirming sweep is counted but not run. The
stop is exact, not a looser tolerance; solutions and sweep counts are
those of iterating until the residual falls below ``PICARD_TOL``. For the
same reason the accepted sweep's operator is reused as the next step's
explicit side when the accepted value reads the rates it was built from.
The risk-free value V* is the same solve under ``risk_free_spec``, whose
r_e is r on both sides: its rates never move, so each step runs one sweep.

The stock is financed at the risk-free rate, so r_s = r. Every forward
rate a solve reads (both parties' bond and liquidity curves, the risk-free
curve and each side's funded spread) is tabulated once per solve on the
step grid, the time grid plus the Rannacher half-step, and blended into
each side's r_e there; the Picard sweeps only read that table.

Each part of the system is built at the level where its inputs can change,
with the same element-wise arithmetic as building the whole operator per
sweep, so values and sweep counts are unchanged bit for bit:

- per solve: the diffusion band 0.5 sigma^2 S^2 / dS^2 and its -2 multiple;
- per step: the convection bands (``_convection``) and the implicit
  sub- and super-diagonals, both kept from the previous step while the
  step's convection and theta*h are bitwise the same (on a flat risk-free
  curve the bands are built once per solve);
- per sweep: the main diagonal (``_diagonal``) under the sweep's node rates.

At a step time where both sides' r_e are equal, a sign change moves no
node rate, so the step's first sweep is at the fixed point and the rates
are not rebuilt from its result. Memory stays O(s_nodes): nothing is
tabulated over steps and nodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discounting import EffectiveRateSpec, risk_free_spec


class PdeError(ValueError):
    """Invalid PDE inputs."""


class PicardConvergenceError(RuntimeError):
    """Sign-switching iteration failed to converge within the allowed sweeps."""

    def __init__(self, t: float, residual: float, iterations: int):
        self.t = t
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Picard iteration did not converge at t={t:.6g}: "
            f"residual {residual:.3e} after {iterations} sweeps")


PAYOFFS = ("call", "put", "zcb", "forward")


@dataclass(frozen=True)
class OptionSpec:
    """European payoff on a single underlier.

    ``position`` scales the terminal payoff (+1 long, -1 short); ``zcb`` is
    a unit cash payoff used for consistency checks; ``forward`` pays S - K,
    which changes sign, so both parties' rates apply within one solve.
    """

    payoff: str  # one of PAYOFFS
    strike: float
    maturity: float
    spot: float
    vol: float
    div_yield: float = 0.0
    position: float = 1.0

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        for name in ("spot", "vol", "maturity"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise PdeError(f"option {name} must be finite and > 0")
        if not 0.0 <= self.strike < math.inf:
            raise PdeError("option strike must be finite and >= 0")
        if not math.isfinite(self.div_yield):
            raise PdeError("option div_yield must be finite")
        if self.payoff not in PAYOFFS:
            raise PdeError(f"payoff must be one of {', '.join(PAYOFFS)}")
        if self.payoff != "zcb" and self.strike == 0.0:
            raise PdeError(f"{self.payoff} needs a positive strike")

    def terminal_value(self, s: np.ndarray) -> np.ndarray:
        if self.payoff == "call":
            h = np.maximum(s - self.strike, 0.0)
        elif self.payoff == "put":
            h = np.maximum(self.strike - s, 0.0)
        elif self.payoff == "zcb":
            h = np.ones_like(s)
        else:
            h = s - self.strike
        return self.position * h


# bounds on s_nodes and t_steps: a solve's time and memory grow with both
MIN_GRID_SIZE = 50
MAX_GRID_SIZE = 100_000
# a step's Picard iteration stops once the residual, max |sweep change| /
# max(1, max |V|), falls below PICARD_TOL, and fails after PICARD_MAX_ITER
# sweeps
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 30


@dataclass(frozen=True)
class GridSpec:
    s_nodes: int = 400
    t_steps: int = 400
    s_max_mult: float = 5.0

    def __post_init__(self) -> None:
        if self.s_nodes < MIN_GRID_SIZE or self.t_steps < MIN_GRID_SIZE:
            raise PdeError(f"grid needs at least {MIN_GRID_SIZE} space nodes and "
                           f"{MIN_GRID_SIZE} time steps")
        for name in ("s_nodes", "t_steps"):
            if getattr(self, name) > MAX_GRID_SIZE:
                raise PdeError(f"grid {name} must be at most {MAX_GRID_SIZE}")
        # written so that NaN fails every check
        if not 1.0 < self.s_max_mult < math.inf:
            raise PdeError("grid s_max_mult must be finite and > 1")


@dataclass(frozen=True)
class PdeSolution:
    s: np.ndarray
    v0: np.ndarray
    value: float
    max_picard_iters: int


@dataclass(frozen=True)
class _ForwardTable:
    """Rates on the solver's step times ``t``: the risk-free forward and
    each side's effective rate r_e.

    ``RateCurve.forward_rate`` evaluates an array element-wise with the
    same operations as a scalar lookup, and ``blend_rate`` is element-wise
    IEEE arithmetic, so each entry equals the scalar lookup
    ``spec.side(side).rate(t, spec.risk_free.forward_rate(t))`` at that
    time bit for bit.
    """

    t: np.ndarray
    risk_free: np.ndarray
    rates: np.ndarray  # row k: (r_e where V <= 0, r_e where V > 0) at t[k]

    @classmethod
    def build(cls, spec: EffectiveRateSpec, t: np.ndarray) -> "_ForwardTable":
        risk_free = spec.risk_free.forward_rate(t)
        return cls(t=t, risk_free=risk_free, rates=np.stack(
            (spec.side(-1).rate(t, risk_free), spec.side(+1).rate(t, risk_free)), axis=1))


def _node_rates(fwd: _ForwardTable, k: int, v: np.ndarray) -> np.ndarray:
    """Per-node effective rate at step time fwd.t[k] from the sign of v
    (V=0 counts as a payable), picked by the indicator V > 0."""
    return fwd.rates[k].take(v > 0.0)


class _Convection(NamedTuple):
    """The bands of the space operator that depend on the step's convection
    r_s - q but not on the value: sub- and super-diagonal, and the
    convection term of the S_max row's main-diagonal entry."""

    lower: np.ndarray
    upper: np.ndarray
    edge: float


def _convection(d2: np.ndarray, s: np.ndarray, ds: float, conv: float) -> _Convection:
    """Bands of AV ~ (r_s-q)S V' + 0.5 sig^2 S^2 V'' - rho V around the
    diffusion band ``d2`` = 0.5 sig^2 S^2 / dS^2. The S=0 row reduces to
    -rho by itself since both S-terms vanish; the far boundary drops the
    second derivative and takes one-sided convection."""
    d1 = conv * s / (2.0 * ds)
    lower = d2 - d1
    upper = d2 + d1
    lower[-1] = -conv * s[-1] / ds
    upper[0] = 0.0  # S=0 row: d1=d2=0 already, keep explicit
    lower[0] = 0.0
    return _Convection(lower, upper, conv * s[-1] / ds)


def _diagonal(neg_2d2: np.ndarray, band: _Convection, rho: np.ndarray) -> np.ndarray:
    """Main diagonal -2 d2 - rho of the space operator under the node
    rates ``rho``, with the S_max row's one-sided convection."""
    diag = neg_2d2 - rho
    diag[-1] = band.edge - rho[-1]
    return diag


def solve_banded(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``lower``, ``diag`` and ``upper`` for the right-hand side ``rhs``.

    Calls LAPACK ``dgtsv``, the routine ``scipy.linalg.solve_banded``
    dispatches (1, 1) bands to, without that function's argument handling,
    and keeps its checks: non-finite input raises ValueError, a singular
    system LinAlgError. scipy is imported on first use so that loading the
    package does not load it (about 30 MB and 0.3 s) for commands that
    never solve a PDE.
    """
    from scipy.linalg.lapack import dgtsv
    if not np.isfinite(np.concatenate((lower, diag, upper, rhs))).all():
        raise ValueError("tridiagonal system must not contain infs or NaNs")
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal system (dgtsv info {info})")
    return x


def solve(option: OptionSpec, rates: EffectiveRateSpec, grid: GridSpec) -> PdeSolution:
    """Backward-solve the option value under the effective switching rate."""
    s = np.linspace(0.0, grid.s_max_mult * max(option.spot, option.strike), grid.s_nodes + 1)
    ds = s[1] - s[0]
    dt = option.maturity / grid.t_steps

    # Rannacher startup: the first interval as two implicit half-steps.
    # Step i runs from fwd.t[i] to fwd.t[i + 1].
    times = np.linspace(option.maturity, 0.0, grid.t_steps + 1)
    fwd = _ForwardTable.build(
        rates, np.concatenate(([times[0], times[0] - dt / 2.0], times[1:])))
    conv = fwd.risk_free - option.div_yield

    d2 = 0.5 * option.vol * option.vol * s * s / (ds * ds)
    neg_2d2 = -2.0 * d2
    # whether step i's convection differs from step i - 1's bit for bit,
    # and whether both sides' r_e are equal at each step time: there a
    # sign change moves no node rate
    bits = conv.view(np.int64)
    conv_moves = (bits[1:] != bits[:-1]).tolist()
    sides_equal = (fwd.rates[:, 0] == fwd.rates[:, 1]).tolist()
    step_t = fwd.t.tolist()

    v = option.terminal_value(s)
    rho = _node_rates(fwd, 0, v)
    band = _convection(d2, s, ds, conv[0])
    th = None
    max_iters = 0
    # whether the last sweep's diagonal was built from the rates in rho
    fixed = False

    for i in range(len(step_t) - 1):
        theta = 1.0 if i < 2 else 0.5
        h = step_t[i] - step_t[i + 1]
        # the previous step's last diagonal was built at this step's start
        # time, so it is the explicit side's if built from v's rates there
        if not fixed:
            diag = _diagonal(neg_2d2, band, rho)
        explicit = diag * v
        explicit[1:] += band.lower[1:] * v[:-1]
        explicit[:-1] += band.upper[:-1] * v[1:]
        rhs = v + (1.0 - theta) * h * explicit

        if conv_moves[i]:
            band = _convection(d2, s, ds, conv[i + 1])
        if conv_moves[i] or theta * h != th:
            th = theta * h
            sub = -th * band.lower[1:]
            sup = -th * band.upper[:-1]

        guess, rho = v, _node_rates(fwd, i + 1, v)
        for it in range(1, PICARD_MAX_ITER + 1):
            diag = _diagonal(neg_2d2, band, rho)
            v_new = solve_banded(sub, 1.0 - th * diag, sup, rhs)
            residual = float(np.abs(v_new - guess).max()) / max(1.0, float(np.abs(v_new).max()))
            guess = v_new
            if sides_equal[i + 1]:
                fixed = True
            else:
                rebuilt = _node_rates(fwd, i + 1, v_new)
                fixed = np.array_equal(rebuilt, rho)
                rho = rebuilt
            if residual < PICARD_TOL:
                break
            if it < PICARD_MAX_ITER and fixed:
                # sweep it + 1 would rebuild this operator and return v_new
                # with residual 0: count it without running it
                it += 1
                break
        else:
            raise PicardConvergenceError(fwd.t[i + 1], residual, PICARD_MAX_ITER)
        max_iters = max(max_iters, it)
        v = guess

    return PdeSolution(s=s, v0=v, value=float(np.interp(option.spot, s, v)),
                       max_picard_iters=max_iters)


@dataclass(frozen=True)
class XvaPdeResult:
    v_star: float
    v: float
    u: float


def xva_pde(option: OptionSpec, rates: EffectiveRateSpec,
            grid: GridSpec) -> XvaPdeResult:
    """Risk-free value, adjusted value and their difference U = V* - V."""
    star = solve(option, risk_free_spec(rates.risk_free), grid).value
    adj = solve(option, rates, grid).value
    return XvaPdeResult(v_star=star, v=adj, u=star - adj)
