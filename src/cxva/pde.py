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
r_e of the side sign(V) selects. A step stops when a sweep's result has
the sign mask the sweep's node rates were read from: the next sweep would
rebuild a bitwise-identical system and return the same vector with
residual exactly 0, so that confirming sweep is counted but not run. The
stop is exact, not a looser tolerance; solutions and sweep counts are
those of iterating until the residual falls below ``PICARD_TOL``. The
residual itself is computed only where it can change the count: after a
sweep that moved a sign, or where ending the step with or without the
confirming sweep would raise the solve's largest sweep count.
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

- per solve: the diffusion band 0.5 sigma^2 S^2 / dS^2 and its -2 multiple,
  and the buffers the explicit side is written into, with the views of
  their first and last s_nodes rows;
- per step: the explicit side v + (1 - theta) h A v, of which only v's two
  shifted views are sliced afresh;
- on change only, each kept while its inputs are bitwise the same: the
  convection bands (``_convection``) when the step's convection moves; the
  implicit sub- and super-diagonals when the bands or theta*h move; the
  node rates (``_node_rates``) when a sign moves or the step's rate row
  moves; the main diagonal (``_diagonal``) when the node rates or the bands
  move; the implicit main diagonal 1 - theta*h diag when that diagonal or
  theta*h moves. On a flat curve the bands, rates and diagonal are built
  once per solve unless a sign moves.

The explicit side reads the main diagonal the previous step's last sweep
solved with whenever the accepted value has the signs that sweep's rates
came from. At a step time where both sides' r_e are equal, a sign change
moves no node rate, so the step's first sweep is at the fixed point and
the signs are not compared. Memory stays O(s_nodes): nothing is
tabulated over steps and nodes at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discounting import EffectiveRateSpec, risk_free_spec
from .exposure import MATURITY
from .intervals import INTEGER, NON_NEGATIVE, POSITIVE, RATE, bounded, chosen


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
# the interval each number of an OptionSpec lies in
OPTION_BOUNDS = {"strike": NON_NEGATIVE, "maturity": MATURITY, "spot": POSITIVE,
                 "vol": POSITIVE, "div_yield": RATE}


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
        for name, bounds in OPTION_BOUNDS.items():
            bounded(getattr(self, name), bounds, name, PdeError)
        chosen(self.payoff, PAYOFFS, "payoff", PdeError)
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
# the interval each number of a GridSpec lies in
GRID_BOUNDS = {**dict.fromkeys(("s_nodes", "t_steps"), (MIN_GRID_SIZE, MAX_GRID_SIZE, "[]")),
               "s_max_mult": (1.0, math.inf, "()")}
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
        for name in ("s_nodes", "t_steps"):
            bounded(getattr(self, name), GRID_BOUNDS[name], name, PdeError, INTEGER)
        bounded(self.s_max_mult, GRID_BOUNDS["s_max_mult"], "s_max_mult", PdeError)


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

    ``RateCurve.forward_rate`` reads each time's entry from the forwards
    its curve tabulated at construction, for an array as for a scalar, and
    ``blend_rate`` is element-wise IEEE arithmetic, so each entry equals
    the scalar lookup ``spec.side(side).rate(t, spec.risk_free.forward_rate(t))``
    at that time bit for bit.
    """

    t: np.ndarray
    risk_free: np.ndarray
    rates: np.ndarray  # row k: (r_e where V <= 0, r_e where V > 0) at t[k]

    @classmethod
    def build(cls, spec: EffectiveRateSpec, t: np.ndarray) -> "_ForwardTable":
        risk_free = spec.risk_free.forward_rate(t)
        return cls(t=t, risk_free=risk_free, rates=np.stack(
            (spec.side(-1).rate(t, risk_free), spec.side(+1).rate(t, risk_free)), axis=1))


def _node_rates(fwd: _ForwardTable, k: int, pos: np.ndarray) -> np.ndarray:
    """Per-node effective rate at step time fwd.t[k], picked by the sign
    mask ``pos`` = V > 0 (V=0 counts as a payable)."""
    return fwd.rates[k].take(pos)


class _Convection(NamedTuple):
    """The bands of the space operator that depend on the step's convection
    r_s - q but not on the value: sub-diagonal (rows 1..n), super-diagonal
    (rows 0..n-1), and the convection term of the S_max row's main-diagonal
    entry."""

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
    return _Convection(lower[1:], upper[:-1], conv * s[-1] / ds)


def _diagonal(neg_2d2: np.ndarray, band: _Convection, rho: np.ndarray) -> np.ndarray:
    """Main diagonal -2 d2 - rho of the space operator under the node
    rates ``rho``, with the S_max row's one-sided convection."""
    diag = neg_2d2 - rho
    diag[-1] = band.edge - rho[-1]
    return diag


def _moves(table: np.ndarray) -> list:
    """Whether row k of ``table`` differs bit for bit from row k - 1 (row 0
    counts as moved)."""
    bits = table.view(np.int64).reshape(len(table), -1)
    return [True] + (bits[1:] != bits[:-1]).any(axis=1).tolist()


@functools.cache
def _dgtsv():
    """LAPACK ``dgtsv``, imported on first use so that loading the package
    does not load scipy (about 30 MB and 0.3 s) for commands that never
    solve a PDE, and looked up once per process."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def solve_banded(lower, diag, upper, rhs):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``lower``, ``diag`` and ``upper`` for the right-hand side ``rhs``.

    Calls LAPACK ``dgtsv``, the routine ``scipy.linalg.solve_banded``
    dispatches (1, 1) bands to, without that function's argument handling,
    and keeps its checks: non-finite input raises ValueError, a singular
    system LinAlgError. The inputs are not overwritten.
    """
    if not np.isfinite(np.concatenate((lower, diag, upper, rhs))).all():
        raise ValueError("tridiagonal system must not contain infs or NaNs")
    *_, x, info = _dgtsv()(lower, diag, upper, rhs)
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
    # at each step time: whether the convection and the rate row differ bit
    # for bit from the previous step time's, and whether both sides' r_e are
    # equal, so that a sign change moves no node rate
    conv_moves = _moves(conv)
    row_moves = _moves(fwd.rates)
    sides_equal = (fwd.rates[:, 0] == fwd.rates[:, 1]).tolist()
    step_t = fwd.t.tolist()

    v = option.terminal_value(s)
    # rho holds the node rates read from the sign mask pos, diag the
    # operator's main diagonal under rho and band, and implicit the system's,
    # 1 - th diag; each is rebuilt only when what it is built from moved
    pos = v > 0.0
    rho = _node_rates(fwd, 0, pos)
    band = _convection(d2, s, ds, conv[0])
    diag = _diagonal(neg_2d2, band, rho)
    diag_stale = implicit_stale = False
    th = None
    max_iters = 0
    # the explicit side and its off-diagonal terms, written in place through
    # views of the rows each band reaches; the explicit side becomes the
    # right-hand side once v is added
    rhs = np.empty_like(s)
    term = np.empty_like(s)
    rhs_head, rhs_tail = rhs[:-1], rhs[1:]
    term_head, term_tail = term[:-1], term[1:]

    for i in range(len(step_t) - 1):
        theta = 1.0 if i < 2 else 0.5
        h = step_t[i] - step_t[i + 1]
        # rho holds v's node rates at this step's start time, where the
        # previous step's sweeps ran
        if diag_stale:
            diag = _diagonal(neg_2d2, band, rho)
            diag_stale, implicit_stale = False, True
        np.multiply(diag, v, out=rhs)
        np.multiply(band.lower, v[:-1], out=term_tail)
        np.add(rhs_tail, term_tail, out=rhs_tail)
        np.multiply(band.upper, v[1:], out=term_head)
        np.add(rhs_head, term_head, out=rhs_head)
        np.multiply((1.0 - theta) * h, rhs, out=rhs)
        np.add(v, rhs, out=rhs)

        if conv_moves[i + 1]:
            band = _convection(d2, s, ds, conv[i + 1])
            diag_stale = True
        if conv_moves[i + 1] or theta * h != th:
            th = theta * h
            sub = -th * band.lower
            sup = -th * band.upper
            implicit_stale = True
        if row_moves[i + 1]:
            pos = v > 0.0
            rho = _node_rates(fwd, i + 1, pos)
            diag_stale = True

        guess = v
        for it in range(1, PICARD_MAX_ITER + 1):
            if diag_stale:
                diag = _diagonal(neg_2d2, band, rho)
                diag_stale, implicit_stale = False, True
            if implicit_stale:
                implicit = 1.0 - th * diag
                implicit_stale = False
            v_new = solve_banded(sub, implicit, sup, rhs)
            fixed = sides_equal[i + 1]
            if not fixed:
                swept = v_new > 0.0
                fixed = swept.tobytes() == pos.tobytes()
                if not fixed:
                    pos = swept
                    rho = _node_rates(fwd, i + 1, pos)
                    diag_stale = True
            if fixed and it < max_iters:
                # ending here or after the confirming sweep leaves the
                # sweep count at max_iters, so the residual decides nothing
                break
            residual = float(np.abs(v_new - guess).max()) / max(1.0, float(np.abs(v_new).max()))
            guess = v_new
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
        v = v_new

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
