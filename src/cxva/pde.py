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

The stock is financed at the risk-free rate, so r_s = r. Every forward
rate a solve reads (both parties' bond and liquidity curves, the risk-free
curve and each side's funded spread) is tabulated once per solve on the
step grid, the time grid plus the Rannacher half-step; the Picard sweeps
only read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discounting import EffectiveRateSpec, blend_rate


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


@dataclass(frozen=True)
class OptionSpec:
    """European payoff on a single underlier.

    ``position`` scales the terminal payoff (+1 long, -1 short); ``zcb`` is
    a unit cash payoff used for consistency checks; ``forward`` pays S - K,
    which changes sign, so both parties' rates apply within one solve.
    """

    payoff: str  # "call" | "put" | "zcb" | "forward"
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
        if self.payoff not in ("call", "put", "zcb", "forward"):
            raise PdeError("payoff must be call, put, zcb or forward")
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


@dataclass(frozen=True)
class GridSpec:
    s_nodes: int = 400
    t_steps: int = 400
    s_max_mult: float = 5.0
    picard_tol: float = 1e-10
    picard_max_iter: int = 30

    def __post_init__(self) -> None:
        if self.s_nodes < 50 or self.t_steps < 50:
            raise PdeError("grid needs at least 50 space nodes and 50 time steps")
        # written so that NaN fails every check
        if not 1.0 < self.s_max_mult < math.inf:
            raise PdeError("grid s_max_mult must be finite and > 1")
        if not self.picard_tol > 0.0:
            raise PdeError("picard_tol must be > 0")


@dataclass(frozen=True)
class PdeSolution:
    s: np.ndarray
    v0: np.ndarray
    value: float
    max_picard_iters: int


@dataclass(frozen=True)
class _ForwardTable:
    """Forward rates on the solver's step times ``t``, one array per curve.

    ``RateCurve.forward_rate`` evaluates an array element-wise with the
    same operations as a scalar lookup, so each entry equals the scalar
    forward at that time bit for bit.
    """

    t: np.ndarray
    bond_c: np.ndarray
    bond_b: np.ndarray
    liquidity_c: np.ndarray
    liquidity_b: np.ndarray
    risk_free: np.ndarray
    spread_c: np.ndarray
    spread_b: np.ndarray

    @classmethod
    def build(cls, spec: EffectiveRateSpec, t: np.ndarray) -> "_ForwardTable":
        return cls(t=t,
                   bond_c=spec.party_c.bond.forward_rate(t),
                   bond_b=spec.party_b.bond.forward_rate(t),
                   liquidity_c=spec.party_c.liquidity.forward_rate(t),
                   liquidity_b=spec.party_b.liquidity.forward_rate(t),
                   risk_free=spec.risk_free.forward_rate(t),
                   spread_c=spec.funded_spread_curve(+1).forward_rate(t),
                   spread_b=spec.funded_spread_curve(-1).forward_rate(t))


def _node_rates(spec: EffectiveRateSpec, fwd: _ForwardTable, k: int,
                v: np.ndarray) -> np.ndarray:
    """Per-node effective rate at step time fwd.t[k] from the sign of v
    (V=0 counts as a payable)."""
    pos = v > 0.0
    eta = np.where(pos, spec.eta(+1), spec.eta(-1))
    chi = np.where(pos, spec.chi(+1), spec.chi(-1))
    f_unsec = np.where(pos, fwd.bond_c[k], fwd.bond_b[k])
    f_mu = np.where(pos, fwd.liquidity_c[k], fwd.liquidity_b[k])
    f_s = np.where(pos, fwd.spread_c[k], fwd.spread_b[k])
    return blend_rate(f_unsec, f_mu, fwd.risk_free[k], f_s, eta, chi)


def _operator(s: np.ndarray, ds: float, conv: float, sigma: float,
              rho: np.ndarray):
    """Tridiagonal space operator A with AV ~ (r_s-q)S V' + 0.5 sig^2 S^2 V'' - rho V.

    Returns (lower, diag, upper) bands. The S=0 row reduces to -rho by
    itself since both S-terms vanish; the far boundary drops the second
    derivative and takes one-sided convection.
    """
    n = len(s)
    d1 = conv * s / (2.0 * ds)
    d2 = 0.5 * sigma * sigma * s * s / (ds * ds)
    lower = d2 - d1
    diag = -2.0 * d2 - rho
    upper = d2 + d1
    lower[-1] = -conv * s[-1] / ds
    diag[-1] = conv * s[-1] / ds - rho[-1]
    upper[0] = 0.0  # S=0 row: d1=d2=0 already, keep explicit
    lower[0] = 0.0
    return lower, diag, upper


def _apply(lower, diag, upper, v):
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded``, imported on first use so that loading
    the package does not load scipy (about 30 MB and 0.3 s) for commands
    that never solve a PDE."""
    from scipy.linalg import solve_banded as banded
    return banded(l_and_u, ab, b)


def _solve_tridiag(lower, diag, upper, rhs):
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def solve(option: OptionSpec, rates: EffectiveRateSpec, grid: GridSpec, *,
          risk_free_override: bool = False) -> PdeSolution:
    """Backward-solve the option value under the effective switching rate.

    ``risk_free_override`` prices with r_e = r everywhere (the risk-free
    value V*).
    """
    ref = max(option.spot, option.strike)
    s_max = grid.s_max_mult * ref
    s = np.linspace(0.0, s_max, grid.s_nodes + 1)
    ds = s[1] - s[0]
    dt = option.maturity / grid.t_steps
    sigma = option.vol

    # Rannacher startup: the first interval as two implicit half-steps.
    # Step i runs from fwd.t[i] to fwd.t[i + 1].
    times = np.linspace(option.maturity, 0.0, grid.t_steps + 1)
    fwd = _ForwardTable.build(
        rates, np.concatenate(([times[0], times[0] - dt / 2.0], times[1:])))

    def rho_at(k: int, v_ref: np.ndarray) -> np.ndarray:
        if risk_free_override:
            return np.full(len(s), fwd.risk_free[k])
        return _node_rates(rates, fwd, k, v_ref)

    v = option.terminal_value(s)
    max_iters = 0

    for i in range(len(fwd.t) - 1):
        theta = 1.0 if i < 2 else 0.5
        h = fwd.t[i] - fwd.t[i + 1]
        conv_old = fwd.risk_free[i] - option.div_yield
        conv_new = fwd.risk_free[i + 1] - option.div_yield
        rho_old = rho_at(i, v)
        lo_o, di_o, up_o = _operator(s, ds, conv_old, sigma, rho_old)
        rhs = v + (1.0 - theta) * h * _apply(lo_o, di_o, up_o, v)

        guess = v
        for it in range(1, grid.picard_max_iter + 1):
            rho_new = rho_at(i + 1, guess)
            lo_n, di_n, up_n = _operator(s, ds, conv_new, sigma, rho_new)
            v_new = _solve_tridiag(-theta * h * lo_n, 1.0 - theta * h * di_n,
                                   -theta * h * up_n, rhs)
            residual = float(np.max(np.abs(v_new - guess))) / max(1.0, float(np.max(np.abs(v_new))))
            guess = v_new
            if residual < grid.picard_tol:
                break
        else:
            raise PicardConvergenceError(fwd.t[i + 1], residual, grid.picard_max_iter)
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
    star = solve(option, rates, grid, risk_free_override=True).value
    adj = solve(option, rates, grid).value
    return XvaPdeResult(v_star=star, v=adj, u=star - adj)
