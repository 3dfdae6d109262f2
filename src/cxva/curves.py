"""Zero-rate term structures with log-linear discount factor interpolation.

Conventions, fixed once for the whole library:
- times are year fractions (ACT/365 style), rates are continuously
  compounded decimals per annum;
- interpolation is log-linear in discount factors, i.e. z(t)*t is linear
  between nodes, which is the same thing as piecewise-constant
  instantaneous forwards;
- below the first node the forward equals the first zero rate, beyond the
  last node the zero rate is flat (so the forward is flat too).

Piecewise-constant forwards make every integral of the short rate exact on
a segment, which the valuation-adjustment quadratures rely on. Nodes come
from ``cxva.scenario``, inline or from a curve file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from .intervals import bounded

# a default intensity, a year: every zero rate of a hazard curve
HAZARD = (0.0, 1.0, "[]")


class CurveError(ValueError):
    """Raised for invalid curve construction or evaluation requests."""


def _as_array(t) -> np.ndarray:
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class RateCurve:
    """Zero curve defined by (tenor_years, zero_rate) nodes.

    Nodes must be finite, with strictly increasing tenors and the first
    tenor > 0.
    Evaluation is defined for all t > 0; discount factors also accept t = 0.
    """

    tenors: tuple[float, ...]
    rates: tuple[float, ...]
    label: str = ""
    # internal knots of z(t)*t, prepended with (0, 0)
    _ts: np.ndarray = field(init=False, repr=False, compare=False)
    _zts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tenors) == 0 or len(self.tenors) != len(self.rates):
            raise CurveError("curve needs at least one (tenor, rate) node")
        ts = np.asarray(self.tenors, dtype=float)
        zs = np.asarray(self.rates, dtype=float)
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(zs))):
            raise CurveError("curve tenors and rates must be finite")
        if ts[0] <= 0.0:
            raise CurveError("first tenor must be > 0")
        if np.any(np.diff(ts) <= 0.0):
            raise CurveError("tenors must be strictly increasing")
        object.__setattr__(self, "tenors", tuple(float(t) for t in ts))
        object.__setattr__(self, "rates", tuple(float(z) for z in zs))
        object.__setattr__(self, "_ts", np.concatenate(([0.0], ts)))
        object.__setattr__(self, "_zts", np.concatenate(([0.0], zs * ts)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_nodes(cls, nodes: Iterable[tuple[float, float]], label: str = "") -> "RateCurve":
        pairs = sorted((float(t), float(z)) for t, z in nodes)
        return cls(tuple(t for t, _ in pairs), tuple(z for _, z in pairs), label)

    @classmethod
    def flat(cls, rate: float, label: str = "") -> "RateCurve":
        return cls((1.0,), (float(rate),), label)

    # -- evaluation ---------------------------------------------------------

    def _zt(self, t):
        """z(t)*t = -ln DF(0,t); linear on segments, slope z_N beyond the end."""
        t = _as_array(t)
        out = np.interp(t, self._ts, self._zts)
        last_t = self._ts[-1]
        beyond = t > last_t
        if np.any(beyond):
            out = np.where(beyond, self.rates[-1] * t, out)
        return out

    def zero_rate(self, t):
        """Continuously compounded zero rate at t (scalar or array), finite t > 0."""
        t = _as_array(t)
        if not np.all((t > 0.0) & np.isfinite(t)):
            raise CurveError("zero_rate requires finite t > 0")
        out = self._zt(t) / t
        return float(out) if out.ndim == 0 else out

    def integral(self, t1, t2):
        """Exact integral of the instantaneous forward over [t1, t2]."""
        t1 = _as_array(t1)
        t2 = _as_array(t2)
        if np.any(t1 < 0.0) or np.any(t2 < t1):
            raise CurveError("integral requires 0 <= t1 <= t2")
        out = self._zt(t2) - self._zt(t1)
        return float(out) if out.ndim == 0 else out

    def df(self, t):
        """Discount factor from time 0 to t (scalar or array), t >= 0."""
        out = np.exp(-self.integral(0.0, t))
        return float(out) if np.ndim(out) == 0 else out

    def forward_rate(self, t):
        """Instantaneous forward at t (right-continuous, piecewise constant)."""
        t = _as_array(t)
        if np.any(t < 0.0):
            raise CurveError("forward_rate requires t >= 0")
        idx = np.searchsorted(self._ts, t, side="right")
        idx = np.clip(idx, 1, len(self._ts) - 1)
        fwd = (self._zts[idx] - self._zts[idx - 1]) / (self._ts[idx] - self._ts[idx - 1])
        fwd = np.where(t >= self._ts[-1], self.rates[-1], fwd)
        return float(fwd) if fwd.ndim == 0 else fwd


def combine_curves(curves: Sequence[RateCurve], weights: Sequence[float],
                   label: str = "") -> RateCurve:
    """Weighted sum of zero curves, exact under log-linear DF interpolation.

    The result's z(t)*t equals the weighted sum of the inputs' z(t)*t for
    every t (union node grid plus matching flat extrapolation), so spreads
    and sums of curves lose nothing.
    """
    if len(curves) != len(weights) or not curves:
        raise CurveError("combine_curves needs matching, non-empty curves/weights")
    tenors = sorted({t for c in curves for t in c.tenors})
    ts = np.asarray(tenors)
    zts = sum(w * c._zt(ts) for c, w in zip(curves, weights))
    return RateCurve(tuple(ts), tuple(zts / ts), label)


def dominates(upper: RateCurve, lower: RateCurve) -> bool:
    """Whether upper's zero rate is >= lower's (to 1e-12) at every node of
    either curve."""
    ts = np.asarray(sorted(set(upper.tenors) | set(lower.tenors)))
    return not np.any(upper.zero_rate(ts) < lower.zero_rate(ts) - 1e-12)


@dataclass(frozen=True)
class PartyCurves:
    """One party's funding complex: unsecured bond curve, liquidity rate
    curve (bond net of default premium) and hazard curve.

    If the liquidity curve is omitted it is built from the zero-recovery
    identity liquidity = bond - hazard. The bond curve must dominate the
    liquidity curve node-wise (non-negative default premium).
    """

    bond: RateCurve
    liquidity: RateCurve | None = None
    hazard: RateCurve | None = None

    def __post_init__(self) -> None:
        if self.hazard is not None:  # before the liquidity curve it may build
            bounded(np.asarray(self.hazard.rates), HAZARD, "hazard", CurveError)
        if self.liquidity is None:
            if self.hazard is None:
                raise CurveError("need a liquidity curve or a hazard curve")
            liq = combine_curves([self.bond, self.hazard], [1.0, -1.0],
                                 label=f"{self.bond.label}-liquidity")
            object.__setattr__(self, "liquidity", liq)
        if not dominates(self.bond, self.liquidity):
            raise CurveError("bond rate must be >= liquidity rate at every tenor")
