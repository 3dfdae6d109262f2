"""Outside-in tracer for cxva.

It changes no cxva source. ``install`` replaces public functions with
wrappers at every site where the package looks them up: a function
imported by value is a name in each importing module, so every cxva
module that holds the function gets the wrapper. ``uninstall`` puts the
originals back. Layer-boundary functions record spans with a
parent link; hot inner functions (curve lookups, banded solves, rate
blends) only bump a counter, so their time stays in the caller's self time.
Spans are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

SCENARIO_METHODS = ("load", "party", "effective_spec", "option", "grid",
                    "portfolio_profile", "netting_sets", "assets", "repo_params")
LAYERS = ("cli", "scenario", "pde", "xva", "exposure", "optimizer", "simplex",
          "repo", "collateral")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.max_picard_iters = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        import cxva.cli
        import cxva.curves
        import cxva.discounting
        import cxva.optimizer
        import cxva.pde
        import cxva.repo
        import cxva.scenario
        import cxva.xva
        from cxva.curves import RateCurve
        from cxva.discounting import EffectiveRateSpec
        from cxva.scenario import Scenario

        span, count = self._wrap_span, self._wrap_count
        span(cxva.cli.main, "cli.main")
        span(cxva.pde.xva_pde, "pde.xva_pde")
        span(cxva.xva.decompose, "xva.decompose")
        span(cxva.optimizer.iterate_allocation, "optimizer.iterate", self._on_iterate)
        span(cxva.optimizer.solve_lp, "optimizer.solve_lp")
        span(cxva.optimizer.solve_bounded_lp, "simplex.solve", self._on_simplex)
        span(cxva.repo.spread_curve, "repo.spread_curve")
        span(cxva.optimizer.blend_spread_curve, "collateral.blend_spread_curve")
        span(cxva.pde.solve, "pde.solve", self._on_pde_solve)
        span(cxva.scenario.exposure_profile, "exposure.profile", self._on_profile)
        span(cxva.scenario.generate_portfolio, "exposure.generate")
        for method in SCENARIO_METHODS:
            self._replace(Scenario, method, self._span_maker(f"scenario.{method}"))
        count(cxva.pde.solve_banded, "pde.banded_solves")
        count(cxva.discounting.blend_rate, "discounting.blend_rate")
        count(cxva.curves.combine_curves, "curves.combine")
        self._replace(RateCurve, "forward_rate", self._count_maker("curves.forward_rate"))
        self._replace(RateCurve, "integral", self._count_maker("curves.integral"))
        self._replace(EffectiveRateSpec, "funded_spread_curve",
                      self._count_maker("discounting.funded_spread_curve"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans, self.counts, self.max_picard_iters = [], Counter(), 0

    @staticmethod
    def _sites(fn) -> list[tuple[object, str]]:
        """Every (cxva module, name) that holds ``fn``: a function imported
        by value is looked up in the importing module, not where it is
        defined."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "cxva" or name.startswith("cxva.")) and m is not None]
        return [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn]

    def _replace(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = functools.wraps(fn)(make(fn))
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _wrap_span(self, fn, name: str, on_return=None) -> None:
        for owner, attr in self._sites(fn):
            self._replace(owner, attr, self._span_maker(name, on_return))

    def _wrap_count(self, fn, name: str) -> None:
        for owner, attr in self._sites(fn):
            self._replace(owner, attr, self._count_maker(name))

    def _span_maker(self, name: str, on_return=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:
                    self.counts[f"{name}.raised.{type(err).__name__}"] += 1
                    raise
                finally:
                    rec[3] = time.perf_counter()
                    self._stack.pop()
                if on_return is not None:
                    on_return(rec, args, kwargs, result)
                return result
            return wrapper
        return make

    def _count_maker(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- what the wrapped calls returned ----------------------------------------------

    def _on_pde_solve(self, rec, args, kwargs, result) -> None:
        grid = kwargs["grid"] if "grid" in kwargs else args[2]
        self.counts["pde.time_steps"] += grid.t_steps + 1  # Rannacher: two half-steps
        self.max_picard_iters = max(self.max_picard_iters, result.max_picard_iters)

    def _on_simplex(self, rec, args, kwargs, result) -> None:
        self.counts["simplex.iterations"] += result.iterations

    def _on_iterate(self, rec, args, kwargs, result) -> None:
        self.counts["optimizer.rounds"] += len(result.states)
        for state in result.states:
            posted = np.any(state.allocation.q > 1e-12, axis=0)
            self.counts["optimizer.funded_sets"] += int(np.sum(posted & (state.requirements > 0.0)))

    def _on_profile(self, rec, args, kwargs, result) -> None:
        from cxva.exposure import OneFactorMcModel
        portfolio, model = args[0], args[1]
        if isinstance(model, OneFactorMcModel):
            rec[0] = "exposure.profile.one_factor_mc"
            # computed, not counted: sum over grid times of paths x live
            # cash-flow dates (coupons plus the float leg's maturity term)
            dates = np.sort(np.concatenate([s.payment_times() for s in portfolio]
                                           + [[s.maturity for s in portfolio]]))
            times = np.asarray(result.times)
            live = len(dates) - np.searchsorted(dates, times + 1e-12, side="right")
            self.counts["exposure.mc.path_cashflow_evals"] += int(model.paths * live.sum())
        else:
            rec[0] = "exposure.profile.deterministic"

    # -- per-pass summary ------------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, busy and self seconds per span name and per layer, plus counts.

        Busy time counts only the outermost span of a name (or layer), so
        nesting is not counted twice; self time is a span's duration minus
        its direct children's.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, self_s = Counter(), Counter(), Counter()
        layer_busy, layer_self = Counter(), Counter()
        for k, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            layer = name.split(".")[0]
            calls[name] += 1
            self_s[name] += duration - child[k]
            layer_self[layer] += duration - child[k]
            ancestors = []
            while parent >= 0:
                ancestors.append(self.spans[parent][0])
                parent = self.spans[parent][1]
            if name not in ancestors:
                busy[name] += duration
            if all(a.split(".")[0] != layer for a in ancestors):
                layer_busy[layer] += duration
        return {"calls": dict(calls), "busy_s": dict(busy), "self_s": dict(self_s),
                "layer_busy_s": dict(layer_busy), "layer_self_s": dict(layer_self),
                "counts": dict(self.counts), "max_picard_iters": self.max_picard_iters}
