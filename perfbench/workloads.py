"""The four benchmark workloads.

Each workload has three sides:

- ``generate`` (parent process) writes seeded inputs into a work directory;
  cxva sees only those files;
- ``prepare`` / ``run_pass`` (worker process) make one pass through cxva's
  public entry points and return one record per operation;
- ``reference`` (parent process, once per run) evaluates the oracles in
  ``oracles.py``; ``gate`` checks one pass's outputs against it and maps
  each failed operation's index to a message.

``expected_counts`` gives the per-pass call counts that a traced pass must
reproduce, derived from the inputs alone.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# copies of the shipped scenario data, so edits under scenarios/ do not move
# the benchmark
OIS_SLOPED = [[0.25, 0.010], [1.0, 0.011], [2.0, 0.013], [5.0, 0.017],
              [10.0, 0.022], [20.0, 0.027], [30.0, 0.030]]
MU0_LIBOR_OIS = [[0.25, 0.0010], [1.0, 0.0015], [5.0, 0.0025], [10.0, 0.0033],
                 [20.0, 0.0042], [30.0, 0.0050]]
# id, price, quantity, h_csa, h_repo, h_lcr, ec_AA, ec_A, ec_BBB, ec_BB
REFERENCE_ASSETS = [
    ["UST_10y", 1, 70, 0.02, 0.03, 0, 0.0008, 0.0017, 0.004, 0.008],
    ["UST_30y", 1, 70, 0.04, 0.03, 0, 0.012, 0.017, 0.0219, 0.027],
    ["S&P_500", 1, 70, 0.15, 0.075, 0.5, 0.0161, 0.0253, 0.0341, 0.0428],
    ["CMBS_AAA5y", 1, 70, 0.12, 0.06, 0.25, 0.0032, 0.0069, 0.0149, 0.0241],
    ["CMBS_AA5y10", 1, 70, 0.18, 0.075, 0.5, 0.0115, 0.024, 0.0389, 0.055],
    ["Corp_A5y10", 1, 70, 0.09, 0.05, 0.15, 0, 0.0001, 0.0002, 0.0004],
]
ASSET_HEADER = ["id", "price", "quantity", "h_csa", "h_repo", "h_lcr",
                "ec_AA", "ec_A", "ec_BBB", "ec_BB"]

# cxva.optimizer.DEFAULT_SPREAD_TENORS: where the break-even repo spread is quoted
SPREAD_TENORS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)

SCENARIO = "scenario.json"


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _close(x: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(x) and abs(x - ref) <= atol + rtol * abs(ref)


def _oracle_curves(scenario: dict):
    """Risk-free curve and, per side, the (bond, liquidity, repo spread)
    curves of a scenario whose parties are spreads over risk-free, rebuilt
    from the nodes in the scenario file without cxva."""
    from oracles import LogLinearCurve
    spec = scenario["curves"]["risk_free"]
    rf = LogLinearCurve.from_nodes(spec["nodes"]) if "nodes" in spec \
        else LogLinearCurve.flat(spec["flat"])
    repo = LogLinearCurve.flat(scenario.get("collateral", {}).get("repo_spread", 0.0))
    sides = {side: (rf + LogLinearCurve.flat(p["bond_spread"]),
                    rf + LogLinearCurve.flat(p["liquidity_spread"]), repo)
             for side, p in scenario["parties"].items()}
    return rf, sides


def _op_errors(ops: list[dict]) -> dict[int, str]:
    """Operations that raised or exited non-zero, by their own record."""
    out = {}
    for k, op in enumerate(ops):
        if "error" in op:
            out[k] = op["error"]
        elif op.get("exit", 0) != 0:
            out[k] = f"exit code {op['exit']}"
    return out


class CliWorkload:
    """A workload whose pass is one ``cxva.cli.main`` command."""

    name = ""
    command = ""
    dominant = ""

    def prepare(self, inputs: Path):
        return inputs / SCENARIO

    def reference(self, inputs: Path):
        return None

    def run_pass(self, scenario: Path, out: Path) -> list[dict]:
        import cxva.cli
        rc = cxva.cli.main([self.command, "--scenario", str(scenario), "--out", str(out)])
        return [{"exit": rc}]

    def gate(self, inputs: Path, reference, out: Path, ops: list[dict]) -> dict[int, str]:
        errors = _op_errors(ops)
        if errors:
            return errors
        problems = self.check_outputs(inputs, reference, out)
        return {0: "; ".join(problems)} if problems else {}

    def check_outputs(self, inputs: Path, reference, out: Path) -> list[str]:
        raise NotImplementedError


# -- option_sweep ------------------------------------------------------------------

class OptionSweep(CliWorkload):
    """``cxva sweep`` over 3 collateralization points on a jittered ATM call
    on a 300 x 60 grid."""

    name = "option_sweep"
    command = "sweep"
    dominant = "pde"
    points = 3
    # against the closed form the table is within 1.1e-6 of the option
    # premium (PDE truncation plus 6 s.f.); the adjustments themselves are
    # about 3e-2 of it
    rtol_of_premium = 2e-5

    def generate(self, seed: int, dest: Path) -> None:
        rng = np.random.default_rng([seed, 1])

        def u(lo, hi):
            return float(rng.uniform(lo, hi))

        _write_json(dest / SCENARIO, {
            "seed": seed,
            "curves": {"risk_free": {"flat": u(0.009, 0.011)}},
            "parties": {
                "b": {"bond_spread": u(0.0115, 0.0135), "liquidity_spread": u(0.0045, 0.0055)},
                "c": {"bond_spread": u(0.028, 0.032), "liquidity_spread": u(0.009, 0.011)},
            },
            "collateral": {"mode": "noncash", "collateralization": 1.0,
                           "repo_spread": u(0.009, 0.011)},
            "option": {"payoff": "call", "strike": 100.0, "spot": u(98.0, 102.0),
                       "vol": u(0.48, 0.52), "maturity": 1.0},
            "grid": {"s_nodes": 300, "t_steps": 60, "s_max_mult": 5.0},
            "sweep": {"points": self.points},
        })

    def reference(self, inputs: Path):
        """(Black-Scholes premium, closed-form sweep rows)."""
        from oracles import black_scholes_call, option_sweep_rows
        scenario = _read_json(inputs / SCENARIO)
        opt, r = scenario["option"], scenario["curves"]["risk_free"]["flat"]
        premium = black_scholes_call(opt["spot"], opt["strike"], r, opt["vol"], opt["maturity"])
        return premium, option_sweep_rows(scenario, np.linspace(0.0, 1.0, self.points))

    def check_outputs(self, inputs: Path, reference, out: Path) -> list[str]:
        premium, want = reference
        rows = _read_csv(out / "sweep.csv")
        if rows[0] != ["collateralization", "cra_long", "xva_long", "cra_short", "xva_short"]:
            return [f"unexpected sweep.csv header {rows[0]}"]
        got = [[float(x) for x in row] for row in rows[1:]]
        if len(got) != self.points:
            return [f"{len(got)} sweep rows, expected {self.points}"]
        problems = []
        for g_row, w_row in zip(got, want):
            for col, (g, w) in enumerate(zip(g_row, w_row)):
                if not _close(g, w, 0.0, self.rtol_of_premium * premium):
                    problems.append(f"row eta={w_row[0]:.2f} col {col}: {g:.6g} vs closed form {w:.6g}")
        return problems

    def expected_counts(self, inputs: Path, trace: dict) -> dict:
        # per point: long and short, each a total and a CRA twin, each V* and V
        return {"pde.solve.calls": 8 * self.points}


# -- stochastic_book ----------------------------------------------------------------

XVA_FIELDS = ("cva", "dva", "cfa", "dfa", "lva", "colva", "cra", "xva", "npv")


class StochasticBook(CliWorkload):
    """``cxva xva`` at three levels on a near-ATM mixed book under one-factor MC."""

    name = "stochastic_book"
    command = "xva"
    dominant = "exposure"
    # band on each XVA field against the noise-free reference, in Monte Carlo
    # standard errors of the side integrals the field is built from, with
    # the errors at all grid times taken as perfectly correlated (an upper
    # bound)
    z_band = 4.0
    # the program's XVA of its own exposure profile may differ from the
    # dense trapezoid by oracles.quadrature_gap (observed: at most 0.2 of
    # it over seeds 1-160) plus this share of the level's total, the sum of
    # the magnitudes of every side's CVA/DVA, CFA/DFA and LVA
    quad_floor = 1e-4

    def generate(self, seed: int, dest: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        _write_json(dest / SCENARIO, {
            "seed": seed,
            "curves": {"risk_free": {"nodes": OIS_SLOPED}},
            "parties": {
                "b": {"bond_spread": float(rng.uniform(0.012, 0.013)), "liquidity_spread": 0.005},
                "c": {"bond_spread": float(rng.uniform(0.012, 0.013)), "liquidity_spread": 0.005},
            },
            "collateral": {"mode": "noncash", "collateralization": 1.0, "repo_spread": 0.01},
            "portfolio": {"n": 200, "payer_frac": float(rng.uniform(0.53, 0.57)),
                          "maturity_min": 0.25, "maturity_max": 30.0, "rate_band": 0.01,
                          "rate_offset": 0.0, "pay_freq": 2, "profile_points": 121,
                          "model": "one_factor_mc", "paths": 1000,
                          "mean_reversion": 0.05, "vol": 0.01},
            "quadrature_steps": 121,
            "xva_levels": [0.0, 0.5, 1.0],
        })

    def reference(self, inputs: Path) -> dict:
        """Per level: the noise-free XVA with its Monte Carlo band, and the
        XVA of the program's own exposure profile with its quadrature
        tolerance. Neither runs cxva.xva."""
        from cxva.scenario import Scenario
        from oracles import one_factor_exposure, quadrature_gap, xva_fields
        raw = _read_json(inputs / SCENARIO)
        sc = Scenario.load(inputs / SCENARIO)
        cfg = raw["portfolio"]
        book = sc.portfolio()
        rf, sides = _oracle_curves(raw)
        times = np.linspace(0.0, max(s.maturity for s in book), cfg["profile_points"])
        epe, ene, sd_pos, sd_neg = one_factor_exposure(
            book, rf, times, cfg["mean_reversion"], cfg["vol"])
        # relative standard error of a time integral of EPE (ENE) over
        # paths / 2 antithetic pairs
        pairs = math.sqrt(cfg["paths"] / 2)
        rel = {"c": float(np.sum(sd_pos) / np.sum(epe)) / pairs,
               "b": float(np.sum(sd_neg) / np.sum(ene)) / pairs}
        # the exposure the command computed, re-run here (it is deterministic
        # in the scenario seed), so the gate checks its XVA tightly
        program = sc.portfolio_profile()
        chi = 1.0  # noncash collateral without haircuts is fully funded

        def fields(t, pos, neg, mtm0, eta):
            """Fields of the whole profile and of its positive and negative
            sides alone."""
            zero = np.zeros_like(pos)
            return (xva_fields(t, pos, neg, mtm0, rf, sides, eta, chi),
                    xva_fields(t, pos, zero, 0.0, rf, sides, eta, chi),
                    xva_fields(t, zero, neg, 0.0, rf, sides, eta, chi))

        levels = {}
        for eta in raw["xva_levels"]:
            eta = float(eta)
            ref, c, b = fields(times, epe, ene, float(epe[0] - ene[0]), eta)
            band = {f: self.z_band * (rel["c"] * abs(c[f]) + rel["b"] * abs(b[f]))
                    for f in XVA_FIELDS}
            band["npv"] = band["xva"]
            same, c, b = fields(program.times, program.epe, program.ene, program.mtm0, eta)
            total = sum(abs(side[f]) for side in (c, b) for f in ("cva", "dva", "cfa", "dfa", "lva"))
            tol = self.quad_floor * total + quadrature_gap(
                program.times, program.epe, program.ene, rf, sides, eta, chi)
            levels[f"{eta:g}"] = {"noise-free reference": (ref, band),
                                  "same-profile quadrature": (same, dict.fromkeys(XVA_FIELDS, tol))}
        return levels

    def check_outputs(self, inputs: Path, reference, out: Path) -> list[str]:
        report = _read_json(out / "xva.json")
        problems = []
        if sorted(report) != sorted(reference):
            return [f"levels {sorted(report)}, expected {sorted(reference)}"]
        for level, refs in reference.items():
            got = report[level]
            values = [got[f] for f in XVA_FIELDS] + list(got.get("bp", {}).values())
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"level {level}: non-finite field")
                continue
            scale = max(1.0, abs(got["xva"]))
            if abs(got["cra"] - (got["cva"] - got["dva"] + got["cfa"] - got["dfa"])) > 1e-12 * scale:
                problems.append(f"level {level}: cra != cva - dva + cfa - dfa")
            if abs(got["xva"] - (got["cra"] + got["lva"])) > 1e-12 * scale:
                problems.append(f"level {level}: xva != cra + lva")
            for kind, (ref, tol) in refs.items():
                for f in XVA_FIELDS:
                    if abs(got[f] - ref[f]) > tol[f] + 1e-12 * scale:
                        problems.append(f"level {level} {f}: {got[f]:.6g} outside {kind} "
                                        f"{ref[f]:.6g} +- {tol[f]:.3g}")
        return problems

    def expected_counts(self, inputs: Path, trace: dict) -> dict:
        levels = _read_json(inputs / SCENARIO)["xva_levels"]
        return {"exposure.profile.calls": 1, "xva.decompose.calls": len(levels)}


# -- allocation ------------------------------------------------------------------------

class Allocation(CliWorkload):
    """``cxva optimize`` on the reference allocation problem with seeded books."""

    name = "allocation"
    command = "optimize"
    dominant = "xva"
    # the rebuilt LP reads unit_lva.csv at 6 s.f. (<= 5e-7 relative per entry)
    objective_rtol = 1e-6
    identity_rtol = 1e-5
    # unit and per-round LVAs against the dense trapezoid: any second-order
    # quadrature on the profile's grid passes
    lva_rtol = 2e-3
    profile_points = 61
    targets = (("AA-set", "AA", -118.007, 0.9), ("A-set", "A", -90.641, 0.8),
               ("BBB-set", "BBB", -60.98, 0.7), ("BB-set", "BB", -29.915, 0.6))

    def generate(self, seed: int, dest: Path) -> None:
        with open(dest / "assets.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(ASSET_HEADER)
            writer.writerows(REFERENCE_ASSETS)
        sets = [{"id": sid, "rating": rating, "target_mtm": target,
                 "portfolio": {"n": 1000, "payer_frac": frac, "rate_offset": 0.025,
                               "rate_band": 0.01, "profile_points": self.profile_points}}
                for sid, rating, target, frac in self.targets]
        _write_json(dest / SCENARIO, {
            "seed": seed,
            "curves": {"risk_free": {"nodes": OIS_SLOPED}, "mu0": {"nodes": MU0_LIBOR_OIS}},
            "parties": {"b": {"bond_spread": 0.0125, "liquidity_spread": 0.005},
                        "c": {"bond_spread": 0.025, "liquidity_spread": 0.01}},
            "assets_file": "assets.csv",
            "quadrature_steps": self.profile_points,
            "repo": {"roe": 0.10, "expected_gap_loss": 0.0, "mpr_days": 10},
            "optimizer": {"quantity": 70.0, "hqla_floor": 0.0, "funding_haircut": "csa",
                          "tol": 0.01, "max_iter": 5, "netting_sets": sets},
        })

    @staticmethod
    def _assets() -> dict[str, np.ndarray]:
        cols = list(zip(*REFERENCE_ASSETS))
        return {h: np.array(c, dtype=float) for h, c in zip(ASSET_HEADER[1:], cols[1:])}

    def reference(self, inputs: Path) -> dict:
        """Deterministic set profiles scaled to their targets, the break-even
        spread curve per asset and rating, and the unit-LVA matrix, without
        cxva's exposure, repo, curves or xva code; the books come from the
        scenario seed."""
        from cxva.scenario import Scenario
        from oracles import (LogLinearCurve, breakeven_spread_curve, forward_values,
                             funded_fraction, xva_fields)
        raw = _read_json(inputs / SCENARIO)
        sc = Scenario.load(inputs / SCENARIO)
        rf, sides = _oracle_curves(raw)
        mu0 = LogLinearCurve.from_nodes(raw["curves"]["mu0"]["nodes"])
        roe = raw["repo"]["roe"]
        a = self._assets()
        profiles = []
        for k, ns in enumerate(raw["optimizer"]["netting_sets"]):
            book = sc.portfolio(ns["portfolio"], seed_offset=k + 1)
            times = np.linspace(0.0, max(s.maturity for s in book), self.profile_points)
            values = forward_values(book, rf, times)
            values *= ns["target_mtm"] / values[0]
            profiles.append((times, np.maximum(values, 0.0), np.maximum(-values, 0.0)))
        spreads = [[breakeven_spread_curve(roe, a[f"ec_{rating}"][i], mu0, SPREAD_TENORS)
                    for _, rating, _, _ in self.targets] for i in range(len(REFERENCE_ASSETS))]
        # the poster (party C) funds both sides
        bond, mu, _ = sides["c"]

        def lva(j, eta, chi, spread):
            times, epe, ene = profiles[j]
            curves = (bond, mu, spread)
            return xva_fields(times, epe, ene, 0.0, rf, {"c": curves, "b": curves}, eta, chi)["lva"]

        m, n = len(REFERENCE_ASSETS), len(self.targets)
        unit = np.array([[abs(lva(j, 1.0, funded_fraction(a["h_repo"][i], a["h_csa"][i]),
                                  spreads[i][j]))
                          * a["price"][i] * (1.0 - a["h_csa"][i]) / abs(self.targets[j][2])
                          for j in range(n)] for i in range(m)])
        return {"unit_lva": unit, "spreads": spreads, "lva": lva}

    def round_lva(self, reference: dict, q: np.ndarray, requirement: np.ndarray) -> np.ndarray:
        """LVA of each set under the posted blend: eta = posted CSA value over
        the requirement, chi and the funded spread weighted by CSA value."""
        from oracles import LogLinearCurve, funded_fraction
        a = self._assets()
        out = np.zeros(q.shape[1])
        for j in range(q.shape[1]):
            posted = [i for i in range(q.shape[0]) if q[i, j] > 1e-12]
            if not posted or requirement[j] <= 0.0:
                continue
            value = {i: (1.0 - a["h_csa"][i]) * a["price"][i] * q[i, j] for i in posted}
            protection = sum(value.values())
            funded = {i: funded_fraction(a["h_repo"][i], a["h_csa"][i]) for i in posted}
            chi = sum(value[i] * funded[i] for i in posted) / protection
            spread = LogLinearCurve.combine([reference["spreads"][i][j] for i in posted],
                                            [value[i] * funded[i] / (protection * chi)
                                             for i in posted])
            out[j] = reference["lva"](j, min(1.0, protection / requirement[j]), chi, spread)
        return out

    def check_outputs(self, inputs: Path, reference, out: Path) -> list[str]:
        from oracles import highs_allocation
        scenario = _read_json(inputs / SCENARIO)
        summary = _read_json(out / "optimize_summary.json")
        cfg = scenario["optimizer"]
        problems = []
        if summary["status"] != "converged":
            problems.append(f"status {summary['status']}")
        a = self._assets()
        price, h_csa, h_lcr = a["price"], a["h_csa"], a["h_lcr"]
        quantity = np.full(len(price), float(cfg["quantity"]))
        unit = np.array([[float(x) for x in row[1:]] for row in _read_csv(out / "unit_lva.csv")[1:]])
        if not np.allclose(unit, reference["unit_lva"], rtol=self.lva_rtol, atol=0.0):
            problems.append(f"unit_lva.csv {unit.tolist()} vs {reference['unit_lva'].tolist()}")
        req0 = np.abs(summary["initial_mtm"])
        highs = highs_allocation(unit, price, quantity, h_csa, h_lcr, req0,
                                 np.full(unit.shape, np.inf), float(cfg["hqla_floor"]))
        if not _close(summary["objective"][0], highs, self.objective_rtol):
            problems.append(f"round-0 objective {summary['objective'][0]:.9g} vs HiGHS {highs:.9g}")
        mtm_star = np.array(summary["initial_mtm"])
        requirements = [req0] + [np.abs(m) for m in summary["updated_mtm"][:-1]]
        for k, req in enumerate(requirements):
            rows = _read_csv(out / f"allocation_{k}.csv")
            q = np.array([[float(x) for x in row[1:]] for row in rows[1:-1]])
            posted = ((1.0 - h_csa) * price) @ q
            if not np.allclose(posted, req, rtol=self.identity_rtol, atol=0.0):
                problems.append(f"round {k}: funding identity {posted} vs {req}")
            if np.any(q < 0.0) or np.any(q.sum(axis=1) > quantity * (1.0 + self.identity_rtol)):
                problems.append(f"round {k}: inventory violated")
            lva = mtm_star - np.array(summary["updated_mtm"][k])
            want = self.round_lva(reference, q, req)
            if not np.allclose(lva, want, rtol=self.lva_rtol, atol=0.0):
                problems.append(f"round {k}: LVA {lva} vs {want}")
        return problems

    def expected_counts(self, inputs: Path, trace: dict) -> dict:
        m, n = len(REFERENCE_ASSETS), len(self.targets)
        return {"xva.decompose.calls": m * n + trace["optimizer.funded_sets"]}


# -- lp_resolve ---------------------------------------------------------------------------

LP_SIZES = ((6, 4), (12, 6), (20, 10), (30, 15), (36, 18))


class LpResolve:
    """Closed loop of ``cxva.optimizer.solve_lp`` on seeded allocation LPs."""

    name = "lp_resolve"
    dominant = "simplex"
    rtol = 1e-6
    base_seed = 20240701

    def generate(self, seed: int, dest: Path) -> None:
        # prices, haircuts, unit LVAs, eligibility and caps are fixed (cached
        # unit LVAs); the seed moves the plan that sets the requirements and
        # the HQLA floor, so every problem stays feasible by construction
        base = np.random.default_rng(self.base_seed)
        rng = np.random.default_rng([seed, 4])
        problems = []
        for m, n in LP_SIZES:
            price = base.uniform(0.8, 1.2, m)
            quantity = base.uniform(50.0, 100.0, m)
            h_csa = base.uniform(0.0, 0.2, m)
            h_lcr = base.uniform(0.0, 0.5, m)
            eligible = base.random((m, n)) < 0.75
            eligible[base.integers(0, m, n), np.arange(n)] = True
            weights = base.random((m, n)) * eligible
            weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1e-12)
            q_base = weights * (quantity * base.uniform(0.3, 0.6, m))[:, None]
            caps = np.where(base.random((m, n)) < 0.5, np.inf,
                            q_base * base.uniform(1.2, 2.0, (m, n)))
            upper = np.where(eligible, caps, 0.0)
            unit_lva = base.uniform(1e-4, 1e-2, (m, n))
            q0 = q_base * rng.uniform(0.9, 1.1, (m, n))
            spare = quantity - q0.sum(axis=1)
            problems.append({
                "price": price.tolist(), "quantity": quantity.tolist(),
                "h_csa": h_csa.tolist(), "h_lcr": h_lcr.tolist(),
                "unit_lva": unit_lva.tolist(),
                "upper": [[u if math.isfinite(u) else None for u in row] for row in upper],
                "requirement": (((1.0 - h_csa) * price) @ q0).tolist(),
                "hqla_floor": float(0.5 * np.sum(spare * (1.0 - h_lcr) * price)),
            })
        _write_json(dest / SCENARIO, {"lp_problems": problems})

    @staticmethod
    def _upper(p: dict) -> np.ndarray:
        return np.array([[np.inf if u is None else u for u in row] for row in p["upper"]])

    def prepare(self, inputs: Path):
        from cxva.collateral import CollateralAsset
        from cxva.exposure import ExposureProfile
        from cxva.optimizer import AllocationProblem, NettingSet
        flat = ExposureProfile(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2), 0.0, 1.0)
        out = []
        for p in _read_json(inputs / SCENARIO)["lp_problems"]:
            assets = [CollateralAsset(f"a{i}", p["price"][i], p["quantity"][i], p["h_csa"][i],
                                      0.0, p["h_lcr"][i], {})
                      for i in range(len(p["price"]))]
            sets = [NettingSet(f"s{j}", v, "A", flat) for j, v in enumerate(p["requirement"])]
            out.append(AllocationProblem(tuple(assets), tuple(sets), np.array(p["unit_lva"]),
                                         hqla_floor=p["hqla_floor"], bounds=self._upper(p)))
        return out

    def run_pass(self, problems, out: Path) -> list[dict]:
        import cxva.optimizer
        ops = []
        for problem in problems:
            try:
                alloc = cxva.optimizer.solve_lp(problem)
            except Exception as err:  # a failed operation, counted by the gate
                ops.append({"error": f"{type(err).__name__}: {err}"})
                continue
            ops.append({"objective": alloc.objective, "q": alloc.q.tolist(),
                        "slacks": alloc.slacks.tolist()})
        return ops

    def reference(self, inputs: Path) -> list[float]:
        """HiGHS objective of every problem."""
        from oracles import highs_allocation
        return [highs_allocation(p["unit_lva"], p["price"], p["quantity"], p["h_csa"],
                                 p["h_lcr"], p["requirement"], self._upper(p), p["hqla_floor"])
                for p in _read_json(inputs / SCENARIO)["lp_problems"]]

    def gate(self, inputs: Path, reference, out: Path, ops: list[dict]) -> dict[int, str]:
        specs = _read_json(inputs / SCENARIO)["lp_problems"]
        problems = _op_errors(ops)
        for k, (p, op, ref) in enumerate(zip(specs, ops, reference)):
            if "error" in op:
                continue
            q, slacks = np.array(op["q"]), np.array(op["slacks"])
            price, quantity = np.array(p["price"]), np.array(p["quantity"])
            tol = 1e-6 * max(1.0, float(np.max(quantity)))
            feasible = (np.all(q >= -tol) and np.all(q <= self._upper(p) + tol)
                        and np.allclose(q.sum(axis=1) + slacks, quantity, rtol=1e-9, atol=tol)
                        and np.allclose(((1.0 - np.array(p["h_csa"])) * price) @ q,
                                        p["requirement"], rtol=1e-6, atol=tol)
                        and np.sum(slacks * (1.0 - np.array(p["h_lcr"])) * price)
                        >= p["hqla_floor"] - tol)
            if not feasible:
                problems[k] = "allocation infeasible"
            elif not _close(op["objective"], ref, self.rtol):
                problems[k] = f"objective {op['objective']:.9g} vs HiGHS {ref:.9g}"
        for k in range(len(ops), len(specs)):
            problems[k] = "no result"
        return problems

    def expected_counts(self, inputs: Path, trace: dict) -> dict:
        return {"optimizer.solve_lp.calls": len(LP_SIZES), "simplex.solve.calls": len(LP_SIZES)}


WORKLOADS = {w.name: w for w in (OptionSweep(), StochasticBook(), Allocation(), LpResolve())}
