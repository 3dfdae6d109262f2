"""Command-line front end.

Subcommands: price, sweep, xva, repo-curve, optimize. Each reads a JSON
scenario, runs the relevant pipeline and writes flat files into the output
directory. Exit codes: 0 success, 2 validation problem, 3 solver failure;
failures print a machine-readable JSON object to stderr.

All table output carries 6 significant digits; identical scenario + seed
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .collateral import CollateralError, CollateralState
from .curves import CurveError
from .exposure import ExposureError
from .optimizer import (AllocationError, AllocationInfeasibleError,
                        iterate_allocation)
from .pde import PdeError, PicardConvergenceError, xva_pde
from .repo import RepoModelError, breakeven_spread, repo_curve
from .scenario import Scenario, ScenarioError
from .simplex import LpSolverError
from .xva import XvaError, decompose, to_running_spread

VALIDATION_ERRORS = (ScenarioError, CurveError, CollateralError, ExposureError,
                     PdeError, XvaError, AllocationError, RepoModelError,
                     KeyError, ValueError)
SOLVER_ERRORS = (PicardConvergenceError, AllocationInfeasibleError, LpSolverError)


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_line(cells) -> str:
    return ",".join(cells) + "\n"


# -- commands -------------------------------------------------------------------


def cmd_price(scenario: Scenario, out: Path) -> dict:
    spec = scenario.effective_spec()
    res = xva_pde(scenario.option(), spec, scenario.grid())
    payload = {"npv": res.v, "v_star": res.v_star, "xva": res.u}
    _write_json(out / "price.json", payload)
    return payload


def _option_sweep_points(scenario: Scenario, points: int):
    grid = scenario.grid()
    rows = []
    for eta in np.linspace(0.0, 1.0, points):
        spec = scenario.effective_spec(collateralization=float(eta))
        # counterparty-risk-only twin: the whole collateralized share earns
        # risk-free, so what remains of XVA is the unsecured (1-eta) part
        cra_state = CollateralState(eta_b=spec.state.eta_b,
                                    eta_c=spec.state.eta_c,
                                    chi_b=1.0, chi_c=1.0)
        cra_spec = dataclasses.replace(spec, mode="cash_comingled",
                                       state=cra_state,
                                       cash_rate=spec.risk_free,
                                       repo_spread_c=None, repo_spread_b=None)
        row = [float(eta)]
        for position in (1.0, -1.0):
            option = scenario.option(position=position)
            total = xva_pde(option, spec, grid)
            cra = xva_pde(option, cra_spec, grid)
            row.extend([cra.u, total.u])
        rows.append(row)
    return rows


def _portfolio_reports(scenario: Scenario, levels):
    """(eta, report with basis-point twins) of the scenario's portfolio at
    each collateralization level."""
    profile = scenario.portfolio_profile()
    out = []
    for eta in levels:
        spec = scenario.effective_spec(collateralization=float(eta))
        report = to_running_spread(
            decompose(profile, spec, n_steps=scenario.quadrature_steps),
            profile.annuity)
        out.append((float(eta), report))
    return out


def _portfolio_sweep_points(scenario: Scenario, points: int):
    return [[eta, rep.bp["cra"], rep.bp["lva"], rep.bp["xva"]]
            for eta, rep in _portfolio_reports(scenario, np.linspace(0.0, 1.0, points))]


def cmd_sweep(scenario: Scenario, out: Path, points: int) -> dict:
    if points < 2:
        raise ScenarioError("sweep needs at least 2 points")
    if "option" in scenario.raw:
        header = ["collateralization", "cra_long", "xva_long", "cra_short",
                  "xva_short"]
        rows = _option_sweep_points(scenario, points)
    elif "portfolio" in scenario.raw:
        header = ["collateralization", "cra", "lva", "xva"]
        rows = _portfolio_sweep_points(scenario, points)
    else:
        raise ScenarioError("sweep needs an 'option' or 'portfolio' block")
    text = _csv_line(header)
    for row in rows:
        text += _csv_line([_fmt(x) for x in row])
    _write(out / "sweep.csv", text)
    return {"rows": len(rows), "file": "sweep.csv"}


XVA_ROWS = ("npv", "xva", "lva", "cra", "cva", "dva", "cfa", "dfa")


def cmd_xva(scenario: Scenario, out: Path) -> dict:
    reports = dict(_portfolio_reports(
        scenario, scenario.raw.get("xva_levels", [0.0, 0.5, 1.0])))
    # rows NPV..DFA by collateralization column; NPV in value units, the
    # adjustments as running spreads in basis points
    text = _csv_line(["row"] + [_fmt(e) for e in reports])
    for name in XVA_ROWS:
        cells = [name.upper()]
        for eta, rep in reports.items():
            cells.append(_fmt(rep.npv if name == "npv" else rep.bp[name]))
        text += _csv_line(cells)
    _write(out / "xva_table.csv", text)
    _write_json(out / "xva.json",
                {f"{eta:g}": rep.to_dict() for eta, rep in reports.items()})
    return {"levels": [float(e) for e in reports], "file": "xva_table.csv"}


def cmd_repo_curve(scenario: Scenario, out: Path) -> dict:
    asset_id, rating, tenors = scenario.repo_target()
    assets = {a.id: a for a in scenario.assets()}
    if asset_id not in assets:
        raise ScenarioError(f"asset {asset_id!r} not in assets file")
    asset = assets[asset_id]
    params = scenario.repo_params()
    curve = repo_curve(params, asset, rating, tenors, scenario.risk_free)
    ec = asset.econ_capital[rating]
    text = _csv_line(["tenor_years", "spread", "repo_rate"])
    for t in tenors:
        spread = breakeven_spread(params, ec, t)
        text += _csv_line([_fmt(t), _fmt(spread), _fmt(curve.zero_rate(t))])
    _write(out / "repo_curve.csv", text)
    return {"asset": asset_id, "rating": rating, "file": "repo_curve.csv"}


def _allocation_csv(assets, sets, q, mtms=None) -> str:
    text = _csv_line(["asset"] + [ns.id for ns in sets])
    for i, a in enumerate(assets):
        text += _csv_line([a.id] + [_fmt(q[i, j]) for j in range(len(sets))])
    if mtms is not None:
        text += _csv_line(["updated_mtm"] + [_fmt(v) for v in mtms])
    return text


def cmd_optimize(scenario: Scenario, out: Path) -> dict:
    cfg = scenario.optimizer_cfg()
    assets = scenario.assets()
    sets = scenario.netting_sets()
    poster = scenario.party("c")
    params = scenario.repo_params()
    result = iterate_allocation(
        assets, sets, poster, scenario.risk_free, params,
        hqla_floor=float(cfg.get("hqla_floor", 0.0)),
        funding_haircut=str(cfg.get("funding_haircut", "csa")),
        tol=float(cfg.get("tol", 0.01)),
        max_iter=int(cfg.get("max_iter", 5)),
        n_steps=scenario.quadrature_steps)

    _write(out / "unit_lva.csv", _allocation_csv(assets, sets, result.states[0].unit_lva))
    for k, state in enumerate(result.states):
        _write(out / f"allocation_{k}.csv",
               _allocation_csv(assets, sets, state.allocation.q, state.mtms))
    summary = {
        "status": result.status,
        "iterations": len(result.states),
        "objective": [s.allocation.objective for s in result.states],
        "initial_mtm": [ns.profile.mtm0 for ns in sets],
        "updated_mtm": [list(map(float, s.mtms)) for s in result.states],
        "unused_quantity": {a.id: float(result.final.allocation.slacks[i])
                            for i, a in enumerate(assets)},
    }
    _write_json(out / "optimize_summary.json", summary)
    return {"status": result.status, "iterations": len(result.states)}


# -- entry point ------------------------------------------------------------------


def _error_json(kind: str, err: Exception) -> str:
    return json.dumps({"error": {"type": kind, "message": str(err),
                                 "class": type(err).__name__}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cxva",
        description="Derivatives pricing and collateral optimization under "
                    "imperfect collateral")
    parser.add_argument("command",
                        choices=["price", "sweep", "xva", "repo-curve", "optimize"])
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--points", type=int, default=None,
                        help="sweep point count (sweep command)")
    args = parser.parse_args(argv)

    try:
        scenario = Scenario.load(args.scenario, seed_override=args.seed)
        out = Path(args.out)
        if args.command == "price":
            payload = cmd_price(scenario, out)
        elif args.command == "sweep":
            points = args.points or int(scenario.raw.get("sweep", {}).get("points", 11))
            payload = cmd_sweep(scenario, out, points)
        elif args.command == "xva":
            payload = cmd_xva(scenario, out)
        elif args.command == "repo-curve":
            payload = cmd_repo_curve(scenario, out)
        else:
            payload = cmd_optimize(scenario, out)
    except SOLVER_ERRORS as err:
        sys.stderr.write(_error_json("solver", err) + "\n")
        return 3
    except VALIDATION_ERRORS as err:
        sys.stderr.write(_error_json("validation", err) + "\n")
        return 2
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
