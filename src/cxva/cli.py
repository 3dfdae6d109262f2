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
import json
import sys
from pathlib import Path

import numpy as np

from .discounting import counterparty_risk_spec
from .optimizer import AllocationInfeasibleError, iterate_allocation
from .pde import PicardConvergenceError, xva_pde
from .repo import repo_curve
from .scenario import Scenario, ScenarioError, read_flag
from .simplex import LpSolverError
from .xva import decompose, to_running_spread

# caught first: AllocationInfeasibleError is a ValueError
SOLVER_ERRORS = (PicardConvergenceError, AllocationInfeasibleError, LpSolverError)
# every module's input error subclasses ValueError; ArithmeticError: inputs
# so extreme that a command's arithmetic overflows
VALIDATION_ERRORS = (ValueError, KeyError, ArithmeticError)


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
    res = xva_pde(scenario.option(), scenario.effective_spec(), scenario.grid())
    payload = {"npv": res.v, "v_star": res.v_star, "xva": res.u}
    _write_json(out / "price.json", payload)
    return payload


def _option_sweep_points(scenario: Scenario, points: int):
    grid = scenario.grid()
    rows = []
    for eta in np.linspace(0.0, 1.0, points):
        spec = scenario.effective_spec(collateralization=float(eta))
        cra_spec = counterparty_risk_spec(spec)
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
    n_steps, profile = scenario.quadrature_steps, scenario.portfolio_profile()
    return [(float(eta), to_running_spread(decompose(
        profile, scenario.effective_spec(collateralization=float(eta)), n_steps=n_steps),
        profile.annuity)) for eta in levels]


def _portfolio_sweep_points(scenario: Scenario, points: int):
    return [[eta, rep.bp["cra"], rep.bp["lva"], rep.bp["xva"]]
            for eta, rep in _portfolio_reports(scenario, np.linspace(0.0, 1.0, points))]


def cmd_sweep(scenario: Scenario, out: Path, points: int | None = None) -> dict:
    if points is None:
        points = scenario.config["sweep"]["points"]
    if scenario.has("option"):
        header = ["collateralization", "cra_long", "xva_long", "cra_short", "xva_short"]
        rows = _option_sweep_points(scenario, points)
    elif scenario.has("portfolio"):
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
    reports = dict(_portfolio_reports(scenario, scenario.config["xva_levels"]))
    # rows NPV..DFA by collateralization column; NPV in value units, the
    # adjustments as running spreads in basis points
    text = _csv_line(["row"] + [_fmt(e) for e in reports])
    for name in XVA_ROWS:
        text += _csv_line([name.upper()] + [_fmt(rep.npv if name == "npv" else rep.bp[name])
                                            for rep in reports.values()])
    _write(out / "xva_table.csv", text)
    _write_json(out / "xva.json",
                {f"{eta:g}": rep.to_dict() for eta, rep in reports.items()})
    return {"levels": list(reports), "file": "xva_table.csv"}


def cmd_repo_curve(scenario: Scenario, out: Path) -> dict:
    cfg = scenario.config["repo"]
    tenors, asset_id, rating = cfg["tenors"], cfg["asset"], cfg["rating"]
    assets = {a.id: a for a in scenario.assets()}
    if asset_id not in assets:
        raise ScenarioError(f"asset {asset_id!r} not in assets file")
    asset = assets[asset_id]
    spread = repo_curve(scenario.repo_params(), asset, rating, tenors)
    risk_free = scenario.risk_free
    text = _csv_line(["tenor_years", "spread", "repo_rate"])
    for t in tenors:
        s = spread.zero_rate(t)
        text += _csv_line([_fmt(t), _fmt(s), _fmt(risk_free.zero_rate(t) + s)])
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
    n_steps = scenario.quadrature_steps
    assets = scenario.assets()
    sets = scenario.netting_sets()
    result = iterate_allocation(
        assets, sets, scenario.party("c"), scenario.risk_free, scenario.repo_params(),
        hqla_floor=cfg["hqla_floor"], funding_haircut=cfg["funding_haircut"],
        tol=cfg["tol"], max_iter=cfg["max_iter"], n_steps=n_steps)

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
    if result.status != "converged":
        warning = {"message": "stopped at optimizer.max_iter before converging", "tol": cfg["tol"],
                   "rounds": len(result.states), "last_mtm_move": result.final.delta}
        sys.stderr.write(json.dumps({"warning": warning}, sort_keys=True) + "\n")
    return {"status": result.status, "iterations": len(result.states)}


# -- entry point ------------------------------------------------------------------

COMMANDS = {"price": cmd_price, "sweep": cmd_sweep, "xva": cmd_xva,
            "repo-curve": cmd_repo_curve, "optimize": cmd_optimize}


def _error_json(kind: str, err: Exception) -> str:
    return json.dumps({"error": {"type": kind, "message": str(err),
                                 "class": type(err).__name__}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cxva",
        description="Derivatives pricing and collateral optimization under "
                    "imperfect collateral")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--points", type=int, default=None,
                        help="sweep point count (sweep command)")
    args = parser.parse_args(argv)

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.points is not None and args.command != "sweep":
                raise ScenarioError("--points applies to the sweep command only")
            seed = None if args.seed is None else read_flag("--seed", "scenario", "seed", args.seed)
            points = None if args.points is None else read_flag("--points", "sweep", "points",
                                                                args.points)
            scenario = Scenario.load(args.scenario, seed_override=seed)
            out = Path(args.out)
            if args.command == "sweep":
                payload = cmd_sweep(scenario, out, points)
            else:
                payload = COMMANDS[args.command](scenario, out)
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
