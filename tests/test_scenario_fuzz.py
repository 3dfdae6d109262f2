"""Scenario fuzzer whose mutations come from the key table.

Each example takes one of four cheap runs (``price`` on a 50x50 grid,
``repo-curve``, ``xva`` on a small deterministic book, ``optimize`` of two
assets over two netting sets of eight swaps) and changes one or two keys
that ``cxva.scenario.SCHEMA`` declares for that scenario: it drops the
key, gives it a value of another JSON kind or, for a key with a value set,
a value outside that set, or sets a NaN, infinite, zero, negative or huge
number. ``cxva.cli.main`` must then return 0 with
every number it wrote finite, or return 2 or 3 with one JSON line on
stderr; it must never raise. A number just outside its key's own interval
must return 0 (the command never reads the key) or 2 naming the key.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cxva.cli import main
from cxva.scenario import SCHEMA

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

PARTIES = {"b": {"bond_spread": 0.0125, "liquidity_spread": 0.005},
           "c": {"bond_spread": 0.03, "liquidity_spread": 0.01}}
COLLATERAL = {"mode": "noncash", "collateralization": 0.5, "repo_spread": 0.01}
SHORT_BOOK = {"n": 8, "payer_frac": 0.9, "maturity_min": 0.5, "maturity_max": 5.0,
              "rate_offset": 0.02, "profile_points": 11}
BASES = {
    "price": {
        "seed": 5, "curves": {"risk_free": {"flat": 0.01}}, "parties": PARTIES,
        "collateral": COLLATERAL,
        "option": {"payoff": "call", "strike": 100.0, "spot": 100.0, "vol": 0.3,
                   "maturity": 1.0, "div_yield": 0.0},
        "grid": {"s_nodes": 50, "t_steps": 50, "s_max_mult": 4.0},
    },
    "repo-curve": {
        "seed": 5,
        "curves": {"risk_free": {"nodes": [[1.0, 0.01], [10.0, 0.02]]},
                   "mu0": {"file": str(SCENARIO_DIR / "curves" / "mu0_libor_ois.csv")},
                   "hazard": 0.01},
        "assets_file": str(SCENARIO_DIR / "assets_reference.csv"),
        "repo": {"roe": 0.1, "expected_gap_loss": 0.001, "asset": "UST_10y",
                 "rating": "BBB", "tenors": [0.5, 2.0, 10.0]},
    },
    "xva": {
        "seed": 5, "curves": {"risk_free": {"nodes": [[1.0, 0.01], [10.0, 0.02]]}},
        "parties": PARTIES, "collateral": COLLATERAL,
        "portfolio": {"n": 8, "payer_frac": 0.5, "maturity_min": 0.5, "maturity_max": 5.0,
                      "rate_band": 0.01, "rate_offset": 0.0, "pay_freq": 2,
                      "notional": 1.0, "profile_points": 11},
        "quadrature_steps": 21,
        "xva_levels": [0.0, 0.5, 1.0],
    },
    "optimize": {
        "seed": 5, "curves": {"risk_free": {"nodes": [[1.0, 0.01], [10.0, 0.02]]}},
        "parties": PARTIES, "assets_file": "assets.csv", "quadrature_steps": 21,
        "repo": {"roe": 0.1},
        "optimizer": {"quantity": 100.0, "tol": 0.01, "max_iter": 3, "netting_sets": [
            {"id": "S1", "rating": "A", "target_mtm": -5.0, "portfolio": SHORT_BOOK},
            {"id": "S2", "rating": "BBB", "target_mtm": -3.0,
             "portfolio": dict(SHORT_BOOK, payer_frac=0.8)}]},
    },
}
# written next to each scenario: the optimize run's two assets
ASSETS_CSV = ("id,price,quantity,h_csa,h_repo,h_lcr,ec_AA,ec_A,ec_BBB,ec_BB\n"
              "BOND_A,1,100,0.05,0.03,0,0.001,0.002,0.004,0.008\n"
              "BOND_B,1,100,0.1,0.12,0.15,0.002,0.004,0.008,0.016\n")

NUMBERS = [math.nan, math.inf, -math.inf, 0.0, -1.0, -0.5, 1e12, 1e300, -1e300]
# one value of every JSON kind; those of the key's own kind are left out
KINDS = {"null": None, "boolean": True, "string": "1", "array": [1.0],
         "object": {"x": 1.0}, "number": 2.5, "integer": 2}
ACCEPTS = {"number": {"number", "integer"}, "integer": {"integer"}, "string": {"string"},
           "curve": {"number", "integer"}, "array": {"array"}, "object": {"object"}}


def table_paths(raw: dict, section: str, prefix=()) -> list:
    """(key path, table entry) of every key of ``section`` and of every
    object below it that ``raw`` gives, in an array of objects too (a
    number in a path indexes the array)."""
    out = []
    for name, key in SCHEMA[section].items():
        path, value = prefix + (name,), raw.get(name)
        out.append((path, key))
        if key.kind == "object" and isinstance(value, dict):
            out += table_paths(value, key.section, path)
        if key.kind == "array" and key.item.kind == "object" and isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    out += table_paths(item, key.item.section, path + (i,))
    return out


def wrong_values(key) -> list:
    values = [v for kind, v in KINDS.items() if kind not in ACCEPTS[key.kind]]
    if key.kind == "array":
        values += [[], [None], ["1"]]
    if key.kind == "curve":
        values += [{"nodes": [[1.0]]}, {"flat": "0.01"}, {"file": 3}, {"spline": 0.01}]
    return values


def changed(command: str, **values) -> tuple:
    """The ``command`` base scenario with each dotted key (``__`` for ``.``,
    a number indexes an array) set to its value."""
    raw = json.loads(json.dumps(BASES[command]))
    for dotted, value in values.items():
        *parents, leaf = dotted.split("__")
        node = raw
        for name in parents:
            node = node[int(name) if isinstance(node, list) else name]
        node[int(leaf) if isinstance(node, list) else leaf] = value
    return command, raw


def test_table_paths_reach_array_items():
    # each netting set's keys and its portfolio's, and both arrays of numbers
    paths = table_paths(BASES["optimize"], "scenario")
    for k in (0, 1):
        found = {path[3:] for path, _ in paths if path[:3] == ("optimizer", "netting_sets", k)}
        assert found == ({(name,) for name in SCHEMA["netting_set"]}
                         | {("portfolio", name) for name in SCHEMA["portfolio"]})
    assert [path for path, key in paths if key.kind == "array" and key.item.kind == "number"] \
        == [("xva_levels",), ("repo", "tenors")]


@st.composite
def mutated(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    raw = json.loads(json.dumps(BASES[command]))
    for _ in range(draw(st.integers(1, 2))):
        path, key = draw(st.sampled_from(table_paths(raw, "scenario")))
        parent = raw
        for name in path[:-1]:
            parent = parent[name]
        choices = ["drop", "wrong kind"]
        if key.kind in ("number", "integer", "curve"):
            choices.append("number")
        if key.kind == "array" and key.item.kind == "number":
            choices.append("number item")
        if key.choices is not None:
            choices.append("not a choice")
        op = draw(st.sampled_from(choices))
        if op == "drop":
            parent.pop(path[-1], None)
        elif op == "wrong kind":
            parent[path[-1]] = draw(st.sampled_from(wrong_values(key)))
        elif op == "number":
            parent[path[-1]] = draw(st.sampled_from(NUMBERS))
        elif op == "not a choice":
            parent[path[-1]] = draw(st.sampled_from(["", "x"] if key.kind == "string"
                                                    else [0, 3, 8]))
        else:
            parent[path[-1]] = [0.5, draw(st.sampled_from(NUMBERS))]
    return command, raw


def run_scenario(command: str, raw: dict) -> tuple:
    """(exit code, stderr, the numbers of each file written, by name) of
    ``command`` run on the scenario ``raw``, the optimize run's assets
    file beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        (Path(tmp) / "assets.csv").write_text(ASSETS_CSV, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--scenario", str(scenario), "--out", str(out)])
        written = {p.name: numbers_in(p) for p in sorted(out.iterdir())} if code == 0 else {}
    return code, stderr.getvalue(), written


def numbers_in(path: Path) -> list:
    """Every number a written file holds."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        found = []

        def walk(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, float):
                found.append(node)
        walk(json.loads(text))
        return found
    cells = [c for row in csv.reader(io.StringIO(text)) for c in row]
    found = []
    for cell in cells:
        try:
            found.append(float(cell))
        except ValueError:
            pass
    return found


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
# inputs whose arithmetic overflowed, each once found by this fuzzer
@example(changed("price", option__vol=1e300))
@example(changed("price", grid__s_max_mult=1e300))
@example(changed("xva", curves__risk_free=1e12))
@example(changed("xva", curves__risk_free=-1e300))
@example(changed("xva", collateral__repo_spread=-1e300))
@example(changed("repo-curve", repo__tenors=[0.5, math.inf]))
# a netting set's target MTM of the wrong sign, not finite or zero, and no inventory
@example(changed("optimize", optimizer__netting_sets__0__target_mtm=5.0))
@example(changed("optimize", optimizer__netting_sets__1__target_mtm=math.nan))
@example(changed("optimize", optimizer__netting_sets__0__target_mtm=math.inf))
@example(changed("optimize", optimizer__netting_sets__1__target_mtm=-math.inf))
@example(changed("optimize", optimizer__netting_sets__0__target_mtm=0.0))
@example(changed("optimize", optimizer__quantity=0.0))
def test_mutated_scenario_exits_cleanly(case):
    code, stderr, written = run_scenario(*case)
    if code == 0:
        assert written
        for name, numbers in written.items():
            assert all(math.isfinite(x) for x in numbers), name
    else:
        assert code in (2, 3)
        lines = stderr.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error"}


def interval(bounds) -> str:
    lo, hi, (left, right) = bounds
    return f"{left}{lo:g}, {hi:g}{right}"


def outside(bounds) -> list:
    """NaN, both infinities and the nearest numbers outside the interval ``bounds``."""
    lo, hi, (left, right) = bounds
    values = [math.nan, math.inf, -math.inf]
    if math.isfinite(lo):
        values.append(lo if left == "(" else math.nextafter(lo, -math.inf))
    if math.isfinite(hi):
        values.append(hi if right == ")" else math.nextafter(hi, math.inf))
    return values


def dotted(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


@st.composite
def out_of_range(draw):
    """(command, scenario, message): one number key, or an item of an array
    of numbers, of a base scenario set outside its interval, and the message
    a run that reads it exits 2 with."""
    command = draw(st.sampled_from(sorted(BASES)))
    raw = json.loads(json.dumps(BASES[command]))
    path, key = draw(st.sampled_from([
        (path, key) for path, key in table_paths(raw, "scenario")
        if key.kind == "number" or key.kind == "array" and key.item.kind == "number"]))
    parent = raw
    for name in path[:-1]:
        parent = parent[name]
    if key.kind == "array":
        parent[path[-1]] = [0.5, 0.5]
        parent, path, key = parent[path[-1]], path + (1,), key.item
    value = draw(st.sampled_from(outside(key.bounds)))
    parent[path[-1]] = value
    return command, raw, (f"{dotted(path)} must be a finite number in {interval(key.bounds)}, "
                          f"got {value!r}")


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(out_of_range())
# each once exited 2 with a message that named no key
@example((*changed("xva", portfolio__payer_frac=1.5),
          "portfolio.payer_frac must be a finite number in [0, 1], got 1.5"))
@example((*changed("xva", curves__risk_free__nodes__0__0=-1.0),
          "curves.risk_free.nodes[0] must be a finite number in (0, inf), got -1.0"))
def test_out_of_range_number_named(case):
    command, raw, message = case
    code, stderr, _ = run_scenario(command, raw)
    assert code in (0, 2)
    if code == 2:
        assert json.loads(stderr)["error"]["message"] == message


# the files a repo-curve run reads, by the key that names them
CSV_FILES = {"curves.risk_free": SCENARIO_DIR / "curves" / "ois_sloped.csv",
             "curves.mu0": SCENARIO_DIR / "curves" / "mu0_libor_ois.csv",
             "assets_file": SCENARIO_DIR / "assets_reference.csv"}
CSV_EDITS = ("drop field", "add field", "pad header", "not a number", "blank line")


def csv_text(rows, newline="\n") -> str:
    return "".join(",".join(cells) + newline for cells in rows)


def csv_rows(key: str) -> list:
    return [line.split(",") for line in CSV_FILES[key].read_text(encoding="utf-8").splitlines()]


@st.composite
def rewritten_csv(draw):
    """(key, text): a shipped curve file or the assets file with one to three
    edits, written with LF or CRLF endings."""
    key = draw(st.sampled_from(sorted(CSV_FILES)))
    rows = csv_rows(key)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(CSV_EDITS))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if edit == "drop field" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "add field":
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(["0.5", "", " "])))
        elif edit == "pad header":
            rows[0] = [draw(st.sampled_from(["", " ", "  "])) + cell
                       + draw(st.sampled_from(["", " ", "\t"])) for cell in rows[0]]
        elif edit == "not a number" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(["x", "", "nan", "inf", "1e999", "0x10", "--1"]))
        elif edit == "blank line":
            rows.insert(draw(st.integers(0, len(rows))), [])
    return key, csv_text(rows, draw(st.sampled_from(["\n", "\r\n"])))


def short_row(key: str) -> tuple:
    rows = csv_rows(key)
    rows[2] = rows[2][:-1]
    return key, csv_text(rows)


def extra_field(key: str) -> tuple:
    rows = csv_rows(key)
    rows[2].append("0.5")
    return key, csv_text(rows)


def padded_header(key: str) -> tuple:
    rows = csv_rows(key)
    rows[0] = [f" {cell} " for cell in rows[0]]
    return key, csv_text(rows)


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rewritten_csv())
# a short row, an extra field and a padded header: each once exited 1 with a
# traceback, was cut silently, or exited 2 naming only a header cell
@example(short_row("curves.mu0"))
@example(short_row("assets_file"))
@example(extra_field("curves.risk_free"))
@example(extra_field("assets_file"))
@example(padded_header("curves.mu0"))
@example(padded_header("assets_file"))
def test_rewritten_csv_exits_cleanly(case):
    key, text = case
    raw = json.loads(json.dumps(BASES["repo-curve"]))
    if key == "assets_file":
        raw["assets_file"] = "edited.csv"
    else:
        raw["curves"][key.split(".")[1]] = {"file": "edited.csv"}
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        (Path(tmp) / "edited.csv").write_bytes(text.encode("utf-8"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["repo-curve", "--scenario", str(scenario), "--out", str(out)])
        if code == 0:
            assert all(math.isfinite(x) for x in numbers_in(out / "repo_curve.csv"))
        else:
            assert code == 2
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["type"] == "validation"
