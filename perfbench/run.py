"""cxva benchmark: seeded workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of option_sweep, stochastic_book, allocation, lp_resolve, or
``all`` to run the four in turn. Run it from a checkout of the repository:
it imports cxva from ``src/``, writes seeded inputs, outputs and trace files
under ``.perfbench/`` and nothing else. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread here and in every process started from here (the oracles
# load numpy in this process)
os.environ.update({key: "1" for key in BLAS_THREADS})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import SCENARIO, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1  # README.md names the held-out seed for verifying claims
DEFAULT_SECONDS = 25
SETUP_PROBES = 7

SETUP_PROBE = ("import sys; import cxva.cli; from cxva.scenario import Scenario; "
               "Scenario.load(sys.argv[1])")


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(scenario: Path, env: dict) -> list[float]:
    """Wall seconds for a fresh process to import cxva.cli and load the
    scenario; the first, untimed probe writes the bytecode caches."""
    times = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(scenario)], env=env,
                                cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls every 50 ms, which
        # would round each probe up to the next poll
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        if k:
            times.append(end - start)
    return times


# -- per-layer metrics ------------------------------------------------------------------

def _pass_metrics(s: dict, seconds: float) -> dict[str, tuple[float, str, bool]]:
    """(value, unit, is_count) per per-layer metric for one traced pass."""
    calls, busy, self_s, counts = s["calls"], s["busy_s"], s["self_s"], s["counts"]

    def c(name):
        return float(counts.get(name, 0))

    out = {}

    def count(name, value):
        out[name] = (float(value), "count", True)

    def secs(name, value):
        out[name] = (float(value), "s", False)

    for span in ("pde.solve", "xva.decompose", "simplex.solve", "optimizer.solve_lp"):
        count(f"{span}.calls", calls.get(span, 0))
        secs(f"{span}.busy_s", busy.get(span, 0.0))
    for span in ("pde.solve", "xva.decompose", "optimizer.iterate"):
        secs(f"{span}.self_s", self_s.get(span, 0.0))
    secs("optimizer.iterate.busy_s", busy.get("optimizer.iterate", 0.0))
    count("pde.banded_solves", c("pde.banded_solves"))
    out["pde.sweeps_per_step"] = (c("pde.banded_solves") / max(c("pde.time_steps"), 1.0),
                                  "1/step", True)
    count("pde.max_picard_iters", s["max_picard_iters"])
    count("pde.picard_failures", c("pde.solve.raised.PicardConvergenceError"))
    for name in ("discounting.blend_rate", "discounting.funded_spread_curve",
                 "curves.forward_rate", "curves.combine", "curves.integral"):
        count(f"{name}.calls", c(name))
    n_dec = calls.get("xva.decompose", 0)
    out["xva.decompose.ms_per_call"] = (1e3 * busy.get("xva.decompose", 0.0) / max(n_dec, 1),
                                        "ms", False)
    models = ("one_factor_mc", "deterministic")
    count("exposure.profile.calls", sum(calls.get(f"exposure.profile.{m}", 0) for m in models))
    for m in models:
        count(f"exposure.profile.{m}.calls", calls.get(f"exposure.profile.{m}", 0))
        secs(f"exposure.profile.{m}.busy_s", busy.get(f"exposure.profile.{m}", 0.0))
    count("exposure.mc.path_cashflow_evals", c("exposure.mc.path_cashflow_evals"))
    secs("exposure.generate.busy_s", busy.get("exposure.generate", 0.0))
    count("simplex.iterations", c("simplex.iterations"))
    count("simplex.infeasible", c("simplex.solve.raised.LpInfeasibleError"))
    count("optimizer.rounds", c("optimizer.rounds"))
    count("repo.spread_curve.calls", calls.get("repo.spread_curve", 0))
    count("collateral.blend_spread_curve.calls", calls.get("collateral.blend_spread_curve", 0))
    for layer in ("repo", "collateral", "scenario", "cli"):
        secs(f"{layer}.busy_s", s["layer_busy_s"].get(layer, 0.0))
    secs("trace.run_s", seconds)
    for layer in LAYERS:
        out[f"share.{layer}"] = (100.0 * s["layer_self_s"].get(layer, 0.0) / seconds, "%", False)
    untraced = seconds - sum(s["layer_self_s"].values())
    out["share.outside_spans"] = (100.0 * untraced / seconds, "%", False)
    return out


def layer_report(workload, inputs: Path, traced: list[dict], run_s: float):
    """Per-layer metrics (counts from one pass, times as medians over the
    traced passes) and the list of failed trace checks."""
    passes = [_pass_metrics(r["trace"], r["seconds"]) for r in traced]
    problems = []
    metrics = {}
    for name, (value, unit, is_count) in passes[0].items():
        values = [p[name][0] for p in passes]
        if is_count and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (value if is_count else statistics.median(values), unit)
    # both sides rescaled by their own loop's host factor
    host = hostspeed.host_factors([r["probe"] for r in traced])["host"]
    metrics["trace.overhead"] = (metrics["trace.run_s"][0] / host / run_s, "ratio")

    expected = workload.expected_counts(inputs, traced[0]["trace"]["counts"])
    for name, want in expected.items():
        if metrics[name][0] != want:
            problems.append(f"completeness: {name} = {metrics[name][0]:g}, inputs give {want}")
    shares = {layer: metrics[f"share.{layer}"][0] for layer in LAYERS}
    top = max(shares, key=shares.get)
    if top != workload.dominant:
        problems.append(f"dominance: {top} has the largest self time, expected {workload.dominant}")
    return metrics, expected, problems


# -- one workload ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    env = pinned_env()
    with tempfile.TemporaryDirectory(dir=work, prefix=f"{name}-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        workload.generate(seed, inputs)
        setup = [] if trace else measure_setup(inputs / SCENARIO, env)
        request = {"workload": name, "inputs": str(inputs), "outputs": str(tmp / "out"),
                   "seconds": seconds, "trace": trace, "result": str(tmp / "result.json")}
        (tmp / "request.json").write_text(json.dumps(request), encoding="utf-8")
        # a warm-up pass, the timed loop and, when tracing, the traced loop
        limit = 60.0 + 3.0 * seconds
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(tmp / "request.json")],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=limit)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))

        reference = workload.reference(inputs)
        records = [result["warmup"]] + result["timed"] + result.get("traced", [])
        gated = [(rec, workload.gate(inputs, reference, Path(rec["dir"]), rec["ops"]))
                 for rec in records]
        attempted, failures = 0, []
        for rec, bad in gated:
            attempted += max(len(rec["ops"]), max(bad, default=-1) + 1)
            failures += [f"{Path(rec['dir']).name} op {k}: {msg}" for k, msg in sorted(bad.items())]
        timed = gated[1:1 + len(result["timed"])]
        wall_s = statistics.median([rec["seconds"] for rec, bad in timed if not bad]
                                   or [rec["seconds"] for rec, _ in timed])
        # how much slower than nominal the host ran during the timed loop
        host_factor = hostspeed.host_factors([r["probe"] for r in result["timed"]])
        run_s = wall_s / host_factor["host"]

        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": result["environment"], "attempted": attempted,
                  "failures": failures, "pass_seconds": [r["seconds"] for r in result["timed"]],
                  "warmup_seconds": result["warmup"]["seconds"], "setup_seconds": setup,
                  "wall_s": wall_s, "host_factor": host_factor}
        checks = []
        if trace:
            metrics, expected, checks = layer_report(workload, inputs, result["traced"], run_s)
            report["expected_counts"] = expected
            report["spans"] = [r["spans"] for r in result["traced"]]
        else:
            metrics = {"run_s": (run_s, "s"),
                       "setup_s": (statistics.median(setup), "s"),
                       "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB")}
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["trace_checks"] = checks
    out_file = work / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(report, indent=1), encoding="utf-8")
    report["report_file"] = str(out_file.relative_to(ROOT))
    return report


def print_report(r: dict) -> None:
    times = r["pass_seconds"]
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    print(f"== {r['workload']} seed={r['seed']} trace={int(r['trace'])}: {len(times)} timed "
          f"passes after one warm-up ({r['warmup_seconds']:.3f} s); pass s "
          f"p25/p50/p75 = {q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f}")
    print(f"   fail_rate = {len(r['failures'])}/{r['attempted']} operations")
    for msg in r["failures"][:10]:
        print(f"   FAILED {msg}")
    if r["trace"]:
        m = r["metrics"]
        run_s = m["trace.run_s"]["value"]
        print(f"   layer self time as share of the traced pass ({run_s:.4f} s, "
              f"overhead x{m['trace.overhead']['value']:.3f}):")
        for layer in LAYERS + ("outside_spans",):
            share = m[f"share.{layer}"]["value"]
            print(f"     {layer:<14} {share * run_s / 100.0:9.4f} s {share:6.2f} %")
        print(f"   completeness: {r['expected_counts']}")
        print("   exposure.mc.path_cashflow_evals is computed from the call's arguments")
        for msg in r["trace_checks"]:
            print(f"   CHECK FAILED {msg}")
    else:
        for name, m in r["metrics"].items():
            print(f"   {name} = {m['value']:.6g} {m['unit']}")
        factors = ", ".join(f"{k} x{v:.3f}" for k, v in r["host_factor"].items())
        print(f"   run_s is the median pass wall time, {r['wall_s']:.6g} s, divided by the "
              f"host factor; host factors: {factors}")
        print(f"   setup_s is the median of {len(r['setup_seconds'])} fresh processes")
    print(f"   environment: {json.dumps(r['environment'], sort_keys=True)}")
    print(f"   report: {r['report_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cxva" / "__init__.py").is_file():
        sys.stderr.write(f"no cxva sources under {ROOT / 'src'}; run from a repository checkout\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in reports:
        print_report(r)
    failed = sum(len(r["failures"]) for r in reports)
    prefix = len(reports) > 1
    line = {
        "correct": failed == 0 and not any(r["trace_checks"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in reports for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
