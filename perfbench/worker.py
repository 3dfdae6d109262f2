"""Benchmark worker: one workload's passes in one fresh process.

run.py starts it as ``python3 perfbench/worker.py REQUEST.json`` with the
BLAS/OpenMP thread count pinned in the environment. It makes one untimed
warm-up pass, then timed passes for the requested seconds (a closed loop
with one client: each pass starts when the previous one ends), then, when
tracing, the same loop again under the tracer. It writes every pass's
wall time and operation records, its peak resident memory and the
environment to the result file named in the request. Before each pass of
a loop it times the host-speed probes (hostspeed.py), outside the pass.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_pass(workload, state, out: Path, tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    try:
        ops = workload.run_pass(state, out)
    except Exception:  # the pass is one failed operation; keep measuring
        ops = [{"error": traceback.format_exc(limit=4)}]
    record = {"dir": str(out), "seconds": time.perf_counter() - start, "ops": ops}
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["spans"] = tracer.spans
    return record


def timed_loop(workload, state, out_root: Path, tag: str, seconds: float,
               probes: hostspeed.Probes, tracer: Tracer | None = None) -> list[dict]:
    """Passes back to back, each after a round of host-speed probes, until
    the next one would end after ``seconds``; at least one."""
    records = []
    start = time.perf_counter()
    while True:
        times = probes.rounds()
        records.append(one_pass(workload, state, out_root / f"{tag}{len(records):03d}", tracer))
        records[-1]["probe"] = times
        typical = statistics.median(r["seconds"] for r in records)
        if time.perf_counter() - start + typical > seconds:
            return records


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ru_maxrss is not used: across exec it keeps the high-water mark of the
    forked parent, so it would report run.py's memory, not the worker's.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[req["workload"]]
    inputs, out_root = Path(req["inputs"]), Path(req["outputs"])
    probes = hostspeed.Probes()
    state = workload.prepare(inputs)
    result = {"warmup": one_pass(workload, state, out_root / "warmup", None)}
    result["timed"] = timed_loop(workload, state, out_root, "pass", req["seconds"], probes)
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = timed_loop(workload, state, out_root, "traced",
                                          req["seconds"], probes, tracer)
        finally:
            tracer.uninstall()
    result["peak_rss_kb"] = peak_rss_kb()
    result["environment"] = environment()
    Path(req["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
