"""One pass of each benchmark workload (perfbench/workloads.py) under the
benchmark's tracer, checked as perfbench/run.py checks a traced run: the
pass's outputs satisfy the workload's gate against its oracles, and the
traced call counts are those its inputs give. Which layer has the largest
self time is left out: it depends on timing."""

import importlib
import os
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# perfbench's modules import each other by these top-level names; its
# ``oracles`` shadows the suite's own while the benchmark is loaded
PERFBENCH_MODULES = ("run", "tracer", "workloads", "oracles", "hostspeed")
WORKLOAD_NAMES = ("option_sweep", "stochastic_book", "allocation", "lp_resolve")
SEED = 1


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, with sys.modules, sys.path and the environment it
    changes put back afterwards."""
    saved_modules = {name: sys.modules.pop(name) for name in PERFBENCH_MODULES
                     if name in sys.modules}
    saved_path, saved_env = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run")
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)


def test_every_workload_covered(run):
    assert sorted(run.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_pass_passes_the_benchmark_checks(run, tmp_path, name):
    workload = run.WORKLOADS[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    workload.generate(SEED, inputs)
    state = workload.prepare(inputs)
    tracer = sys.modules["tracer"].Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        ops = workload.run_pass(state, out)
        seconds = time.perf_counter() - start
    finally:
        tracer.uninstall()

    assert workload.gate(inputs, workload.reference(inputs), out, ops) == {}
    summary = tracer.summary()
    metrics = run._pass_metrics(summary, seconds)
    expected = workload.expected_counts(inputs, summary["counts"])
    assert expected
    assert {metric: metrics[metric][0] for metric in expected} == expected
