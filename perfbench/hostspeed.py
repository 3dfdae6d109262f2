"""Host-speed probes: fixed work that does not touch cxva.

The benchmark host is a few vCPUs of a shared machine. Other tenants slow
it for seconds to minutes at a time: pure-Python code by 30-70 %, code that
streams memory or takes page faults by up to 90 %. The median pass time of
one run therefore moves with the host as much as with the program. A probe
is a fixed piece of work timed before every pass, in the worker process,
outside the pass. The run's host factor says how much slower than nominal
the probes ran, and run.py divides the median pass time by it.

There are two probes, because the workloads mix two bottlenecks:

- ``interpreter``: a pure-Python loop of float method calls, ``math.exp``
  and integer arithmetic, like cxva's scalar curve lookups, Picard sweeps
  and simplex pivots. It is slowed by contention for the core.
- ``memory``: streams two 4 MB arrays, allocated once when the worker
  creates its ``Probes``, so the probe does not depend on the allocator
  state the program leaves behind. It is slowed by contention for the
  shared cache and memory bandwidth, like numpy work on path arrays and
  swap books.

Each probe takes about 5 ms and runs ``ROUNDS`` times before every pass.
The host factor is the geometric mean, over the two probes, of the probe's
trimmed mean over the run (the middle 60 % of its times) divided by its
nominal time. The trimmed mean follows the share of the run the host spent
slow, where a median of times that fall in two clusters jumps between them.
"""

from __future__ import annotations

import math
import time

import numpy as np

# probe times on the host the benchmark was built on (2 vCPUs of a 2.1 GHz
# Xeon, Python 3.11, numpy with OpenBLAS, one BLAS thread); on a run whose
# probes take this long on average, run_s is the raw median pass time
NOMINAL_S = {"interpreter": 0.0050, "memory": 0.0050}
ROUNDS = 3
TRIM = 0.2


class _Curve:
    def __init__(self, rate: float):
        self.rate = rate

    def discount(self, t: float) -> float:
        return math.exp(-self.rate * t)


class Probes:
    """The two probes; the memory probe's arrays live as long as this object."""

    def __init__(self):
        self.a = np.full(500_000, 1.0001)
        self.b = np.empty_like(self.a)

    def interpreter(self) -> float:
        curve, acc, k = _Curve(0.02), 0.0, 0
        for i in range(16_000):
            acc += curve.discount(i * 1e-4)
            k = (k + i * i) % 7919
        return acc + k

    def memory(self) -> float:
        acc = 0.0
        for _ in range(4):
            np.multiply(self.a, self.a, out=self.b)
            np.add(self.b, self.a, out=self.b)
            acc += float(self.b.sum())
        return acc

    def rounds(self) -> dict[str, list[float]]:
        """Wall seconds of ``ROUNDS`` runs of each probe, interleaved."""
        out = {kind: [] for kind in NOMINAL_S}
        for _ in range(ROUNDS):
            for kind in NOMINAL_S:
                work = getattr(self, kind)
                start = time.perf_counter()
                work()
                out[kind].append(time.perf_counter() - start)
        return out


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    k = int(len(values) * TRIM)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


def host_factors(rounds: list[dict[str, list[float]]]) -> dict[str, float]:
    """Per probe, its trimmed mean over every pass's rounds relative to its
    nominal time, and ``host``, their geometric mean; above 1 means the
    host ran slower than nominal."""
    out = {kind: _trimmed_mean([t for r in rounds for t in r[kind]]) / NOMINAL_S[kind]
           for kind in NOMINAL_S}
    out["host"] = math.exp(sum(math.log(v) for v in out.values()) / len(out))
    return out
