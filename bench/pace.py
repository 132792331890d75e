"""How fast the machine runs right now, sampled inside a benchmark child.

The host this benchmark runs on is shared: for seconds to minutes at a time
every process on it runs up to twice as slowly, in CPU time as well as in
wall time, and a slow spell can cover a whole run. A figure measured in one
run can then not be compared with one measured in another.

A Pace sampler runs a small fixed unit of reference work (small numpy
products and JSON parsing; nothing from qdelnet) from a SIGALRM handler every
INTERVAL_S of wall time, and records the unit's CPU seconds. It runs the
unit twice and times the second, so the program's effect on the caches does
not show. The unit costs about 1% of the process's CPU time. The timer is a
wall-clock one: a CPU-time timer (ITIMER_PROF) would make Linux read the
process's CPU clock at tick resolution while it is armed.
``factor(samples, exponent)`` is NOMINAL_S over the samples' median,
raised to the exponent: multiplied by a time measured in the same process,
it gives that time at the nominal pace. Work slows down by its own share of
what the unit loses: the exponent is that share, fitted per workload for
its commands (see WORKLOADS in run.py) and once for set-up.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# About the CPU seconds of one unit on a quiet host (Intel Xeon, 2 vCPUs,
# KVM, numpy 2.4 with one OpenBLAS thread). Only the ratio to it matters.
NOMINAL_S = 150e-6
# Set-up (imports, parsing, data generation) is mostly Python in all three
# workloads; 0.9 gave the smallest spread of set-up times between the two
# sets of ten runs used to fit the workloads' exponents (see run.py).
SETUP_EXPONENT = 0.9

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((32, 193))
_WS = [_RNG.standard_normal((193, 64)) * 0.1] + [_RNG.standard_normal((64, 64)) * 0.1] * 3
_LINES = [json.dumps({"id": i, "question": " ".join(f"w{(i * 7 + k) % 64}" for k in range(12)),
                      "label": i % 2}) for i in range(4)]


def unit() -> float:
    """The reference work: forward and backward products of a small ReLU
    stack, the kind of numpy calls a training step makes, then parsing and
    counting a few JSON lines, the kind of Python a loader runs."""
    hs = [_X]
    for w in _WS:
        hs.append(np.maximum(hs[-1] @ w, 0.0))
    g = hs[-1]
    for w, h in zip(reversed(_WS), reversed(hs[:-1])):
        g = (g @ w.T) * (h > 0) + 1e-3 * (h.T @ g).sum()
    counts: dict[str, int] = {}
    for line in _LINES:
        for word in json.loads(line)["question"].split():
            counts[word] = counts.get(word, 0) + 1
    return float(g[0, 0]) + len(counts)


class Pace:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        unit()
        start = time.process_time()
        unit()
        self.samples.append(time.process_time() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def factor(samples: list[float], exponent: float) -> float:
    """Multiplier that turns a time measured alongside ``samples`` into the
    time at the nominal pace, for work that slows down as the unit's pace to
    the power ``exponent``."""
    return (NOMINAL_S / statistics.median(samples)) ** exponent
