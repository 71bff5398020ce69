"""Fixed reference loops that measure how fast the machine runs right now.

On the 2-vCPU VM the first baseline was measured on, the vCPUs' speed changes,
from under a second to minutes apart, by up to about 1.6x (contention from
outside the VM: CPU time grows with wall time, so it is not preemption). A
short CLI run's wall time therefore says as much about that moment as about
the program. Each loop below does one kind of work the program does and slows
down by roughly the same factor as that work; a workload names the one that
matches what dominates it. Reading the loop right before and after a measured
call or run of about a second or less and scaling by `reference_s / reading`
gives its time at the reference speed. Over runs of several seconds the speed
changes too often for two readings to follow, so the benchmark keeps its timed
runs short. The loops do not touch supgauss, so a change to the program moves
the scaled numbers and never the probe.

- `interpreter`: per pass, a Philox generator, a 64 x 64 matvec, a searchsorted
  and a slice, the small-array work of one replication's Python loop. Over
  150 s it tracked CLI runs of about 0.6 s on the kernel scenario to a 2.7%
  spread of block medians (8 runs per block), against 28% unscaled and 10%
  with `vector`.
- `vector`: cos and sin over 4000 points and a dot product, the vectorized
  work of the Fourier basis. Over the same 150 s it tracked the series
  workload to 3.6%, against 15% unscaled and 6.9% with `interpreter`.
- `imports`: a fresh interpreter's import of numpy, scipy.special and
  scipy.interpolate, the third-party modules supgauss imports, which are
  about 70% of its set-up time. Timed right before and after each set-up
  probe, it took the spread of single set-ups from 0.33 to 0.10
  (`band-calibration`) and from 0.11 to 0.05 (`kernel-rate`) over 16 pairs,
  where the `interpreter` loop left them at 0.25 and 0.20.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

_rng = np.random.default_rng(0)
_L = np.tril(_rng.standard_normal((64, 64)))
_X = np.sort(_rng.random(4000))


def _interpreter_loop() -> float:
    started = perf_counter()
    for r in range(600):
        gen = np.random.Generator(np.random.Philox(key=np.array([1, r], dtype=np.uint64)))
        y = _L @ gen.standard_normal(64)
        lo = np.searchsorted(_X, 0.3 + 1e-3 * (y[0] > 0))
        _ = (_X[lo : lo + 500] - 0.3) * 2.0
    return perf_counter() - started


def _vector_loop() -> float:
    started = perf_counter()
    for k in range(200):
        _ = np.cos((2.0 * np.pi * (k % 7 + 1)) * _X) @ np.sin((2.0 * np.pi * (k % 5 + 1)) * _X)
    return perf_counter() - started


_IMPORTS = (
    "import time; t = time.perf_counter(); "
    "import numpy, scipy.special, scipy.interpolate; print(time.perf_counter() - t)"
)


def _imports_loop() -> float:
    proc = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class Probe(NamedTuple):
    run: Callable[[], float]  # wall seconds of one reading of the loop
    # A fixed constant near the loop's median seconds on the baseline VM; it only
    # sets the scale of the scaled numbers, so it never changes once published.
    reference_s: float

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """`seconds` measured between probe times `before` and `after`, at the reference speed."""
        return seconds * self.reference_s / (0.5 * (before + after))


def _best_of(loop: Callable[[], float], passes: int = 3) -> Callable[[], float]:
    """The fastest of a few back-to-back passes: a transient stall of one pass,
    which a single pass would turn into a large scale factor, is dropped."""
    return lambda: min(loop() for _ in range(passes))


PROBES = {
    "interpreter": Probe(_best_of(_interpreter_loop), 0.020),
    "vector": Probe(_best_of(_vector_loop), 0.024),
    "imports": Probe(_imports_loop, 0.70),
}

