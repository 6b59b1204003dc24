"""A fixed reference computation timed between ops: the host's current speed.

On a shared host, the same op can take 1.6 times as long from one minute
to the next. Process CPU time moves with wall time, so it is not the
scheduler's queue but a slower core. A fixed computation of the same
character, timed between the ops of the same run, slows down with it. Op
times divided by the mean of the reference times measured just before and
just after them stay steadier across runs. The computation does
not touch the package, so a change to the package moves the ratio by its
full effect.

Two references: interpreter work (JSON decoding, dicts, sorting), which
tracks the Python-bound workloads, and six dense simplex pivots on a fixed
tableau of the large LPs' shape, which track the NumPy-bound LP work.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

EVERY_S = 0.2  # run a block after the op that ends this long after the last block
REPS = 3  # timings per block


def _python_work(doc: str) -> int:
    data = json.loads(doc)
    ranked = sorted(data.items(), key=lambda kv: kv[1]["a"][1], reverse=True)
    acc = 0
    for _, value in ranked:
        acc += len(value["b"]) + value["a"][0] % 3
    return acc


def _pivot_work(tableau: np.ndarray) -> float:
    t = tableau.copy()
    m = t.shape[0] - 1
    for _ in range(6):
        improving = np.flatnonzero(t[m, :-1] < -1e-9)
        if improving.size == 0:
            break
        col = int(improving[0])
        positive = np.flatnonzero(t[:m, col] > 1e-9)
        if positive.size == 0:
            break
        row = int(positive[np.argmin(t[positive, -1] / t[positive, col])])
        t[row, :] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= np.outer(factors, t[row, :])
    return float(t[m, -1])


class Calibration:
    """Times the reference computation in blocks between ops."""

    def __init__(self, kind: str):
        if kind == "python":
            doc = json.dumps({str(i): {"a": [i, i * 0.5], "b": str(i)} for i in range(1500)})
            self._work = lambda: _python_work(doc)
        elif kind == "lp":
            # a plan-large tableau is about 470 rows x 870 columns
            rng = np.random.default_rng(0)
            tableau = rng.random((470, 870))
            tableau[-1, :] = -rng.random(870)
            self._work = lambda: _pivot_work(tableau)
        else:
            raise ValueError(f"unknown reference computation {kind!r}")
        self.samples: list[float] = []
        self.blocks: list[float] = []  # median of each block
        self.spent = 0.0  # wall time taken by calibration blocks
        self._last = time.perf_counter()

    def block(self) -> None:
        start = time.perf_counter()
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - t0)
        self.blocks.append(statistics.median(self.samples[-REPS:]))
        self._last = time.perf_counter()
        self.spent += self._last - start

    def maybe_block(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.block()

    @property
    def median(self) -> float:
        return statistics.median(self.samples)
