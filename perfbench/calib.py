"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's machine is shared, and its speed drifts by up to 1.5x over
minutes, on everything that runs. The same reference work, timed next to
each subcommand, tells how fast the machine was during a run; the timed run
scales its timings by ``REFERENCE_S`` / (the median time of this work).
The mix follows the program's own: text parsing, a scan over many small
Python objects, dict updates, small numpy arrays and a gather from a large
array. It uses nothing from macsort, so a change to the program cannot
change it.
"""

from __future__ import annotations

import random
import time

import numpy as np


class _Row:
    __slots__ = ("frame", "x", "y")

    def __init__(self, frame: int, x: float, y: float):
        self.frame, self.x, self.y = frame, x, y


# the median time of one run of the reference work on a quiet 2-vCPU Xeon VM (see README.md);
# a timing scaled to this speed reads as wall seconds on that machine
REFERENCE_S = 0.010

_LINES = [f"{i % 600 + 1},-1,{i * 1.5:.2f},{i * 0.5:.2f},30.00,60.00,0.9,-1,-1,-1"
          for i in range(600)]
_ROWS = [_Row(i % 500, i * 0.5, i * 0.25) for i in range(40_000)]
random.Random(0).shuffle(_ROWS)
_SMALL = np.arange(64.0).reshape(8, 8)
_BIG = np.random.default_rng(0).random(2_000_000)
_IDX = np.random.default_rng(1).integers(0, len(_BIG), 40_000)


def _work() -> float:
    by_frame: dict[int, list] = {}
    for line in _LINES:
        parts = line.split(",")
        by_frame.setdefault(int(parts[0]), []).append(tuple(map(float, parts[2:6])))
    total = float(len(by_frame))
    total += len([r for r in _ROWS if r.frame == 7])
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    for i in range(150):
        total += float(np.maximum(_SMALL[i & 7] * 1.5 + _SMALL[:, 3], 3.0).sum())
    return total + float(_BIG[_IDX].sum())


def sample(n: int) -> list[float]:
    """Seconds taken by each of ``n`` runs of the reference work."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        _work()
        out.append(time.perf_counter() - start)
    return out
