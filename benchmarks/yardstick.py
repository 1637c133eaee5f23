"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to twice as slow for minutes at a time,
because other tenants compete for the core's caches and execution units. Raw
operation times then drift between runs of the same program by more than any
useful regression bound. The benchmark therefore times a yardstick, a fixed
piece of work that belongs to the benchmark and never changes, right after
every operation, and rescales each operation by how fast the yardstick ran
around it:

    normalized_ms = op_ms * REFERENCE_MS / yardstick_ms

where ``yardstick_ms`` is the mean of the yardstick runs just before and just
after the operation. Different code slows down by different amounts, so the
kernel copies the kind of work the benchmark's operations spend their time
on: interpreter-bound work, a dict loop plus many numpy calls on 3-wide
arrays, like argparse, report building and the selector's training loop. Set-up
has its own yardstick in ``run.py``: a fresh interpreter that only imports
numpy, timed before and after each set-up.

``REFERENCE_MS`` is the kernel's typical time on the machine the benchmark was
defined on (2-vCPU Intel Xeon at 2.0 GHz, numpy 2.4, one BLAS thread), so
normalized times read as wall-clock milliseconds on that machine at its usual
speed. The kernel is written out here, not imported from ``vtcompress``, so
that a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 7.5
_SMALL = (np.arange(36 * 3, dtype=np.float64).reshape(36, 3) % 7) / 7.0


def _kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 517] = counts.get(i % 517, 0) + i
    x = _SMALL
    for _ in range(400):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        x = _SMALL + 0.001 * (e / e.sum(axis=1, keepdims=True))


class Yardstick:
    """Times the kernel.

    ``measure()`` runs the kernel ``rounds`` times and returns the time of
    one round. :meth:`fit` sets ``rounds`` so that the yardstick takes about
    ``SHARE`` of an operation's time: for long operations it then samples the
    host's speed over a longer stretch, which tracks it better.
    """

    SHARE = 0.1
    MAX_ROUNDS = 100

    def __init__(self):
        self.reference_ms = REFERENCE_MS
        self.rounds = 1

    def measure(self) -> float:
        """Run the kernel ``rounds`` times; the wall time of one round in ms."""
        start = time.perf_counter_ns()
        for _ in range(self.rounds):
            _kernel()
        return (time.perf_counter_ns() - start) / 1e6 / self.rounds

    def fit(self, op_ms: float) -> None:
        """Size ``rounds`` for operations that take about ``op_ms``."""
        self.rounds = 1
        round_ms = self.measure()
        self.rounds = min(self.MAX_ROUNDS, max(1, round(self.SHARE * op_ms / round_ms)))


def normalize(op_ms: list[float], yard_ms: list[float], reference_ms: float) -> list[float]:
    """Rescale each operation by the yardstick runs on either side of it.

    ``yard_ms`` has one more entry than ``op_ms``: ``yard_ms[i]`` ran just
    before operation ``i`` and ``yard_ms[i + 1]`` just after it.
    """
    if len(yard_ms) != len(op_ms) + 1:
        raise ValueError("need one yardstick run before each operation and one after the last")
    return [
        op * reference_ms / ((yard_ms[i] + yard_ms[i + 1]) / 2) for i, op in enumerate(op_ms)
    ]
