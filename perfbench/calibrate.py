"""Host-speed calibration interleaved with the timed ops.

The benchmark runs on shared hosts whose speed drifts by up to two times
over seconds to minutes (other tenants on the same cores), far more than
the changes it must detect. So between ops the benchmark times a fixed
chunk of interpreter work shaped like the program's own (a small tree of
objects ticked recursively, appending to a trace and updating a dict), and
reports times scaled to the speed at which that chunk takes
`REFERENCE_NS`. The chunk is part of the benchmark, which a change that
claims a gain may not edit, so only host speed moves it.
"""

from __future__ import annotations

import time

REFERENCE_NS = 400_000   # chunk time that defines reference speed
EVERY_NS = 10_000_000    # op time between two calibration samples


class _Node:
    __slots__ = ("name", "children", "visits")

    def __init__(self, name: str, children: list):
        self.name = name
        self.children = children
        self.visits = 0

    def tick(self, trace: list, counts: dict) -> bool:
        trace.append((self.name, True))
        self.visits += 1
        for child in self.children:
            if not child.tick(trace, counts):
                return False
        counts[self.name] = counts.get(self.name, 0) + 1
        return isinstance(self.name, str)


def _build(depth: int, prefix: str = "n") -> _Node:
    return _Node(prefix, [_build(depth - 1, f"{prefix}{i}")
                          for i in range(3)] if depth else [])


_ROOT = _build(4)


def chunk() -> int:
    counts: dict = {}
    trace: list = []
    for _ in range(8):
        trace = []
        _ROOT.tick(trace, counts)
    return len(trace) + len(counts)


class Calibration:
    """Calibration samples of one pass."""

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0        # time taken by the samples themselves
        self._pending = 0

    def after_op(self, op_ns: int) -> None:
        self._pending += op_ns
        if self._pending >= EVERY_NS or not self.samples:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter_ns()
        chunk()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed)
        self.spent_ns += elapsed
        self._pending = 0

    def median_ns(self) -> float:
        if not self.samples:
            self.sample()
        ordered = sorted(self.samples)
        middle = len(ordered) // 2
        return (ordered[middle] + ordered[~middle]) / 2

    def scale(self) -> float:
        """Factor taking host times of this pass to reference speed."""
        return REFERENCE_NS / self.median_ns()
