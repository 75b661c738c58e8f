import csv
import errno
import itertools
import os

from adaptbt.core import (
    Fallback,
    NodeStatus,
    ReactiveFallback,
    ReactiveSequence,
    Sequence,
    TreeNode,
)

STATUS_BY_LETTER = {
    "S": NodeStatus.SUCCESS,
    "F": NodeStatus.FAILURE,
    "R": NodeStatus.RUNNING,
}

ENGINE_KINDS = {
    "seq": Sequence,
    "fall": Fallback,
    "rseq": ReactiveSequence,
    "rfall": ReactiveFallback,
}


def trace_names(trace):
    """The node names of a TickTrace's entries, in tick-entry order."""
    return [name for name, _ in trace.entries]


class ScriptedLeaf(TreeNode):
    """Leaf whose k-th tick returns schedule[k] (last entry repeats).

    The tick count is global and survives halts on purpose: the schedule
    models the environment changing over time. `halts` counts the halts
    that found the leaf Running.
    """

    def __init__(self, schedule, name=None):
        super().__init__(name or f"leaf[{schedule}]")
        self.schedule = schedule
        self.ticks = 0
        self.halts = 0

    def _tick(self, trace):
        k = min(self.ticks, len(self.schedule) - 1)
        self.ticks += 1
        return STATUS_BY_LETTER[self.schedule[k]]

    def on_halted(self):
        self.halts += 1


def build_engine_tree(shape, schedules, counter=None):
    """Build an engine tree from a btref-style shape tuple."""
    if counter is None:
        counter = itertools.count()
    if shape[0] == "leaf":
        return ScriptedLeaf(schedules[shape[1]], name=f"L{shape[1]}")
    cls = ENGINE_KINDS[shape[0]]
    children = [build_engine_tree(child, schedules, counter) for child in shape[1]]
    return cls(name=f"{shape[0]}{next(counter)}", children=children)


def fail_writes_after(monkeypatch, rows):
    """Make every csv writer write `rows` rows, flush them to its file and
    then raise OSError(ENOSPC), as a disk that fills up part way would."""
    real = csv.writer

    class FullDisk:
        def __init__(self, handle, **options):
            self._handle, self._writer, self._left = handle, real(handle, **options), rows

        def writerow(self, row):
            if not self._left:
                self._handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self._left -= 1
            self._writer.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(csv, "writer", FullDisk)
