"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install()` replaces public entry points of the adaptbt modules with
wrappers that time each call and count its work, and `uninstall()` puts the
originals back. A span is keyed by (layer, entry point); calls of one key
inside one op are aggregated into a call count, a total time and a self
time, so the trace of a per-tick call stays small. Self time is a span's
time minus the time of the spans it called. Spans outside any op (suite
reports in `sweep`) are kept under op -1.
"""

from __future__ import annotations

import time
from collections import Counter

import adaptbt
from adaptbt import bench, cli, core, sim, strategies, treedef

_MODULES = (adaptbt, core, treedef, strategies, sim, bench, cli)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []      # one row per (pass, op, layer, name)
        self.counts: Counter = Counter()
        self.pass_index = 0
        self._stack: list[list[int]] = []  # child time of each open span
        self._open: dict = {}              # (layer, name) -> [calls, total, self]
        self._op = -1
        self._in_load = False
        self._retries: list = []
        self._patches: list = []

    # -- op boundaries ---------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._flush()
        self._op = index

    def end_op(self) -> None:
        self._flush()
        self._op = -1

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.counts = Counter()

    def _flush(self) -> None:
        for (layer, name), (calls, total, own) in self._open.items():
            self.spans.append({"pass": self.pass_index, "op": self._op,
                               "layer": layer, "name": name, "calls": calls,
                               "total_ns": total, "self_ns": own})
        self._open.clear()
        for retry in self._retries:
            exempt = sum(1 for _, is_exempt in retry.history if is_exempt)
            self.counts["core.retry_exempt"] += exempt
            self.counts["core.retry_charged"] += len(retry.history) - exempt
            self.counts["retry.attempts"] += len(retry.history) + (
                retry.status is core.NodeStatus.SUCCESS)
        self._retries.clear()

    # -- wrappers --------------------------------------------------------

    def _timed(self, layer: str, name: str, fn, after=None):
        key = (layer, name)
        stack = self._stack
        spans = self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, elapsed, elapsed - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[0]
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name that refers to `original`."""
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def install(self) -> None:
        def on_tick(args, result):
            self.counts["core.ticks"] += 1
            self.counts["core.node_visits"] += len(result[1])

        def on_parse(args, result):
            self.counts["treedef.docs"] += 1
            self.counts["treedef.diagnostics"] += len(result.diagnostics)

        def on_validate(args, result):
            self.counts["treedef.diagnostics"] += len(result)

        def on_load(args, result):
            self.counts["strategies.loaded_records"] += len(result)

        def on_persist(args, result):
            self.counts["strategies.persisted_records"] += len(args[0])

        def on_select(args, result):
            self.counts["strategies.select_calls"] += 1

        timed = self._timed
        for fn, layer, name, after in (
                (core.tick_root, "core", "tick_root", on_tick),
                (treedef.parse_tree_definition, "treedef", "parse", on_parse),
                (treedef.validate_switch_coverage, "treedef", "validate",
                 on_validate),
                (treedef.serialize, "treedef", "serialize", None),
                (treedef.structurally_equal, "treedef", "equal", None),
                (treedef.instantiate, "treedef", "instantiate", None),
                (strategies.select_strategy, "strategies", "select", on_select),
                (strategies.persist, "strategies", "persist", on_persist),
                (bench.run_episode, "bench", "run_episode", None),
                (bench.format_results_csv, "bench", "report", None),
                (bench.summarize, "bench", "report", None),
                (cli.main, "cli", "main", None)):
            self._everywhere(fn, timed(layer, name, fn, after))

        original_load = strategies.load

        def load(*args, **kwargs):
            # DataStore.record calls made by load belong to load's span
            self._in_load = True
            try:
                return original_load(*args, **kwargs)
            finally:
                self._in_load = False
        self._everywhere(original_load,
                         timed("strategies", "load", load, on_load))

        record = strategies.DataStore.record
        timed_record = timed("strategies", "record", record)

        def record_wrapper(store, *args, **kwargs):
            if self._in_load:
                return record(store, *args, **kwargs)
            self.counts["strategies.records"] += 1
            return timed_record(store, *args, **kwargs)
        self._replace(strategies.DataStore, "record", record_wrapper)

        self._replace(sim.World, "advance",
                      self._counted("sim.steps",
                                    timed("sim", "advance", sim.World.advance)))
        self._replace(sim.World, "step_twist",
                      self._counted("sim.twist_steps", sim.World.step_twist))
        for cls in (sim.LookupPose, sim.MotionSegment, sim.ManipulateTarget):
            for method in ("on_start", "on_running"):
                if method in vars(cls):
                    self._replace(cls, method, self._counted(
                        "sim.leaf_ticks",
                        timed("sim", "leaf", getattr(cls, method))))

        init = core.RetryUntilSuccessful.__init__

        def retry_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            self._retries.append(node)
        self._replace(core.RetryUntilSuccessful, "__init__", retry_init)

    def uninstall(self) -> None:
        self._flush()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
