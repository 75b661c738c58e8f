"""The benchmark's three workloads: inputs, one-time setup, ops and checks.

Every workload is a closed loop in one thread: each op starts after the
previous one returned. `setup(name, workdir)` is the program's one-time
set-up that `setup_s` measures in a fresh interpreter. A workload object
makes its inputs from the seed, computes reference outputs before anything
is timed, and runs one pass of ops per `run_pass` call, timing each op
through a `Recorder` and checking each op's output against the reference.

Calls into adaptbt go through module attributes (`bench.run_episode`, not a
local alias) so the traced run can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
import traceback
import zlib

from adaptbt import bench, cli, core, strategies, treedef

import treegen
from calibrate import Calibration

SUITES = tuple((e, b) for e in bench.EXPERIMENTS for b in bench.BEHAVIORS)
SWEEP_SEEDS = 2          # consecutive seeds per sweep pass
TREE_DOCS = 400          # documents per trees pass
TREE_MAX_TICKS = 4       # root ticks per instantiated document
TICK_STORE_SEGMENTS = 4  # tick_store segments per pass, each on a new store
TICK_STORE_OPS = 25      # cli tick calls per segment (its store grows)
TICK_DEVICES = ("stiff", "normal")


class Recorder:
    """Times ops, catches their errors and keeps each op's verdict.

    Between ops it takes the host-speed calibration samples of its pass.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calibration = Calibration()
        self.op_ns: list[int] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []
        self.ticks = 0
        self.lines = 0
        self.episodes = 0
        self.successes = 0
        self.sim_time = 0.0

    def op(self, fn, *args, **kwargs):
        """Run one op; returns (output, raised)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(len(self.op_ns))
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            raised = False
        except Exception:
            out = None
            raised = True
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter_ns() - start
        self.op_ns.append(elapsed)
        if tracer is not None:
            tracer.end_op()
        self.calibration.after_op(elapsed)
        return out, raised

    def verdict(self, ok: bool) -> None:
        self.ok.append(bool(ok))

    def fail_from(self, index: int) -> None:
        """Mark every op from `index` on as failed (a group check failed)."""
        for i in range(index, len(self.ok)):
            self.ok[i] = False

    @property
    def failed(self) -> int:
        return self.ok.count(False)


# ---------------------------------------------------------------------------
# one-time set-up


def setup(name: str, workdir: str):
    """The program's set-up before the first op of workload `name`."""
    if name == "sweep":
        suites = {}
        for experiment, behavior in SUITES:
            registry = bench.behavior_strategies(behavior)
            suites[experiment, behavior] = (
                registry, bench.build_canonical_tree([s.id for s in registry]))
        return suites
    if name == "trees":
        return trivial_registry()
    if name == "tick_store":
        path = os.path.join(workdir, "tree.xml")
        with open(path, "w") as handle:
            handle.write(bench.canonical_tree_text(
                [s.id for s in bench.DEFAULT_STRATEGIES]))
        return path
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# sweep: the nine suites through run_episode, as run_experiment drives them


class Sweep:
    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seeds = [seed + i for i in range(1 if smoke else SWEEP_SEEDS)]
        overrides = {"trials": 1} if smoke else {}
        self.configs = {(s, suite): bench.make_config(*suite, s, **overrides)
                        for s in self.seeds for suite in SUITES}
        self.suites = setup("sweep", workdir)
        self.expected = {}
        for key, config in self.configs.items():
            results, _ = bench.run_experiment(config)
            self.expected[key] = (results, bench.format_results_csv(results),
                                  bench.summarize(results, config))

    def run_pass(self, rec: Recorder) -> None:
        for key, config in self.configs.items():
            registry, document = self.suites[key[1]]
            expected, csv_text, summary = self.expected[key]
            first = len(rec.ok)
            results = []
            store = strategies.DataStore()
            index = 0
            for device_id in config.devices:
                device = bench.DEFAULT_DEVICES[device_id]
                for trial in range(1, config.trials + 1):
                    if config.store_policy == "reset":
                        store = strategies.DataStore()
                    rng = bench.trial_rng(config.seed, index)
                    result, raised = rec.op(
                        bench.run_episode, device, registry, store, rng, trial,
                        config.target_angle, config.num_attempts,
                        dt=config.dt, margin=config.margin,
                        max_ticks=config.max_ticks, document=document)
                    ok = not raised and result == expected[index]
                    rec.verdict(ok)
                    if ok:
                        rec.ticks += round(result.sim_time / config.dt)
                        rec.episodes += 1
                        rec.successes += result.success
                        rec.sim_time += result.sim_time
                    results.append(result)
                    index += 1
            if None in results or bench.format_results_csv(results) != csv_text \
                    or bench.summarize(results, config) != summary:
                rec.fail_from(first)


# ---------------------------------------------------------------------------
# trees: parse, validate, round-trip, instantiate and tick generated documents


def _leaf_hash(name: str) -> int:
    return zlib.crc32(name.encode())


def _trivial_condition(name, ports):
    succeed = _leaf_hash(name) % 4 != 0

    def predicate(node):
        for port in node.ports:
            node.input(port)
        return succeed
    return core.Condition(name, ports=ports, predicate=predicate)


def _trivial_action(outputs: dict[str, str]):
    """Action running a name-derived number of ticks, writing its outputs."""
    def factory(name, ports):
        h = _leaf_hash(name)
        running = h % 3
        final = core.NodeStatus.FAILURE if h % 5 == 0 else core.NodeStatus.SUCCESS
        value = {"bool": True, "int": h % 7, "float": (h % 100) / 10.0,
                 "str": ("c0", "c1", "c2", "c3")[h % 4]}
        ticks = [0]

        def on_start(node):
            for port in node.ports:
                if port not in outputs or outputs[port] == "inout":
                    node.input(port)
            ticks[0] = 0
            return on_running(node)

        def on_running(node):
            ticks[0] += 1
            if ticks[0] <= running:
                return core.NodeStatus.RUNNING
            for port, type_name in outputs.items():
                node.output(port, value[type_name])
            return final
        return core.StatefulAction(name, ports, on_start=on_start,
                                   on_running=on_running)
    return factory


def trivial_registry() -> treedef.LeafRegistry:
    """Trivial leaves for the generated vocabulary and the canonical tree."""
    registry = treedef.LeafRegistry()
    for leaf_id, ports in treegen.VOCABULARY.items():
        outputs = {p: t for p, d, t in ports if d != "in"}
        registry.register(leaf_id, _trivial_action(outputs) if outputs
                          else _trivial_condition)

    def select(name, ports):
        def on_start(node):
            node.output("strategy_id", core.NO_STRATEGIES)
            return core.NodeStatus.SUCCESS
        return core.StatefulAction(name, ports, on_start=on_start)
    registry.register("SelectStrategy", select)
    registry.register("ManipulateTarget", _trivial_action(
        {"progress": "float", "torque": "float", "angle": "float"}))
    registry.register("LookupPose", _trivial_action({"angle": "float"}))
    for leaf_id in ("Approach", "Grasp", "Retract"):
        registry.register(leaf_id, _trivial_action({}))
    for leaf_id in ("CheckStrategyViable", "IsTightened", "AngleWithinLimits",
                    "FTWithinLimits"):
        registry.register(leaf_id, _trivial_condition)
    return registry


CANONICAL_BLACKBOARD = {"num_attempts": 5, "target_angle": math.pi / 2,
                        "tightened_threshold": math.inf, "twist_progress": 0.0}
RANDOM_BLACKBOARD = {"k0": 1, "k1": "c1", "k2": 2.5, "k3": True}


def tree_op(doc, registry):
    """One document through the treedef pipeline and a few root ticks.

    Returns a tuple the check compares: diagnostics for a defective
    document, otherwise round-trip results and the tick outcome.
    """
    parsed = treedef.parse_tree_definition(doc.text)
    if doc.defect is not None:
        return ("defect", parsed.ok,
                tuple((d.rule, d.line) for d in parsed.errors()))
    coverage = treedef.validate_switch_coverage(parsed.document,
                                                set(doc.strategy_ids))
    first = treedef.serialize(parsed.document)
    reparsed = treedef.parse_tree_definition(first)
    equal = treedef.structurally_equal(parsed.document, reparsed.document)
    second = treedef.serialize(reparsed.document)
    blackboard = core.Blackboard()
    seeds = CANONICAL_BLACKBOARD if doc.kind == "canonical" else RANDOM_BLACKBOARD
    for key, value in seeds.items():
        blackboard.set(key, value)
    tree = treedef.instantiate(parsed.document, registry, blackboard)
    outcome = []
    for _ in range(TREE_MAX_TICKS):
        status, trace = core.tick_root(tree, blackboard)
        outcome.append((status.name, len(trace), len(trace.diagnostics)))
        if status is not core.NodeStatus.RUNNING:
            break
    errors = sum(d.severity == treedef.ERROR for d in coverage)
    return ("doc", parsed.ok, errors, first == second, equal, tuple(outcome))


def tree_check(doc, out, expected) -> bool:
    """A defective document reports exactly its injected rule and line; a
    valid one serializes to a fixed point, and the canonical tree covers its
    strategy ids. Tick outcomes must repeat the reference pass's."""
    if out is None:
        return False
    if doc.defect is not None:
        return (out[0] == "defect" and not out[1] and bool(out[2])
                and all(e == (doc.defect, doc.defect_line) for e in out[2]))
    _, ok, coverage_errors, fixed_point, equal, outcome = out
    return (ok and fixed_point and equal and bool(outcome)
            and (doc.kind != "canonical" or coverage_errors == 0)
            and out == expected)


class Trees:
    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seeds = [seed]
        self.docs = treegen.make_docs(seed, 10 if smoke else TREE_DOCS,
                                      bench.canonical_tree_text)
        self.registry = setup("trees", workdir)
        self.expected = []
        for doc in self.docs:
            try:
                self.expected.append(tree_op(doc, self.registry))
            except Exception:
                self.expected.append(None)

    def run_pass(self, rec: Recorder) -> None:
        for doc, expected in zip(self.docs, self.expected):
            out, raised = rec.op(tree_op, doc, self.registry)
            ok = not raised and tree_check(doc, out, expected)
            rec.verdict(ok)
            if ok and out[0] == "doc":
                rec.ticks += len(out[5])


# ---------------------------------------------------------------------------
# tick_store: `adaptbt tick` in process against one growing retained store


class TickStore:
    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        rng = random.Random(f"tick_store/{seed}")
        self.seeds = [seed]
        self.store_path = os.path.join(workdir, "store.csv")
        self.calls = []  # (config, config path, seed); trial 1 starts a segment
        segments, ops = (1, 4) if smoke else (TICK_STORE_SEGMENTS,
                                              TICK_STORE_OPS)
        for segment in range(segments):
            for i in range(ops):
                config = {"device": TICK_DEVICES[i % 2], "trial": i + 1}
                path = os.path.join(workdir, f"config{segment}-{i}.json")
                with open(path, "w") as handle:
                    json.dump(config, handle)
                self.calls.append((config, path, rng.randrange(10**6)))
        self.tree_path = setup("tick_store", workdir)
        self.expected = self._reference()

    def _reference(self):
        """Expected exit code, tick count and final line of each call."""
        document = bench.build_canonical_tree(
            [s.id for s in bench.DEFAULT_STRATEGIES])
        expected = []
        for config, _, call_seed in self.calls:
            if config["trial"] == 1:
                store = strategies.DataStore()
            r = bench.run_episode(
                bench.DEFAULT_DEVICES[config["device"]],
                list(bench.DEFAULT_STRATEGIES), store,
                random.Random(f"{call_seed}/0"), config["trial"],
                math.pi / 2, 5, document=document)
            line = (f"episode: {'SUCCESS' if r.success else 'FAILURE'} in "
                    f"{r.sim_time:.1f} s, attempts {r.attempts_consumed}, "
                    f"records {len(store)}")
            expected.append((0 if r.success else 1, round(r.sim_time / 0.1),
                             line, r))
        return expected

    def _call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, rec: Recorder) -> None:
        for (config, config_path, call_seed), expected in zip(self.calls,
                                                              self.expected):
            if config["trial"] == 1 and os.path.exists(self.store_path):
                os.remove(self.store_path)
            argv = ["tick", "--tree", self.tree_path, "--config", config_path,
                    "--data-store", self.store_path, "--seed", str(call_seed)]
            out, raised = rec.op(self._call, argv)
            ok = not raised and tick_check(out, expected)
            rec.verdict(ok)
            if not raised:
                rec.lines += out[1].count("\n")
            if ok:
                result = expected[3]
                rec.ticks += expected[1]
                rec.episodes += 1
                rec.successes += result.success
                rec.sim_time += result.sim_time


def tick_check(out, expected) -> bool:
    """Exit code, one trace line per tick, and the final episode line with
    its record count all match the run_episode reference."""
    if out is None:
        return False
    code, text = out
    lines = text.splitlines()
    ticks = [line for line in lines
             if line.startswith("[") and "] diagnostic:" not in line]
    episode = [line for line in lines if line.startswith("episode:")]
    return (code == expected[0] and len(ticks) == expected[1]
            and episode == [expected[2]])


WORKLOADS = {"sweep": Sweep, "trees": Trees, "tick_store": TickStore}
