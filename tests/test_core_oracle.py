"""Engine vs. reference-interpreter equivalence over enumerated tree shapes.

Shapes cover all four composite kinds nested up to three levels with up to
four leaves. Single-leaf shapes get every schedule of length six; larger
shapes get seeded random schedules. Both implementations tick the same
shape/schedule pair and must agree on the root status and the pre-order
(name, status) trace at every tick, and on the per-leaf tick and halt
counts afterwards. Every UNTRACED_STRIDE-th shape is also ticked into the
trace that records nothing, which must leave the statuses and counts as
they were.
"""

import functools
import itertools
import random

import pytest

from adaptbt.core import Blackboard, NodeStatus, UNTRACED, iter_nodes, \
    tick_root
from btref import ReferenceTree
from conftest import ScriptedLeaf, build_engine_tree

KINDS = ("seq", "fall", "rseq", "rfall")
TICKS = 6
SCHEDULE_LEN = 6
UNTRACED_STRIDE = 25

LETTER_BY_STATUS = {
    NodeStatus.SUCCESS: "S",
    NodeStatus.FAILURE: "F",
    NodeStatus.RUNNING: "R",
}


def compositions(n, k):
    """Ordered partitions of n into k positive parts."""
    if k == 1:
        yield (n,)
        return
    for head in range(1, n - k + 2):
        for rest in compositions(n - head, k - 1):
            yield (head,) + rest


@functools.lru_cache(maxsize=None)
def subtrees(n_leaves, height):
    """All shapes with exactly n_leaves leaves and at most `height` edge levels."""
    out = []
    if n_leaves == 1:
        out.append(("leaf", None))
    if height == 0:
        return tuple(out)
    for k in range(1, n_leaves + 1):
        for parts in compositions(n_leaves, k):
            pools = [subtrees(p, height - 1) for p in parts]
            for children in itertools.product(*pools):
                for kind in KINDS:
                    out.append((kind, children))
    return tuple(out)


def number_leaves(shape, counter):
    if shape[0] == "leaf":
        return ("leaf", next(counter))
    return (shape[0], [number_leaves(c, counter) for c in shape[1]])


def shapes_with(n_leaves):
    numbered = []
    for shape in subtrees(n_leaves, 2):
        if shape[0] == "leaf":
            continue
        numbered.append(number_leaves(shape, itertools.count()))
    return numbered


def leaf_counts(engine):
    leaves = [n for n in iter_nodes(engine) if isinstance(n, ScriptedLeaf)]
    return ([leaf.ticks for leaf in leaves],
            {leaf.name: leaf.halts for leaf in leaves if leaf.halts})


def run_case(shape, schedules, untraced=False):
    ref = ReferenceTree(shape, schedules)
    engine = build_engine_tree(shape, schedules)
    bb = Blackboard()
    statuses = []
    for t in range(TICKS):
        status, trace = tick_root(engine, bb)
        statuses.append(status)
        ref_status = ref.root_tick()
        if LETTER_BY_STATUS[status] != ref_status:
            pytest.fail(
                f"tick {t}: engine={LETTER_BY_STATUS[status]} ref={ref_status} "
                f"shape={shape!r} schedules={schedules!r}")
        entries = [(name, LETTER_BY_STATUS[s]) for name, s in trace.entries]
        if entries != ref.trace:
            pytest.fail(
                f"tick {t}: trace engine={entries} ref={ref.trace} "
                f"shape={shape!r} schedules={schedules!r}")
    engine_counts, engine_halts = leaf_counts(engine)
    ref_counts = [ref.leaf_ticks.get(i, 0) for i in range(len(engine_counts))]
    if engine_counts != ref_counts:
        pytest.fail(
            f"leaf tick counts diverge: engine={engine_counts} ref={ref_counts} "
            f"shape={shape!r} schedules={schedules!r}")
    if engine_halts != ref.halts:
        pytest.fail(
            f"leaf halt counts diverge: engine={engine_halts} ref={ref.halts} "
            f"shape={shape!r} schedules={schedules!r}")
    if untraced:
        quiet = build_engine_tree(shape, schedules)
        bb = Blackboard()
        quiet_statuses = [tick_root(quiet, bb, UNTRACED)[0] for _ in range(TICKS)]
        if (quiet_statuses, leaf_counts(quiet)) != (statuses, leaf_counts(engine)):
            pytest.fail(
                f"untraced ticks diverge: statuses={quiet_statuses} "
                f"counts={leaf_counts(quiet)} shape={shape!r} "
                f"schedules={schedules!r}")


def random_schedules(rng, n_leaves):
    return ["".join(rng.choice("SFR") for _ in range(SCHEDULE_LEN))
            for _ in range(n_leaves)]


def test_shape_enumeration_is_frozen():
    counts = [len(shapes_with(n)) for n in (1, 2, 3, 4)]
    assert counts == [20, 116, 676, 3940]


def test_single_leaf_exhaustive_schedules():
    shapes = shapes_with(1)
    for letters in itertools.product("SFR", repeat=SCHEDULE_LEN):
        schedules = ["".join(letters)]
        for index, shape in enumerate(shapes):
            run_case(shape, schedules, index % UNTRACED_STRIDE == 0)


@pytest.mark.parametrize("n_leaves,samples", [(2, 250), (3, 90), (4, 30)])
def test_multi_leaf_sampled_schedules(n_leaves, samples):
    rng = random.Random(90210 + n_leaves)
    for index, shape in enumerate(shapes_with(n_leaves)):
        for _ in range(samples):
            run_case(shape, random_schedules(rng, n_leaves),
                     index % UNTRACED_STRIDE == 0)
