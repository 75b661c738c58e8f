import math

import pytest

from adaptbt.core import (
    AlwaysFailure,
    AlwaysSuccess,
    Blackboard,
    Condition,
    ConfigurationError,
    Fallback,
    ForceFailure,
    Key,
    NodeStatus,
    ReactiveFallback,
    ReactiveSequence,
    RetryUntilSuccessful,
    Sequence,
    StatefulAction,
    SubTreeScope,
    SwitchCaseError,
    SwitchStatement,
    TickTrace,
    TreeNode,
    UnboundKeyError,
    iter_nodes,
    tick_root,
)
from conftest import ScriptedLeaf, trace_names

S = NodeStatus.SUCCESS
F = NodeStatus.FAILURE
R = NodeStatus.RUNNING
I = NodeStatus.IDLE


def flag_condition(key, name="cond"):
    return Condition(name, predicate=lambda node: bool(node.bb.get(key)))


def charged(retry):
    """The attempts a retry's failures used: its history entries not exempt."""
    return sum(not exempt for _, exempt in retry.history)


class CountingAction(StatefulAction):
    """Scripted stateful action: per-execution schedule, counts callbacks."""

    def __init__(self, schedule, name="action"):
        super().__init__(name)
        self.schedule = schedule
        self.starts = 0
        self.runs = 0
        self.halts = 0
        self._pos = 0

    def on_start(self):
        self.starts += 1
        self._pos = 0
        return self._emit()

    def on_running(self):
        self.runs += 1
        return self._emit()

    def on_halted(self):
        self.halts += 1

    def _reset(self):
        super()._reset()
        self._pos = 0

    def _emit(self):
        status = {"S": S, "F": F, "R": R}[self.schedule[self._pos]]
        self._pos = min(self._pos + 1, len(self.schedule) - 1)
        return status


class TestBlackboard:
    def test_set_get_round_trip(self):
        bb = Blackboard()
        bb.set("flag", True)
        bb.set("count", 3)
        bb.set("angle", 1.5)
        bb.set("label", "low")
        assert bb.get("flag") is True
        assert bb.get("count") == 3
        assert bb.get("angle") == 1.5
        assert bb.get("label") == "low"

    def test_unbound_read_raises(self):
        bb = Blackboard()
        with pytest.raises(UnboundKeyError):
            bb.get("missing")

    def test_rejects_untyped_values(self):
        bb = Blackboard()
        with pytest.raises(TypeError):
            bb.set("xs", [1, 2])

    def test_remap_reads_and_writes_through_parent(self):
        outer = Blackboard()
        outer.set("valve_angle", 2.0)
        inner = Blackboard(parent=outer, remaps={"angle": "valve_angle"})
        assert inner.get("angle") == 2.0
        inner.set("angle", 2.5)
        assert outer.get("valve_angle") == 2.5

    def test_non_remapped_keys_are_scope_local(self):
        outer = Blackboard()
        outer.set("x", 1)
        inner = Blackboard(parent=outer, remaps={})
        with pytest.raises(UnboundKeyError):
            inner.get("x")
        inner.set("x", 2)
        assert outer.get("x") == 1

    def test_child_scopes_share_the_outermost_reason_cell(self):
        outer = Blackboard()
        inner = Blackboard(parent=outer, remaps={})
        innermost = Blackboard(parent=inner, remaps={"x": "y"})
        assert outer.reason_cell == [None]
        assert inner.reason_cell is outer.reason_cell
        assert innermost.reason_cell is outer.reason_cell
        assert Blackboard().reason_cell is not outer.reason_cell


class TestSequence:
    def test_resumes_at_running_child(self):
        bb = Blackboard()
        cond = ScriptedLeaf("S", name="cond")
        action = ScriptedLeaf("RS", name="action")
        tree = Sequence("seq", [cond, action])
        status, trace = tick_root(tree, bb)
        assert status is R
        assert trace_names(trace) == ["seq", "cond", "action"]
        status, trace = tick_root(tree, bb)
        assert status is S
        # child 0 is not re-ticked on resume
        assert trace_names(trace) == ["seq", "action"]
        assert cond.ticks == 1

    def test_failure_resets_progress(self):
        bb = Blackboard()
        first = ScriptedLeaf("SS", name="first")
        second = ScriptedLeaf("FS", name="second")
        tree = Sequence("seq", [first, second])
        status, _ = tick_root(tree, bb)
        assert status is F
        status, trace = tick_root(tree, bb)
        assert status is S
        assert trace_names(trace) == ["seq", "first", "second"]
        assert first.ticks == 2

    def test_restarts_after_success(self):
        bb = Blackboard()
        leaf = ScriptedLeaf("S", name="leaf")
        tree = Sequence("seq", [leaf])
        tick_root(tree, bb)
        tick_root(tree, bb)
        assert leaf.ticks == 2


class TestReactiveSequence:
    def test_reticks_prior_children_each_cycle(self):
        bb = Blackboard()
        bb.set("ok", True)
        cond = flag_condition("ok")
        action = CountingAction("RRS")
        tree = ReactiveSequence("rs", [cond, action])
        assert tick_root(tree, bb)[0] is R
        assert tick_root(tree, bb)[0] is R
        trace = tick_root(tree, bb)[1]
        assert tick_count(trace, "cond") == 1
        assert action.starts == 1 and action.runs == 2

    def test_prior_failure_halts_running_child(self):
        bb = Blackboard()
        bb.set("ok", True)
        cond = flag_condition("ok")
        action = CountingAction("RRR")
        tree = ReactiveSequence("rs", [cond, action])
        tick_root(tree, bb)
        bb.set("ok", False)
        status, _ = tick_root(tree, bb)
        assert status is F
        assert action.halts == 1
        assert action.status is I


class TestFallback:
    def test_stops_at_first_success(self):
        bb = Blackboard()
        first = ScriptedLeaf("F", name="first")
        second = ScriptedLeaf("RS", name="second")
        tree = Fallback("fb", [first, second])
        assert tick_root(tree, bb)[0] is R
        status, trace = tick_root(tree, bb)
        assert status is S
        # child 0 is not re-ticked on resume
        assert "first" not in trace_names(trace)
        assert first.ticks == 1

    def test_fails_only_when_all_fail(self):
        bb = Blackboard()
        tree = Fallback("fb", [AlwaysFailure("a"), AlwaysFailure("b")])
        status, trace = tick_root(tree, bb)
        assert status is F
        assert trace_names(trace) == ["fb", "a", "b"]


class TestReactiveFallback:
    def test_condition_flip_preempts_running_child(self):
        bb = Blackboard()
        bb.set("tight", False)
        cond = flag_condition("tight", name="tight")
        manip = CountingAction("RRRR", name="manip")
        tree = ReactiveFallback("rf", [cond, manip])
        assert tick_root(tree, bb)[0] is R
        assert tick_root(tree, bb)[0] is R
        bb.set("tight", True)
        status, _ = tick_root(tree, bb)
        assert status is S
        assert manip.halts == 1
        assert manip.status is I


class TestRetry:
    def test_success_after_failures_consumes_attempts(self):
        bb = Blackboard()
        child = ScriptedLeaf("FFS", name="child")
        tree = RetryUntilSuccessful(child, num_attempts=5, name="retry")
        statuses = [tick_root(tree, bb)[0] for _ in range(3)]
        assert statuses == [R, R, S]
        # two charged failures, and the third attempt succeeded
        assert (charged(tree), tree.status) == (2, S)

    def test_exhaustion_returns_failure(self):
        bb = Blackboard()
        child = ScriptedLeaf("F", name="child")
        tree = RetryUntilSuccessful(child, num_attempts=5, name="retry")
        statuses = [tick_root(tree, bb)[0] for _ in range(5)]
        assert statuses == [R, R, R, R, F]
        assert (charged(tree), tree.status) == (5, F)

    def test_exempt_failures_do_not_consume_attempts(self):
        bb = Blackboard()

        class ExemptThenSucceed(StatefulAction):
            def __init__(self):
                super().__init__("child")
                self.calls = 0

            def on_start(self):
                self.calls += 1
                return self.fail("regrasp") if self.calls <= 3 else S

        child = ExemptThenSucceed()
        tree = RetryUntilSuccessful(
            child, num_attempts=1,
            exempt_reasons=["regrasp", "strategy_switch"], name="retry")
        statuses = [tick_root(tree, bb)[0] for _ in range(4)]
        assert statuses == [R, R, R, S]
        assert (charged(tree), tree.status) == (0, S)
        assert tree.history == [("regrasp", True)] * 3
        # the engine cleared the reason after consuming the exemption
        assert bb.reason_cell == [None]

    def test_invalid_attempt_count(self):
        bb = Blackboard()
        tree = RetryUntilSuccessful(AlwaysFailure(), num_attempts=0)
        with pytest.raises(ConfigurationError):
            tick_root(tree, bb)


class TestSwitch:
    def make(self, bb):
        low = CountingAction("RRS", name="low")
        high = CountingAction("RRS", name="high")
        tree = SwitchStatement(Key("mode"), [("low", low), ("high", high)], name="sw")
        return tree, low, high

    def test_matching_case_ticked_verbatim(self):
        bb = Blackboard()
        bb.set("mode", "low")
        tree, low, high = self.make(bb)
        status, trace = tick_root(tree, bb)
        assert status is R
        assert low.starts == 1 and high.starts == 0
        # at most one case child per cycle
        assert len(trace) == 2

    def test_variable_change_halts_and_switches(self):
        bb = Blackboard()
        bb.set("mode", "low")
        tree, low, high = self.make(bb)
        tick_root(tree, bb)
        bb.set("mode", "high")
        status, _ = tick_root(tree, bb)
        assert status is R
        assert low.halts == 1
        assert high.starts == 1

    def test_unmatched_without_default_errors(self):
        bb = Blackboard()
        bb.set("mode", "bogus")
        tree, _, _ = self.make(bb)
        with pytest.raises(SwitchCaseError):
            tick_root(tree, bb)

    def test_default_case(self):
        bb = Blackboard()
        bb.set("mode", "bogus")
        tree = SwitchStatement(
            Key("mode"), [("low", AlwaysFailure("low"))],
            default=AlwaysSuccess("fallback"), name="sw")
        assert tick_root(tree, bb)[0] is S


class TestForceFailure:
    def test_conversion(self):
        bb = Blackboard()
        tree = ForceFailure(ScriptedLeaf("RS", name="retract"), name="ff")
        assert tick_root(tree, bb)[0] is R
        assert tick_root(tree, bb)[0] is F

    def test_failure_stays_failure(self):
        bb = Blackboard()
        tree = ForceFailure(AlwaysFailure(), name="ff")
        assert tick_root(tree, bb)[0] is F


class TestHalt:
    def test_halt_idle_tree_is_noop(self):
        action = CountingAction("RS")
        tree = Sequence("seq", [action])
        tree.halt()
        assert action.halts == 0
        assert tree.status is I

    def test_halt_notifies_only_running_children(self):
        bb = Blackboard()
        done_a = CountingAction("S", name="a")
        done_b = CountingAction("S", name="b")
        running = CountingAction("RRR", name="c")
        tree = Sequence("seq", [done_a, done_b, running])
        tick_root(tree, bb)
        tree.halt()
        assert (done_a.halts, done_b.halts, running.halts) == (0, 0, 1)
        for node in iter_nodes(tree):
            assert node.status is I

    def test_halted_action_reports_idle_after_one_tick(self):
        bb = Blackboard()
        action = CountingAction("RRS")
        tick_root(action, bb)
        action.halt()
        assert action.halts == 1
        assert action.status is I

    def test_reset_property_replayable(self):
        def build():
            return Sequence("seq", [
                Condition("c", predicate=lambda n: n.bb.get("ok")),
                CountingAction("RS", name="act"),
            ])

        bb = Blackboard()
        bb.set("ok", True)
        fresh = build()
        fresh_trace = [tick_root(fresh, bb)[1].entries]

        used = build()
        tick_root(used, bb)
        used.halt()
        replay_trace = [tick_root(used, bb)[1].entries]
        assert replay_trace == fresh_trace


class TestStatefulAction:
    def test_callback_cadence(self):
        bb = Blackboard()
        action = CountingAction("RRS")
        statuses = [tick_root(action, bb)[0] for _ in range(3)]
        assert statuses == [R, R, S]
        assert action.starts == 1
        assert action.runs == 2

    def test_failure_in_on_start_skips_on_running(self):
        bb = Blackboard()
        action = CountingAction("F")
        assert tick_root(action, bb)[0] is F
        assert action.runs == 0

    def test_restart_after_terminal_calls_on_start_again(self):
        bb = Blackboard()
        action = CountingAction("S")
        tick_root(action, bb)
        tick_root(action, bb)
        assert action.starts == 2


class TestTickMechanics:
    def test_unbound_read_fails_at_reading_node_with_diagnostic(self):
        bb = Blackboard()
        cond = flag_condition("never_written", name="reader")
        tree = Sequence("seq", [cond, AlwaysSuccess("after")])
        status, trace = tick_root(tree, bb)
        assert status is F
        assert trace.diagnostics == ["reader: unbound blackboard key 'never_written'"]
        assert trace.entries[-1] == ("reader", F)

    def test_trace_orders_by_tick_entry(self):
        bb = Blackboard()
        inner = Sequence("inner", [AlwaysSuccess("leaf")])
        tree = Sequence("outer", [inner, AlwaysSuccess("tail")])
        _, trace = tick_root(tree, bb)
        assert trace_names(trace) == ["outer", "inner", "leaf", "tail"]

    def test_root_entered_once_per_tick(self):
        bb = Blackboard()
        tree = Sequence("root", [AlwaysSuccess()])
        _, trace = tick_root(tree, bb)
        assert trace_names(trace).count("root") == 1

    def test_determinism_same_structure_same_blackboard(self):
        def run():
            bb = Blackboard()
            bb.set("ok", True)
            tree = ReactiveSequence("rs", [
                flag_condition("ok"), CountingAction("RRS", name="act")])
            out = []
            for _ in range(4):
                status, trace = tick_root(tree, bb)
                out.append((status, tuple(trace.entries)))
            return out

        assert run() == run()

    def test_empty_composite_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequence("seq", [])

    def test_rebinding_to_other_blackboard_rejected(self):
        tree = Sequence("seq", [AlwaysSuccess()])
        tick_root(tree, Blackboard())
        with pytest.raises(ConfigurationError):
            tick_root(tree, Blackboard())


class TestSubTreeScope:
    def test_seeds_and_remaps(self):
        bb = Blackboard()
        bb.set("valve_angle", 1.0)

        writer = StatefulAction(
            "writer",
            on_start=lambda node: (node.bb.set("angle", node.bb.get("angle") + 1.0),
                                   S)[1])
        scope = SubTreeScope(writer, remaps={"angle": "valve_angle"},
                             seeds={"gain": 2}, name="scope")
        assert tick_root(scope, bb)[0] is S
        assert bb.get("valve_angle") == 2.0
        with pytest.raises(UnboundKeyError):
            bb.get("gain")


def tick_count(trace, name):
    return trace_names(trace).count(name)


class TestEngineContract:
    @pytest.mark.parametrize("value", [I, None, "success"])
    def test_invalid_status_rejected(self, value):
        bb = Blackboard()
        leaf = StatefulAction("odd_leaf", on_start=lambda node: value)
        tree = Sequence("seq", [leaf])
        with pytest.raises(ConfigurationError, match="odd_leaf"):
            tick_root(tree, bb)

    def test_exempt_failure_halted_child_keeps_failure_in_trace(self):
        bb = Blackboard()

        leaf = StatefulAction("leaf", on_start=lambda node: node.fail("regrasp"))
        child = Sequence("attempt", [leaf])
        tree = RetryUntilSuccessful(
            child, num_attempts=1, exempt_reasons=["regrasp"], name="retry")
        status, trace = tick_root(tree, bb)
        assert status is R
        assert trace.entries == [("retry", R), ("attempt", F), ("leaf", F)]
        # the retry halted its child after the failure was recorded
        assert child.status is I and leaf.status is I
        assert tree.history == [("regrasp", True)]

    def test_switch_matches_by_type_and_value(self):
        bb = Blackboard()
        bb.set("mode", 1)
        strict = SwitchStatement(Key("mode"), [("1", AlwaysSuccess("text"))],
                                 name="strict")
        with pytest.raises(SwitchCaseError):
            tick_root(strict, bb)
        with_default = SwitchStatement(
            Key("mode"), [("1", AlwaysFailure("text"))],
            default=AlwaysSuccess("other"), name="sw")
        status, trace = tick_root(with_default, bb)
        assert status is S
        assert trace_names(trace) == ["sw", "other"]

    def test_unbound_key_port_names_plain_key(self):
        bb = Blackboard()
        reader = Condition("reader", predicate=lambda node: node.input("flag"),
                           ports={"flag": Key("missing")})
        status, trace = tick_root(Sequence("seq", [reader]), bb)
        assert status is F
        assert trace.diagnostics == ["reader: unbound blackboard key 'missing'"]


# (kind, passes): the terminal status on which the kind ticks its next child
MIXED_KINDS = [(Sequence, S), (Fallback, F), (ReactiveSequence, S),
               (ReactiveFallback, F)]


def mixed_composite(kind, passes):
    """One child of each node class, then AlwaysFailure. Each earlier child
    returns `passes`, after the action's Running first tick."""
    other = F if passes is S else S
    pass_leaf = AlwaysSuccess if passes is S else AlwaysFailure
    other_leaf = AlwaysSuccess if other is S else AlwaysFailure
    nested_kind = Fallback if passes is S else Sequence
    action = CountingAction("RS" if passes is S else "RF", name="action")
    return action, kind("outer", [
        Condition("cond", predicate=lambda node: passes is S),
        action,
        SubTreeScope(pass_leaf("inner"), name="scope"),
        nested_kind("nested", [other_leaf("n0"), pass_leaf("n1")]),
        AlwaysFailure("last"),
    ])


def statuses(tree):
    return {node.name: node.status for node in iter_nodes(tree)}


@pytest.mark.parametrize("kind,passes", MIXED_KINDS)
def test_composite_of_mixed_node_classes(kind, passes):
    other = F if passes is S else S
    action, tree = mixed_composite(kind, passes)
    bb = Blackboard()
    idle = {name: I for name in statuses(tree)}
    started = [("outer", R), ("cond", passes), ("action", R)]

    status, trace = tick_root(tree, bb)
    assert (status, trace.entries) == (R, started)
    assert statuses(tree) == {**idle, "outer": R, "cond": passes, "action": R}

    tree.halt()
    assert action.halts == 1
    assert statuses(tree) == idle

    status, trace = tick_root(tree, bb)
    assert (status, trace.entries) == (R, started)
    assert action.starts == 2

    # a memory composite resumes at the action, a reactive one re-ticks cond
    resumed = [("cond", passes)] if kind.reactive else []
    status, trace = tick_root(tree, bb)
    assert (status, trace.entries) == (F, [
        ("outer", F), *resumed, ("action", passes), ("scope", passes),
        ("inner", passes), ("nested", passes), ("n0", other), ("n1", passes),
        ("last", F)])
    done = {**{name: passes for name in idle}, "outer": F, "n0": other,
            "last": F}
    assert statuses(tree) == done

    # the next execution: only a reactive composite halts the later
    # children, which still hold the last execution's statuses
    status, trace = tick_root(tree, bb)
    assert (status, trace.entries) == (R, started)
    later = idle if kind.reactive else done
    assert statuses(tree) == {**later, "outer": R, "cond": passes, "action": R}
    assert (action.starts, action.runs, action.halts) == (3, 1, 1)


@pytest.mark.parametrize("kind,passes", MIXED_KINDS)
def test_composite_halted_and_reset_before_its_first_tick(kind, passes):
    action, tree = mixed_composite(kind, passes)
    tree.halt()
    assert action.halts == 0
    status, trace = tick_root(tree, Blackboard())
    assert (status, trace.entries) == (
        R, [("outer", R), ("cond", passes), ("action", R)])


class FailingSuccess(AlwaysSuccess):
    """Its own _tick replaces the one it inherits."""

    def _tick(self, trace):
        return F


@pytest.mark.parametrize("kind,want", [
    (Sequence, (F, [("outer", F), ("odd", F)])),
    (Fallback, (S, [("outer", S), ("odd", F), ("plain", S)])),
    (ReactiveSequence, (F, [("outer", F), ("odd", F)])),
    (ReactiveFallback, (S, [("outer", S), ("odd", F), ("plain", S)])),
])
def test_composite_calls_a_subclass_own_tick(kind, want):
    tree = kind("outer", [FailingSuccess("odd"), AlwaysSuccess("plain")])
    status, trace = tick_root(tree, Blackboard())
    assert (status, trace.entries) == want


class VisitProbe(TreeNode):
    """Leaf that plays one scripted step per tick and counts its resets."""

    def __init__(self, steps):
        super().__init__("probe", ports={"flag": Key("missing")})
        self.steps = iter(steps)
        self.resets = 0

    def _tick(self, trace):
        step = next(self.steps)
        if step == "unbound":
            return self.input("flag")
        if step == "exempt":
            return self.fail("regrasp")
        return step

    def _reset(self):
        self.resets += 1


# The tick root (and a RetryUntilSuccessful or ForceFailure child) is visited
# through execute_tick; a SubTreeScope, a SwitchStatement and a composite
# repeat its steps inline for their own child. Every wrapper here returns the
# probe's status as is.
VISIT_PATHS = {
    "root": lambda leaf: leaf,
    "decorator": lambda leaf: SubTreeScope(leaf, name="wrap"),
    "switch": lambda leaf: SubTreeScope(
        SwitchStatement(Key("case"), [("on", leaf)], name="wrap"),
        seeds={"case": "on"}),
    "composite": lambda leaf: Sequence("wrap", [leaf]),
}

UNBOUND = "probe: unbound blackboard key 'missing'"
INVALID = ("ConfigurationError", "probe returned invalid status <NodeStatus.IDLE: 'idle'>")

# steps -> per tick (status, probe entries, diagnostics) or the error raised,
# then the probe's status, its reset count and the failure reason it left
VISIT_CASES = {
    "unbound_read": ([R, "unbound", S], [
        (R, [("probe", R)], []),
        (F, [("probe", F)], [UNBOUND]),
        (S, [("probe", S)], [])], (S, 1, "unbound:missing")),
    "invalid_status": ([R, I], [
        (R, [("probe", R)], []),
        INVALID], (R, 0, None)),
    "exempt_failure": ([R, "exempt"], [
        (R, [("probe", R)], []),
        (F, [("probe", F)], [])], (F, 0, "regrasp")),
}


@pytest.mark.parametrize("path", sorted(VISIT_PATHS))
@pytest.mark.parametrize("case", sorted(VISIT_CASES))
def test_visit_is_recorded_alike_on_every_path(case, path):
    steps, want_ticks, want_end = VISIT_CASES[case]
    leaf = VisitProbe(steps)
    tree = VISIT_PATHS[path](leaf)
    bb = Blackboard()
    ticks = []
    for _ in want_ticks:
        try:
            status, trace = tick_root(tree, bb)
        except ConfigurationError as exc:
            ticks.append((type(exc).__name__, str(exc)))
            break
        ticks.append((status, [e for e in trace.entries if e[0] == "probe"],
                      trace.diagnostics))
    assert ticks == want_ticks
    # the reason reaches the root scope from inside a SubTreeScope too
    assert (leaf.status, leaf.resets, bb.reason_cell[0]) == want_end


class FailsWith(TreeNode):
    """Leaf that fails with `reason` on its first `times` ticks, then succeeds."""

    def __init__(self, reason, times=math.inf, name="fails"):
        super().__init__(name)
        self.reason = reason
        self.left = times

    def _tick(self, trace):
        if self.left <= 0:
            return S
        self.left -= 1
        return self.fail(self.reason)


class FailsThrough(TreeNode):
    """Leaf that fails once per entry of `reasons` (None: a bare Failure),
    then succeeds."""

    def __init__(self, reasons, name="fails"):
        super().__init__(name)
        self.reasons = list(reasons)

    def _tick(self, trace):
        if not self.reasons:
            return S
        reason = self.reasons.pop(0)
        return F if reason is None else self.fail(reason)


class TestFailureReason:
    def test_reason_is_no_blackboard_entry(self):
        bb = Blackboard()
        assert tick_root(FailsWith("regrasp"), bb)[0] is F
        assert bb.reason_cell == ["regrasp"]
        with pytest.raises(UnboundKeyError):
            bb.get("last_failure_reason")

    def test_reason_in_a_subtree_reaches_the_retry(self):
        # no remap carries the reason out of the scope: the cell is shared
        leaf = FailsWith("regrasp", times=1)
        tree = RetryUntilSuccessful(
            SubTreeScope(Sequence("inner", [leaf]), name="scope"),
            num_attempts=3, exempt_reasons=("regrasp",), name="retry")
        bb = Blackboard()
        assert [tick_root(tree, bb)[0] for _ in range(2)] == [R, S]
        assert tree.history == [("regrasp", True)]
        assert (charged(tree), tree.status) == (0, S)

    # the recovering child succeeds at once, or after a Running tick
    @pytest.mark.parametrize("kind", [Fallback, ReactiveFallback])
    @pytest.mark.parametrize("recovery,ticks", [("S", 3), ("RS", 4)])
    def test_recovered_failure_leaves_no_reason(self, kind, recovery, ticks):
        # a later reason-less failure of the attempt is charged, not given
        # the exemption of a failure the fallback recovered from
        recovered = kind("recover", [FailsWith("regrasp"),
                                     ScriptedLeaf(recovery, name="plan_b")])
        tree = RetryUntilSuccessful(
            Sequence("attempt", [recovered, AlwaysFailure("then_fail")]),
            num_attempts=3, exempt_reasons=("regrasp",), name="retry")
        bb = Blackboard()
        statuses = [tick_root(tree, bb)[0] for _ in range(ticks)]
        assert statuses == [R] * (ticks - 1) + [F]
        assert tree.history == [("", False)] * 3
        assert (charged(tree), tree.status) == (3, F)

    def test_failed_fallback_keeps_the_reason(self):
        # the canonical tree's bail path: the retract runs, the fallback
        # fails, and the twist's reason still exempts the attempt
        bail = Fallback("manipulate_or_bail", [
            FailsWith("regrasp", times=1),
            ForceFailure(AlwaysSuccess("bail_retract"))])
        tree = RetryUntilSuccessful(bail, num_attempts=1,
                                    exempt_reasons=("regrasp",), name="retry")
        bb = Blackboard()
        assert [tick_root(tree, bb)[0] for _ in range(2)] == [R, S]
        assert tree.history == [("regrasp", True)]
        assert bb.reason_cell == [None]

    # the first child succeeds at once, or after a Running tick
    @pytest.mark.parametrize("kind", [Fallback, ReactiveFallback])
    @pytest.mark.parametrize("first", ["S", "RS"])
    def test_first_child_success_keeps_the_reason(self, kind, first):
        # a fallback whose first child succeeds recovered from nothing: a
        # reason written before it, here by the bail branch's sibling, stays
        inner = kind("inner", [ScriptedLeaf(first, name="first"),
                               AlwaysSuccess("second")])
        bail = Fallback("manipulate_or_bail", [
            FailsWith("regrasp", times=1), ForceFailure(inner)])
        tree = RetryUntilSuccessful(bail, num_attempts=1,
                                    exempt_reasons=("regrasp",), name="retry")
        bb = Blackboard()
        ticks = len(first) + 1
        statuses = [tick_root(tree, bb)[0] for _ in range(ticks)]
        assert statuses == [R] * (ticks - 1) + [S]
        assert tree.history == [("regrasp", True)]
        assert (charged(tree), tree.status) == (0, S)

    def test_each_entry_names_only_its_own_failure(self):
        # a charged restart clears the cell, as an exempt one does
        tree = RetryUntilSuccessful(FailsThrough(["genuine", None, None]), 3,
                                    name="retry")
        bb = Blackboard()
        assert [tick_root(tree, bb)[0] for _ in range(3)] == [R, R, F]
        assert tree.history == [("genuine", False), ("", False), ("", False)]
        assert bb.reason_cell == [None]

    def test_exhausted_inner_retry_hands_its_reason_up(self):
        inner = RetryUntilSuccessful(FailsThrough(["genuine", "regrasp"]), 2,
                                     name="inner")
        outer = RetryUntilSuccessful(inner, 1, exempt_reasons=("regrasp",),
                                     name="outer")
        bb = Blackboard()
        assert [tick_root(outer, bb)[0] for _ in range(3)] == [R, R, S]
        assert inner.history == [("genuine", False), ("regrasp", False)]
        assert outer.history == [("regrasp", True)]
        assert (charged(outer), outer.status) == (0, S)

    def test_inner_charged_reason_does_not_outlive_its_attempt(self):
        # the inner retry's last failure has no reason: the outer retry
        # charges it rather than exempting the inner's first failure again
        inner = RetryUntilSuccessful(FailsThrough(["regrasp", None]), 2,
                                     name="inner")
        outer = RetryUntilSuccessful(inner, 1, exempt_reasons=("regrasp",),
                                     name="outer")
        bb = Blackboard()
        assert [tick_root(outer, bb)[0] for _ in range(2)] == [R, F]
        assert inner.history == [("regrasp", False), ("", False)]
        assert outer.history == [("", False)]
        assert (charged(outer), outer.status) == (1, F)
