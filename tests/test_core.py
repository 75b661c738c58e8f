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
    LAST_FAILURE_REASON,
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
    UnboundKeyError,
    halt_subtree,
    iter_nodes,
    reason_exemption,
    tick_root,
)
from conftest import ScriptedLeaf

S = NodeStatus.SUCCESS
F = NodeStatus.FAILURE
R = NodeStatus.RUNNING
I = NodeStatus.IDLE


def flag_condition(key, name="cond"):
    return Condition(name, predicate=lambda node: bool(node.bb.get(key)))


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
        assert bb.peek("missing", 7) == 7

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

    def test_delete_through_remap(self):
        outer = Blackboard()
        outer.set("r", "regrasp")
        inner = Blackboard(parent=outer, remaps={"reason": "r"})
        inner.delete("reason")
        assert not outer.has("r")


class TestSequence:
    def test_resumes_at_running_child(self):
        bb = Blackboard()
        cond = ScriptedLeaf("S", name="cond")
        action = ScriptedLeaf("RS", name="action")
        tree = Sequence("seq", [cond, action])
        status, trace = tick_root(tree, bb)
        assert status is R
        assert trace.names() == ["seq", "cond", "action"]
        status, trace = tick_root(tree, bb)
        assert status is S
        # child 0 is not re-ticked on resume
        assert trace.names() == ["seq", "action"]
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
        assert trace.names() == ["seq", "first", "second"]
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
        assert "first" not in trace.names()
        assert first.ticks == 1

    def test_fails_only_when_all_fail(self):
        bb = Blackboard()
        tree = Fallback("fb", [AlwaysFailure("a"), AlwaysFailure("b")])
        status, trace = tick_root(tree, bb)
        assert status is F
        assert trace.names() == ["fb", "a", "b"]


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
        assert tree.attempts_consumed == 3

    def test_exhaustion_returns_failure(self):
        bb = Blackboard()
        child = ScriptedLeaf("F", name="child")
        tree = RetryUntilSuccessful(child, num_attempts=5, name="retry")
        statuses = [tick_root(tree, bb)[0] for _ in range(5)]
        assert statuses == [R, R, R, R, F]
        assert tree.attempts_consumed == 5

    def test_exempt_failures_do_not_consume_attempts(self):
        bb = Blackboard()

        class ExemptThenSucceed(StatefulAction):
            def __init__(self):
                super().__init__("child")
                self.calls = 0

            def on_start(self):
                self.calls += 1
                if self.calls <= 3:
                    self.bb.set(LAST_FAILURE_REASON, "regrasp")
                    return F
                return S

        child = ExemptThenSucceed()
        tree = RetryUntilSuccessful(
            child, num_attempts=1,
            exemption=reason_exemption(["regrasp", "strategy_switch"]), name="retry")
        statuses = [tick_root(tree, bb)[0] for _ in range(4)]
        assert statuses == [R, R, R, S]
        assert tree.attempts_consumed == 1
        assert tree.history == [("regrasp", True)] * 3
        # the engine cleared the reason after consuming the exemption
        assert not bb.has(LAST_FAILURE_REASON)

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
        halt_subtree(tree)
        assert action.halts == 0
        assert tree.status is I

    def test_halt_notifies_only_running_children(self):
        bb = Blackboard()
        done_a = CountingAction("S", name="a")
        done_b = CountingAction("S", name="b")
        running = CountingAction("RRR", name="c")
        tree = Sequence("seq", [done_a, done_b, running])
        tick_root(tree, bb)
        halt_subtree(tree)
        assert (done_a.halts, done_b.halts, running.halts) == (0, 0, 1)
        for node in iter_nodes(tree):
            assert node.status is I

    def test_halted_action_reports_idle_after_one_tick(self):
        bb = Blackboard()
        action = CountingAction("RRS")
        tick_root(action, bb)
        halt_subtree(action)
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
        halt_subtree(used)
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
        assert trace.names() == ["outer", "inner", "leaf", "tail"]

    def test_root_entered_once_per_tick(self):
        bb = Blackboard()
        tree = Sequence("root", [AlwaysSuccess()])
        _, trace = tick_root(tree, bb)
        assert trace.names().count("root") == 1

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
        assert not bb.has("gain")


def tick_count(trace, name):
    return trace.names().count(name)


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

        def fail_exempt(node):
            node.bb.set(LAST_FAILURE_REASON, "regrasp")
            return F

        leaf = StatefulAction("leaf", on_start=fail_exempt)
        child = Sequence("attempt", [leaf])
        tree = RetryUntilSuccessful(
            child, num_attempts=1, exemption=reason_exemption(["regrasp"]),
            name="retry")
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
        assert trace.names() == ["sw", "other"]

    def test_unbound_key_port_names_plain_key(self):
        bb = Blackboard()
        reader = Condition("reader", predicate=lambda node: node.input("flag"),
                           ports={"flag": Key("missing")})
        status, trace = tick_root(Sequence("seq", [reader]), bb)
        assert status is F
        assert trace.diagnostics == ["reader: unbound blackboard key 'missing'"]
