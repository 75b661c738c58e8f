import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from adaptbt.core import (
    Blackboard,
    Key,
    LAST_FAILURE_REASON,
    NO_STRATEGIES,
    NodeStatus,
    tick_root,
)
from adaptbt.strategies import (
    DataStore,
    EXEMPT_REASONS,
    FTRecord,
    GENUINE,
    REGRASP,
    STRATEGY_SWITCH,
    StrategySpec,
    angle_within_limits_leaf,
    ft_within_limits_leaf,
    is_tightened_leaf,
    load,
    persist,
    remap_handle_angle,
    select_strategy,
    select_strategy_leaf,
    strategy_viable_leaf,
)

S = NodeStatus.SUCCESS
F = NodeStatus.FAILURE


def spec(sid, limit, **overrides):
    base = dict(angle_min=0.0, angle_max=math.pi, twist_rate=0.157,
                t_approach=8.0, t_grasp=4.0, t_retract=4.0,
                p_segment_failure=0.035)
    base.update(overrides)
    return StrategySpec(sid, limit, **base)


LOW = spec("low_torque", 0.5)
HIGH = spec("high_torque", 5.0)
REGISTRY = [LOW, HIGH]
BY_ID = {s.id: s for s in REGISTRY}


class TestRemap:
    def test_worked_example_310_degrees(self):
        out = remap_handle_angle(math.radians(310), 3, 0.0, math.radians(180))
        assert out == pytest.approx(math.radians(70), abs=1e-12)

    def test_in_window_angle_unchanged(self):
        assert remap_handle_angle(1.0, 3, 0.0, math.pi) == 1.0

    def test_order_one_full_turn_window(self):
        out = remap_handle_angle(7.0, 1, 0.0, 2 * math.pi)
        assert out == pytest.approx(7.0 - 2 * math.pi)

    def test_zero_angle(self):
        assert remap_handle_angle(0.0, 3, 0.0, math.pi) == 0.0

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError, match="narrower"):
            remap_handle_angle(1.0, 2, 0.0, 3.0)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            remap_handle_angle(1.0, 0, 0.0, 7.0)

    @given(st.floats(-60.0, 60.0), st.integers(1, 8),
           st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
    def test_result_is_symmetry_shift_into_window(self, measured, order,
                                                  angle_min, slack):
        symmetry = 2 * math.pi / order
        angle_max = angle_min + symmetry + slack
        out = remap_handle_angle(measured, order, angle_min, angle_max)
        assert angle_min - 1e-9 <= out <= angle_max + 1e-9
        assert out <= angle_min + symmetry + 1e-9
        steps = (measured - out) / symmetry
        assert abs(steps - round(steps)) < 1e-9

    @given(st.floats(-60.0, 60.0), st.integers(1, 8), st.floats(-3.0, 3.0))
    def test_idempotent(self, measured, order, angle_min):
        angle_max = angle_min + 2 * math.pi / order + 0.5
        once = remap_handle_angle(measured, order, angle_min, angle_max)
        twice = remap_handle_angle(once, order, angle_min, angle_max)
        assert twice == once

    def test_matches_integer_search(self):
        rng = random.Random(4821)
        for _ in range(2000):
            order = rng.randint(1, 6)
            symmetry = 2 * math.pi / order
            angle_min = rng.uniform(-2.0, 2.0)
            measured = angle_min + rng.uniform(-10 * order, 10 * order)
            out = remap_handle_angle(measured, order, angle_min,
                                     angle_min + symmetry + 0.25)
            candidates = [
                measured - n * symmetry
                for n in range(-order * 10 - 2, order * 10 + 3)
                if angle_min - 1e-9 <= measured - n * symmetry < angle_min + symmetry
            ]
            assert candidates, (measured, order, angle_min)
            assert out == pytest.approx(candidates[0], abs=1e-9)


class TestSelection:
    def select_for(self, m, registry=REGISTRY, margin=0.0, device="valve"):
        store = DataStore()
        if m > 0:
            store.record(device, 1, 1, 0.1, m)
        return select_strategy(store, device, registry, margin)

    def test_fresh_device_picks_cheapest(self):
        assert self.select_for(0.0) == "low_torque"

    def test_history_above_low_limit_picks_high(self):
        assert self.select_for(0.7) == "high_torque"

    def test_history_above_all_limits_returns_sentinel(self):
        assert self.select_for(6.0) == NO_STRATEGIES

    def test_limits_are_inclusive(self):
        assert self.select_for(0.5) == "low_torque"
        assert self.select_for(5.0) == "high_torque"

    def test_margin_scales_requirement(self):
        assert self.select_for(0.45, margin=0.2) == "high_torque"
        assert self.select_for(0.41, margin=0.2) == "low_torque"

    def test_ties_keep_registry_order(self):
        twins = [spec("first", 1.0), spec("second", 1.0)]
        assert self.select_for(0.3, registry=twins) == "first"
        assert self.select_for(0.3, registry=list(reversed(twins))) == "second"

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            select_strategy(DataStore(), "valve", [])

    def test_matches_brute_force_scan(self):
        rng = random.Random(777)
        for _ in range(1000):
            m = rng.uniform(0.0, 8.0)
            got = self.select_for(m)
            feasible = [s for s in REGISTRY if s.ft_limit >= m]
            want = min(feasible, key=lambda s: s.ft_limit).id if feasible \
                else NO_STRATEGIES
            assert got == want, m

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
           st.floats(0.0, 12.0), st.floats(0.0, 12.0))
    def test_monotone_in_recorded_maximum(self, limits, m1, m2):
        registry = [spec(f"s{i}", limit) for i, limit in enumerate(limits)]
        lo, hi = sorted((m1, m2))
        by_id = {s.id: s.ft_limit for s in registry}
        rank = lambda sid: by_id.get(sid, math.inf)
        assert rank(self.select_for(lo, registry=registry)) \
            <= rank(self.select_for(hi, registry=registry))

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
           st.floats(0.0, 12.0))
    def test_feasible_or_sentinel(self, limits, m):
        registry = [spec(f"s{i}", limit) for i, limit in enumerate(limits)]
        got = self.select_for(m, registry=registry)
        if got == NO_STRATEGIES:
            assert all(s.ft_limit < m for s in registry)
        else:
            assert next(s for s in registry if s.id == got).ft_limit >= m

    def test_devices_do_not_share_history(self):
        store = DataStore()
        store.record("other", 1, 1, 0.1, 9.0)
        assert select_strategy(store, "valve", REGISTRY) == "low_torque"
        store.record("valve", 1, 1, 0.1, 0.8)
        before = select_strategy(store, "valve", REGISTRY)
        for i in range(20):
            store.record("other", 2, 1, 0.1 * (i + 1), 6.0)
        assert select_strategy(store, "valve", REGISTRY) == before == "high_torque"


class TestDataStore:
    def test_running_maximum(self):
        store = DataStore()
        store.record("v", 1, 1, 0.1, 0.3)
        store.record("v", 1, 1, 0.2, 0.2)
        assert store.max_torque("v") == 0.3

    def test_maximum_over_several(self):
        store = DataStore()
        for t, torque in enumerate([0.1, 0.45, 0.3]):
            store.record("v", 1, 1, 0.1 * (t + 1), torque)
        assert store.max_torque("v") == 0.45

    def test_unknown_device_reads_zero(self):
        assert DataStore().max_torque("nope") == 0.0

    def test_duplicate_key_rejected(self):
        store = DataStore()
        store.record("v", 1, 1, 0.1, 0.3)
        with pytest.raises(ValueError, match="duplicate"):
            store.record("v", 1, 1, 0.1, 0.4)

    def test_negative_torque_rejected(self):
        with pytest.raises(ValueError):
            FTRecord("v", 1, 1, 0.1, -0.1)

    @pytest.mark.parametrize("torque", [math.nan, math.inf])
    def test_non_finite_torque_rejected(self, torque):
        store = DataStore()
        with pytest.raises(ValueError, match="finite"):
            store.record("v", 1, 1, 0.1, torque)
        assert len(store) == 0
        assert store.max_torque("v") == 0.0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_load_rejects_non_finite_torque(self, tmp_path, text):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,1,1,0.1,0.3,0.0\n"
                        f"v,1,1,0.2,{text},0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load(path)

    def test_round_trip(self, tmp_path):
        rng = random.Random(31337)
        store = DataStore()
        for i in range(1000):
            store.record(f"dev{rng.randint(0, 3)}", rng.randint(1, 5),
                         rng.randint(1, 5), 0.1 * i, rng.uniform(0.0, 5.0))
        path = tmp_path / "store.csv"
        persist(store, path)
        loaded = load(path)
        assert loaded.records == store.records
        for device in store.devices():
            assert loaded.max_torque(device) == store.max_torque(device)
            assert loaded.max_torque(device) == max(
                r.torque for r in loaded.records if r.device_id == device)

    def test_empty_store_writes_header_only(self, tmp_path):
        path = tmp_path / "store.csv"
        persist(DataStore(), path)
        assert path.read_text() == "device_id,trial,attempt,sim_time,torque,force\n"

    def test_truncated_row_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,1,1,0.1,0.3,0.0\n"
                        "v,1,1,0.2\n")
        with pytest.raises(ValueError, match="line 3"):
            load(path)

    def test_bad_field_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,one,1,0.1,0.3,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="line 1"):
            load(path)


def tick_leaf(factory, ports, bb):
    leaf = factory("leaf", ports)
    return tick_root(leaf, bb)[0]


class TestDecisionLeaves:
    def test_select_leaf_writes_choice_and_succeeds(self):
        store = DataStore()
        seen = []
        factory = select_strategy_leaf(store, "valve", REGISTRY,
                                       observer=lambda sid, m: seen.append((sid, m)))
        bb = Blackboard()
        status = tick_leaf(factory, {"strategy_id": Key("strategy_id")}, bb)
        assert status is S
        assert bb.get("strategy_id") == "low_torque"
        assert seen == [("low_torque", 0.0)]

    def test_select_leaf_succeeds_even_on_sentinel(self):
        store = DataStore()
        store.record("valve", 1, 1, 0.1, 9.0)
        factory = select_strategy_leaf(store, "valve", REGISTRY)
        bb = Blackboard()
        status = tick_leaf(factory, {"strategy_id": Key("strategy_id")}, bb)
        assert status is S
        assert bb.get("strategy_id") == NO_STRATEGIES

    def test_viability_check(self):
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        assert tick_leaf(strategy_viable_leaf(),
                         {"strategy_id": Key("strategy_id")}, bb) is S
        bb.set("strategy_id", NO_STRATEGIES)
        assert tick_leaf(strategy_viable_leaf(),
                         {"strategy_id": Key("strategy_id")}, bb) is F

    @pytest.mark.parametrize("torque,expected", [
        (1.6, S), (1.5, S), (0.4, F)])
    def test_tightened_threshold_inclusive(self, torque, expected):
        bb = Blackboard()
        bb.set("current_torque", torque)
        bb.set("tightened_threshold", 1.5)
        status = tick_leaf(is_tightened_leaf(),
                           {"torque": Key("current_torque"),
                            "threshold": Key("tightened_threshold")}, bb)
        assert status is expected
        assert not bb.has(LAST_FAILURE_REASON)

    def ports_for_angle(self):
        return {"angle": Key("effective_handle_angle"), "strategy": Key("strategy_id")}

    @pytest.mark.parametrize("angle,expected", [
        (math.pi, S), (math.pi / 2, S), (0.0, S), (math.pi + 1e-6, F), (-0.01, F)])
    def test_angle_window_inclusive_with_regrasp_reason(self, angle, expected):
        bb = Blackboard()
        bb.set("effective_handle_angle", angle)
        bb.set("strategy_id", "low_torque")
        status = tick_leaf(angle_within_limits_leaf(BY_ID), self.ports_for_angle(), bb)
        assert status is expected
        if expected is F:
            assert bb.get(LAST_FAILURE_REASON) == REGRASP
        else:
            assert not bb.has(LAST_FAILURE_REASON)

    @pytest.mark.parametrize("torque,strategy,expected", [
        (0.49, "low_torque", S), (0.51, "low_torque", F), (4.0, "high_torque", S)])
    def test_torque_allowance_with_switch_reason(self, torque, strategy, expected):
        bb = Blackboard()
        bb.set("current_torque", torque)
        bb.set("strategy_id", strategy)
        status = tick_leaf(ft_within_limits_leaf(BY_ID),
                           {"torque": Key("current_torque"),
                            "strategy": Key("strategy_id")}, bb)
        assert status is expected
        if expected is F:
            assert bb.get(LAST_FAILURE_REASON) == STRATEGY_SWITCH

    def test_reason_vocabulary(self):
        assert REGRASP in EXEMPT_REASONS
        assert STRATEGY_SWITCH in EXEMPT_REASONS
        assert GENUINE not in EXEMPT_REASONS


class TestStrategySpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            spec("s", 0.0)
        with pytest.raises(ValueError):
            spec("s", 1.0, twist_rate=0.0)
        with pytest.raises(ValueError):
            spec("s", 1.0, angle_max=-1.0)
        with pytest.raises(ValueError):
            spec("s", 1.0, p_segment_failure=1.5)
        with pytest.raises(ValueError):
            spec("s", 1.0, t_grasp=-1.0)

    @pytest.mark.parametrize("label", [
        "ft_limit", "angle_min", "angle_max", "twist_rate", "t_approach",
        "t_grasp", "t_retract", "p_segment_failure"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, label, value):
        with pytest.raises(ValueError, match=label):
            dataclasses.replace(LOW, **{label: value})

    def test_window_width_and_durations(self):
        s = spec("s", 1.0)
        assert s.window_width == math.pi
        assert s.segment_duration("approach") == 8.0
        assert s.segment_duration("grasp") == 4.0
        assert s.segment_duration("retract") == 4.0
