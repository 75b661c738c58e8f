import dataclasses
import errno
import functools
import math
import os
import random
import re
import stat
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adaptbt.bench import EpisodeProbe
from adaptbt.core import (
    Blackboard,
    Key,
    NO_STRATEGIES,
    NodeStatus,
    tick_root,
)
from adaptbt import strategies
from adaptbt.strategies import (
    AngleWithinLimits,
    CheckStrategyViable,
    DataStore,
    EXEMPT_REASONS,
    FTRecord,
    FTWithinLimits,
    GENUINE,
    IsTightened,
    REGRASP,
    STRATEGY_SWITCH,
    SelectStrategy,
    StrategySpec,
    load,
    open_store,
    persist,
    remap_handle_angle,
    select_strategy,
)
from conftest import fail_writes_after

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


class Text(str):
    """A str subclass: FTRecord takes it as a device id."""


# DataStore.record builds exact-type records without the FTRecord call; every
# other input must reach FTRecord, so both agree on every accepted or
# rejected field set
RECORD_INPUTS = [
    pytest.param(("v", 1, 2, 0.5, 0.3, 0.1), id="exact_types"),
    pytest.param(("v", 1, 2, -0.0, -0.0, -0.0), id="negative_zeros"),
    pytest.param(("v", 1, 2, 5, 0.3, 0.0), id="int_sim_time"),
    pytest.param(("v", 1, 2, 0.5, 3, 0.0), id="int_torque"),
    pytest.param(("v", 1, 2, 0.5, 0.3, -2), id="int_force"),
    pytest.param((Text("v"), 1, 2, 0.5, 0.3, 0.0), id="str_subclass_id"),
    pytest.param(("v", True, 2, 0.5, 0.3, 0.0), id="bool_trial"),
    pytest.param(("v", 1, 2.0, 0.5, 0.3, 0.0), id="float_attempt"),
    pytest.param(("", 1, 2, 0.5, 0.3, 0.0), id="empty_device_id"),
    pytest.param((b"v", 1, 2, 0.5, 0.3, 0.0), id="bytes_device_id"),
    pytest.param(("v", 1, 2, 0.5, math.nan, 0.0), id="nan_torque"),
    pytest.param(("v", 1, 2, 0.5, math.inf, 0.0), id="inf_torque"),
    pytest.param(("v", 1, 2, 0.5, -0.1, 0.0), id="negative_torque"),
    pytest.param(("v", 1, 2, 0.5, False, 0.0), id="bool_torque"),
    pytest.param(("v", 1, 2, math.nan, 0.3, 0.0), id="nan_sim_time"),
    pytest.param(("v", 1, 2, -math.inf, 0.3, 0.0), id="inf_sim_time"),
    pytest.param(("v", 1, 2, 0.5, 0.3, math.inf), id="inf_force"),
    pytest.param(("v", 1, 2, 0.5, 0.3, math.nan), id="nan_force"),
    pytest.param(("v", 1, 2, 0.5, 0.3, "0.0"), id="text_force"),
]


def build_outcome(build, fields):
    """What `build(*fields)` gives: the record's class and each value's type
    and repr, or the type and message of what it raises."""
    try:
        record = build(*fields)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(record), [(type(v), repr(v)) for v in record]


class TestDataStore:
    @pytest.mark.parametrize("fields", RECORD_INPUTS)
    def test_record_stores_what_ftrecord_builds(self, fields):
        store = DataStore()

        def record(*values):
            store.record(*values)
            return store.records[-1]

        assert build_outcome(record, fields) == build_outcome(FTRecord, fields)

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

    def test_zero_torque_device_is_known(self):
        store = DataStore()
        store.record("z", 1, 1, 0.1, 0.0)
        store.record("v", 1, 1, 0.1, 0.2)
        assert sorted(store._index) == ["v", "z"]
        assert store.max_torque("z") == 0.0

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
        for device in sorted(store._index):
            assert loaded.max_torque(device) == store.max_torque(device)
            assert loaded.max_torque(device) == max(
                r.torque for r in loaded.records if r.device_id == device)

    def test_empty_store_writes_header_only(self, tmp_path):
        path = tmp_path / "store.csv"
        persist(DataStore(), path)
        assert path.read_text() == "device_id,trial,attempt,sim_time,torque,force\n"

    def test_truncated_row_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        # a row a field short, and one a field over
        for row, count in (("v,1,1,0.2", 4), ("v,1,1,0.2,0.3,0.0,9", 7)):
            path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                            "v,1,1,0.1,0.3,0.0\n"
                            f"{row}\n")
            with pytest.raises(ValueError,
                               match=f"^line 3: expected 6 fields, got {count}$"):
                load(path)

    def test_bad_field_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,one,1,0.1,0.3,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load(path)

    @pytest.mark.parametrize("rows", [
        "v,1_0,1,0.1,0.3,0.0\n",
        "v,1,1,0.1,0.3,1_000.5\n",
        "v,1,1,0.1, 0.3,0.0\n",
        "v,1,1,0.1,0.3,0.0\t\n",
        "v,1,1,0.1,\x0b0.3,0.0\n",
        "v,1,1,0.1\x0c,0.3,0.0\n",
        "v,1,1\xa0,0.1,0.3,0.0\n",
        "v,1,1,0.1,0.3,\u20030.0\n",
        'v,1,1,0.1,0.3,"-0.5\n"\nv,1,2,0.2,0.3,0.0\n',
        'v,1,1,0.1,0.3," -0.5\n',
        "v,\u0661,1,0.1,0.3,0.0\n",
    ])
    def test_load_rejects_number_spellings_persist_never_writes(self, tmp_path,
                                                                 rows):
        path = tmp_path / "store.csv"
        path.write_text(HEADER + rows)
        with pytest.raises(ValueError, match="line 2: .*'_' or whitespace"):
            load(path)

    def test_row_is_named_by_the_line_it_starts_on(self, tmp_path):
        # the quoted id of the row on line 2 holds a newline, so it ends on line 3
        path = tmp_path / "store.csv"
        path.write_text(HEADER + '"v\nw",1,1,0.1,0.3,0.0\n' + "v,one,1,0.1,0.3,0.0\n")
        with pytest.raises(ValueError, match="^line 4: invalid literal for int"):
            load(path)

    def test_empty_device_id_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text(HEADER + "v,1,1,0.1,0.3,0.0\n" + ",1,2,0.1,0.3,0.0\n")
        with pytest.raises(ValueError, match="^line 3: device_id must be a "
                                             "non-empty string, got ''$"):
            load(path)

    @pytest.mark.parametrize("rows_before", [1, 2000])
    def test_non_utf8_byte_names_line(self, tmp_path, rows_before):
        path = tmp_path / "store.csv"
        rows = "".join(f"v,1,{i},0.1,0.3,0.0\n" for i in range(rows_before))
        path.write_bytes((HEADER + rows).encode() + b"v\xff,2,1,0.1,0.3,0.0\n")
        with pytest.raises(ValueError, match=f"^line {rows_before + 2}: 'utf-8' "
                                             f"codec can't decode byte 0xff"):
            load(path)

    @pytest.mark.parametrize("device_id", [5, None, "", b"v"])
    def test_record_device_id_must_be_non_empty_str(self, device_id):
        with pytest.raises(ValueError, match=re.escape(repr(device_id))):
            FTRecord(device_id, 1, 1, 0.1, 0.3)
        store = DataStore()
        with pytest.raises(ValueError, match="device_id must be a non-empty"):
            store.record(device_id, 1, 1, 0.1, 0.3)
        assert len(store) == 0

    def test_oversized_field_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text(HEADER + "v" * 200_000 + ",1,1,0.1,0.3,0.0\n")
        with pytest.raises(ValueError, match="^line 2: field larger than"):
            load(path)

    def test_device_id_may_hold_underscore_and_space(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text(HEADER + "valve_1 left,1,1,0.1,0.3,0.0\n")
        assert load(path).records == [FTRecord("valve_1 left", 1, 1, 0.1, 0.3)]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="line 1"):
            load(path)

    @pytest.mark.parametrize("field", ["sim_time", "force"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_or_force_rejected(self, field, value):
        store = DataStore()
        store.record("v", 1, 1, 0.1, 0.3)
        fields = dict(sim_time=0.2, torque=0.4, force=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            store.record("v", 1, 1, **fields)
        assert len(store) == 1
        assert store.max_torque("v") == 0.3

    @pytest.mark.parametrize("row", ["v,1,1,nan,0.3,0.0", "v,1,1,inf,0.3,0.0",
                                     "v,1,1,0.2,0.3,inf", "v,1,1,0.2,0.3,nan",
                                     "v,1,1,0.2,0.3,-inf"])
    def test_load_rejects_non_finite_time_or_force(self, tmp_path, row):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,1,1,0.1,0.3,0.0\n"
                        "\n"
                        f"{row}\n")
        with pytest.raises(ValueError, match="line 4: .* must be finite"):
            load(path)

    def test_nan_sim_time_cannot_slip_past_duplicate_check(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,1,1,nan,0.3,0.0\n"
                        "v,1,1,nan,0.3,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load(path)

    def test_duplicate_row_names_line(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                        "v,1,1,0.1,0.3,0.0\n"
                        "v,1,1,0.1,0.4,0.0\n")
        with pytest.raises(ValueError, match="line 3: duplicate"):
            load(path)

    def test_device_seen_only_at_negative_zero_reads_positive_zero(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text(HEADER + "z,1,1,0.1,-0.0,0.0\n")
        assert repr(load(path).max_torque("z")) == "0.0"

    def test_late_duplicate_names_its_line(self, tmp_path):
        store = DataStore()
        for i in range(1000):
            store.record("v", 1, i + 1, 0.1, 0.3)
        path = tmp_path / "store.csv"
        persist(store, path)
        with open(path, "a") as handle:
            handle.write("v,1,1,0.1,0.4,0.0\n")
        with pytest.raises(ValueError, match="^line 1002: duplicate"):
            load(path)

    def test_persist_golden_bytes(self, tmp_path):
        store = DataStore()
        store.record("a,b", 1, 1, 0.1 + 0.2, 2)
        store.record('say "hi"', 1, 2, 1e-20, 0.5, -1.25)
        store.record("two words", 2, 1, 5e+300, 1e-20)
        path = tmp_path / "store.csv"
        persist(store, path)
        assert path.read_bytes() == (
            b"device_id,trial,attempt,sim_time,torque,force\n"
            b'"a,b",1,1,0.30000000000000004,2.0,0.0\n'
            b'"say ""hi""",1,2,1e-20,0.5,-1.25\n'
            b"two words,2,1,5e+300,1e-20,0.0\n")

    def test_persist_load_persist_is_byte_identical(self, tmp_path):
        rng = random.Random(2718)
        store = DataStore()
        specials = [0.1 + 0.2, 1e-20, 5e+300, 0.0, 3.0]
        for i in range(500):
            store.record(rng.choice(["a,b", 'say "hi"', "two words", "v"]),
                         rng.randint(1, 5), rng.randint(1, 5), 0.1 * i,
                         rng.choice(specials + [rng.uniform(0.0, 5.0)]),
                         rng.choice([0.0, -0.0, -2.5, rng.gauss(0.0, 1e-9)]))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        persist(store, first)
        persist(load(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_int_numbers_round_trip_as_floats(self, tmp_path):
        rng = random.Random(1618)
        store = DataStore()
        for i in range(200):
            store.record(rng.choice(["a,b", "v"]), rng.randint(1, 5),
                         rng.randint(1, 5), rng.choice([i, i + 0.5]),
                         rng.choice([0, 2, 3.0, rng.uniform(0.0, 5.0)]),
                         rng.choice([0, -2, 0.0, 1.5]))
        for record in store.records:
            assert [type(v) for v in record[1:]] == [int, int, float, float, float]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        persist(store, first)
        loaded = load(first)
        assert loaded.records == store.records
        persist(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("fields", [
        (1, 1.0, 3.0, 1.5, 0.0), (1.0, 1, 3.0, 1.5, 0.0),
        (True, 1, 3.0, 1.5, 0.0), (1, False, 3.0, 1.5, 0.0),
        (1, 1, True, 1.5, 0.0), (1, 1, 3.0, True, 0.0), (1, 1, 3.0, 1.5, False)])
    def test_non_int_counter_or_bool_number_rejected(self, fields):
        store = DataStore()
        with pytest.raises(TypeError):
            store.record("v", *fields)
        assert len(store) == 0

    def test_record_is_immutable_hashable_value(self):
        record = FTRecord("v", 1, 2, 0.5, 0.3)
        with pytest.raises(AttributeError):
            record.torque = 1.0
        assert repr(record) == ("FTRecord(device_id='v', trial=1, attempt=2, "
                                "sim_time=0.5, torque=0.3, force=0.0)")
        assert record[:4] == ("v", 1, 2, 0.5)
        assert record == FTRecord("v", 1, 2, 0.5, 0.3, 0.0)
        assert record != FTRecord("v", 1, 2, 0.5, 0.3, 0.1)
        assert len({record, FTRecord("v", 1, 2, 0.5, 0.3)}) == 1

    def test_replace_validates(self):
        record = FTRecord("v", 1, 2, 0.5, 0.3)
        assert record._replace(force=1.5) == FTRecord("v", 1, 2, 0.5, 0.3, 1.5)
        with pytest.raises(ValueError, match="force must be finite"):
            record._replace(force=math.nan)


HEADER = "device_id,trial,attempt,sim_time,torque,force\n"
# a hand-written store: a blank row and ints spelled where persist writes floats
HAND_WRITTEN = HEADER + "v,1,1,1,0.3,0\n\nv,1,2,2.5,1,-0.5\n"


def fresh_bytes(store, tmp_path):
    """The bytes one persist of `store` to a new file writes."""
    path = tmp_path / "fresh.csv"
    persist(store, path)
    return path.read_bytes()


class TestStoreAppend:
    """persist appends only from a store opened from its summary: a store
    that load read is rewritten whole, in persist's form."""

    def hand_written(self, tmp_path, text=HAND_WRITTEN):
        path = tmp_path / "store.csv"
        path.write_bytes(text.encode())
        store = load(path)
        store.record("v", 2, 1, 0.1 + 0.2, 0.75)
        store.record("a,b", 2, 1, 4.0, 2)
        return path, store

    def test_loaded_store_is_rewritten(self, tmp_path):
        # the blank row, the int spellings and the hand-made bytes go
        path, store = self.hand_written(tmp_path)
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)
        assert load(path).records == store.records

    def test_header_only_file_gets_no_second_header(self, tmp_path):
        path, store = self.hand_written(tmp_path, HEADER)
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)

    @pytest.mark.parametrize("text", [
        HAND_WRITTEN.rstrip("\n"),
        # the last field's quote is never closed, so it holds the final newline
        HAND_WRITTEN.replace(",-0.5", ',"-0.5'),
    ], ids=["no_trailing_newline", "open_quote_at_end"])
    def test_incomplete_last_row_is_rewritten(self, tmp_path, text):
        path, store = self.hand_written(tmp_path, text)
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)
        assert load(path).records == store.records

    def test_grown_file_is_rewritten(self, tmp_path):
        path, store = self.hand_written(tmp_path)
        with open(path, "a") as handle:
            handle.write("\n")
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)

    def test_touched_file_is_rewritten(self, tmp_path):
        path, store = self.hand_written(tmp_path)
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)

    def test_replaced_file_is_rewritten(self, tmp_path):
        # same size and mtime, but another file: an append would keep 0.4
        path, store = self.hand_written(tmp_path)
        st = path.stat()
        other = tmp_path / "other.csv"
        other.write_bytes(HAND_WRITTEN.replace("0.3", "0.4").encode())
        os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(other, path)
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)

    def test_other_path_is_rewritten(self, tmp_path):
        path, store = self.hand_written(tmp_path)
        other = tmp_path / "other.csv"
        other.write_bytes(HAND_WRITTEN.encode())
        persist(store, other)
        assert other.read_bytes() == fresh_bytes(store, tmp_path)
        assert path.read_bytes() == HAND_WRITTEN.encode()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_store_loads_from_a_pipe(self, tmp_path):
        read_end, write_end = os.pipe()
        os.write(write_end, HAND_WRITTEN.encode())
        os.close(write_end)
        try:
            store = load(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        path = tmp_path / "store.csv"
        path.write_bytes(HAND_WRITTEN.encode())
        assert store.records == load(path).records

    def test_store_never_loaded_is_rewritten(self, tmp_path):
        path, _ = self.hand_written(tmp_path)
        store = DataStore()
        store.record("v", 1, 1, 1.0, 0.3)
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)


SPECIAL_FLOATS = [0.0, -0.0, 1e-300, 5e300, 0.1 + 0.2, 2.0]
TORQUES = st.sampled_from(SPECIAL_FLOATS) | st.floats(0.0, 1e6)
NUMBERS = st.sampled_from(SPECIAL_FLOATS + [-2.5]) | st.floats(
    allow_nan=False, allow_infinity=False)


def store_rows(ids):
    return st.lists(st.tuples(ids, st.integers(1, 3), st.integers(1, 3),
                              NUMBERS, TORQUES, NUMBERS), max_size=12)


# stores of plain ids, and stores whose ids may hold '_', a space, ',' or '"'
STORE_ROWS = store_rows(st.text(alphabet="ab", min_size=1, max_size=3)) \
    | store_rows(st.text(alphabet='ab_ ,"', min_size=1, max_size=3))
# spellings persist never writes, or writes otherwise ("1" for 1.0)
NUMBER_TEXTS = ["nan", "inf", "-1", "1_0", "+1", "1"]
MUTATIONS = ["none", "duplicate", "extra_field", "blank_line", "crlf",
             "no_final_newline", "number"]


def mutate(text, mutation, data):
    """`text` as persist wrote it, with one change a hand edit could make."""
    lines = text.split("\n")[:-1]  # one row a line: no id holds a newline
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    if mutation == "no_final_newline":
        return text[:-1]
    where = data.draw(st.integers(1, len(lines)))
    if mutation == "blank_line":
        lines.insert(where, "")
    elif len(lines) > 1:
        row = data.draw(st.integers(1, len(lines) - 1))
        if mutation == "duplicate":
            lines.insert(where, lines[row])
        elif mutation == "extra_field":
            lines[row] += ",0.0"
        elif mutation == "number":
            fields = lines[row].rsplit(",", 5)
            fields[data.draw(st.integers(1, 5))] = data.draw(
                st.sampled_from(NUMBER_TEXTS))
            lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


# the start of load's error for a spelling each number field rejects, after
# "line 3: "; "1_0" is rejected everywhere and "-1" only as a torque
SPELLING_ERRORS = {
    1: "invalid literal for int", 2: "invalid literal for int",
    3: "sim_time must be finite", 4: "torque must be finite and >= 0",
    5: "force must be finite"}
# what each spelling a number field accepts reads as
SPELLING_VALUES = {"-1": -1, "+1": 1, "1": 1}


class TestColumnReader:
    """load over whole persisted files: what persist writes reads back, and
    each number spelling loads or is named by its line."""

    @settings(max_examples=150, deadline=None)
    @given(rows=STORE_ROWS, copies=st.sampled_from([1, 60]),
           mutation=st.sampled_from(["none", "blank_line", "crlf",
                                     "no_final_newline"]),
           data=st.data())
    def test_persist_load_round_trip(self, tmp_path_factory, rows, copies,
                                     mutation, data):
        store = DataStore()
        for k in range(copies):
            for device_id, trial, *rest in rows:
                try:
                    store.record(device_id, trial + 10 * k, *rest)
                except ValueError:  # a duplicate key
                    pass
        path = tmp_path_factory.mktemp("store") / "store.csv"
        persist(store, path)
        text = path.read_bytes().decode()
        path.write_bytes(mutate(text, mutation, data).encode())
        loaded = load(path)
        # repr tells 1 from 1.0 and 0.0 from -0.0
        assert list(map(repr, loaded.records)) == list(map(repr, store.records))
        assert all(type(r) is FTRecord for r in loaded.records)
        assert {d: repr(loaded.max_torque(d)) for d in sorted(loaded._index)} \
            == {d: repr(store.max_torque(d)) for d in sorted(store._index)}

    @pytest.mark.parametrize("text", NUMBER_TEXTS)
    @pytest.mark.parametrize("field", range(1, 6))
    def test_number_spelling_agrees_with_row_reader(self, tmp_path, field, text):
        store = DataStore()
        store.record("v", 1, 1, 0.1, 0.3)
        store.record("v", 1, 2, 0.2, 0.4)
        path = tmp_path / "store.csv"
        persist(store, path)
        lines = path.read_text().split("\n")
        fields = lines[2].split(",")
        fields[field] = text
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines))
        if text in SPELLING_VALUES and (field, text) != (4, "-1"):
            row = list(store.records[1])
            row[field] = SPELLING_VALUES[text]
            assert list(map(repr, load(path).records)) \
                == [repr(store.records[0]), repr(FTRecord(*row))]
        elif text == "1_0":
            with pytest.raises(ValueError, match="^line 3: a number field holds"):
                load(path)
        else:
            with pytest.raises(ValueError, match=f"^line 3: {SPELLING_ERRORS[field]}"):
                load(path)


def summary_path(path):
    return path.with_name(path.name + ".summary")


def replace_bytes(path, data):
    """Write `path` as an editor saves it: a new file moved over the old."""
    new = path.with_name(path.name + ".new")
    new.write_bytes(data)
    os.replace(new, path)


def open_and_extend(opener, path, device_id, trial, new_records):
    """What a tick does with the store at `path`: its length, maxima and
    selection when opened, then the file's bytes once `new_records` are
    added and persisted, or the error text where one is raised."""
    try:
        store = opener(path, device_id, trial)
    except ValueError as exc:
        return str(exc)
    opened = (len(store), sorted(store._index),
              {d: repr(store.max_torque(d)) for d in SUMMARY_DEVICES},
              select_strategy(store, device_id, REGISTRY))
    try:
        for attempt, (sim_time, torque) in enumerate(new_records, 1):
            store.record(device_id, trial, attempt, sim_time, torque)
        persist(store, path)
    except ValueError as exc:
        return opened, str(exc)
    return opened, path.read_bytes()


def full_load(path, device_id, trial):
    return load(path)


# plain ids, an id with a space, and one csv must quote
SUMMARY_DEVICES = ["a", "b", "c d", 'e,"f"']
SUMMARY_TORQUES = st.sampled_from([0.0, -0.0, 1e-300, 0.3, 0.5, 0.1 + 0.2,
                                   2.5, 5e300])
NEW_RECORDS = st.lists(st.tuples(st.sampled_from([0.1, 0.5, 2.0]),
                                 SUMMARY_TORQUES), max_size=3, unique_by=lambda r: r[0])
# tick-like cycles: a device, how far its trial advances, the new records
TICK_CYCLES = st.lists(st.tuples(st.sampled_from(SUMMARY_DEVICES),
                                 st.integers(1, 2), NEW_RECORDS),
                       min_size=1, max_size=5)
SUMMARY_MUTATIONS = ["summary_deleted", "summary_truncated", "summary_flipped",
                     "summary_copied", "csv_touched", "csv_appended"]


class TestStoreSummary:
    """open_store reads a store's summary in place of the file, to load's result."""

    @settings(max_examples=120, deadline=None)
    @given(cycles=TICK_CYCLES, device_id=st.sampled_from(SUMMARY_DEVICES),
           trial_step=st.integers(-2, 2), new_records=NEW_RECORDS,
           mutation=st.sampled_from(MUTATIONS + SUMMARY_MUTATIONS),
           data=st.data())
    def test_open_store_agrees_with_load(self, tmp_path_factory, cycles,
                                         device_id, trial_step, new_records,
                                         mutation, data):
        # the same chain on two files: one opened as tick opens it, one loaded
        directory = tmp_path_factory.mktemp("summary")
        opened, loaded = directory / "opened.csv", directory / "loaded.csv"
        trials = {}
        for cycle_device, step, records in cycles:
            trials[cycle_device] = trials.get(cycle_device, 0) + step
            for path, opener in ((opened, open_store), (loaded, full_load)):
                try:
                    store = opener(path, cycle_device, trials[cycle_device])
                except FileNotFoundError:
                    store = DataStore()
                for attempt, (sim_time, torque) in enumerate(records, 1):
                    store.record(cycle_device, trials[cycle_device], attempt,
                                 sim_time, torque)
                persist(store, path)
        assert opened.read_bytes() == loaded.read_bytes()

        if mutation in MUTATIONS and mutation != "none":
            text = mutate(loaded.read_bytes().decode(), mutation, data).encode()
            replace_bytes(opened, text)
            replace_bytes(loaded, text)
        summary = summary_path(opened)
        if mutation == "summary_deleted":
            summary.unlink()
        elif mutation == "summary_truncated":
            body = summary.read_bytes()
            summary.write_bytes(body[:data.draw(st.integers(0, len(body) - 1))])
        elif mutation == "summary_flipped":
            body = bytearray(summary.read_bytes())
            body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(
                st.integers(1, 255))
            summary.write_bytes(bytes(body))
        elif mutation == "summary_copied":
            summary.write_bytes(summary_path(loaded).read_bytes())
        elif mutation == "csv_touched":
            st_ = opened.stat()
            os.utime(opened, ns=(st_.st_atime_ns, st_.st_mtime_ns + 10**9))
        elif mutation == "csv_appended":
            row = f"{data.draw(st.sampled_from('ab'))},{data.draw(st.integers(1, 9))},9,0.5,3.0,0.0\n"
            for path in (opened, loaded):
                with open(path, "a") as handle:
                    handle.write(row)

        trial = max(trials.get(device_id, 0) + trial_step, 1)
        assert open_and_extend(open_store, opened, device_id, trial, new_records) \
            == open_and_extend(full_load, loaded, device_id, trial, new_records)

    def chain(self, tmp_path):
        """A store persisted twice by tick-like cycles, and its file."""
        path = tmp_path / "store.csv"
        store = DataStore()
        store.record("v", 1, 1, 0.1, 0.3)
        store.record("w", 1, 1, 0.1, 0.0)
        persist(store, path)
        store = open_store(path, "v", 2)
        store.record("v", 2, 1, 0.2, 0.7)
        persist(store, path)
        return path

    def test_summary_store_holds_only_new_records(self, tmp_path):
        path = self.chain(tmp_path)
        store = open_store(path, "v", 3)
        assert type(store) is not DataStore and store.records == []
        assert len(store) == 3 and sorted(store._index) == ["v", "w"]
        assert (store.max_torque("v"), store.max_torque("w")) == (0.7, 0.0)
        with pytest.raises(ValueError, match="trial 2 of device 'v' may already"):
            store.record("v", 2, 9, 0.1, 0.1)
        with pytest.raises(ValueError, match="trial 1 of device 'v' may already"):
            store.record("v", 1, 9, 1, 1)  # ints take the FTRecord call
        assert store.records == []
        store.record("w", 2, 1, 0.1, 0.1)  # a later trial of another device

    def test_trial_on_file_takes_full_load(self, tmp_path):
        path = self.chain(tmp_path)
        with mock.patch.object(strategies, "load", wraps=load) as spy:
            store = open_store(path, "v", 2)
        spy.assert_called_once_with(os.fspath(path))
        assert type(store) is DataStore and len(store.records) == 3
        with pytest.raises(ValueError, match=re.escape(
                "duplicate record key ('v', 2, 1, 0.2)")):
            store.record("v", 2, 1, 0.2, 0.7)

    def changed_under(self, tmp_path, row):
        """A store opened from the chain's summary with one new record, and
        its file, to which `row` was appended after the store was opened."""
        path = self.chain(tmp_path)
        store = open_store(path, "v", 3)
        store.record("v", 3, 1, 0.1, 0.3)
        with open(path, "a") as handle:
            handle.write(row)
        return path, store

    def test_persist_to_changed_file_merges(self, tmp_path):
        path, store = self.changed_under(tmp_path, "w,5,1,0.1,0.3,0.0\n")
        merged = load(path)
        merged.add(store.records[0])
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(merged, tmp_path)
        with mock.patch.object(strategies, "load", wraps=load) as spy:
            reopened = open_store(path, "w", 6)
        spy.assert_not_called()
        assert len(reopened) == 5 and reopened._trials == {"v": 3, "w": 5}
        assert (reopened.max_torque("v"), reopened.max_torque("w")) == (0.7, 0.3)

    @pytest.mark.parametrize("row,error", [
        ("v,3,1,0.1,0.9,0.0\n", "duplicate record key ('v', 3, 1, 0.1)"),
        ("w,5,1\n", "line 5: expected 6 fields, got 3")],
        ids=["duplicate", "bad_row"])
    def test_persist_to_changed_file_raises_on_conflict(self, tmp_path, row,
                                                         error):
        path, store = self.changed_under(tmp_path, row)
        before = path.read_bytes(), summary_path(path).read_bytes()
        with pytest.raises(ValueError, match=re.escape(f"data store {path}: {error}")):
            persist(store, path)
        assert (path.read_bytes(), summary_path(path).read_bytes()) == before

    def test_persist_to_deleted_file_writes_new_records(self, tmp_path):
        path = self.chain(tmp_path)
        store = open_store(path, "v", 3)
        store.record("v", 3, 1, 0.1, 0.3)
        path.unlink()
        persist(store, path)
        assert load(path).records == store.records
        assert len(open_store(path, "v", 4)) == 1

    def test_persist_to_other_path_raises(self, tmp_path):
        path = self.chain(tmp_path)
        before = path.read_bytes()
        other = tmp_path / "other.csv"
        other.write_bytes(before)
        store = open_store(path, "v", 3)
        store.record("v", 3, 1, 0.1, 0.3)
        with pytest.raises(ValueError, match=f"^data store {re.escape(str(other))}: "):
            persist(store, other)
        assert other.read_bytes() == before and path.read_bytes() == before

    @pytest.mark.parametrize("old,new", [
        (b"0.7\n", b"nan\n"), (b"0.7\n", b"inf\n"), (b"0.7\n", b"-1.0\n"),
        (b"0.7\n", b"0.7,1\n"), (b",2,", b",two,"), (b",3\n", b",-3\n"),
        # the line-ending field of the old six-field form
        (b",3\n", b',3,"\r\n"\n'), (b"w,1,0.0\n", b"w,1\n")],
        ids=["nan", "inf", "negative", "extra_field", "trial_text",
             "negative_count", "bad_ending", "short_row"])
    def test_malformed_summary_takes_full_load(self, tmp_path, old, new):
        # a summary whose checksum holds but whose content does not
        path = self.chain(tmp_path)
        check, body = summary_path(path).read_bytes().split(b"\n", 1)
        assert old in body
        body = body.replace(old, new)
        summary_path(path).write_bytes(b"%08x\n%s" % (zlib.crc32(body), body))
        with mock.patch.object(strategies, "load", wraps=load) as spy:
            store = open_store(path, "v", 3)
        spy.assert_called_once()
        assert type(store) is DataStore and len(store) == 3

    @pytest.mark.parametrize("opener", [full_load, open_store])
    def test_crlf_store_is_written_back_lf(self, tmp_path, opener):
        path = tmp_path / "store.csv"
        path.write_bytes(HEADER.replace("\n", "\r\n").encode()
                         + b"v,1,1,0.1,0.3,0.0\r\n")
        store = opener(path, "v", 2)
        assert type(store) is DataStore
        store.record("v", 2, 1, 0.2, 0.4)
        persist(store, path)
        data = path.read_bytes()
        assert b"\r" not in data and data == fresh_bytes(store, tmp_path)
        # the next tick appends through the summary
        store = open_store(path, "v", 3)
        assert type(store) is not DataStore
        store.record("v", 3, 1, 0.2, 0.4)
        persist(store, path)
        assert path.read_bytes() == data + b"v,3,1,0.2,0.4,0.0\n"

    @pytest.mark.parametrize("opener", [full_load, open_store])
    def test_bom_store_is_written_back_without_it(self, tmp_path, opener):
        # spreadsheet programs save CSV with a leading UTF-8 byte-order mark
        rows = (HEADER + "v,1,1,0.1,0.3,0.0\n").encode()
        path, plain = tmp_path / "store.csv", tmp_path / "plain.csv"
        path.write_bytes(b"\xef\xbb\xbf" + rows)
        plain.write_bytes(rows)
        store = opener(path, "v", 2)
        assert type(store) is DataStore and store.records == load(plain).records
        store.record("v", 2, 1, 0.2, 0.4)
        persist(store, path)
        assert path.read_bytes() == fresh_bytes(store, tmp_path)

    def test_no_summary_beside_a_non_regular_file(self, tmp_path):
        store = DataStore()
        store.record("v", 1, 1, 0.1, 0.3)
        persist(store, os.devnull)
        assert not os.path.exists(os.devnull + ".summary")


class TestFailedWrite:
    """A persist that raises part way leaves the store file as it was, and
    its summary still opens it."""

    def stored(self, tmp_path):
        """A persisted store of 60 trials of device v, and its file."""
        path = tmp_path / "store.csv"
        store = DataStore()
        for trial in range(1, 61):
            store.record("v", trial, 1, 0.1 * trial, 0.01 * trial)
        persist(store, path)
        return path

    def assert_kept(self, path, before, trial):
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) \
            == [path.name, summary_path(path).name]
        with mock.patch.object(strategies, "load", wraps=load) as spy:
            store = open_store(path, "v", trial)
        spy.assert_not_called()
        assert len(store) == len(load(path)) == 60

    # the header and 60 rows are on file before the new row
    @pytest.mark.parametrize("rows", [0, 1, 30, 61])
    def test_failed_rewrite_keeps_the_file(self, tmp_path, monkeypatch, rows):
        path = self.stored(tmp_path)
        before = path.read_bytes()
        store = load(path)  # a loaded store is rewritten whole
        store.record("v", 61, 1, 0.5, 0.5)
        fail_writes_after(monkeypatch, rows)
        with pytest.raises(OSError) as caught:
            persist(store, path)
        monkeypatch.undo()
        assert (caught.value.errno, caught.value.filename) == (errno.ENOSPC, str(path))
        self.assert_kept(path, before, 62)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_failed_append_is_cut_back(self, tmp_path, monkeypatch, rows):
        path = self.stored(tmp_path)
        before = path.read_bytes()
        store = open_store(path, "v", 61)
        assert type(store) is not DataStore
        for attempt in range(1, 4):
            store.record("v", 61, attempt, 0.1 * attempt, 0.5)
        fail_writes_after(monkeypatch, rows)
        with pytest.raises(OSError) as caught:
            persist(store, path)
        monkeypatch.undo()
        assert (caught.value.errno, caught.value.filename) == (errno.ENOSPC, str(path))
        self.assert_kept(path, before, 61)

    def test_rewrite_through_a_symlink_keeps_the_link_and_mode(self, tmp_path):
        target = self.stored(tmp_path)
        os.chmod(target, 0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        store = load(link)
        store.record("v", 61, 1, 0.5, 0.5)
        persist(store, link)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert load(target).records == store.records
        assert not os.path.exists(f"{target}.tmp")
        assert type(open_store(link, "v", 62)) is not DataStore


def tick_leaf(factory, ports, bb):
    leaf = factory("leaf", ports)
    return tick_root(leaf, bb)[0]


def select_leaf(store, probe):
    return functools.partial(SelectStrategy, store=store, device_id="valve",
                             registry=REGISTRY, probe=probe)


class TestDecisionLeaves:
    def test_select_leaf_writes_choice_and_succeeds(self):
        store = DataStore()
        probe = EpisodeProbe()
        bb = Blackboard()
        status = tick_leaf(select_leaf(store, probe),
                           {"strategy_id": Key("strategy_id")}, bb)
        assert status is S
        assert bb.get("strategy_id") == "low_torque"
        assert probe.selections == [("low_torque", 0.0)]

    def test_select_leaf_succeeds_even_on_sentinel(self):
        store = DataStore()
        store.record("valve", 1, 1, 0.1, 9.0)
        bb = Blackboard()
        status = tick_leaf(select_leaf(store, EpisodeProbe()),
                           {"strategy_id": Key("strategy_id")}, bb)
        assert status is S
        assert bb.get("strategy_id") == NO_STRATEGIES

    def test_viability_check(self):
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        assert tick_leaf(CheckStrategyViable,
                         {"strategy_id": Key("strategy_id")}, bb) is S
        bb.set("strategy_id", NO_STRATEGIES)
        assert tick_leaf(CheckStrategyViable,
                         {"strategy_id": Key("strategy_id")}, bb) is F

    @pytest.mark.parametrize("torque,expected", [
        (1.6, S), (1.5, S), (0.4, F)])
    def test_tightened_threshold_inclusive(self, torque, expected):
        bb = Blackboard()
        bb.set("current_torque", torque)
        bb.set("tightened_threshold", 1.5)
        status = tick_leaf(IsTightened,
                           {"torque": Key("current_torque"),
                            "threshold": Key("tightened_threshold")}, bb)
        assert status is expected
        assert bb.reason_cell == [None]

    def ports_for_angle(self):
        return {"angle": Key("effective_handle_angle"), "strategy": Key("strategy_id")}

    @pytest.mark.parametrize("angle,expected", [
        (math.pi, S), (math.pi / 2, S), (0.0, S), (math.pi + 1e-6, F), (-0.01, F)])
    def test_angle_window_inclusive_with_regrasp_reason(self, angle, expected):
        bb = Blackboard()
        bb.set("effective_handle_angle", angle)
        bb.set("strategy_id", "low_torque")
        status = tick_leaf(functools.partial(AngleWithinLimits, registry=BY_ID),
                           self.ports_for_angle(), bb)
        assert status is expected
        if expected is F:
            assert bb.reason_cell == [REGRASP]
        else:
            assert bb.reason_cell == [None]

    @pytest.mark.parametrize("torque,strategy,expected", [
        (0.49, "low_torque", S), (0.51, "low_torque", F), (4.0, "high_torque", S)])
    def test_torque_allowance_with_switch_reason(self, torque, strategy, expected):
        bb = Blackboard()
        bb.set("current_torque", torque)
        bb.set("strategy_id", strategy)
        status = tick_leaf(functools.partial(FTWithinLimits, registry=BY_ID),
                           {"torque": Key("current_torque"),
                            "strategy": Key("strategy_id")}, bb)
        assert status is expected
        if expected is F:
            assert bb.reason_cell == [STRATEGY_SWITCH]

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

    @pytest.mark.parametrize("label,value", [
        ("ft_limit", True), ("p_segment_failure", True),
        ("p_segment_failure", "x"), ("twist_rate", None), ("t_grasp", [4.0])])
    def test_field_types_checked(self, label, value):
        with pytest.raises(TypeError, match=f"^low_torque: {label} must be a number"):
            dataclasses.replace(LOW, **{label: value})

    def test_int_accepted_for_float_field(self):
        assert dataclasses.replace(LOW, t_approach=5, p_segment_failure=0).t_approach == 5

    def test_window_width_and_durations(self):
        s = spec("s", 1.0)
        assert s.segment_duration("approach") == 8.0
        assert s.segment_duration("grasp") == 4.0
        assert s.segment_duration("retract") == 4.0
