"""Benchmark harness: canonical tree wiring and experiment behavior."""

import dataclasses
import hashlib
import math
import random
import re

import pytest

from adaptbt import bench
from adaptbt.bench import (
    BEHAVIORS,
    BenchError,
    DEFAULT_DEVICES,
    DEFAULT_STRATEGIES,
    EpisodeProbe,
    EpisodeResult,
    EpisodeSettings,
    EXPERIMENTS,
    LEAF_PORTS,
    behavior_strategies,
    build_canonical_tree,
    canonical_tree_text,
    episode_leaf_registry,
    format_results_csv,
    make_config,
    run_episode,
    run_experiment,
    summarize,
    trial_rng,
)
from adaptbt.core import Blackboard, Condition, ConfigurationError, \
    NO_STRATEGIES, StatefulAction, iter_nodes, tick_root
from adaptbt.sim import World
from adaptbt.strategies import DataStore, EXEMPT_REASONS, GENUINE
from adaptbt.treedef import InstantiationError, instantiate, \
    parse_tree_definition, validate_switch_coverage

ALL_IDS = [s.id for s in DEFAULT_STRATEGIES]

SEED = 7


def genuine_count(result: EpisodeResult) -> int:
    return sum(1 for r in result.failure_reasons
               if r not in EXEMPT_REASONS and r != NO_STRATEGIES)


TWICE_COMPLETED_RETRY = """\
<TreeDocument main_tree="Main">
  <Leaf id="LookupPose">
    <Port name="strategy" direction="in" type="str"/>
    <Port name="angle" direction="out" type="float"/>
  </Leaf>
  <Leaf id="Approach"><Port name="strategy" direction="in" type="str"/></Leaf>
  <Leaf id="Grasp"><Port name="strategy" direction="in" type="str"/></Leaf>
  <Leaf id="ManipulateTarget">
    <Port name="strategy" direction="in" type="str"/>
    <Port name="target_angle" direction="in" type="float"/>
    <Port name="progress" direction="inout" type="float"/>
    <Port name="torque" direction="out" type="float"/>
    <Port name="angle" direction="out" type="float"/>
  </Leaf>
  <Tree id="Main">
    <ReactiveSequence name="hold_the_grasp">
      <RetryUntilSuccessful name="grasp_loop" num_attempts="2">
        <Sequence>
          <LookupPose strategy="low_torque" angle="{angle}"/>
          <Fallback>
            <Grasp strategy="low_torque"/>
            <ForceFailure><Approach strategy="low_torque"/></ForceFailure>
          </Fallback>
        </Sequence>
      </RetryUntilSuccessful>
      <ManipulateTarget strategy="low_torque" target_angle="{target_angle}"
                        progress="{twist_progress}" torque="{torque}" angle="{angle}"/>
    </ReactiveSequence>
  </Tree>
</TreeDocument>
"""


class TestCanonicalTree:
    def test_text_parses_clean(self):
        result = parse_tree_definition(canonical_tree_text(ALL_IDS))
        assert result.ok
        assert result.diagnostics == []

    def test_switch_coverage_clean(self):
        doc = build_canonical_tree(ALL_IDS)
        assert validate_switch_coverage(doc, set(ALL_IDS)) == []

    def test_single_strategy_variant_covers_itself(self):
        doc = build_canonical_tree(["low_torque"])
        assert validate_switch_coverage(doc, {"low_torque"}) == []

    def test_case_per_strategy_plus_sentinel(self):
        text = canonical_tree_text(ALL_IDS)
        assert text.count("<Case ") == len(ALL_IDS) + 1
        assert f'value="{NO_STRATEGIES}"' in text

    def test_ids_with_markup_characters_round_trip(self):
        ids = ["a&b", "x&amp;y", "<q>", 'say "hi"', "it's \"both\""]
        doc = build_canonical_tree(ids)
        attempt = doc.trees["Main"].children[0].children[0]
        [switch] = [el for el in attempt.children if el.tag == "SwitchStatement"]
        assert [case.attrs["value"] for case in switch.children] == \
            ids + [NO_STRATEGIES]
        assert [case.children[0].attrs["strategy"]
                for case in switch.children[:-1]] == ids

    # the whole text, Leaf section included: trace lines hold node names only
    @pytest.mark.parametrize("ids,length,digest", [
        (ALL_IDS, 3787,
         "5541c7f3b1557f584ab3bead98666ffbcbda3bc517884915bca873aa1cb267bb"),
        (["a&b<c>", 'say "hi"', "it's", "tab\tnew\nline"], 4397,
         "83ce878e94ecbbe102968652c357fe839c7d0acf2be6caa02dfe5ecae2fa3033"),
    ])
    def test_text_is_pinned(self, ids, length, digest):
        text = canonical_tree_text(ids)
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == \
            (length, digest)

    def test_leaf_section_is_the_class_tables(self):
        doc = build_canonical_tree(ALL_IDS)
        assert doc.declared_leaves == LEAF_PORTS
        registry = episode_leaf_registry(World(DEFAULT_DEVICES["testA"]),
                                         DataStore(), DEFAULT_STRATEGIES,
                                         EpisodeProbe(), trial=1)
        # each id builds a node of the class whose table it declares
        for leaf_id, ports in LEAF_PORTS.items():
            assert type(registry.build(leaf_id, leaf_id, {})).PORTS is ports

    def test_round_trip_survives_reserialization(self):
        from adaptbt.treedef import serialize, structurally_equal
        doc = build_canonical_tree(ALL_IDS)
        again = parse_tree_definition(serialize(doc))
        assert again.ok
        assert structurally_equal(doc, again.document)

    def test_first_tick_has_no_diagnostics(self):
        doc = build_canonical_tree(ALL_IDS)
        world = World(DEFAULT_DEVICES["testA"], rng=random.Random(0))
        store = DataStore()
        probe = EpisodeProbe()
        registry = episode_leaf_registry(world, store, DEFAULT_STRATEGIES,
                                         probe, trial=1)
        bb = Blackboard()
        bb.set("num_attempts", 5)
        bb.set("target_angle", 1.0)
        bb.set("tightened_threshold", math.inf)
        bb.set("twist_progress", 0.0)
        tree = instantiate(doc, registry, bb)
        for _ in range(3):
            _, trace = tick_root(tree, bb)
            assert trace.diagnostics == []

    def test_episode_leaves_are_subclasses(self):
        world = World(DEFAULT_DEVICES["testA"], rng=random.Random(0))
        registry = episode_leaf_registry(world, DataStore(), DEFAULT_STRATEGIES,
                                         EpisodeProbe(), trial=1)
        tree = instantiate(build_canonical_tree(ALL_IDS), registry, Blackboard())
        kinds = {type(node) for node in iter_nodes(tree)}
        assert not kinds & {Condition, StatefulAction}


class TestBehaviorRestriction:
    def test_adaptive_keeps_everything(self):
        assert behavior_strategies("adaptive") == DEFAULT_STRATEGIES

    @pytest.mark.parametrize("behavior", ["low", "high"])
    def test_single_strategy_behaviors(self, behavior):
        picked = behavior_strategies(behavior)
        assert [s.id for s in picked] == [f"{behavior}_torque"]

    def test_missing_strategy_rejected(self):
        with pytest.raises(BenchError):
            behavior_strategies("low", [s for s in DEFAULT_STRATEGIES
                                        if s.id != "low_torque"])

    def test_repeated_id_in_code_is_named(self):
        low = DEFAULT_STRATEGIES[0]
        strategies = [low, dataclasses.replace(low, ft_limit=9.0)]
        with pytest.raises(BenchError, match="^strategies repeat the id 'low_torque'$"):
            run_experiment(make_config("C", "adaptive", SEED, trials=1),
                           strategies=strategies)
        store = DataStore()
        ticks = []
        with pytest.raises(BenchError, match="^strategies repeat the id 'low_torque'$"):
            run_episode(DEFAULT_DEVICES["stiff"], strategies, store,
                        trial_rng(SEED, 0), trial=1, target_angle=math.pi / 2,
                        num_attempts=5, document=build_canonical_tree(["low_torque"]),
                        on_tick=lambda *args: ticks.append(args))
        assert ticks == [] and len(store) == 0

    @pytest.mark.parametrize("behavior", ["low", "high"])
    def test_runs_never_select_other_strategies(self, behavior):
        cfg = make_config("A", behavior, SEED, trials=2)
        results, _ = run_experiment(cfg)
        wanted = f"{behavior}_torque"
        for result in results:
            assert set(result.strategy_sequence) <= {wanted}


class TestConfig:
    def test_experiment_defaults(self):
        cfg = make_config("B", "adaptive", SEED)
        assert cfg.devices == ("testB",)
        assert math.isinf(cfg.target_angle)
        assert cfg.trials == 10
        assert cfg.store_policy == "reset"
        cfg = make_config("C", "adaptive", SEED)
        assert cfg.devices == ("normal", "stiff")
        assert cfg.store_policy == "retain"
        assert cfg.trials == 2

    def test_overrides(self):
        cfg = make_config("A", "low", SEED, trials=3, margin=0.2)
        assert cfg.trials == 3
        assert cfg.margin == 0.2

    @pytest.mark.parametrize("kwargs", [
        dict(experiment="D", behavior="low"),
        dict(experiment="A", behavior="medium"),
        dict(experiment="A", behavior="low", trials=0),
        dict(experiment="A", behavior="low", store_policy="append"),
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(BenchError):
            make_config(seed=SEED, **kwargs)

    @pytest.mark.parametrize("field, value", [
        ("dt", 0.0), ("dt", -0.1), ("dt", math.inf), ("dt", math.nan),
        ("margin", math.nan), ("margin", math.inf), ("margin", -math.inf),
        ("target_angle", math.nan), ("max_ticks", 0), ("devices", ()),
        ("devices", ("stiff", "stiff")),
    ])
    def test_bad_numbers_rejected_naming_field(self, field, value):
        with pytest.raises(BenchError, match=field):
            make_config("A", "adaptive", SEED, **{field: value})

    # each field's type is checked where the record is built, not at the
    # first tick that reads it
    @pytest.mark.parametrize("field, value, kind", [
        ("num_attempts", 2.5, "an int"), ("num_attempts", True, "an int"),
        ("max_ticks", 2.5, "an int"), ("dt", "0.1", "a number"),
        ("margin", False, "a number"),
    ])
    def test_mistyped_setting_rejected_naming_it(self, field, value, kind):
        message = f"^{field} must be {kind}, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=message):
            EpisodeSettings(**{field: value})
        with pytest.raises(TypeError, match=message):
            make_config("A", "low", SEED, trials=1, **{field: value})

    @pytest.mark.parametrize("field, value, kind", [
        ("trials", 1.0, "an int"), ("store_policy", 1, "a string"),
    ])
    def test_mistyped_config_field_rejected_naming_it(self, field, value, kind):
        with pytest.raises(TypeError, match=f"^{field} must be {kind}, got {value!r}$"):
            make_config("A", "low", SEED, **{field: value})

    def test_unknown_device_rejected(self):
        cfg = make_config("A", "low", SEED, devices=("ghost",), trials=1)
        with pytest.raises(BenchError, match="ghost"):
            run_experiment(cfg)


class TestEpisodes:
    def test_free_valve_episode_succeeds(self):
        store = DataStore()
        result = run_episode(DEFAULT_DEVICES["testA"], DEFAULT_STRATEGIES,
                             store, trial_rng(SEED, 0), trial=1,
                             target_angle=7.0, num_attempts=5)
        assert result.success
        assert result.device_id == "testA"
        assert result.strategy_sequence == ("low_torque",)
        assert len(store) > 0
        # twisting 7 rad through a half-turn window forces two regrasps
        assert result.failure_reasons.count("regrasp") == 2
        assert result.attempts_consumed == 1

    def test_probe_reports_selection_torques(self):
        store = DataStore()
        probe = EpisodeProbe()
        run_episode(DEFAULT_DEVICES["testB"], DEFAULT_STRATEGIES, store,
                    trial_rng(SEED, 0), trial=1, target_angle=math.inf,
                    num_attempts=5, probe=probe)
        ids = [sid for sid, _ in probe.selections]
        assert ids[0] == "low_torque"
        assert "high_torque" in ids
        at_switch = next(m for sid, m in probe.selections
                         if sid == "high_torque")
        assert at_switch > 0.5

    def test_episode_time_is_whole_ticks(self):
        store = DataStore()
        result = run_episode(DEFAULT_DEVICES["normal"], DEFAULT_STRATEGIES,
                             store, trial_rng(SEED, 0), trial=1,
                             target_angle=math.pi / 2, num_attempts=5)
        assert result.success
        ticks = round(result.sim_time / 0.1)
        assert result.sim_time == ticks * 0.1
        assert ticks > 100

    def test_tick_budget_enforced(self):
        store = DataStore()
        with pytest.raises(BenchError, match="exceeded"):
            run_episode(DEFAULT_DEVICES["testA"], DEFAULT_STRATEGIES, store,
                        trial_rng(SEED, 0), trial=1, target_angle=7.0,
                        num_attempts=5, max_ticks=50)

    def test_too_deep_document_is_refused_before_the_first_tick(self):
        # 99 one-level trees, each a SubTree of the next, then a leaf: the
        # chain parses at the depth limit. Pointing its last tree back at
        # the first after parsing makes it endless.
        trees = "".join(f'<Tree id="T{i}"><SubTree id="T{i + 1}"/></Tree>'
                        for i in range(99))
        document = parse_tree_definition(
            f'<TreeDocument main_tree="T0">{trees}'
            '<Tree id="T99"><AlwaysSuccess/></Tree></TreeDocument>').document
        document.trees["T99"] = document.trees["T0"]
        store = DataStore()
        with pytest.raises(InstantiationError, match="tree-depth"):
            run_episode(DEFAULT_DEVICES["testA"], DEFAULT_STRATEGIES, store,
                        trial_rng(SEED, 0), trial=1, target_angle=7.0,
                        num_attempts=5, document=document)
        assert len(store) == 0

    def test_unbound_read_is_a_failure_reason(self):
        # the first SubTree remaps target_angle to a key nothing writes
        text = canonical_tree_text(ALL_IDS).replace(
            'target_angle="{target_angle}"', 'target_angle="{nosuch}"', 1)
        result = run_episode(DEFAULT_DEVICES["testA"], DEFAULT_STRATEGIES,
                             DataStore(), trial_rng(SEED, 0), trial=1,
                             target_angle=7.0, num_attempts=2,
                             document=parse_tree_definition(text).document)
        assert "unbound:nosuch" in result.failure_reasons

    @pytest.mark.parametrize("leaf", ["LookupPose", "Approach",
                                      "AngleWithinLimits", "FTWithinLimits",
                                      "ManipulateTarget"])
    def test_strategy_naming_no_spec_is_a_configuration_error(self, leaf):
        text, count = re.subn(rf'(<{leaf} [^>]*)strategy="{{strategy}}"',
                              r'\1strategy="nope"', canonical_tree_text(ALL_IDS))
        assert count == 1
        with pytest.raises(ConfigurationError) as info:
            run_episode(DEFAULT_DEVICES["testA"], DEFAULT_STRATEGIES,
                        DataStore(), trial_rng(SEED, 0), trial=1,
                        target_angle=7.0, num_attempts=5,
                        document=parse_tree_definition(text).document)
        assert str(info.value) == \
            f"{leaf}: port 'strategy' names no known strategy, got 'nope'"

    def test_reading_the_old_reason_key_is_unbound(self):
        # no blackboard key carries the failure reason: a port bound to the
        # old key's name reads nothing, and says so in the reasons
        text = canonical_tree_text(ALL_IDS).replace(
            'target_angle="{target_angle}"', 'target_angle="{last_failure_reason}"', 1)
        result = run_episode(DEFAULT_DEVICES["testA"], DEFAULT_STRATEGIES,
                             DataStore(), trial_rng(SEED, 0), trial=1,
                             target_angle=7.0, num_attempts=2,
                             document=parse_tree_definition(text).document)
        assert "unbound:last_failure_reason" in result.failure_reasons

    def test_attempt_accounting_invariant(self):
        # consumed attempts = genuine failures + 1, capped at the budget
        cfg = make_config("B", "high", SEED, trials=6)
        results, _ = run_experiment(cfg)
        for result in results:
            assert result.attempts_consumed == min(
                cfg.num_attempts, genuine_count(result) + 1)

    def test_retry_completing_twice_reports_every_charged_attempt(self):
        # the reactive sequence re-ticks the grasp loop while the twist
        # runs: the loop succeeds after one charged failure (no pose
        # approached yet), then, held, fails twice more and gives up
        text = TWICE_COMPLETED_RETRY
        low = dataclasses.replace(DEFAULT_STRATEGIES[0], p_segment_failure=0.0)
        result = run_episode(DEFAULT_DEVICES["testA"], [low], DataStore(),
                             trial_rng(SEED, 0), trial=1, target_angle=7.0,
                             num_attempts=5,
                             document=parse_tree_definition(text).document)
        assert not result.success
        assert result.failure_reasons == (GENUINE,) * 3
        assert result.attempts_consumed == 3

    def test_exempt_reasons_do_not_consume_attempts(self):
        cfg = make_config("A", "low", SEED, trials=4)
        results, _ = run_experiment(cfg)
        for result in results:
            exempt = [r for r in result.failure_reasons
                      if r in EXEMPT_REASONS]
            assert len(exempt) >= 2  # regrasps are unavoidable here
            assert result.attempts_consumed == genuine_count(result) + 1


class TestExperimentB:
    def test_low_only_always_fails_without_strategies(self):
        cfg = make_config("B", "low", SEED)
        results, _ = run_experiment(cfg)
        assert len(results) == 10
        for result in results:
            assert not result.success
            assert result.failure_reasons[-1] == NO_STRATEGIES
            assert result.strategy_sequence == ("low_torque",)

    def test_adaptive_switches_and_wins(self):
        cfg = make_config("B", "adaptive", SEED, trials=4)
        results, _ = run_experiment(cfg)
        for result in results:
            assert result.success
            assert result.strategy_sequence[0] == "low_torque"
            assert result.strategy_sequence[-1] == "high_torque"

    def test_adaptive_beats_high_only(self):
        fastest = {}
        for behavior in ("adaptive", "high"):
            cfg = make_config("B", behavior, SEED, trials=4)
            results, _ = run_experiment(cfg)
            assert all(r.success for r in results)
            fastest[behavior] = min(r.sim_time for r in results)
        assert fastest["adaptive"] < fastest["high"]

    def test_adaptive_dominates_high_per_trial(self):
        # adaptive must win every trial high wins, and be faster overall
        adaptive, _ = run_experiment(make_config("B", "adaptive", SEED))
        high, _ = run_experiment(make_config("B", "high", SEED))
        for a_row, h_row in zip(adaptive, high):
            if h_row.success:
                assert a_row.success
        median = lambda xs: sorted(xs)[len(xs) // 2]
        assert median([r.sim_time for r in adaptive]) < \
            median([r.sim_time for r in high])


class TestExperimentC:
    def test_retained_store_transfers_experience(self):
        cfg = make_config("C", "adaptive", SEED)
        results, store = run_experiment(cfg)
        by_key = {(r.device_id, r.trial): r for r in results}
        assert all(r.success for r in results)
        # easy valve never needs the slow strategy
        assert by_key[("normal", 1)].strategy_sequence == ("low_torque",)
        assert by_key[("normal", 2)].strategy_sequence == ("low_torque",)
        # stiff valve discovers the switch once, then starts high
        assert by_key[("stiff", 1)].strategy_sequence == \
            ("low_torque", "high_torque")
        assert by_key[("stiff", 2)].strategy_sequence == ("high_torque",)
        assert store.max_torque("stiff") > 0.5

    def test_second_trial_matches_high_only_exactly(self):
        adaptive, _ = run_experiment(make_config("C", "adaptive", SEED))
        high, _ = run_experiment(make_config("C", "high", SEED))
        pick = lambda rows: next(r for r in rows
                                 if r.device_id == "stiff" and r.trial == 2)
        assert pick(adaptive).sim_time == pick(high).sim_time
        assert pick(adaptive).attempts_consumed == pick(high).attempts_consumed

    def test_low_only_aborts_second_stiff_trial_immediately(self):
        results, store = run_experiment(make_config("C", "low", SEED))
        second = next(r for r in results
                      if r.device_id == "stiff" and r.trial == 2)
        assert not second.success
        assert second.sim_time < 5.0
        assert second.strategy_sequence == ()
        assert second.failure_reasons == (NO_STRATEGIES,)

    def test_store_isolation_between_devices(self):
        _, store = run_experiment(make_config("C", "low", SEED))
        assert store.max_torque("normal") < 0.5
        assert store.max_torque("stiff") > 0.5


class TestDeterminism:
    def test_replay_is_byte_identical(self):
        texts = []
        for _ in range(2):
            results, _ = run_experiment(make_config("C", "adaptive", SEED))
            texts.append(format_results_csv(results))
        assert texts[0] == texts[1]

    def test_trial_streams_are_independent(self):
        a = trial_rng(SEED, 0)
        b = trial_rng(SEED, 1)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_different_seeds_change_draws(self):
        a = trial_rng(3, 0)
        b = trial_rng(4, 0)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    @pytest.mark.parametrize("behavior", BEHAVIORS)
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_recording_the_trace_changes_nothing(self, monkeypatch, experiment,
                                                 behavior):
        # run_episode records a trace only for an on_tick: each episode of
        # the suite must end alike with and without one, store included
        original = bench.run_episode
        traced_entries = []

        def on_tick(tick, sim_time, status, trace):
            traced_entries.append(len(trace))

        runs = []
        for callback in (None, on_tick):
            episodes = []

            def episode(device, strategies, store, *args, **kwargs):
                result = original(device, strategies, store, *args,
                                  on_tick=callback, **kwargs)
                episodes.append((result, list(store.records)))
                return result

            monkeypatch.setattr(bench, "run_episode", episode)
            run_experiment(make_config(experiment, behavior, SEED))
            runs.append(episodes)
        untraced, traced = runs
        assert untraced == traced
        assert traced_entries and min(traced_entries) > 0


class TestReporting:
    RESULTS = [
        EpisodeResult(1, "d", True, 1, 25.84, ("low_torque",), ()),
        EpisodeResult(2, "d", False, 5, 100.0,
                      ("low_torque", "high_torque"),
                      ("regrasp", GENUINE, NO_STRATEGIES)),
    ]

    def test_csv_layout(self):
        text = format_results_csv(self.RESULTS)
        lines = text.splitlines()
        assert lines[0] == "trial,success,attempts,sim_time,strategies,reasons"
        assert lines[1] == "1,true,1,25.8,low_torque,"
        assert lines[2] == ("2,false,5,100.0,low_torque;high_torque,"
                            "regrasp;genuine;no_strategies")
        assert text.endswith("\n")

    def test_summary_marks_failures(self):
        cfg = make_config("A", "low", SEED, trials=1)
        text = summarize(self.RESULTS, cfg)
        assert "FAIL" in text
        assert "1/2 trials succeeded" in text
        assert "25.8" in text

    def test_summary_flags_fastest_of_all_failures(self):
        cfg = make_config("A", "low", SEED, trials=1)
        only_fail = [r for r in self.RESULTS if not r.success]
        text = summarize(only_fail, cfg)
        assert "(Fail)" in text


class TestProbe:
    def test_sequence_dedups_consecutive_picks(self):
        probe = EpisodeProbe()
        for sid in ["a", "a", NO_STRATEGIES, "b", "b", "a"]:
            probe.on_select(sid, 0.0)
        assert probe.strategy_sequence() == ("a", "b", "a")
        assert probe.attempt == 6
