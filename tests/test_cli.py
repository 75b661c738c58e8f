"""Command line behavior: subcommands, exit codes, file outputs."""

import hashlib
import json
import math

import pytest

from adaptbt.bench import DEFAULT_DEVICES, DEFAULT_STRATEGIES, \
    build_canonical_tree, canonical_tree_text, run_episode, trial_rng
from adaptbt.cli import (
    ConfigError,
    devices_from_config,
    load_config,
    main,
    strategies_from_config,
)
from adaptbt.strategies import DataStore

ALL_IDS = [s.id for s in DEFAULT_STRATEGIES]


@pytest.fixture
def canonical_file(tmp_path):
    path = tmp_path / "canonical.xml"
    path.write_text(canonical_tree_text(ALL_IDS))
    return path


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestRun:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        store = tmp_path / "store.csv"
        code = main(["run", "--experiment", "B", "--behavior", "adaptive",
                     "--seed", "7", "--trials", "2",
                     "--out", str(out), "--data-store", str(store)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,success,attempts,sim_time,strategies,reasons"
        assert len(lines) == 3
        assert all(",true," in line for line in lines[1:])
        assert store.read_text().startswith(
            "device_id,trial,attempt,sim_time,torque,force")
        stdout = capsys.readouterr().out
        assert "successes by attempt" in stdout
        assert "fastest time" in stdout

    def test_all_trials_failing_exits_one(self, capsys):
        code = main(["run", "--experiment", "B", "--behavior", "low",
                     "--seed", "7", "--trials", "2"])
        assert code == 1
        assert "0/2 trials succeeded" in capsys.readouterr().out

    def test_flag_beats_config(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trials": 5, "seed": 11})
        code = main(["run", "--experiment", "B", "--behavior", "adaptive",
                     "--trials", "1", "--config", str(config)])
        assert code == 0
        assert "trial 2" not in capsys.readouterr().out

    def test_config_supplies_seed_and_trials(self, tmp_path, capsys):
        config = write_config(tmp_path, {"trials": 2, "seed": 11})
        code = main(["run", "--experiment", "A", "--behavior", "low",
                     "--config", str(config)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed 11" in stdout
        assert "trial 2" in stdout

    def test_config_device_override_changes_outcome(self, tmp_path, capsys):
        # a soft testB stays under the low-torque limit, so low succeeds
        config = write_config(tmp_path, {
            "devices": {"testB": {"stiffness": 0.05, "joint_limit": 0.8,
                                  "tightened_threshold": 0.1}}})
        code = main(["run", "--experiment", "B", "--behavior", "low",
                     "--seed", "7", "--trials", "1", "--config", str(config)])
        assert code == 0
        assert "1/1 trials succeeded" in capsys.readouterr().out

    def test_broken_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = main(["run", "--experiment", "A", "--behavior", "low",
                     "--config", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--experiment", "A", "--behavior", "low",
                  "--bogus"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestValidate:
    def test_canonical_tree_is_clean(self, canonical_file, capsys):
        code = main(["validate", "--tree", str(canonical_file)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_sentinel_case_fails(self, tmp_path, capsys):
        text = canonical_tree_text(ALL_IDS)
        start = text.index('          <Case value="no_strategies">')
        end = text.index("</Case>", start) + len("</Case>\n")
        broken = tmp_path / "broken.xml"
        broken.write_text(text[:start] + text[end:])
        code = main(["validate", "--tree", str(broken)])
        assert code == 2
        stdout = capsys.readouterr().out
        coverage_lines = [line for line in stdout.splitlines()
                          if ":switch-coverage:" in line]
        assert len(coverage_lines) == 1
        assert "no_strategies" in coverage_lines[0]

    def test_syntax_error_reported_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<TreeDocument main_tree='Main'>\n  <oops\n")
        code = main(["validate", "--tree", str(bad)])
        assert code == 2
        stdout = capsys.readouterr().out
        assert any(line.startswith("error:") for line in stdout.splitlines())

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        code = main(["validate", "--tree", str(tmp_path / "absent.xml")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_finite_subtree_seed_fails(self, tmp_path, capsys):
        text = canonical_tree_text(ALL_IDS)
        seed = 'current_torque="0.0"'
        line = text[:text.index(seed)].count("\n") + 1
        tree = tmp_path / "nan.xml"
        tree.write_text(text.replace(seed, 'current_torque="nan"', 1))
        assert main(["validate", "--tree", str(tree)]) == 2
        assert capsys.readouterr().out.startswith(f"error:{line}:")
        assert main(["tick", "--tree", str(tree), "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"cannot instantiate tree: line {line}: SubTree seed 'current_torque'")
        assert "episode:" not in captured.out


class TestTick:
    def test_episode_dump_and_store(self, canonical_file, tmp_path, capsys):
        config = write_config(tmp_path, {
            "device": "normal", "target_angle": 1.5707963, "seed": 3})
        store = tmp_path / "store.csv"
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config), "--data-store", str(store)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "[    0 t=    0.0s]" in stdout
        assert "SelectStrategy=S" in stdout
        assert "episode: SUCCESS" in stdout
        assert store.exists()

    def test_failure_exits_one(self, canonical_file, tmp_path, capsys):
        # a valve too stiff for every strategy ends in the sentinel exit
        config = write_config(tmp_path, {
            "device": "granite", "seed": 3, "num_attempts": 2,
            "devices": {"granite": {"stiffness": 50.0}}})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config)])
        assert code == 1
        assert "episode: FAILURE" in capsys.readouterr().out

    def test_unknown_device_exits_two(self, canonical_file, tmp_path, capsys):
        config = write_config(tmp_path, {"device": "ghost"})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config)])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_unregistered_leaf_exits_two(self, tmp_path, capsys):
        tree = tmp_path / "custom.xml"
        tree.write_text(
            '<TreeDocument main_tree="Main">\n'
            '  <Leaf id="Mystery"/>\n'
            '  <Tree id="Main">\n'
            '    <Mystery/>\n'
            '  </Tree>\n'
            '</TreeDocument>\n')
        code = main(["tick", "--tree", str(tree)])
        assert code == 2
        assert "Mystery" in capsys.readouterr().err

    def test_store_round_trip_across_trials(self, canonical_file, tmp_path,
                                            capsys):
        store = tmp_path / "store.csv"
        first = write_config(tmp_path, {
            "device": "stiff", "target_angle": 1.5707963, "seed": 5,
            "trial": 1}, "first.json")
        second = write_config(tmp_path, {
            "device": "stiff", "target_angle": 1.5707963, "seed": 5,
            "trial": 2}, "second.json")
        assert main(["tick", "--tree", str(canonical_file),
                     "--config", str(first),
                     "--data-store", str(store)]) in (0, 1)
        capsys.readouterr()
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(second), "--data-store", str(store)])
        stdout = capsys.readouterr().out
        assert code == 0
        # trial 1 stored torque above the low limit, so trial 2 starts high
        first_selection = next(line for line in stdout.splitlines()
                               if "SelectStrategy=S" in line)
        assert "high_torque_run" in first_selection

    @pytest.mark.parametrize("seed,device", [(3, "normal"), (5, "stiff")])
    def test_matches_run_episode(self, canonical_file, tmp_path, capsys,
                                 seed, device):
        config = write_config(tmp_path, {"device": device})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config), "--seed", str(seed)])
        lines = capsys.readouterr().out.splitlines()
        store = DataStore()
        reference = run_episode(
            DEFAULT_DEVICES[device], list(DEFAULT_STRATEGIES), store,
            trial_rng(seed, 0), 1, math.pi / 2, 5,
            document=build_canonical_tree(ALL_IDS))
        outcome = "SUCCESS" if reference.success else "FAILURE"
        assert code == (0 if reference.success else 1)
        assert lines[-1] == (
            f"episode: {outcome} in {reference.sim_time:.1f} s, "
            f"attempts {reference.attempts_consumed}, records {len(store)}")
        tick_lines = [line for line in lines if line.startswith("[")
                      and "] diagnostic:" not in line]
        assert len(tick_lines) == round(reference.sim_time / 0.1)

    # sha256 of the whole stdout of `tick --seed S` on the canonical tree.
    # testB runs with experiment B's target, so it reaches the joint limit.
    @pytest.mark.parametrize("seed,device,extra,digest", [
        (3, "normal", {}, "0066af1df593959b92c9bb87ba7711613f561697f1d1ba7cab2f441232b2e748"),
        (3, "stiff", {}, "b8fd4abf7c74443a7e32661cc0db10335575530dddfeb5c199e2b5198c3b24fb"),
        (3, "testB", {"target_angle": math.inf},
         "89e87e833155be9d4c9b429613aa8e316e19ee36c308652096606d9395afe173"),
        (5, "normal", {}, "0994b4f67ccc8969802252a9cc4ac8ffdd544f4731fa6336934d410deb21ac15"),
        (5, "stiff", {}, "660660a5f326cb49bb9832876480c6bcd4d8676a6c70cfbfdac64f552f136a14"),
        (5, "testB", {"target_angle": math.inf},
         "0323e43c43348dc88e41de7ef17607c02291554b69aeaabff672669f907deff1"),
    ])
    def test_trace_output_is_pinned(self, canonical_file, tmp_path, capsys,
                                    seed, device, extra, digest):
        config = write_config(tmp_path, {"device": device, **extra})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config), "--seed", str(seed)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_tree_without_retry_reports_one_attempt(self, tmp_path, capsys):
        tree = tmp_path / "one.xml"
        tree.write_text(
            '<TreeDocument main_tree="Main">\n'
            '  <Tree id="Main">\n'
            '    <AlwaysSuccess/>\n'
            '  </Tree>\n'
            '</TreeDocument>\n')
        code = main(["tick", "--tree", str(tree)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "episode: SUCCESS in 0.1 s, attempts 1, records 0"

    def test_tick_budget_exhausted(self, canonical_file, tmp_path, capsys):
        config = write_config(tmp_path, {"max_ticks": 5, "device": "normal"})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config)])
        assert code == 1
        captured = capsys.readouterr()
        assert "stopped: no terminal status within 5 ticks" in captured.err
        assert "episode:" not in captured.out
        code = main(["run", "--experiment", "C", "--behavior", "adaptive",
                     "--config", str(config)])
        assert code == 2
        assert "episode exceeded 5 ticks" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,key", [
        ({"device": ["stiff"]}, "device"),
        ({"blackboard": {"x": [1]}}, "'x'"),
        ({"blackboard": {"x": None}}, "'x'"),
        ({"blackboard": {"x": {"y": 1}}}, "'x'"),
    ])
    def test_bad_config_values_exit_two(self, canonical_file, tmp_path,
                                        capsys, payload, key):
        config = write_config(tmp_path, payload)
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key in err


class TestConfigValues:
    @pytest.mark.parametrize("command,payload,key", [
        ("run", {"margin": math.nan}, "margin"),
        ("run", {"dt": math.inf}, "dt"),
        ("run", {"dt": math.nan}, "dt"),
        ("run", {"target_angle": math.nan}, "target_angle"),
        ("run", {"run_devices": []}, "run_devices"),
        ("run", {"run_devices": [1]}, "run_devices"),
        ("run", {"dt": 10 ** 400}, "dt"),
        ("tick", {"margin": math.nan}, "margin"),
        ("tick", {"dt": math.inf}, "dt"),
        ("tick", {"margin": -math.inf}, "margin"),
    ])
    def test_non_finite_or_empty_value_exits_two(self, canonical_file, tmp_path,
                                                 capsys, command, payload, key):
        config = write_config(tmp_path, payload)
        if command == "run":
            argv = ["run", "--experiment", "C", "--behavior", "adaptive"]
        else:
            argv = ["tick", "--tree", str(canonical_file)]
        code = main(argv + ["--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config {key} ")

    def test_infinite_target_angle_accepted(self, tmp_path, capsys):
        config = write_config(tmp_path, {"target_angle": math.inf})
        code = main(["run", "--experiment", "B", "--behavior", "adaptive",
                     "--trials", "1", "--config", str(config)])
        assert code in (0, 1)
        assert capsys.readouterr().err == ""


class TestConfigHelpers:
    def test_missing_path_is_empty(self):
        assert load_config(None) == {}

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_strategy_list_replaces_defaults(self):
        config = {"strategies": [
            {"id": "only", "ft_limit": 1.0, "angle_min": 0.0,
             "angle_max": 3.2, "twist_rate": 0.1, "t_approach": 1.0,
             "t_grasp": 1.0, "t_retract": 1.0, "p_segment_failure": 0.0}]}
        specs = strategies_from_config(config)
        assert [s.id for s in specs] == ["only"]

    @pytest.mark.parametrize("payload", [
        {"strategies": []},
        {"strategies": [{"ft_limit": 1.0}]},
        {"strategies": [{"id": "x", "nope": 1}]},
    ])
    def test_bad_strategies_rejected(self, payload):
        with pytest.raises(ConfigError):
            strategies_from_config(payload)

    def test_device_overlay_keeps_unlisted_fields(self):
        devices = devices_from_config(
            {"devices": {"stiff": {"stiffness": 0.9}}})
        assert devices["stiff"].stiffness == 0.9
        assert devices["stiff"].damping == 0.1
        assert devices["normal"].stiffness == 0.25

    def test_new_device_from_scratch(self):
        devices = devices_from_config(
            {"devices": {"fresh": {"symmetry_order": 4}}})
        assert devices["fresh"].id == "fresh"
        assert devices["fresh"].symmetry_order == 4

    def test_bad_device_field_rejected(self):
        with pytest.raises(ConfigError, match="stiff"):
            devices_from_config({"devices": {"stiff": {"nope": 1}}})
