"""Command line behavior: subcommands, exit codes, file outputs."""

import dataclasses
import hashlib
import io
import json
import math
import re

import pytest

from adaptbt.bench import DEFAULT_DEVICES, DEFAULT_STRATEGIES, \
    build_canonical_tree, canonical_tree_text, run_episode, trial_rng
from adaptbt.cli import (
    ConfigError,
    devices_from_config,
    load_config,
    main,
    strategies_from_config,
    trace_writer,
)
from adaptbt.core import NodeStatus, TickTrace
from adaptbt.strategies import DataStore, FTRecord, load, open_store, persist
from adaptbt.treedef import MAX_TREE_DEPTH, parse_tree_definition
from conftest import fail_writes_after

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

    @pytest.mark.parametrize("flag", ["--out", "--data-store"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_bad_output_path_fails_before_the_suite(self, tmp_path, capsys,
                                                    monkeypatch, flag, where):
        path = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        monkeypatch.setattr("adaptbt.cli.run_experiment", None)  # never reached
        code = main(["run", "--experiment", "A", "--behavior", "low",
                     flag, str(path)])
        assert code == 2
        captured = capsys.readouterr()
        reason = ("No such file or directory" if where == "missing_dir"
                  else "Is a directory")
        assert captured.err == f"error: {path}: {reason}\n"
        assert captured.out == ""

    def test_store_gets_its_summary(self, tmp_path, capsys):
        store = tmp_path / "store.csv"
        assert main(["run", "--experiment", "C", "--behavior", "adaptive",
                     "--seed", "7", "--trials", "1",
                     "--data-store", str(store)]) == 0
        capsys.readouterr()
        opened = open_store(store, "stiff", 2)
        assert type(opened) is not DataStore
        assert len(opened) == len(load(store))

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

    def test_run_devices_picks_the_suite_devices(self, tmp_path, capsys):
        config = write_config(tmp_path, {"run_devices": ["stiff"]})
        code = main(["run", "--experiment", "C", "--behavior", "adaptive",
                     "--seed", "7", "--config", str(config)])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["stiff"] * 2 + ["stiff:"] * 3
        assert rows[-3] == "  stiff: 2/2 trials succeeded"

    # stiff's second trial needs two attempts at seed 7; the flag beats the
    # config's num_attempts
    @pytest.mark.parametrize("configured,attempts,row", [
        (5, "1", "  stiff trial 2: FAIL attempts=1 time=1.6s "
                 "strategies=high_torque reasons=genuine"),
        (1, "2", "  stiff trial 2: ok   attempts=2 time=85.5s "
                 "strategies=high_torque reasons=genuine"),
    ])
    def test_attempts_flag_sets_the_retry_limit(self, tmp_path, capsys,
                                                configured, attempts, row):
        config = write_config(tmp_path, {"run_devices": ["stiff"],
                                         "num_attempts": configured})
        code = main(["run", "--experiment", "C", "--behavior", "adaptive",
                     "--seed", "7", "--attempts", attempts,
                     "--config", str(config)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[2] == row

    def test_broken_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code = main(["run", "--experiment", "A", "--behavior", "low",
                     "--config", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sid", ["", "a{b", "{x}", "no_strategies",
                                     "1", "true", "nan"])
    def test_strategy_id_the_tree_cannot_carry_exits_two(self, tmp_path,
                                                         capsys, sid):
        specs = [dataclasses.asdict(s) for s in DEFAULT_STRATEGIES]
        config = write_config(tmp_path, {
            "strategies": [{**specs[0], "id": sid}, specs[1]]})
        code = main(["run", "--experiment", "C", "--behavior", "adaptive",
                     "--seed", "7", "--trials", "1", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad strategy entry: strategy id")
        assert repr(sid) in err

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

    def test_doctype_exits_two_naming_its_line(self, canonical_file, tmp_path,
                                               capsys):
        path = tmp_path / "doctype.xml"
        path.write_text('<?xml version="1.0"?>\n'
                        '<!DOCTYPE TreeDocument [<!ENTITY e "x">]>\n'
                        + canonical_file.read_text())
        code = main(["validate", "--tree", str(path)])
        assert code == 2
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith("error:2:1:doctype:")

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "absent.xml"
        code = main(["validate", "--tree", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["run", "validate", "tick"])
    def test_unreadable_config_exits_two(self, canonical_file, tmp_path, capsys,
                                         command):
        path = tmp_path / "absent.json"
        if command == "run":
            argv = ["run", "--experiment", "A", "--behavior", "low"]
        else:
            argv = [command, "--tree", str(canonical_file)]
        assert main(argv + ["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: No such file or directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["tree", "config"])
    def test_non_utf8_file_is_named(self, canonical_file, tmp_path, capsys,
                                    kind):
        bad = tmp_path / f"bad.{'xml' if kind == 'tree' else 'json'}"
        if kind == "tree":
            bad.write_bytes(b'<TreeDocument main_tree="M">\xff</TreeDocument>')
            argv = ["validate", "--tree", str(bad)]
        else:
            bad.write_bytes(b'{"seed": 1, "device": "\xff"}')
            argv = ["validate", "--tree", str(canonical_file), "--config", str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {bad}: line 1: 'utf-8' codec can't decode byte 0xff in position ")
        assert captured.out == ""

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("kind", ["tree", "config"])
    def test_non_utf8_byte_is_named_by_line(self, canonical_file, tmp_path,
                                            capsys, kind, ending):
        # a leading byte-order mark moves no line
        bad = tmp_path / f"bad.{'xml' if kind == 'tree' else 'json'}"
        if kind == "tree":
            lines = [b'<TreeDocument main_tree="M">', b'<Tree id="M">',
                     b"\xff</Tree>", b"</TreeDocument>"]
            argv = ["validate", "--tree", str(bad)]
        else:
            lines = [b"{", b'"seed": 1,', b'"device": "\xff"}']
            argv = ["validate", "--tree", str(canonical_file), "--config", str(bad)]
        bad.write_bytes(b"\xef\xbb\xbf" + ending.join(lines) + ending)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: line 3: 'utf-8' codec ")
        assert captured.out == ""

    def test_non_finite_subtree_seed_fails(self, tmp_path, capsys):
        text = canonical_tree_text(ALL_IDS)
        seed = 'current_torque="0.0"'
        line = text[:text.index(seed)].count("\n") + 1
        tree = tmp_path / "nan.xml"
        tree.write_text(text.replace(seed, 'current_torque="nan"', 1))
        assert main(["validate", "--tree", str(tree)]) == 2
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"error:{line}:")
        assert ":seed-value:" in stdout
        assert main(["tick", "--tree", str(tree), "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert "episode:" not in captured.out

    def test_exempt_reasons_binding_fails_validate_and_tick(self, tmp_path,
                                                            capsys):
        text = canonical_tree_text(ALL_IDS)
        literal = 'exempt_reasons="regrasp;strategy_switch"'
        line = text[:text.index(literal)].count("\n") + 1
        tree = tmp_path / "bound.xml"
        tree.write_text(text.replace(literal, 'exempt_reasons="{reasons}"'))
        assert main(["validate", "--tree", str(tree)]) == 2
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"error:{line}:")
        assert ":port-value:" in stdout
        assert main(["tick", "--tree", str(tree), "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith(f"error:{line}:")
        assert "episode:" not in captured.out

    def test_unknown_exempt_reason_fails_validate_and_tick(self, tmp_path,
                                                           capsys):
        # a misspelt reason would exempt nothing, and the tick below would
        # charge each strategy switch
        text = canonical_tree_text(ALL_IDS)
        start = text.index("<RetryUntilSuccessful")
        line = text[:start].count("\n") + 1
        col = start - text.rfind("\n", 0, start)
        tree = tmp_path / "typo.xml"
        tree.write_text(text.replace('exempt_reasons="regrasp;strategy_switch"',
                                     'exempt_reasons="regrsp;strategy_swtich"'))
        assert main(["validate", "--tree", str(tree)]) == 2
        stdout = capsys.readouterr().out
        assert stdout == "".join(
            f"error:{line}:{col}:exempt-reason:exempt reason {reason!r} "
            f"is not a known failure reason\n"
            for reason in ("regrsp", "strategy_swtich"))
        config = write_config(tmp_path, {"device": "stiff"})
        assert main(["tick", "--tree", str(tree), "--config", str(config),
                     "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert "episode:" not in captured.out

    @pytest.mark.parametrize("reasons", [
        "", "regrasp", "genuine;config", "unbound:strategy_id",
        "strategy_switch;unbound:nosuch"])
    def test_known_exempt_reasons_pass_validate(self, tmp_path, capsys,
                                                reasons):
        tree = tmp_path / "known.xml"
        tree.write_text(canonical_tree_text(ALL_IDS).replace(
            'exempt_reasons="regrasp;strategy_switch"',
            f'exempt_reasons="{reasons}"'))
        assert main(["validate", "--tree", str(tree)]) == 0
        assert capsys.readouterr().out == f"{tree}: ok\n"

    def test_declaration_unlike_its_class_fails_validate_and_tick(self, tmp_path,
                                                                  capsys):
        # at run time the str constant would meet a float subtraction
        text = canonical_tree_text(ALL_IDS)
        start = text.index("<ManipulateTarget ")
        line = text[:start].count("\n") + 1
        col = start - text.rfind("\n", 0, start)
        tree = tmp_path / "str_angle.xml"
        tree.write_text(text.replace(
            '<Port name="target_angle" direction="in" type="float"/>',
            '<Port name="target_angle" direction="in" type="str"/>').replace(
            'target_angle="{target_angle}" progress', 'target_angle="far" progress'))
        assert main(["validate", "--tree", str(tree)]) == 2
        stdout = capsys.readouterr().out
        assert stdout == (f"error:{line}:{col}:leaf-ports:leaf 'ManipulateTarget' "
                          f"declares target_angle (in str) where its class has "
                          f"target_angle (in float)\n")
        assert main(["tick", "--tree", str(tree), "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == ""

    @pytest.mark.parametrize("num_attempts", ["0", "-3"])
    def test_num_attempts_below_one_fails_validate_and_tick(self, tmp_path, capsys,
                                                             num_attempts):
        text = canonical_tree_text(ALL_IDS)
        binding = 'num_attempts="{num_attempts}"'
        line = text[:text.index(binding)].count("\n") + 1
        tree = tmp_path / "no_attempts.xml"
        tree.write_text(text.replace(binding, f'num_attempts="{num_attempts}"'))
        assert main(["validate", "--tree", str(tree)]) == 2
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"error:{line}:")
        assert f":port-value:port 'num_attempts' must be >= 1, got {num_attempts}" \
            in stdout
        assert main(["tick", "--tree", str(tree), "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == stdout
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

    def test_chained_calls_leave_one_persist_of_the_store(self, canonical_file,
                                                          tmp_path, capsys):
        path = tmp_path / "store.csv"
        document = build_canonical_tree(ALL_IDS)
        reference = DataStore()
        for trial in range(1, 9):
            device = "stiff" if trial % 2 else "normal"
            config = write_config(tmp_path, {"device": device, "trial": trial})
            code = main(["tick", "--tree", str(canonical_file), "--config",
                         str(config), "--data-store", str(path),
                         "--seed", str(10 + trial)])
            assert code in (0, 1)
            result = run_episode(DEFAULT_DEVICES[device],
                                 list(DEFAULT_STRATEGIES), reference,
                                 trial_rng(10 + trial, 0), trial, math.pi / 2,
                                 5, document=document)
            assert code == (0 if result.success else 1)
        capsys.readouterr()
        fresh = tmp_path / "fresh.csv"
        persist(reference, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_trial_on_file_exits_two(self, canonical_file, tmp_path, capsys):
        config = write_config(tmp_path, {"device": "stiff", "trial": 1})
        store = tmp_path / "store.csv"
        argv = ["tick", "--tree", str(canonical_file), "--config", str(config),
                "--seed", "5", "--data-store", str(store)]
        assert main(argv) in (0, 1)
        # keep the first record only, so the rerun selects as before
        store.write_text("".join(store.read_text().splitlines(True)[:2]))
        before = store.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: duplicate record key ('stiff', 1, 1, ")
        assert store.read_bytes() == before

    def test_chain_without_summaries_writes_the_same_store(self, canonical_file,
                                                           tmp_path, capsys):
        stores = tmp_path / "summary.csv", tmp_path / "no_summary.csv"
        for trial in range(1, 5):
            config = write_config(tmp_path, {
                "device": "stiff" if trial % 2 else "normal", "trial": trial})
            for store in stores:
                summary = store.with_name(store.name + ".summary")
                if store == stores[1] and summary.exists():
                    summary.unlink()
                assert main(["tick", "--tree", str(canonical_file), "--config",
                             str(config), "--seed", "5",
                             "--data-store", str(store)]) in (0, 1)
        capsys.readouterr()
        assert stores[0].read_bytes() == stores[1].read_bytes()

    def test_directory_store_exits_two(self, canonical_file, tmp_path, capsys):
        code = main(["tick", "--tree", str(canonical_file),
                     "--data-store", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path}: Is a directory\n"
        assert captured.out == ""

    def test_write_error_without_a_path_exits_two(self, canonical_file,
                                                  tmp_path, capsys, monkeypatch):
        def full(store, path):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("adaptbt.cli.persist_data_store", full)
        code = main(["tick", "--tree", str(canonical_file),
                     "--data-store", str(tmp_path / "store.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: No space left on device\n"

    @pytest.mark.parametrize("command", ["run", "tick"])
    def test_full_disk_keeps_the_store(self, canonical_file, tmp_path, capsys,
                                       monkeypatch, command):
        # run rewrites the store whole; the second tick appends to it
        path = tmp_path / "store.csv"
        config = write_config(tmp_path, {"device": "stiff", "trial": 1})
        tick = ["tick", "--tree", str(canonical_file), "--config", str(config),
                "--seed", "5", "--data-store", str(path)]
        assert main(tick) in (0, 1)
        before = path.read_bytes()
        write_config(tmp_path, {"device": "stiff", "trial": 2})
        capsys.readouterr()
        fail_writes_after(monkeypatch, 1)
        argv = tick if command == "tick" else [
            "run", "--experiment", "A", "--behavior", "low", "--trials", "1",
            "--data-store", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: No space left on device\n"
        assert path.read_bytes() == before

    @pytest.mark.parametrize("conflict", [False, True], ids=["foreign", "conflict"])
    def test_store_changed_during_tick_is_merged(self, canonical_file, tmp_path,
                                                 capsys, monkeypatch, conflict):
        path = tmp_path / "store.csv"

        def tick(trial):
            config = write_config(tmp_path, {"device": "stiff", "trial": trial})
            return main(["tick", "--tree", str(canonical_file), "--config",
                         str(config), "--seed", "5", "--data-store", str(path)])

        assert tick(1) in (0, 1)
        on_file = load(path).records
        episode = []

        def changing_persist(store, target):
            # a row written to the file between open_store and persist
            episode.extend(store.records)
            key = store.records[0][:4] if conflict else ("other", 1, 1, 0.5)
            with open(target, "a") as handle:
                handle.write(",".join(map(str, key)) + ",0.2,0.0\n")
            persist(store, target)

        monkeypatch.setattr("adaptbt.cli.persist_data_store", changing_persist)
        code = tick(2)
        captured = capsys.readouterr()
        records = load(path).records
        if conflict:
            assert code == 2
            assert captured.err == (f"error: data store {path}: duplicate "
                                    f"record key {episode[0][:4]}\n")
            assert records == on_file + [episode[0]._replace(torque=0.2)]
        else:
            assert code in (0, 1) and captured.err == ""
            assert records == on_file + [FTRecord("other", 1, 1, 0.5, 0.2)] + episode
            assert type(open_store(path, "stiff", 3)) is not DataStore

    @pytest.mark.parametrize("trial", [-3, 0])
    def test_trial_below_one_exits_two(self, canonical_file, tmp_path, capsys,
                                       trial):
        config = write_config(tmp_path, {"trial": trial, "device": "normal"})
        store = tmp_path / "store.csv"
        code = main(["tick", "--tree", str(canonical_file), "--config",
                     str(config), "--data-store", str(store)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config trial must be >= 1, got {trial}\n"
        assert captured.out == ""
        assert not store.exists()

    def test_unreadable_store_row_exits_two(self, canonical_file, tmp_path,
                                            capsys):
        store = tmp_path / "store.csv"
        store.write_text("device_id,trial,attempt,sim_time,torque,force\n"
                         + "v" * 200_000 + ",1,1,0.1,0.3,0.0\n")
        code = main(["tick", "--tree", str(canonical_file),
                     "--data-store", str(store)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: data store {store}: line 2: ")
        assert captured.out == ""

    def test_non_utf8_store_row_exits_two(self, canonical_file, tmp_path,
                                          capsys):
        store = tmp_path / "store.csv"
        store.write_bytes(b"device_id,trial,attempt,sim_time,torque,force\n"
                          b"v,1,1,0.1,0.3,0.0\nv\xff,1,2,0.1,0.3,0.0\n")
        code = main(["tick", "--tree", str(canonical_file),
                     "--data-store", str(store)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: data store {store}: line 3: 'utf-8' codec can't decode")
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["tree", "config", "store"])
    def test_leading_bom_is_dropped(self, canonical_file, tmp_path, capsys,
                                    kind):
        # spreadsheet programs, and some editors, start a UTF-8 file with a BOM
        history = DataStore()
        history.record("stiff", 1, 1, 0.1, 0.9)  # trial 2 starts high_torque
        persist(history, tmp_path / "store.csv")
        files = {"tree": canonical_file, "store": tmp_path / "store.csv",
                 "config": write_config(tmp_path, {"device": "stiff", "trial": 2})}
        plain = {name: path.read_bytes() for name, path in files.items()}

        def tick(bom):
            for name, path in files.items():
                path.write_bytes(b"\xef\xbb\xbf" * (bom and name == kind)
                                 + plain[name])
            code = main(["tick", "--tree", str(files["tree"]), "--seed", "5",
                         "--config", str(files["config"]),
                         "--data-store", str(files["store"])])
            return code, capsys.readouterr(), files["store"].read_bytes()

        code, captured, store = tick(bom=True)
        assert (code, captured, store) == tick(bom=False)
        assert code in (0, 1) and captured.err == ""
        assert "high_torque_run" in captured.out

    @pytest.mark.parametrize("key,value", [
        ("num_attempts", 0), ("target_angle", math.nan),
        ("tightened_threshold", 1.0), ("twist_progress", 0.5)])
    def test_runner_key_in_blackboard_exits_two(self, canonical_file, tmp_path,
                                                capsys, key, value):
        config = write_config(tmp_path, {"blackboard": {key: value},
                                         "device": "normal"})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config blackboard {key!r} ")
        assert captured.out == ""

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

    def test_old_reason_remap_changes_nothing(self, canonical_file, tmp_path,
                                              capsys):
        # trees written when a blackboard key carried the failure reason
        # remap it through each SubTree; that remap is now an unused key
        old = tmp_path / "old_remap.xml"
        old.write_text(canonical_file.read_text().replace(
            'current_torque="0.0"',
            'last_failure_reason="{last_failure_reason}" current_torque="0.0"'))
        assert old.read_text().count("last_failure_reason=") == len(ALL_IDS)
        config = write_config(tmp_path, {"device": "stiff"})
        outputs = []
        for tree in (canonical_file, old):
            assert main(["tick", "--tree", str(tree), "--config", str(config),
                         "--seed", "5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

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

    def test_uncovered_strategy_fails_before_first_tick(self, canonical_file,
                                                        tmp_path, capsys):
        specs = [dataclasses.asdict(s) for s in DEFAULT_STRATEGIES]
        config = write_config(tmp_path, {
            "strategies": specs + [{**specs[0], "id": "mid_torque"}]})
        code = main(["tick", "--tree", str(canonical_file),
                     "--config", str(config)])
        assert code == 2
        stdout = capsys.readouterr().out
        assert stdout.startswith("error:")
        assert ":switch-coverage:" in stdout
        assert "mid_torque" in stdout
        assert "episode:" not in stdout

    def test_engine_error_exits_two(self, tmp_path, capsys):
        # a literal below 1 fails validate; a binding is read at the first tick
        tree = tmp_path / "zero.xml"
        tree.write_text(
            '<TreeDocument main_tree="Main">\n'
            '  <Tree id="Main">\n'
            '    <RetryUntilSuccessful num_attempts="{n}">\n'
            '      <AlwaysFailure/>\n'
            '    </RetryUntilSuccessful>\n'
            '  </Tree>\n'
            '</TreeDocument>\n')
        config = write_config(tmp_path, {"blackboard": {"n": 0}})
        assert main(["tick", "--tree", str(tree), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "num_attempts" in err

    def test_simulator_contract_error_exits_two(self, tmp_path, capsys):
        # a grasp with no LookupPose before it has no pose to grasp at
        tree = tmp_path / "no_pose.xml"
        tree.write_text(
            '<TreeDocument main_tree="Main">\n'
            '  <Leaf id="Approach"><Port name="strategy" direction="in" type="str"/></Leaf>\n'
            '  <Leaf id="Grasp"><Port name="strategy" direction="in" type="str"/></Leaf>\n'
            '  <Tree id="Main">\n'
            '    <Sequence><Approach strategy="low_torque"/>'
            '<Grasp name="grab" strategy="low_torque"/></Sequence>\n'
            '  </Tree>\n'
            '</TreeDocument>\n')
        assert main(["validate", "--tree", str(tree)]) == 0
        assert main(["tick", "--tree", str(tree), "--seed", "1"]) == 2
        # the whole of stderr: no traceback
        assert capsys.readouterr().err == \
            "error: grab: grasp completed without a planned pose\n"

    # a bound limit must be an int: 2.7 and true are not truncated to 2 and
    # 1, and each error names the node, the port, the key and the value
    @pytest.mark.parametrize("value", [2.7, True, "abc"])
    def test_bound_num_attempts_not_an_int_exits_two(self, tmp_path, capsys,
                                                     value):
        text = canonical_tree_text(ALL_IDS)
        tree = tmp_path / "bound.xml"
        tree.write_text(text.replace('num_attempts="{num_attempts}"',
                                     'num_attempts="{n}"'))
        config = write_config(tmp_path, {"blackboard": {"n": value}})
        assert main(["tick", "--tree", str(tree), "--config", str(config),
                     "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: attempt_loop: port 'num_attempts' bound to {{n}} "
                       f"must be an int >= 1, got {value!r}\n")

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


LETTERS = {NodeStatus.RUNNING: "R", NodeStatus.SUCCESS: "S",
           NodeStatus.FAILURE: "F", NodeStatus.IDLE: "I"}


def render_tick(tick, sim_time, trace):
    """`tick`'s text for one tick, built from nothing but that tick."""
    names = " ".join(f"{name}={LETTERS[status]}"
                     for name, status in trace.entries)
    return (f"[{tick:5d} t={sim_time:7.1f}s] {names}\n"
            + "".join(f"[{tick:5d}] diagnostic: {message}\n"
                      for message in trace.diagnostics))


def fresh(entries):
    """`entries` again as new str, tuple and list objects of equal value."""
    return [("".join(list(name)), status) for name, status in entries]


R, S, F, I = (NodeStatus.RUNNING, NodeStatus.SUCCESS, NodeStatus.FAILURE,
              NodeStatus.IDLE)
A = [("episode", R), ("approach", S), ("twist", R)]
B = [("episode", R), ("approach", S), ("twist", S)]
C = [("episode", F), ("bail", I)]


class TestTraceWriter:
    @pytest.mark.parametrize("steps", [
        pytest.param([(A, ())] * 4, id="repeated"),
        pytest.param([(A, ()), (B, ()), (B, ()), (A, ()), (A, ())],
                     id="last_status_only"),
        pytest.param([(A, ()), (C, ()), (A, ()), (C, ()), (C, ()), (A, ())],
                     id="back_to_earlier"),
        pytest.param([(A, ()), (A, ("x: unbound key",)), (A, ("y", "z")),
                      (B, ("w",)), (B, ())], id="diagnostics_on_repeat"),
        pytest.param([([], ()), ([], ()), (A, ()), ([], ())], id="empty"),
    ])
    def test_matches_a_per_tick_rendering(self, steps):
        out = io.StringIO()
        write_tick = trace_writer(out)
        expected = ""
        for tick, (entries, diagnostics) in enumerate(steps, start=1):
            trace = TickTrace()
            trace.entries = fresh(entries)  # equal values, distinct objects
            trace.diagnostics = list(diagnostics)
            write_tick(tick, tick * 0.1, R, trace)
            expected += render_tick(tick, tick * 0.1, trace)
        assert out.getvalue() == expected

    def test_a_list_changed_in_place_is_rendered_anew(self):
        out = io.StringIO()
        write_tick = trace_writer(out)
        trace = TickTrace()
        trace.entries = list(A)
        expected = ""
        for tick, last in enumerate([R, R, S, F, F], start=1):
            trace.entries[-1] = ("twist", last)
            write_tick(tick, tick * 0.1, R, trace)
            expected += render_tick(tick, tick * 0.1, trace)
        assert out.getvalue() == expected

    def test_tick_with_diagnostics_matches_run_episode(self, tmp_path,
                                                       capsys):
        # the first SubTree's ManipulateTarget reads a key nothing writes
        text = canonical_tree_text(ALL_IDS).replace(
            'target_angle="{target_angle}"', 'target_angle="{nosuch}"', 1)
        tree = tmp_path / "nosuch.xml"
        tree.write_text(text)
        code = main(["tick", "--tree", str(tree), "--seed", "5"])
        stdout = capsys.readouterr().out

        rendered = []
        store = DataStore()
        result = run_episode(
            DEFAULT_DEVICES["testA"], list(DEFAULT_STRATEGIES), store,
            trial_rng(5, 0), 1, math.pi / 2, 5,
            document=parse_tree_definition(text).document,
            on_tick=lambda tick, sim_time, status, trace: rendered.append(
                render_tick(tick, sim_time, trace)))
        outcome = "SUCCESS" if result.success else "FAILURE"
        assert code == (0 if result.success else 1)
        assert "] diagnostic: ManipulateTarget: " in stdout
        assert stdout == "".join(rendered) + (
            f"episode: {outcome} in {result.sim_time:.1f} s, "
            f"attempts {result.attempts_consumed}, records {len(store)}\n")


def sequences(count, inner):
    """`count` nested Sequence elements around `inner`."""
    return "<Sequence>\n" * count + inner + "\n" + "</Sequence>\n" * count


def depth_document(*trees):
    """A document whose Tree i holds trees[i]; the first is the main tree."""
    body = "".join(f'  <Tree id="T{i}">\n{tree}  </Tree>\n'
                   for i, tree in enumerate(trees))
    return f'<TreeDocument main_tree="T0">\n{body}</TreeDocument>\n'


class TestTreeDepth:
    # each tree within the limit, the main tree expanded through them not
    CHAIN = depth_document(sequences(60, '<SubTree id="T1"/>'),
                           sequences(60, "<AlwaysSuccess/>"))

    @pytest.mark.parametrize("text,line", [
        pytest.param(depth_document(sequences(500, "<AlwaysSuccess/>")),
                     MAX_TREE_DEPTH + 3, id="500_sequences"),
        pytest.param(depth_document(sequences(1000, "<AlwaysSuccess/>")),
                     MAX_TREE_DEPTH + 3, id="1000_sequences"),
        pytest.param(CHAIN, 3, id="subtree_chain"),
        # one level per tree, past the recursion limit as a chain
        pytest.param(depth_document(
            *(f'<SubTree id="T{i + 1}"/>\n' for i in range(1200)),
            "<AlwaysSuccess/>\n"), 3, id="1200_subtrees"),
        pytest.param(depth_document(
            sequences(MAX_TREE_DEPTH // 2 - 1, '<SubTree id="T1"/>'),
            sequences(MAX_TREE_DEPTH // 2, "<AlwaysSuccess/>")),
            3, id="one_past_the_limit"),
    ])
    @pytest.mark.parametrize("command", ["validate", "tick"])
    def test_too_deep_exits_two(self, tmp_path, capsys, command, text, line):
        tree = tmp_path / "deep.xml"
        tree.write_text(text)
        assert main([command, "--tree", str(tree)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith(f"error:{line}:")
        assert ":tree-depth:" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text", [
        pytest.param(depth_document(
            sequences(MAX_TREE_DEPTH - 1, "<AlwaysSuccess/>")), id="one_tree"),
        pytest.param(depth_document(
            sequences(MAX_TREE_DEPTH // 2 - 1, '<SubTree id="T1"/>'),
            sequences(MAX_TREE_DEPTH // 2 - 1, "<AlwaysSuccess/>")),
            id="subtree_chain"),
    ])
    def test_exactly_at_the_limit_runs(self, tmp_path, capsys, text):
        tree = tmp_path / "deep.xml"
        tree.write_text(text)
        assert main(["validate", "--tree", str(tree)]) == 0
        assert capsys.readouterr().out == f"{tree}: ok\n"
        assert main(["tick", "--tree", str(tree)]) == 0
        assert capsys.readouterr().out.endswith(
            "episode: SUCCESS in 0.1 s, attempts 1, records 0\n")


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

    @pytest.mark.parametrize("command", ["run", "tick"])
    @pytest.mark.parametrize("payload,key", [
        ({"num_attempts": 0}, "num_attempts"),
        ({"max_ticks": 0}, "max_ticks"),
        ({"dt": 0}, "dt"),
        ({"dt": -0.1}, "dt"),
        ({"trails": 3}, "trails"),
    ])
    def test_rejected_by_run_and_tick_alike(self, canonical_file, tmp_path,
                                            capsys, command, payload, key):
        config = write_config(tmp_path, payload)
        if command == "run":
            argv = ["run", "--experiment", "A", "--behavior", "low"]
        else:
            argv = ["tick", "--tree", str(canonical_file)]
        code = main(argv + ["--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config {key} ")
        assert captured.out == ""

    # the config is wrong, not the generated tree nor its switch coverage
    @pytest.mark.parametrize("command", ["run", "validate", "tick"])
    def test_repeated_strategy_id_exits_two(self, canonical_file, tmp_path,
                                            capsys, command):
        specs = [dataclasses.asdict(s) for s in DEFAULT_STRATEGIES]
        config = write_config(tmp_path, {
            "strategies": [{**specs[0], "id": "a"}, {**specs[1], "id": "a"}]})
        if command == "run":
            argv = ["run", "--experiment", "C", "--behavior", "adaptive"]
        else:
            argv = [command, "--tree", str(canonical_file)]
        assert main(argv + ["--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: config strategies repeat the id 'a'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "validate", "tick"])
    @pytest.mark.parametrize("payload,key,kind", [
        ({"seed": True}, "seed", "an integer"),
        ({"dt": False}, "dt", "a number"),
        ({"margin": "0.1"}, "margin", "a number"),
        ({"num_attempts": "5"}, "num_attempts", "an integer"),
        ({"strategies": 1}, "strategies", "a list"),
        ({"run_devices": 2.5}, "run_devices", "a list"),
        ({"devices": 0}, "devices", "an object"),
        ({"blackboard": 1}, "blackboard", "an object"),
        ({"device": 3}, "device", "a string"),
    ])
    def test_mistyped_key_exits_two(self, canonical_file, tmp_path, capsys,
                                    command, payload, key, kind):
        config = write_config(tmp_path, payload)
        if command == "run":
            argv = ["run", "--experiment", "A", "--behavior", "low"]
        else:
            argv = [command, "--tree", str(canonical_file)]
        assert main(argv + ["--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config {key} must be {kind}\n"
        assert captured.out == ""

    # json.loads alone keeps the last value of a repeated key
    @pytest.mark.parametrize("command", ["run", "validate", "tick"])
    @pytest.mark.parametrize("text,key", [
        ('{"seed": 1, "seed": 2, "device": "stiff"}', "seed"),
        ('{"devices": {"stiff": {"stiffness": 0.9, "stiffness": 0.1}}}',
         "stiffness"),
        ('{"strategies": [{"id": "a", "id": "b"}]}', "id"),
        ('{"blackboard": {"x": 1, "x": 2}}', "x"),
    ])
    def test_repeated_key_exits_two(self, canonical_file, tmp_path, capsys,
                                    command, text, key):
        config = tmp_path / "dup_key.json"
        config.write_text(text)
        if command == "run":
            argv = ["run", "--experiment", "A", "--behavior", "low", "--trials", "1"]
        else:
            argv = [command, "--tree", str(canonical_file)]
        assert main(argv + ["--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config {config} repeats the key {key!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_blackboard_value_exits_two(self, tmp_path, capsys, value):
        tree = tmp_path / "tightened.xml"
        tree.write_text('<TreeDocument main_tree="Main">\n'
                        '  <Leaf id="IsTightened">\n'
                        '    <Port name="torque" direction="in" type="float"/>\n'
                        '    <Port name="threshold" direction="in" type="float"/>\n'
                        '  </Leaf>\n'
                        '  <Tree id="Main">\n'
                        '    <IsTightened torque="{t}" threshold="{th}"/>\n'
                        '  </Tree>\n'
                        '</TreeDocument>\n')
        config = tmp_path / "config.json"
        config.write_text('{"blackboard": {"t": 1.0, "th": 0.5}}')
        assert main(["tick", "--tree", str(tree), "--config", str(config)]) == 0
        capsys.readouterr()
        config.write_text('{"blackboard": {"t": 1.0, "th": %s}}' % value)
        assert main(["tick", "--tree", str(tree), "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: config blackboard 'th' must be finite, "
                                f"got {float(value)}\n")
        assert captured.out == ""

    def test_infinite_target_angle_accepted(self, tmp_path, capsys):
        config = write_config(tmp_path, {"target_angle": math.inf})
        code = main(["run", "--experiment", "B", "--behavior", "adaptive",
                     "--trials", "1", "--config", str(config)])
        assert code in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["run", "tick"])
    def test_empty_device_id_exits_two(self, canonical_file, tmp_path, capsys,
                                       command):
        config = write_config(tmp_path, {"devices": {"": {}}})
        if command == "run":
            argv = ["run", "--experiment", "A", "--behavior", "low"]
        else:
            argv = ["tick", "--tree", str(canonical_file)]
        code = main(argv + ["--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert "device id must be a non-empty string, got ''" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("command", ["run", "tick"])
    def test_overlay_id_other_than_its_key_exits_two(
            self, canonical_file, tmp_path, capsys, command):
        config = write_config(tmp_path, {
            "device": "stiff",
            "devices": {"stiff": {"id": "other", "stiffness": 0.9}}})
        if command == "run":
            argv = ["run", "--experiment", "A", "--behavior", "low"]
        else:
            argv = ["tick", "--tree", str(canonical_file), "--seed", "5"]
        code = main(argv + ["--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: device 'stiff': id must match its key, "
                                "got 'other'\n")
        assert captured.out == ""

    @pytest.mark.parametrize("payload,field", [
        ({"devices": {"stiff": {"stiffness": True}}}, "stiffness"),
        ({"devices": {"stiff": {"symmetry_order": 2.5}}}, "symmetry_order"),
        ({"devices": {"stiff": {"stiffness": "a"}}}, "stiffness"),
        ({"strategies": [{**dataclasses.asdict(DEFAULT_STRATEGIES[0]),
                          "p_segment_failure": True}]}, "p_segment_failure"),
        ({"strategies": [{**dataclasses.asdict(DEFAULT_STRATEGIES[0]),
                          "p_segment_failure": "x"}]}, "p_segment_failure"),
    ])
    def test_mistyped_field_exits_two_naming_it(self, tmp_path, capsys, payload,
                                                field):
        config = write_config(tmp_path, payload)
        code = main(["run", "--experiment", "A", "--behavior", "low",
                     "--trials", "1", "--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert f": {field} must be " in captured.err
        assert "not supported" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("devices,stderr", [
        ({"stiff": {"stiffness": True}},
         "error: device 'stiff': stiffness must be a number, got True\n"),
        ({"stiff": {"symmetry_order": 0}},
         "error: device 'stiff': symmetry_order must be >= 1\n"),
        ({"fresh": {"damping": -1.0}},
         "error: device 'fresh': damping must be finite and >= 0\n"),
        ({" ": {"stiffness": -1.0}},
         "error: device ' ': stiffness must be finite and >= 0\n"),
        ({"": {}},
         "error: device '': device id must be a non-empty string, got ''\n"),
    ])
    def test_device_error_names_the_id_once(self, tmp_path, capsys, devices,
                                            stderr):
        config = write_config(tmp_path, {"devices": devices})
        code = main(["run", "--experiment", "A", "--behavior", "low",
                     "--trials", "1", "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == stderr


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

    def test_overlay_id_equal_to_its_key_is_accepted(self):
        devices = devices_from_config(
            {"devices": {"stiff": {"id": "stiff", "stiffness": 0.9}}})
        assert devices["stiff"].id == "stiff"
        assert devices["stiff"].stiffness == 0.9

    @pytest.mark.parametrize("device_id,fields", [
        ("stiff", {"id": "other"}), ("stiff", {"id": 5}),
        ("fresh", {"id": "stiff", "symmetry_order": 4})])
    def test_overlay_id_other_than_its_key_rejected(self, device_id, fields):
        with pytest.raises(ConfigError, match=f"^device {device_id!r}: id must "
                                              f"match its key, got {fields['id']!r}$"):
            devices_from_config({"devices": {device_id: fields}})

    def test_new_device_from_scratch(self):
        devices = devices_from_config(
            {"devices": {"fresh": {"symmetry_order": 4}}})
        assert devices["fresh"].id == "fresh"
        assert devices["fresh"].symmetry_order == 4

    @pytest.mark.parametrize("device_id", ["", " ", "stiff"])
    def test_device_error_quotes_the_id(self, device_id):
        with pytest.raises(ConfigError, match=f"^device {re.escape(repr(device_id))}: "):
            devices_from_config({"devices": {device_id: {"stiffness": -1.0}}})

    def test_bad_device_field_rejected(self):
        with pytest.raises(ConfigError, match="stiff"):
            devices_from_config({"devices": {"stiff": {"nope": 1}}})
