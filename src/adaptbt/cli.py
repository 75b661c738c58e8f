"""Command line front end.

Subcommands:
  run       execute one experiment suite and emit results
  validate  check a tree definition file and print diagnostics
  tick      run a single episode of a tree file with a per-tick trace dump

Exit codes: 0 success, 1 task failure, 2 configuration or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from typing import Callable, TextIO

from .bench import (
    BEHAVIORS,
    BenchError,
    DEFAULT_DEVICES,
    DEFAULT_STRATEGIES,
    EXPERIMENTS,
    EpisodeSettings,
    LEAF_PORTS,
    RUNNER_KEYS,
    emit_results,
    make_config,
    run_episode,
    run_experiment,
    strategies_by_id,
    summarize,
    trial_rng,
)
from .core import BehaviorTreeError, NodeStatus, TickTrace, _FAILURE, \
    _RUNNING, _SUCCESS
from .sim import DeviceInstance
from .strategies import DataStore, FAILURE_REASONS, StrategySpec, \
    open_store, persist as persist_data_store, read_text
from .treedef import ERROR, InstantiationError, TreeDocument, \
    parse_tree_definition, validate_exempt_reasons, validate_leaf_ports, \
    validate_switch_coverage

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(Exception):
    """Unusable configuration file or values."""


# Every config key with its JSON type; a float key reads any number as float.
CONFIG_TYPES = {
    "seed": int, "trial": int, "trials": int, "num_attempts": int,
    "max_ticks": int, "dt": float, "margin": float, "target_angle": float,
    "strategies": list, "devices": dict, "run_devices": list,
    "device": str, "blackboard": dict,
}
_TYPE_NAMES = {int: "an integer", float: "a number", list: "a list",
               dict: "an object", str: "a string"}
EPISODE_KEYS = tuple(f.name for f in dataclasses.fields(EpisodeSettings))


def read_utf8(path: str) -> str:
    """A user-given file's text (`read_text`); a byte that is not UTF-8
    raises ConfigError naming the path and line."""
    try:
        return read_text(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path: str | None) -> dict:
    """The JSON object at `path`, each key known and of its CONFIG_TYPES type;
    no object in it may repeat a key."""
    if path is None:
        return {}

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ConfigError(f"config {path} repeats the key {key!r}")
            data[key] = value
        return data

    try:
        data = json.loads(read_utf8(path), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for key, value in data.items():
        kind = CONFIG_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"config {key} is not a known key")
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"config {key} must be {_TYPE_NAMES[kind]}")
        if kind is float:
            try:
                data[key] = float(value)
            except OverflowError:
                raise ConfigError(f"config {key} is out of range") from None
    return data


def episode_settings(config: dict) -> EpisodeSettings:
    """EpisodeSettings from the episode keys `config` sets, defaults elsewhere."""
    try:
        return EpisodeSettings(**{key: config[key] for key in EPISODE_KEYS
                                  if key in config})
    except BenchError as exc:
        raise ConfigError(f"config {exc}") from None


def strategies_from_config(config: dict) -> list[StrategySpec]:
    entries = config.get("strategies")
    if entries is None:
        return list(DEFAULT_STRATEGIES)
    if not entries:
        raise ConfigError("config strategies must be a non-empty list")
    out = []
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError("each strategy needs at least an id")
        try:
            spec = StrategySpec(**entry)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad strategy entry: {exc}") from exc
        out.append(spec)
    try:
        strategies_by_id(out)
    except BenchError as exc:
        raise ConfigError(f"config {exc}") from None
    return out


def devices_from_config(config: dict) -> dict[str, DeviceInstance]:
    devices = dict(DEFAULT_DEVICES)
    for device_id, fields in config.get("devices", {}).items():
        if not isinstance(fields, dict):
            raise ConfigError(f"device {device_id!r}: fields must be an object")
        merged = dict(fields)
        if merged.pop("id", device_id) != device_id:
            raise ConfigError(
                f"device {device_id!r}: id must match its key, got {fields['id']!r}")
        base = devices.get(device_id)
        try:
            if base is None:
                devices[device_id] = DeviceInstance(device_id, **merged)
            else:
                devices[device_id] = dataclasses.replace(base, **merged)
        except (TypeError, ValueError) as exc:
            # DeviceInstance names its id first; the prefix here names it once
            message = str(exc).removeprefix(f"{device_id}: ")
            raise ConfigError(f"device {device_id!r}: {message}") from exc
    return devices


def load_tree(path: str, strategies: list[StrategySpec]) -> TreeDocument | None:
    """Read, parse and statically check a tree file, printing every diagnostic;
    the document, or None when it has an error. An unreadable file raises
    OSError."""
    result = parse_tree_definition(read_utf8(path))
    diagnostics = list(result.diagnostics)
    if result.document is not None:
        diagnostics.extend(validate_switch_coverage(
            result.document, {s.id for s in strategies}))
        diagnostics += validate_exempt_reasons(result.document, FAILURE_REASONS)
        diagnostics += validate_leaf_ports(result.document, LEAF_PORTS)
    for diagnostic in diagnostics:
        print(diagnostic)
    if any(d.severity == ERROR for d in diagnostics):
        return None
    return result.document


def check_output_path(path: str) -> None:
    """Raise the OSError that writing a file at `path` would meet when its
    directory is missing or the path is a directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def trace_writer(out: TextIO) -> Callable[[int, float, NodeStatus, TickTrace],
                                          None]:
    """The `on_tick` callback of `tick`: one `name=L ...` line per tick on
    `out`, then one line per diagnostic of that tick.

    Most ticks visit the same nodes with the same statuses as the tick
    before, so the text is built only when the entries differ from those
    of the last tick whose text was built.
    """
    write = out.write
    last_entries = None
    text = ""

    def write_tick(tick, sim_time, status, trace):
        nonlocal last_entries, text
        entries = trace.entries
        if entries != last_entries:
            # letters by identity: indexing a dict by status would run the
            # Python-level Enum.__hash__ once per trace entry
            text = " ".join(
                f"{name}={'R' if s is _RUNNING else 'S' if s is _SUCCESS else 'F' if s is _FAILURE else 'I'}"
                for name, s in entries)
            last_entries = entries.copy()
        write("[%5d t=%7.1fs] %s\n" % (tick, sim_time, text))
        for message in trace.diagnostics:
            print(f"[{tick:5d}] diagnostic: {message}", file=out)

    return write_tick


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    strategies = strategies_from_config(config)
    devices = devices_from_config(config)

    episode_settings(config)  # a bad episode value is named as a config key
    overrides = {key: config[key] for key in (*EPISODE_KEYS, "trials")
                 if key in config}
    if "run_devices" in config:
        run_devices = config["run_devices"]
        if not run_devices or not all(isinstance(d, str) for d in run_devices):
            raise ConfigError("config run_devices must be a non-empty list of ids")
        overrides["devices"] = tuple(run_devices)
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.attempts is not None:
        overrides["num_attempts"] = args.attempts

    for path in (args.out, args.data_store):
        if path:  # fail before the suite rather than after it
            check_output_path(path)

    seed = args.seed if args.seed is not None else config.get("seed", 0)
    experiment_config = make_config(args.experiment, args.behavior, seed,
                                    **overrides)
    results, store = run_experiment(experiment_config, strategies, devices)

    print(summarize(results, experiment_config), end="")
    if args.out:
        emit_results(results, args.out)
        print(f"results written to {args.out}")
    if args.data_store:
        persist_data_store(store, args.data_store)
        print(f"data store written to {args.data_store}")
    return EXIT_OK if any(r.success for r in results) else EXIT_TASK_FAILURE


def cmd_validate(args: argparse.Namespace) -> int:
    strategies = strategies_from_config(load_config(args.config))
    if load_tree(args.tree, strategies) is None:
        return EXIT_CONFIG_ERROR
    print(f"{args.tree}: ok")
    return EXIT_OK


def cmd_tick(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    strategies = strategies_from_config(config)
    devices = devices_from_config(config)
    settings = episode_settings(config)

    device_id = config.get("device", "testA")
    if device_id not in devices:
        raise ConfigError(f"config device {device_id!r} is not a known device")
    trial = config.get("trial", 1)
    if trial < 1:
        raise ConfigError(f"config trial must be >= 1, got {trial}")
    extra = config.get("blackboard", {})
    for key, value in extra.items():
        if key in RUNNER_KEYS:
            raise ConfigError(f"config blackboard {key!r} is set by the "
                              f"episode runner, not the blackboard object")
        if not isinstance(value, (bool, int, float, str)):
            raise ConfigError(f"config blackboard {key!r} must be a bool, "
                              f"int, float or string")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config blackboard {key!r} must be finite, "
                              f"got {value}")

    document = load_tree(args.tree, strategies)
    if document is None:
        return EXIT_CONFIG_ERROR

    store = DataStore()
    if args.data_store:
        try:
            store = open_store(args.data_store, device_id, trial)
        except FileNotFoundError:
            pass
        except ValueError as exc:
            raise ConfigError(f"data store {args.data_store}: {exc}") from exc

    seed = args.seed if args.seed is not None else config.get("seed", 0)
    try:
        result = run_episode(
            devices[device_id], strategies, store, trial_rng(seed, 0),
            trial, **dataclasses.asdict(settings),
            document=document, seeds=extra,
            on_tick=trace_writer(sys.stdout))
    except InstantiationError as exc:
        print(f"cannot instantiate tree: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BenchError:
        print(f"stopped: no terminal status within {settings.max_ticks} ticks",
              file=sys.stderr)
        return EXIT_TASK_FAILURE

    outcome = "SUCCESS" if result.success else "FAILURE"
    print(f"episode: {outcome} in {result.sim_time:.1f} s, "
          f"attempts {result.attempts_consumed}, records {len(store)}")
    if args.data_store:
        persist_data_store(store, args.data_store)
        print(f"data store written to {args.data_store}")
    return EXIT_OK if result.success else EXIT_TASK_FAILURE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptbt",
        description="Adaptive behavior-tree manipulation benchmarks.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment suite")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--behavior", required=True, choices=BEHAVIORS)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--attempts", type=int, default=None)
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--data-store", default=None,
                     help="write the final data store CSV here")
    run.add_argument("--out", default=None, help="write results CSV here")
    run.set_defaults(handler=cmd_run)

    validate = commands.add_parser("validate",
                                   help="check a tree definition file")
    validate.add_argument("--tree", required=True)
    validate.add_argument("--config", default=None,
                          help="JSON config file (strategy ids for coverage)")
    validate.set_defaults(handler=cmd_validate)

    tick = commands.add_parser(
        "tick", help="debug one episode of a tree file with a trace dump")
    tick.add_argument("--tree", required=True)
    tick.add_argument("--config", default=None, help="JSON config file")
    tick.add_argument("--seed", type=int, default=None)
    tick.add_argument("--data-store", default=None,
                      help="load this data store CSV if present, write back")
    tick.set_defaults(handler=cmd_tick)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, BenchError, BehaviorTreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:  # a user-given path that cannot be read or written
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
