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
import json
import math
import sys

from .bench import (
    BenchError,
    DEFAULT_DEVICES,
    DEFAULT_STRATEGIES,
    emit_results,
    make_config,
    run_episode,
    run_experiment,
    summarize,
    trial_rng,
)
from .core import NodeStatus
from .sim import DeviceInstance
from .strategies import DataStore, StrategySpec, load as load_data_store, \
    persist as persist_data_store
from .treedef import InstantiationError, parse_tree_definition, \
    validate_switch_coverage

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_CONFIG_ERROR = 2

STATUS_LETTERS = {
    NodeStatus.SUCCESS: "S",
    NodeStatus.FAILURE: "F",
    NodeStatus.RUNNING: "R",
    NodeStatus.IDLE: "I",
}


class ConfigError(Exception):
    """Unusable configuration file or values."""


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def strategies_from_config(config: dict) -> list[StrategySpec]:
    entries = config.get("strategies")
    if entries is None:
        return list(DEFAULT_STRATEGIES)
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config strategies must be a non-empty list")
    out = []
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError("each strategy needs at least an id")
        try:
            out.append(StrategySpec(**entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad strategy entry: {exc}") from exc
    return out


def devices_from_config(config: dict) -> dict[str, DeviceInstance]:
    devices = dict(DEFAULT_DEVICES)
    entries = config.get("devices", {})
    if not isinstance(entries, dict):
        raise ConfigError("config devices must be an object keyed by id")
    for device_id, fields in entries.items():
        if not isinstance(fields, dict):
            raise ConfigError(f"device {device_id}: fields must be an object")
        merged = dict(fields)
        merged.pop("id", None)
        base = devices.get(device_id)
        try:
            if base is None:
                devices[device_id] = DeviceInstance(device_id, **merged)
            else:
                devices[device_id] = dataclasses.replace(base, **merged)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"device {device_id}: {exc}") from exc
    return devices


def _config_float(config: dict, key: str, fallback: float,
                  allow_inf: bool = False) -> float:
    """Read a number; NaN is always rejected, infinities unless `allow_inf`."""
    value = config.get(key, fallback)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config {key} must be a number")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"config {key} is out of range") from None
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ConfigError(f"config {key} must be a finite number, got {value}")
    return value


def _config_int(config: dict, key: str, fallback: int) -> int:
    value = config.get(key, fallback)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config {key} must be an integer")
    return value


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    strategies = strategies_from_config(config)
    devices = devices_from_config(config)

    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    elif "trials" in config:
        overrides["trials"] = _config_int(config, "trials", 0)
    if args.attempts is not None:
        overrides["num_attempts"] = args.attempts
    elif "num_attempts" in config:
        overrides["num_attempts"] = _config_int(config, "num_attempts", 0)
    if "target_angle" in config:
        overrides["target_angle"] = _config_float(config, "target_angle", 0.0,
                                                  allow_inf=True)
    if "run_devices" in config:
        run_devices = config["run_devices"]
        if not isinstance(run_devices, list) or not run_devices or \
                not all(isinstance(d, str) for d in run_devices):
            raise ConfigError("config run_devices must be a non-empty list of ids")
        overrides["devices"] = tuple(run_devices)
    overrides["dt"] = _config_float(config, "dt", 0.1)
    overrides["margin"] = _config_float(config, "margin", 0.0)
    overrides["max_ticks"] = _config_int(config, "max_ticks", 200_000)

    seed = args.seed if args.seed is not None \
        else _config_int(config, "seed", 0)
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
    try:
        with open(args.tree) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.tree}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    config = load_config(args.config)
    strategies = strategies_from_config(config)

    result = parse_tree_definition(text)
    diagnostics = list(result.diagnostics)
    if result.document is not None and result.document.strategy_var:
        diagnostics.extend(validate_switch_coverage(
            result.document, {s.id for s in strategies}))
    for diagnostic in diagnostics:
        print(diagnostic)
    if any(d.severity == "error" for d in diagnostics):
        return EXIT_CONFIG_ERROR
    print(f"{args.tree}: ok")
    return EXIT_OK


def cmd_tick(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    strategies = strategies_from_config(config)
    devices = devices_from_config(config)

    device_id = config.get("device", "testA")
    if not isinstance(device_id, str) or device_id not in devices:
        raise ConfigError(f"config device {device_id!r} is not a known device")

    try:
        with open(args.tree) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {args.tree}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    parsed = parse_tree_definition(text)
    if not parsed.ok:
        for diagnostic in parsed.errors():
            print(diagnostic)
        return EXIT_CONFIG_ERROR

    store = DataStore()
    if args.data_store:
        try:
            store = load_data_store(args.data_store)
        except FileNotFoundError:
            pass
        except ValueError as exc:
            raise ConfigError(f"data store {args.data_store}: {exc}") from exc

    seed = args.seed if args.seed is not None \
        else _config_int(config, "seed", 0)
    max_ticks = _config_int(config, "max_ticks", 200_000)
    extra = config.get("blackboard", {})
    if not isinstance(extra, dict):
        raise ConfigError("config blackboard must be an object")
    for key, value in extra.items():
        if not isinstance(value, (bool, int, float, str)):
            raise ConfigError(f"config blackboard {key!r} must be a bool, "
                              f"int, float or string")

    def print_tick(tick, sim_time, status, trace):
        line = " ".join(f"{name}={STATUS_LETTERS[node_status]}"
                        for name, node_status in trace.entries)
        print(f"[{tick:5d} t={sim_time:7.1f}s] {line}")
        for message in trace.diagnostics:
            print(f"[{tick:5d}] diagnostic: {message}")

    try:
        result = run_episode(
            devices[device_id], strategies, store, trial_rng(seed, 0),
            _config_int(config, "trial", 1),
            _config_float(config, "target_angle", math.pi / 2, allow_inf=True),
            _config_int(config, "num_attempts", 5),
            dt=_config_float(config, "dt", 0.1),
            margin=_config_float(config, "margin", 0.0),
            max_ticks=max_ticks, document=parsed.document, seeds=extra,
            on_tick=print_tick)
    except InstantiationError as exc:
        print(f"cannot instantiate tree: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BenchError:
        print(f"stopped: no terminal status within {max_ticks} ticks",
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
    run.add_argument("--experiment", required=True, choices=["A", "B", "C"])
    run.add_argument("--behavior", required=True,
                     choices=["low", "high", "adaptive"])
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
    except (ConfigError, BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
