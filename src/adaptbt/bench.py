"""Experiment harness: canonical tree, episode runner, result tables.

Three benchmark protocols drive the same adaptive tree:

  A  twist a free-spinning valve by a large fixed angle
  B  tighten a needle valve until its reactive torque says it is seated
  C  quarter-turn two ball valves of different stiffness, twice each,
     keeping the recorded data between the two trials

Each behavior variant restricts which strategies the selector may choose:
"low" and "high" pin it to a single strategy, "adaptive" offers all.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from .core import (
    Blackboard,
    NO_STRATEGIES,
    NodeStatus,
    RetryUntilSuccessful,
    TickTrace,
    iter_nodes,
    tick_root,
)
from .sim import DeviceInstance, World, lookup_pose_leaf, \
    manipulate_target_leaf, motion_segment_leaf
from .strategies import (
    DataStore,
    EXEMPT_REASONS,
    StrategySpec,
    angle_within_limits_leaf,
    ft_within_limits_leaf,
    is_tightened_leaf,
    select_strategy_leaf,
    strategy_viable_leaf,
)
from .treedef import (
    LeafRegistry,
    TreeDocument,
    instantiate,
    parse_tree_definition,
    validate_switch_coverage,
)

STRATEGY_VAR = "strategy_id"

# Hot-path aliases: a module global loads far faster than an enum attribute.
_RUNNING = NodeStatus.RUNNING
_SUCCESS = NodeStatus.SUCCESS

DEFAULT_STRATEGIES = [
    StrategySpec("low_torque", ft_limit=0.5, angle_min=0.0, angle_max=math.pi,
                 twist_rate=0.157, t_approach=8.0, t_grasp=4.0, t_retract=4.0,
                 p_segment_failure=0.035),
    StrategySpec("high_torque", ft_limit=5.0, angle_min=0.0, angle_max=math.pi,
                 twist_rate=0.027, t_approach=10.0, t_grasp=8.0, t_retract=8.0,
                 p_segment_failure=0.11),
]

DEFAULT_DEVICES = {
    "testA": DeviceInstance("testA", symmetry_order=3, dynamics_enabled=False,
                            static_friction=0.05),
    "testB": DeviceInstance("testB", symmetry_order=2, stiffness=0.18,
                            damping=0.1, static_friction=0.02, joint_limit=3.0,
                            limit_spike_torque=2.0, tightened_threshold=1.5),
    "normal": DeviceInstance("normal", symmetry_order=2, stiffness=0.25,
                             damping=0.1, static_friction=0.02),
    "stiff": DeviceInstance("stiff", symmetry_order=2, stiffness=0.7,
                            damping=0.1, static_friction=0.02),
}

BEHAVIORS = ("low", "high", "adaptive")
EXPERIMENTS = ("A", "B", "C")

RESULT_FIELDS = ("trial", "success", "attempts", "sim_time", "strategies",
                 "reasons")


class BenchError(Exception):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class EpisodeResult:
    trial: int
    device_id: str
    success: bool
    attempts_consumed: int
    sim_time: float
    strategy_sequence: tuple[str, ...]
    failure_reasons: tuple[str, ...]


@dataclass
class ExperimentConfig:
    experiment: str
    behavior: str
    seed: int
    trials: int
    num_attempts: int
    devices: tuple[str, ...]
    target_angle: float
    store_policy: str  # "reset" per trial or "retain" across trials
    dt: float = 0.1
    margin: float = 0.0
    max_ticks: int = 200_000

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise BenchError(f"unknown experiment {self.experiment!r}")
        if self.behavior not in BEHAVIORS:
            raise BenchError(f"unknown behavior {self.behavior!r}")
        if self.store_policy not in ("reset", "retain"):
            raise BenchError(f"unknown store policy {self.store_policy!r}")
        if self.trials < 1 or self.num_attempts < 1:
            raise BenchError("trials and num_attempts must be >= 1")


_EXPERIMENT_DEFAULTS = {
    "A": dict(trials=10, num_attempts=5, devices=("testA",),
              target_angle=7.0, store_policy="reset"),
    "B": dict(trials=10, num_attempts=5, devices=("testB",),
              target_angle=math.inf, store_policy="reset"),
    "C": dict(trials=2, num_attempts=5, devices=("normal", "stiff"),
              target_angle=math.pi / 2, store_policy="retain"),
}


def make_config(experiment: str, behavior: str, seed: int,
                **overrides) -> ExperimentConfig:
    """Experiment defaults with explicit overrides on top."""
    try:
        defaults = dict(_EXPERIMENT_DEFAULTS[experiment])
    except KeyError:
        raise BenchError(f"unknown experiment {experiment!r}") from None
    defaults.update(overrides)
    return ExperimentConfig(experiment=experiment, behavior=behavior,
                            seed=seed, **defaults)


def behavior_strategies(behavior: str,
                        strategies: list[StrategySpec] | None = None
                        ) -> list[StrategySpec]:
    """Restrict the registry for single-strategy behaviors."""
    registry = list(strategies if strategies is not None else DEFAULT_STRATEGIES)
    if behavior == "adaptive":
        return registry
    wanted = f"{behavior}_torque"
    picked = [s for s in registry if s.id == wanted]
    if not picked:
        raise BenchError(f"behavior {behavior!r} needs a strategy {wanted!r}")
    return picked


# ---------------------------------------------------------------------------
# canonical tree


_LEAF_DECLARATIONS = """\
  <Leaf id="SelectStrategy">
    <Port name="strategy_id" direction="out" type="str"/>
  </Leaf>
  <Leaf id="CheckStrategyViable">
    <Port name="strategy_id" direction="in" type="str"/>
  </Leaf>
  <Leaf id="IsTightened">
    <Port name="torque" direction="in" type="float"/>
    <Port name="threshold" direction="in" type="float"/>
  </Leaf>
  <Leaf id="AngleWithinLimits">
    <Port name="angle" direction="in" type="float"/>
    <Port name="strategy" direction="in" type="str"/>
  </Leaf>
  <Leaf id="FTWithinLimits">
    <Port name="torque" direction="in" type="float"/>
    <Port name="strategy" direction="in" type="str"/>
  </Leaf>
  <Leaf id="LookupPose">
    <Port name="strategy" direction="in" type="str"/>
    <Port name="angle" direction="out" type="float"/>
  </Leaf>
  <Leaf id="Approach">
    <Port name="strategy" direction="in" type="str"/>
  </Leaf>
  <Leaf id="Grasp">
    <Port name="strategy" direction="in" type="str"/>
  </Leaf>
  <Leaf id="Retract">
    <Port name="strategy" direction="in" type="str"/>
  </Leaf>
  <Leaf id="ManipulateTarget">
    <Port name="strategy" direction="in" type="str"/>
    <Port name="target_angle" direction="in" type="float"/>
    <Port name="progress" direction="inout" type="float"/>
    <Port name="torque" direction="out" type="float"/>
    <Port name="angle" direction="out" type="float"/>
  </Leaf>
"""

_STRATEGY_RUN_TREE = """\
  <Tree id="StrategyRun">
    <Sequence name="strategy_run">
      <LookupPose strategy="{strategy}" angle="{effective_handle_angle}"/>
      <Approach strategy="{strategy}"/>
      <Grasp strategy="{strategy}"/>
      <Fallback name="manipulate_or_bail">
        <Sequence name="manipulate_then_retract">
          <ReactiveFallback name="until_tightened">
            <IsTightened torque="{current_torque}" threshold="{tightened_threshold}"/>
            <ReactiveSequence name="guarded_twist">
              <AngleWithinLimits angle="{effective_handle_angle}" strategy="{strategy}"/>
              <FTWithinLimits torque="{current_torque}" strategy="{strategy}"/>
              <ManipulateTarget strategy="{strategy}" target_angle="{target_angle}" progress="{twist_progress}" torque="{current_torque}" angle="{effective_handle_angle}"/>
            </ReactiveSequence>
          </ReactiveFallback>
          <Retract strategy="{strategy}"/>
        </Sequence>
        <ForceFailure name="retract_then_fail">
          <Retract name="bail_retract" strategy="{strategy}"/>
        </ForceFailure>
      </Fallback>
    </Sequence>
  </Tree>
"""


def canonical_tree_text(strategy_ids: list[str]) -> str:
    """Definition text of the adaptive episode tree for these strategies.

    One switch case per strategy id runs the shared strategy subtree in its
    own scope; the extra sentinel case accepts selection failure so the
    final viability check can turn it into an episode Failure.
    """
    cases = []
    for sid in strategy_ids:
        cases.append(
            f'          <Case value="{sid}">\n'
            f'            <SubTree id="StrategyRun" name="{sid}_run" '
            f'strategy="{sid}" target_angle="{{target_angle}}" '
            f'tightened_threshold="{{tightened_threshold}}" '
            f'twist_progress="{{twist_progress}}" '
            f'last_failure_reason="{{last_failure_reason}}" '
            f'current_torque="0.0" effective_handle_angle="0.0"/>\n'
            f'          </Case>')
    cases.append(
        f'          <Case value="{NO_STRATEGIES}">\n'
        f'            <AlwaysSuccess name="accept_no_strategy"/>\n'
        f'          </Case>')
    case_block = "\n".join(cases)
    exempt = ";".join(EXEMPT_REASONS)
    return (
        f'<TreeDocument main_tree="Main" strategy_var="{STRATEGY_VAR}">\n'
        f'{_LEAF_DECLARATIONS}'
        f'  <Tree id="Main">\n'
        f'    <Sequence name="episode">\n'
        f'      <RetryUntilSuccessful name="attempt_loop" '
        f'num_attempts="{{num_attempts}}" exempt_reasons="{exempt}">\n'
        f'        <Sequence name="attempt">\n'
        f'          <SelectStrategy strategy_id="{{{STRATEGY_VAR}}}"/>\n'
        f'          <SwitchStatement name="strategy_switch" '
        f'variable="{{{STRATEGY_VAR}}}">\n'
        f'{case_block}\n'
        f'          </SwitchStatement>\n'
        f'        </Sequence>\n'
        f'      </RetryUntilSuccessful>\n'
        f'      <CheckStrategyViable strategy_id="{{{STRATEGY_VAR}}}"/>\n'
        f'    </Sequence>\n'
        f'  </Tree>\n'
        f'{_STRATEGY_RUN_TREE}'
        f'</TreeDocument>\n')


def build_canonical_tree(strategy_ids: list[str]) -> TreeDocument:
    result = parse_tree_definition(canonical_tree_text(strategy_ids))
    if not result.ok:
        raise BenchError("canonical tree failed to parse: "
                         + "; ".join(str(d) for d in result.errors()))
    coverage = validate_switch_coverage(result.document, set(strategy_ids))
    errors = [d for d in coverage if d.severity == "error"]
    if errors:
        raise BenchError("canonical tree failed coverage: "
                         + "; ".join(str(d) for d in errors))
    return result.document


# ---------------------------------------------------------------------------
# episodes


class EpisodeProbe:
    """Observes strategy selections; numbers attempt executions for records."""

    def __init__(self):
        self.attempt = 0
        self.selections: list[tuple[str, float]] = []

    def on_select(self, strategy_id: str, max_torque: float) -> None:
        self.attempt += 1
        self.selections.append((strategy_id, max_torque))

    def strategy_sequence(self) -> tuple[str, ...]:
        out: list[str] = []
        for sid, _ in self.selections:
            if sid == NO_STRATEGIES:
                continue
            if not out or out[-1] != sid:
                out.append(sid)
        return tuple(out)


def episode_leaf_registry(world: World, store: DataStore,
                          strategies: list[StrategySpec], probe: EpisodeProbe,
                          trial: int, margin: float = 0.0) -> LeafRegistry:
    by_id = {s.id: s for s in strategies}
    registry = LeafRegistry()
    registry.register("SelectStrategy", select_strategy_leaf(
        store, world.device.id, strategies, margin, observer=probe.on_select))
    registry.register("CheckStrategyViable", strategy_viable_leaf())
    registry.register("IsTightened", is_tightened_leaf())
    registry.register("AngleWithinLimits", angle_within_limits_leaf(by_id))
    registry.register("FTWithinLimits", ft_within_limits_leaf(by_id))
    registry.register("LookupPose", lookup_pose_leaf(world, by_id))
    for kind, leaf_id in (("approach", "Approach"), ("grasp", "Grasp"),
                          ("retract", "Retract")):
        registry.register(leaf_id, motion_segment_leaf(world, by_id, kind))
    registry.register("ManipulateTarget", manipulate_target_leaf(
        world, by_id, store, trial, lambda: probe.attempt))
    return registry


def run_episode(device: DeviceInstance, strategies: list[StrategySpec],
                store: DataStore, rng: random.Random, trial: int,
                target_angle: float, num_attempts: int, dt: float = 0.1,
                margin: float = 0.0, max_ticks: int = 200_000,
                document: TreeDocument | None = None,
                probe: EpisodeProbe | None = None,
                seeds: dict | None = None,
                on_tick: Callable[[int, float, NodeStatus, TickTrace], None]
                | None = None) -> EpisodeResult:
    """One full seeded episode of `document` (default: the canonical tree).

    `seeds` are extra blackboard entries written after the four standard
    keys. `on_tick(tick, sim_time, status, trace)` is called after every
    root tick and before the world clock advances, so `sim_time` is the
    time the tick ran at. Raises BenchError after `max_ticks` ticks.
    """
    world = World(device, dt=dt, rng=rng)
    if probe is None:
        probe = EpisodeProbe()
    leaf_registry = episode_leaf_registry(world, store, strategies, probe,
                                          trial, margin)
    if document is None:
        document = build_canonical_tree([s.id for s in strategies])

    blackboard = Blackboard()
    blackboard.set("num_attempts", num_attempts)
    blackboard.set("target_angle", target_angle)
    blackboard.set("tightened_threshold", device.tightened_threshold)
    blackboard.set("twist_progress", 0.0)
    for key, value in (seeds or {}).items():
        blackboard.set(key, value)

    tree = instantiate(document, leaf_registry, blackboard)
    retry = next((n for n in iter_nodes(tree)
                  if isinstance(n, RetryUntilSuccessful)), None)

    for tick in range(max_ticks):
        status, trace = tick_root(tree, blackboard)
        if on_tick is not None:
            on_tick(tick, world.sim_time, status, trace)
        world.advance()
        if status is not _RUNNING:
            break
    else:
        raise BenchError(f"episode exceeded {max_ticks} ticks")

    history = retry.history if retry is not None else []
    reasons = [reason for reason, _ in history]
    if probe.selections and probe.selections[-1][0] == NO_STRATEGIES:
        reasons.append(NO_STRATEGIES)
    return EpisodeResult(
        trial=trial,
        device_id=device.id,
        success=status is _SUCCESS,
        attempts_consumed=retry.attempts_consumed if retry is not None else 1,
        sim_time=world.sim_time,
        strategy_sequence=probe.strategy_sequence(),
        failure_reasons=tuple(reasons))


def trial_rng(seed: int, episode_index: int) -> random.Random:
    """Independent per-episode stream; the string mix keeps trials distinct."""
    return random.Random(f"{seed}/{episode_index}")


def run_experiment(config: ExperimentConfig,
                   strategies: list[StrategySpec] | None = None,
                   devices: dict[str, DeviceInstance] | None = None
                   ) -> tuple[list[EpisodeResult], DataStore]:
    """All trials of one experiment; returns results plus the final store."""
    registry = behavior_strategies(config.behavior, strategies)
    device_map = devices if devices is not None else DEFAULT_DEVICES
    try:
        device_list = [device_map[d] for d in config.devices]
    except KeyError as exc:
        raise BenchError(f"unknown device {exc.args[0]!r}") from None

    document = build_canonical_tree([s.id for s in registry])
    results: list[EpisodeResult] = []
    store = DataStore()
    episode_index = 0
    for device in device_list:
        for trial in range(1, config.trials + 1):
            if config.store_policy == "reset":
                store = DataStore()
            results.append(run_episode(
                device, registry, store, trial_rng(config.seed, episode_index),
                trial, config.target_angle, config.num_attempts,
                dt=config.dt, margin=config.margin, max_ticks=config.max_ticks,
                document=document))
            episode_index += 1
    return results, store


# ---------------------------------------------------------------------------
# reporting


def format_results_csv(results: list[EpisodeResult]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULT_FIELDS)
    for r in results:
        writer.writerow([
            r.trial,
            "true" if r.success else "false",
            r.attempts_consumed,
            f"{r.sim_time:.1f}",
            ";".join(r.strategy_sequence),
            ";".join(r.failure_reasons),
        ])
    return out.getvalue()


def emit_results(results: list[EpisodeResult], path) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(format_results_csv(results))


def summarize(results: list[EpisodeResult], config: ExperimentConfig) -> str:
    """Human-readable block: per-trial rows plus per-device roll-ups."""
    lines = [f"experiment {config.experiment} behavior {config.behavior} "
             f"seed {config.seed}"]
    for r in results:
        outcome = "ok  " if r.success else "FAIL"
        strategies = ";".join(r.strategy_sequence) or "-"
        reasons = ";".join(r.failure_reasons) or "-"
        lines.append(f"  {r.device_id} trial {r.trial}: {outcome} "
                     f"attempts={r.attempts_consumed} time={r.sim_time:.1f}s "
                     f"strategies={strategies} reasons={reasons}")
    for device_id in dict.fromkeys(r.device_id for r in results):
        rows = [r for r in results if r.device_id == device_id]
        wins = [r for r in rows if r.success]
        lines.append(f"  {device_id}: {len(wins)}/{len(rows)} trials succeeded")
        if wins:
            histogram = {}
            for r in wins:
                histogram[r.attempts_consumed] = \
                    histogram.get(r.attempts_consumed, 0) + 1
            by_attempt = " ".join(f"{n}:{histogram[n]}"
                                  for n in sorted(histogram))
            lines.append(f"  {device_id}: successes by attempt {by_attempt}")
            lines.append(f"  {device_id}: fastest time "
                         f"{min(r.sim_time for r in wins):.1f} s")
        elif rows:
            lines.append(f"  {device_id}: fastest time "
                         f"{min(r.sim_time for r in rows):.1f} s (Fail)")
    return "\n".join(lines) + "\n"
