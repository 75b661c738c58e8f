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
import functools
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
    UNTRACED,
    _RUNNING,
    _SUCCESS,
    iter_nodes,
    tick_root,
)
from .sim import DeviceInstance, LookupPose, ManipulateTarget, MotionSegment, \
    World
from .strategies import (
    AngleWithinLimits,
    CheckStrategyViable,
    DataStore,
    EXEMPT_REASONS,
    FTWithinLimits,
    IsTightened,
    SelectStrategy,
    StrategySpec,
    check_field_types,
)
from .treedef import (
    LeafRegistry,
    REASON_SEPARATOR,
    TreeDocument,
    declaration_lines,
    instantiate,
    parse_tree_definition,
    quote_attribute,
)

STRATEGY_VAR = "strategy_id"

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
# the blackboard keys run_episode writes before its extra `seeds`
RUNNER_KEYS = ("num_attempts", "target_angle", "tightened_threshold",
               "twist_progress")

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


@dataclass(frozen=True)
class EpisodeSettings:
    """The numbers of one episode; every type and range check on them lives
    here (a subclass's bool, int, float and str fields are type-checked too)."""
    target_angle: float = math.pi / 2
    num_attempts: int = 5
    dt: float = 0.1
    margin: float = 0.0
    max_ticks: int = 200_000

    def __post_init__(self):
        check_field_types(self)
        if math.isnan(self.target_angle):
            raise BenchError("target_angle must not be NaN")
        if self.num_attempts < 1:
            raise BenchError(f"num_attempts must be >= 1, got {self.num_attempts}")
        if not 0.0 < self.dt < math.inf:
            raise BenchError(f"dt must be finite and > 0, got {self.dt}")
        if not -math.inf < self.margin < math.inf:
            raise BenchError(f"margin must be finite, got {self.margin}")
        if self.max_ticks < 1:
            raise BenchError(f"max_ticks must be >= 1, got {self.max_ticks}")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(EpisodeSettings):
    experiment: str
    behavior: str
    seed: int
    trials: int
    devices: tuple[str, ...]
    store_policy: str  # "reset" per trial or "retain" across trials

    def __post_init__(self):
        super().__post_init__()
        if self.experiment not in EXPERIMENTS:
            raise BenchError(f"unknown experiment {self.experiment!r}")
        if self.behavior not in BEHAVIORS:
            raise BenchError(f"unknown behavior {self.behavior!r}")
        if self.store_policy not in ("reset", "retain"):
            raise BenchError(f"unknown store policy {self.store_policy!r}")
        if self.trials < 1:
            raise BenchError(f"trials must be >= 1, got {self.trials}")
        if not self.devices or len(set(self.devices)) != len(self.devices):
            raise BenchError(f"devices must name one or more distinct ids, "
                             f"got {self.devices}")


_EXPERIMENT_DEFAULTS = {
    "A": dict(trials=10, devices=("testA",),
              target_angle=7.0, store_policy="reset"),
    "B": dict(trials=10, devices=("testB",),
              target_angle=math.inf, store_policy="reset"),
    "C": dict(trials=2, devices=("normal", "stiff"),
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


def strategies_by_id(strategies: list[StrategySpec]) -> dict[str, StrategySpec]:
    """The specs indexed by id; BenchError when an id repeats."""
    by_id: dict[str, StrategySpec] = {}
    for spec in strategies:
        if spec.id in by_id:
            raise BenchError(f"strategies repeat the id {spec.id!r}")
        by_id[spec.id] = spec
    return by_id


def behavior_strategies(behavior: str,
                        strategies: list[StrategySpec] | None = None
                        ) -> list[StrategySpec]:
    """Restrict the registry for single-strategy behaviors."""
    registry = list(strategies if strategies is not None else DEFAULT_STRATEGIES)
    strategies_by_id(registry)
    if behavior == "adaptive":
        return registry
    wanted = f"{behavior}_torque"
    picked = [s for s in registry if s.id == wanted]
    if not picked:
        raise BenchError(f"behavior {behavior!r} needs a strategy {wanted!r}")
    return picked


# ---------------------------------------------------------------------------
# canonical tree


# each episode leaf id and its class's port table, in the canonical tree's order
LEAF_PORTS = {
    "SelectStrategy": SelectStrategy.PORTS,
    "CheckStrategyViable": CheckStrategyViable.PORTS,
    "IsTightened": IsTightened.PORTS,
    "AngleWithinLimits": AngleWithinLimits.PORTS,
    "FTWithinLimits": FTWithinLimits.PORTS,
    "LookupPose": LookupPose.PORTS,
    **dict.fromkeys(("Approach", "Grasp", "Retract"), MotionSegment.PORTS),
    "ManipulateTarget": ManipulateTarget.PORTS,
}
_LEAF_DECLARATIONS = "".join(f"{line}\n" for line in declaration_lines(LEAF_PORTS))

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
            f'          <Case value={quote_attribute(sid)}>\n'
            f'            <SubTree id="StrategyRun" name={quote_attribute(sid + "_run")} '
            f'strategy={quote_attribute(sid)} target_angle="{{target_angle}}" '
            f'tightened_threshold="{{tightened_threshold}}" '
            f'twist_progress="{{twist_progress}}" '
            f'current_torque="0.0" effective_handle_angle="0.0"/>\n'
            f'          </Case>')
    cases.append(
        f'          <Case value="{NO_STRATEGIES}">\n'
        f'            <AlwaysSuccess name="accept_no_strategy"/>\n'
        f'          </Case>')
    case_block = "\n".join(cases)
    exempt = REASON_SEPARATOR.join(EXEMPT_REASONS)
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
    return result.document


# ---------------------------------------------------------------------------
# episodes


class EpisodeProbe:
    """The episode leaves' report channel: selections and the attempt number."""

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
    by_id = strategies_by_id(strategies)
    registry = LeafRegistry()
    registry.register("SelectStrategy", functools.partial(
        SelectStrategy, store=store, device_id=world.device.id,
        registry=strategies, probe=probe, margin=margin))
    registry.register("CheckStrategyViable", CheckStrategyViable)
    registry.register("IsTightened", IsTightened)
    registry.register("AngleWithinLimits", functools.partial(
        AngleWithinLimits, registry=by_id))
    registry.register("FTWithinLimits", functools.partial(
        FTWithinLimits, registry=by_id))
    registry.register("LookupPose", functools.partial(
        LookupPose, world=world, registry=by_id))
    for kind, leaf_id in (("approach", "Approach"), ("grasp", "Grasp"),
                          ("retract", "Retract")):
        registry.register(leaf_id, functools.partial(
            MotionSegment, world=world, registry=by_id, segment_kind=kind))
    registry.register("ManipulateTarget", functools.partial(
        ManipulateTarget, world=world, registry=by_id, store=store,
        probe=probe, trial=trial))
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

    `seeds` are extra blackboard entries written after the RUNNER_KEYS.
    `on_tick(tick, sim_time, status, trace)` is called after every root tick
    and before the world clock advances, so `sim_time` is the time the tick
    ran at. Each tick records a new trace only when `on_tick` is given.
    Raises BenchError after `max_ticks` ticks.
    """
    world = World(device, dt=dt, rng=rng)
    if probe is None:
        probe = EpisodeProbe()
    leaf_registry = episode_leaf_registry(world, store, strategies, probe,
                                          trial, margin)
    if document is None:
        document = build_canonical_tree([s.id for s in strategies])

    blackboard = Blackboard()
    runner_values = (num_attempts, target_angle, device.tightened_threshold, 0.0)
    for key, value in (*zip(RUNNER_KEYS, runner_values), *(seeds or {}).items()):
        blackboard.set(key, value)

    tree = instantiate(document, leaf_registry, blackboard)
    retry = next((n for n in iter_nodes(tree)
                  if isinstance(n, RetryUntilSuccessful)), None)

    # None: tick_root records each tick into a new trace for on_tick
    record_into = UNTRACED if on_tick is None else None
    for tick in range(max_ticks):
        status, trace = tick_root(tree, blackboard, record_into)
        if on_tick is not None:
            on_tick(tick, world.sim_time, status, trace)
        world.advance()
        if status is not _RUNNING:
            break
    else:
        raise BenchError(f"episode exceeded {max_ticks} ticks")

    history = retry.history if retry is not None else []
    charged = sum(not exempt for _, exempt in history)  # plus one for a success
    reasons = [reason for reason, _ in history]
    if probe.selections and probe.selections[-1][0] == NO_STRATEGIES:
        reasons.append(NO_STRATEGIES)
    return EpisodeResult(
        trial=trial,
        device_id=device.id,
        success=status is _SUCCESS,
        attempts_consumed=(charged + (retry.status is _SUCCESS)
                           if retry is not None else 1),
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
