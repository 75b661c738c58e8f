"""Seeded discrete-time valve world and the robot's episode action leaves.

The world advances in fixed dt steps driven by the tick loop: one root tick
is one step of simulated time, advanced centrally by the episode runner.
Action leaves therefore never move the clock themselves; motion segments
count down steps, and the twist action moves the valve by rate*dt per tick.

The valve resists twisting like a damped spring with friction. Devices with
a finite joint limit clamp there and answer further twisting with a fixed
spike torque, which is how a tightened valve announces itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import ConfigurationError, NodeStatus, StatefulAction, _RUNNING, \
    _SUCCESS
from .strategies import CONFIG, DataStore, GENUINE, StrategySpec, \
    check_field_types, remap_handle_angle
from .treedef import PortSpec


class SimulationError(ConfigurationError):
    """A leaf drove the world outside its contract: the tree wires the
    episode leaves in an order the world cannot follow."""


@dataclass(frozen=True)
class DeviceInstance:
    """One valve: its hidden mechanical parameters and its handle's start angle."""

    id: str
    symmetry_order: int = 2
    stiffness: float = 0.25
    damping: float = 0.1
    static_friction: float = 0.02
    joint_limit: float = math.inf
    limit_spike_torque: float = 2.0
    dynamics_enabled: bool = True
    tightened_threshold: float = math.inf
    handle_angle: float = 0.0

    def __post_init__(self):
        # an id keys the data store, whose rows need a non-empty device_id
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"device id must be a non-empty string, got {self.id!r}")
        check_field_types(self)
        if self.symmetry_order < 1:
            raise ValueError(f"{self.id}: symmetry_order must be >= 1")
        for label in ("stiffness", "damping", "static_friction"):
            if not 0 <= getattr(self, label) < math.inf:
                raise ValueError(f"{self.id}: {label} must be finite and >= 0")
        for label in ("limit_spike_torque", "handle_angle"):
            if not -math.inf < getattr(self, label) < math.inf:
                raise ValueError(f"{self.id}: {label} must be finite")
        # +inf means "no limit" here, as in the defaults
        for label in ("joint_limit", "tightened_threshold"):
            if not -math.inf < getattr(self, label) <= math.inf:
                raise ValueError(f"{self.id}: {label} must be a number or +inf")
        if abs(self.handle_angle) > self.joint_limit:
            raise ValueError(f"{self.id}: handle_angle exceeds the joint limit")


def reactive_torque(device: DeviceInstance, angle: float, twist_rate: float) -> float:
    """Resistance the valve answers a commanded twist with, at handle `angle`."""
    if twist_rate == 0.0:
        return 0.0
    if abs(angle) >= device.joint_limit:
        return device.limit_spike_torque
    if not device.dynamics_enabled:
        return device.static_friction
    return (device.stiffness * abs(angle)
            + device.damping * abs(twist_rate)
            + device.static_friction)


class World:
    """Owns the handle angle, the clock and the seeded failure stream."""

    def __init__(self, device: DeviceInstance, dt: float = 0.1,
                 rng: random.Random | None = None):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.device = device
        self.handle_angle = device.handle_angle
        self.dt = dt
        self.rng = rng if rng is not None else random.Random()
        self._steps = 0
        self.approached = False
        self.grasped = False
        self.grasp_reference = 0.0
        self.angle_at_grasp = 0.0
        self.planned_reference: float | None = None

    @property
    def sim_time(self) -> float:
        return self._steps * self.dt

    def advance(self) -> None:
        """Move the clock one step; called once per root tick."""
        self._steps += 1

    def steps_for(self, duration: float) -> int:
        return max(0, round(duration / self.dt))

    @property
    def effective_angle(self) -> float:
        """Handle angle estimate relative to the planned grasp orientation."""
        return self.grasp_reference + (self.handle_angle - self.angle_at_grasp)

    def set_grasp(self, reference: float) -> None:
        self.grasped = True
        self.grasp_reference = reference
        self.angle_at_grasp = self.handle_angle

    def release(self) -> None:
        self.grasped = False
        self.approached = False

    def step_twist(self, rate: float) -> tuple[float, float]:
        """Advance the handle one step at the commanded rate.

        Returns (achieved angle delta, reactive torque). The handle clamps
        at the joint limit; torque is evaluated at the post-step angle, so
        the step that reaches the limit already reports the spike.
        """
        if not self.grasped:
            raise SimulationError("twist commanded while not grasped")
        before = self.handle_angle
        limit = self.device.joint_limit
        after = before + rate * self.dt
        if after > limit:  # an infinite limit fails both tests
            after = limit
        elif after < -limit:
            after = -limit
        self.handle_angle = after
        return after - before, reactive_torque(self.device, after, rate)


# ---------------------------------------------------------------------------
# action leaves


class LookupPose(StatefulAction):
    """Plans the grasp orientation for the active strategy.

    Shifts the current handle angle into the strategy window by whole
    symmetry steps and publishes it as the working angle estimate. One tick.
    """

    PORTS = (PortSpec("strategy", "in", "str"), PortSpec("angle", "out", "float"))

    def __init__(self, name, ports, world: World,
                 registry: dict[str, StrategySpec]):
        super().__init__(name, ports)
        self.world = world
        self.registry = registry

    def on_start(self) -> NodeStatus:
        spec = self.registry[self.input("strategy")]
        try:
            reference = remap_handle_angle(
                self.world.handle_angle, self.world.device.symmetry_order,
                spec.angle_min, spec.angle_max)
        except ValueError:
            return self.fail(CONFIG)
        self.world.planned_reference = reference
        self.output("angle", reference)
        return _SUCCESS


class MotionSegment(StatefulAction):
    """Timed approach/grasp/retract motion with seeded failure injection.

    Consumes the strategy's segment duration in ticks, then applies the
    segment effect. At segment start one draw decides whether this execution
    fails; if so, a second draw places the failure uniformly inside the
    planned duration.
    """

    PORTS = (PortSpec("strategy", "in", "str"),)

    def __init__(self, name, ports, world: World,
                 registry: dict[str, StrategySpec], segment_kind: str):
        super().__init__(name, ports)
        if segment_kind not in ("approach", "grasp", "retract"):
            raise ValueError(f"not a motion segment kind: {segment_kind}")
        self.world = world
        self.registry = registry
        self.segment_kind = segment_kind
        self._steps_left = 0
        self._fail_at = None

    def on_start(self) -> NodeStatus:
        world = self.world
        if self.segment_kind == "grasp" and not (world.approached
                                                 and not world.grasped):
            return self.fail(GENUINE)
        if self.segment_kind == "approach" and world.grasped:
            return self.fail(GENUINE)
        if self.segment_kind == "retract":
            # gripper opens on command; only the motion itself can fail,
            # so an aborted retract never leaves the handle held
            world.release()
        spec = self.registry[self.input("strategy")]
        steps = world.steps_for(spec.segment_duration(self.segment_kind))
        self._steps_left = steps
        self._fail_at = draw_segment_failure(world.rng, spec.p_segment_failure,
                                             steps)
        return self._advance_segment()

    def on_running(self) -> NodeStatus:
        return self._advance_segment()

    def _advance_segment(self) -> NodeStatus:
        if self._fail_at is not None:
            self._fail_at -= 1
            if self._fail_at <= 0:
                return self.fail(GENUINE)
        self._steps_left -= 1
        if self._steps_left > 0:
            return _RUNNING
        self._complete()
        return _SUCCESS

    def _complete(self) -> None:
        world = self.world
        if self.segment_kind == "approach":
            world.approached = True
        elif self.segment_kind == "grasp":
            reference = world.planned_reference
            if reference is None:
                raise SimulationError(
                    f"{self.name}: grasp completed without a planned pose")
            world.set_grasp(reference)


class ManipulateTarget(StatefulAction):
    """Twists the handle toward a cumulative target, one step per tick.

    Progress survives interruptions through its blackboard port, so a
    re-grasped or re-attempted episode resumes where it stopped. Every step
    leaves one torque record in the data store under `probe.attempt`.
    """

    PORTS = (PortSpec("strategy", "in", "str"), PortSpec("target_angle", "in", "float"),
             PortSpec("progress", "inout", "float"), PortSpec("torque", "out", "float"),
             PortSpec("angle", "out", "float"))

    def __init__(self, name, ports, world: World,
                 registry: dict[str, StrategySpec], store: DataStore,
                 probe, trial: int = 1):
        super().__init__(name, ports)
        self.world = world
        self.registry = registry
        self.store = store
        self.probe = probe
        self.trial = trial
        self._fail_at = None

    def on_start(self) -> NodeStatus:
        world = self.world
        if not world.grasped:
            return self.fail(GENUINE)
        spec = self.registry[self.input("strategy")]
        remaining = self.input("target_angle") - self.input("progress")
        if remaining <= 0.0:
            return _SUCCESS
        window_cap = max(0.0, spec.angle_max - world.effective_angle)
        planned = min(remaining, window_cap)
        steps = max(1, math.ceil(planned / (spec.twist_rate * world.dt)))
        self._fail_at = draw_segment_failure(world.rng, spec.p_segment_failure,
                                             steps)
        return self._twist_step(spec)

    def on_running(self) -> NodeStatus:
        return self._twist_step(self.registry[self.input("strategy")])

    def _twist_step(self, spec: StrategySpec) -> NodeStatus:
        if self._fail_at is not None:
            self._fail_at -= 1
            if self._fail_at <= 0:
                return self.fail(GENUINE)
        world = self.world
        delta, torque = world.step_twist(spec.twist_rate)
        self.store.record(world.device.id, self.trial, self.probe.attempt,
                          world.sim_time, torque)
        progress = self.input("progress") + delta
        self.output("progress", progress)
        self.output("torque", torque)
        self.output("angle", world.effective_angle)
        if progress >= self.input("target_angle"):
            return _SUCCESS
        return _RUNNING


def draw_segment_failure(rng: random.Random, p_failure: float,
                         steps: int) -> int | None:
    """Decide at segment start whether and when this execution fails.

    Returns the 1-based step index the failure fires at, or None. The
    placement draw happens only for failing executions, keeping clean runs'
    streams short.
    """
    if rng.random() >= p_failure:
        return None
    if steps <= 1:
        return 1
    return 1 + int(rng.random() * (steps - 1))
