import dataclasses
import math
import random

import pytest

from adaptbt.bench import DEFAULT_DEVICES, EpisodeProbe
from adaptbt.core import (
    Blackboard,
    Key,
    NodeStatus,
    ReactiveSequence,
    tick_root,
)
from adaptbt.sim import (
    DeviceInstance,
    SimulationError,
    LookupPose,
    ManipulateTarget,
    MotionSegment,
    World,
    draw_segment_failure,
    reactive_torque,
)
from adaptbt.strategies import (
    AngleWithinLimits,
    DataStore,
    GENUINE,
    REGRASP,
    StrategySpec,
    remap_handle_angle,
)

S = NodeStatus.SUCCESS
F = NodeStatus.FAILURE
R = NodeStatus.RUNNING

DT = 0.1


def make_spec(**overrides):
    base = dict(ft_limit=0.5, angle_min=0.0, angle_max=math.pi,
                twist_rate=0.157, t_approach=8.0, t_grasp=4.0, t_retract=4.0,
                p_segment_failure=0.0)
    base.update(overrides)
    return StrategySpec(overrides.pop("id", "low_torque"), **base)


def stiff_valve(**overrides):
    base = dict(symmetry_order=2, stiffness=0.18, damping=0.1,
                static_friction=0.02, joint_limit=3.0, limit_spike_torque=2.0,
                tightened_threshold=1.5)
    base.update(overrides)
    return DeviceInstance("needle", **base)


def plain_valve(**overrides):
    base = dict(symmetry_order=3, dynamics_enabled=False, static_friction=0.05)
    base.update(overrides)
    return DeviceInstance("wheel", **base)


LOW = make_spec()
REGISTRY = {"low_torque": LOW}

MANIP_PORTS = {"strategy": Key("strategy_id"), "target_angle": Key("target_angle"),
               "progress": Key("twist_progress"), "torque": Key("current_torque"),
               "angle": Key("effective_handle_angle")}
ANGLE_PORTS = {"angle": Key("effective_handle_angle"), "strategy": Key("strategy_id")}
STRATEGY_PORT = {"strategy": Key("strategy_id")}
LOOKUP_PORTS = {"strategy": Key("strategy_id"), "angle": Key("effective_handle_angle")}


class TestReactiveTorque:
    def test_damped_spring_formula(self):
        torque = reactive_torque(stiff_valve(), 2.0, 0.157)
        assert torque == pytest.approx(0.18 * 2.0 + 0.1 * 0.157 + 0.02, abs=1e-12)
        assert torque == pytest.approx(0.3957, abs=1e-12)

    def test_spike_at_joint_limit_reaches_tightened_level(self):
        device = stiff_valve()
        assert reactive_torque(device, 3.0, 0.027) == 2.0
        assert reactive_torque(device, 3.0, 0.027) >= device.tightened_threshold

    def test_dynamics_disabled_gives_friction_only(self):
        assert reactive_torque(plain_valve(), 2.0, 0.157) == 0.05

    def test_no_twist_no_torque(self):
        assert reactive_torque(stiff_valve(), 2.0, 0.0) == 0.0


class TestWorldStepping:
    def test_euler_step(self):
        world = World(stiff_valve())
        world.set_grasp(0.0)
        delta, _ = world.step_twist(0.157)
        assert world.handle_angle == pytest.approx(0.0157)
        assert delta == pytest.approx(0.0157)

    def test_clamp_at_joint_limit(self):
        world = World(stiff_valve(handle_angle=2.95))
        world.set_grasp(0.0)
        delta, torque = world.step_twist(1.0)
        assert world.handle_angle == 3.0
        assert delta == pytest.approx(0.05)
        assert torque == 2.0
        delta, torque = world.step_twist(1.0)
        assert delta == 0.0
        assert torque == 2.0

    def test_twist_requires_grasp(self):
        world = World(stiff_valve())
        with pytest.raises(SimulationError):
            world.step_twist(0.1)

    def test_world_copies_the_device(self):
        # the world copies only the start angle; the device is left as given
        device = stiff_valve()
        world = World(device)
        world.set_grasp(0.0)
        world.step_twist(0.5)
        assert device.handle_angle == 0.0

    def test_world_leaves_the_device_as_given(self):
        # the world starts from the device's angle and keeps its own
        world = World(stiff_valve(handle_angle=1.0))
        world.set_grasp(0.0)
        world.step_twist(0.5)
        assert world.handle_angle == pytest.approx(1.05)
        assert world.device.handle_angle == 1.0

    def test_devices_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_DEVICES["stiff"].stiffness = 0.9
        with pytest.raises(dataclasses.FrozenInstanceError):
            stiff_valve().handle_angle = 1.0
        assert DEFAULT_DEVICES["stiff"].stiffness == 0.7

    def test_clock_is_step_counted(self):
        world = World(stiff_valve())
        for _ in range(37):
            world.advance()
        assert world.sim_time == pytest.approx(3.7)
        assert world.steps_for(8.0) == 80

    def test_deterministic_torque_trace(self):
        def trace(seed):
            world = World(stiff_valve(), rng=random.Random(seed))
            world.set_grasp(0.0)
            out = []
            for _ in range(100):
                out.append(world.step_twist(0.157))
            return out

        assert trace(12) == trace(12)


class TestMotionSegments:
    def run_leaf(self, leaf, bb, world, max_ticks=500):
        ticks = 0
        while True:
            status, _ = tick_root(leaf, bb)
            world.advance()
            ticks += 1
            if status is not R:
                return status, ticks
            assert ticks < max_ticks

    def test_approach_consumes_its_duration(self):
        world = World(plain_valve())
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        leaf = MotionSegment("approach", STRATEGY_PORT, world, REGISTRY, "approach")
        status, ticks = self.run_leaf(leaf, bb, world)
        assert status is S
        assert ticks == 80
        assert world.sim_time == pytest.approx(8.0)
        assert world.approached

    def test_grasp_requires_approach_first(self):
        world = World(plain_valve())
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        leaf = MotionSegment("grasp", STRATEGY_PORT, world, REGISTRY, "grasp")
        status, _ = tick_root(leaf, bb)
        assert status is F
        assert bb.reason_cell == [GENUINE]

    def test_grasp_adopts_planned_pose(self):
        world = World(plain_valve(handle_angle=5.0))
        world.approached = True
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        lookup = LookupPose("lookup", LOOKUP_PORTS, world, REGISTRY)
        assert tick_root(lookup, bb)[0] is S
        leaf = MotionSegment("grasp", STRATEGY_PORT, world, REGISTRY, "grasp")
        status, ticks = self.run_leaf(leaf, bb, world)
        assert status is S
        assert ticks == 40
        assert world.grasped
        assert world.effective_angle == pytest.approx(
            remap_handle_angle(5.0, 3, 0.0, math.pi))

    def test_retract_releases(self):
        world = World(plain_valve())
        world.approached = True
        world.set_grasp(1.0)
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        leaf = MotionSegment("retract", STRATEGY_PORT, world, REGISTRY, "retract")
        status, ticks = self.run_leaf(leaf, bb, world)
        assert status is S
        assert ticks == 40
        assert not world.grasped and not world.approached

    def test_certain_failure_fires_inside_segment(self):
        spec = make_spec(p_segment_failure=1.0)
        world = World(plain_valve(), rng=random.Random(5))
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        leaf = MotionSegment("approach", STRATEGY_PORT, world,
                             {"low_torque": spec}, "approach")
        status, ticks = self.run_leaf(leaf, bb, world)
        assert status is F
        assert bb.reason_cell == [GENUINE]
        assert 1 <= ticks < 80
        assert not world.approached

    def test_zero_failure_probability_never_fails(self):
        world = World(plain_valve(), rng=random.Random(5))
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        for kind, effect in [("approach", lambda: world.approached),
                             ("grasp", lambda: world.grasped)]:
            if kind == "grasp":
                world.planned_reference = 0.0
            leaf = MotionSegment(kind, STRATEGY_PORT, world, REGISTRY, kind)
            status, _ = self.run_leaf(leaf, bb, world)
            assert status is S
            assert effect()


class TestFailureDraws:
    def test_draw_distribution_bounds(self):
        rng = random.Random(99)
        fired = 0
        for _ in range(3000):
            fire = draw_segment_failure(rng, 0.3, 80)
            if fire is not None:
                fired += 1
                assert 1 <= fire < 80
        assert 0.25 < fired / 3000 < 0.35

    def test_probability_zero_and_one(self):
        rng = random.Random(1)
        assert draw_segment_failure(rng, 0.0, 80) is None
        assert draw_segment_failure(rng, 1.0, 80) is not None
        assert draw_segment_failure(rng, 1.0, 1) == 1


def segment_oracle(target, order, angle_min, angle_max, start_angle=0.0):
    """Continuous-twist lengths implied by the window and symmetry rules."""
    symmetry = 2 * math.pi / order
    theta = start_angle
    progress = 0.0
    segments = []
    while progress < target:
        shifted = math.fmod(theta - angle_min, symmetry)
        if shifted < 0:
            shifted += symmetry
        reference = angle_min + shifted
        twist = min(angle_max - reference, target - progress)
        segments.append(twist)
        theta += twist
        progress += twist
    return segments


class TestManipulateTarget:
    def setup_episode(self, target, device, rng_seed=3):
        world = World(device, rng=random.Random(rng_seed))
        store = DataStore()
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        bb.set("target_angle", target)
        bb.set("twist_progress", 0.0)
        bb.set("current_torque", 0.0)
        registry = REGISTRY
        lookup = LookupPose("lookup", LOOKUP_PORTS, world, registry)
        angle_cond = AngleWithinLimits("angle_ok", ANGLE_PORTS, registry)
        manip = ManipulateTarget("twist", MANIP_PORTS, world, registry, store,
                                 EpisodeProbe())
        loop = ReactiveSequence("twist_loop", [angle_cond, manip])
        return world, store, bb, lookup, loop

    def grasp_now(self, world, bb, lookup):
        status, _ = tick_root(lookup, bb)
        assert status is S
        world.advance()
        world.approached = True
        world.set_grasp(world.planned_reference)

    def test_multi_grasp_episode_matches_segment_oracle(self):
        target = 7.0
        world, store, bb, lookup, loop = self.setup_episode(target, plain_valve())
        oracle = segment_oracle(target, 3, 0.0, math.pi)
        assert len(oracle) == 3
        assert oracle[0] == pytest.approx(math.pi)
        assert oracle[1] == pytest.approx(2 * math.pi / 3)

        step = LOW.twist_rate * DT
        regrasps = 0
        segments = []
        segment_start = 0.0
        self.grasp_now(world, bb, lookup)
        for _ in range(5000):
            status, _ = tick_root(loop, bb)
            world.advance()
            assert bb.get("effective_handle_angle") <= math.pi + step + 1e-9
            if status is F:
                assert bb.reason_cell == [REGRASP]
                bb.reason_cell[0] = None
                regrasps += 1
                segments.append(bb.get("twist_progress") - segment_start)
                segment_start = bb.get("twist_progress")
                self.grasp_now(world, bb, lookup)
            elif status is S:
                segments.append(bb.get("twist_progress") - segment_start)
                break
        else:
            pytest.fail("episode never finished")

        assert regrasps == 2
        assert len(segments) == len(oracle)
        for got, want in zip(segments, oracle):
            assert abs(got - want) <= 2 * step
        progress = bb.get("twist_progress")
        assert target <= progress <= target + step
        # conservation: blackboard progress tracks the physical handle
        assert world.handle_angle == pytest.approx(progress)
        assert len(store) > 0
        assert all(r.torque == 0.05 for r in store.records)
        assert len({r.sim_time for r in store.records}) == len(store)

    def test_quarter_turn_single_segment(self):
        world, store, bb, lookup, loop = self.setup_episode(
            math.pi / 2, plain_valve())
        self.grasp_now(world, bb, lookup)
        ticks = 0
        status = R
        while status is R:
            status, _ = tick_root(loop, bb)
            world.advance()
            ticks += 1
        assert status is S
        assert ticks == math.ceil((math.pi / 2) / (LOW.twist_rate * DT))

    def test_halted_twist_resumes_from_progress(self):
        world, store, bb, lookup, loop = self.setup_episode(3.0, plain_valve())
        self.grasp_now(world, bb, lookup)
        probe = EpisodeProbe()
        probe.attempt = 2
        manip = ManipulateTarget("twist", MANIP_PORTS, world, REGISTRY, store,
                                 probe)
        for _ in range(77):
            assert tick_root(manip, bb)[0] is R
            world.advance()
        manip.halt()
        reached = bb.get("twist_progress")
        assert reached == pytest.approx(77 * LOW.twist_rate * DT)
        ticks = 0
        status = R
        while status is R:
            status, _ = tick_root(manip, bb)
            world.advance()
            ticks += 1
        assert status is S
        assert ticks == math.ceil((3.0 - reached) / (LOW.twist_rate * DT))
        assert {r.attempt for r in store.records} == {2}

    def test_requires_grasp(self):
        world, store, bb, lookup, loop = self.setup_episode(1.0, plain_valve())
        manip = ManipulateTarget("twist", MANIP_PORTS, world, REGISTRY, store,
                                 EpisodeProbe())
        status, _ = tick_root(manip, bb)
        assert status is F
        assert bb.reason_cell == [GENUINE]

    def test_met_target_succeeds_without_twisting(self):
        world, store, bb, lookup, loop = self.setup_episode(1.0, plain_valve())
        self.grasp_now(world, bb, lookup)
        bb.set("twist_progress", 1.5)
        manip = ManipulateTarget("twist", MANIP_PORTS, world, REGISTRY, store,
                                 EpisodeProbe())
        assert tick_root(manip, bb)[0] is S
        assert len(store) == 0


class TestLookupPose:
    def lookup(self, world, registry=None):
        bb = Blackboard()
        bb.set("strategy_id", "low_torque")
        leaf = LookupPose("lookup", LOOKUP_PORTS, world, registry or REGISTRY)
        status, _ = tick_root(leaf, bb)
        return status, bb

    def test_symmetry_shift_example(self):
        world = World(plain_valve(handle_angle=math.radians(310)))
        status, bb = self.lookup(world)
        assert status is S
        assert bb.get("effective_handle_angle") == pytest.approx(
            math.radians(70), abs=1e-12)

    def test_zero_angle_identity(self):
        world = World(plain_valve())
        status, bb = self.lookup(world)
        assert status is S
        assert bb.get("effective_handle_angle") == 0.0

    def test_order_one_wraps_full_turns(self):
        registry = {"low_torque": make_spec(angle_max=2 * math.pi)}
        world = World(plain_valve(symmetry_order=1, handle_angle=7.0))
        status, bb = self.lookup(world, registry)
        assert status is S
        assert bb.get("effective_handle_angle") == pytest.approx(7.0 - 2 * math.pi)

    def test_narrow_window_fails_with_config_reason(self):
        registry = {"low_torque": make_spec(angle_max=1.0)}
        world = World(plain_valve(symmetry_order=2))
        status, bb = self.lookup(world, registry)
        assert status is F
        assert bb.reason_cell == ["config"]


class TestDeviceInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceInstance("d", symmetry_order=0)
        with pytest.raises(ValueError):
            DeviceInstance("d", stiffness=-1.0)
        with pytest.raises(ValueError):
            DeviceInstance("d", joint_limit=1.0, handle_angle=2.0)

    @pytest.mark.parametrize("label", [
        "stiffness", "damping", "static_friction", "limit_spike_torque",
        "handle_angle"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, label, value):
        with pytest.raises(ValueError, match=label):
            DeviceInstance("d", **{label: value})

    @pytest.mark.parametrize("label", ["joint_limit", "tightened_threshold"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_limits_reject_nan_and_minus_inf(self, label, value):
        with pytest.raises(ValueError, match=label):
            DeviceInstance("d", **{label: value})

    @pytest.mark.parametrize("device_id", ["", None, 5])
    def test_id_must_be_non_empty_str(self, device_id):
        with pytest.raises(ValueError, match=f"device id must be a non-empty "
                                             f"string, got {device_id!r}$"):
            DeviceInstance(device_id)

    @pytest.mark.parametrize("label,value,kind", [
        ("stiffness", True, "a number"), ("stiffness", "a", "a number"),
        ("handle_angle", None, "a number"), ("symmetry_order", 2.5, "an int"),
        ("symmetry_order", True, "an int"), ("dynamics_enabled", 1, "a bool")])
    def test_field_types_checked(self, label, value, kind):
        with pytest.raises(TypeError, match=f"^d: {label} must be {kind}, got "):
            DeviceInstance("d", **{label: value})

    def test_int_accepted_for_float_field(self):
        assert DeviceInstance("d", stiffness=1, joint_limit=3).stiffness == 1

    def test_defaults_allow_unbounded_twisting(self):
        device = DeviceInstance("d")
        assert math.isinf(device.joint_limit)
        assert math.isinf(device.tightened_threshold)
