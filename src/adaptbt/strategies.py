"""Strategy registry, torque history, selection rule and decision leaves.

A strategy bundles everything one complete approach to a twisting task
needs: torque allowance, the window in which continuous twisting is safe,
twist rate, segment timings and a nuisance failure rate. Selection picks
the cheapest strategy whose allowance covers the largest torque ever
recorded for the specific device instance; devices never share data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .core import (
    Condition,
    LAST_FAILURE_REASON,
    NO_STRATEGIES,
    NodeStatus,
    StatefulAction,
)

# Failure reasons. The first two are exempt from retry accounting: they are
# deliberate interruptions, not task failures.
REGRASP = "regrasp"
STRATEGY_SWITCH = "strategy_switch"
GENUINE = "genuine"
EXEMPT_REASONS = (REGRASP, STRATEGY_SWITCH)

STORE_FIELDS = ("device_id", "trial", "attempt", "sim_time", "torque", "force")


@dataclass(frozen=True)
class StrategySpec:
    """One complete task approach and its safety envelope."""

    id: str
    ft_limit: float
    angle_min: float
    angle_max: float
    twist_rate: float
    t_approach: float
    t_grasp: float
    t_retract: float
    p_segment_failure: float

    def __post_init__(self):
        for label in ("ft_limit", "angle_min", "angle_max", "twist_rate",
                      "t_approach", "t_grasp", "t_retract", "p_segment_failure"):
            if not -math.inf < getattr(self, label) < math.inf:
                raise ValueError(f"{self.id}: {label} must be finite")
        if self.ft_limit <= 0:
            raise ValueError(f"{self.id}: ft_limit must be positive")
        if self.twist_rate <= 0:
            raise ValueError(f"{self.id}: twist_rate must be positive")
        if self.angle_max <= self.angle_min:
            raise ValueError(f"{self.id}: empty twist window")
        if not 0.0 <= self.p_segment_failure <= 1.0:
            raise ValueError(f"{self.id}: p_segment_failure must be in [0, 1]")
        for label in ("t_approach", "t_grasp", "t_retract"):
            if getattr(self, label) < 0:
                raise ValueError(f"{self.id}: {label} must be >= 0")

    @property
    def window_width(self) -> float:
        return self.angle_max - self.angle_min

    def segment_duration(self, kind: str) -> float:
        return {"approach": self.t_approach, "grasp": self.t_grasp,
                "retract": self.t_retract}[kind]


@dataclass(frozen=True)
class FTRecord:
    """One wrist sensor reading taken during manipulation."""

    device_id: str
    trial: int
    attempt: int
    sim_time: float
    torque: float
    force: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.torque < math.inf:
            raise ValueError(f"torque must be finite and >= 0, got {self.torque}")

    @property
    def key(self) -> tuple[str, int, int, float]:
        return (self.device_id, self.trial, self.attempt, self.sim_time)


class DataStore:
    """Append-only record log with a per-device running torque maximum."""

    def __init__(self):
        self.records: list[FTRecord] = []
        self._index: dict[str, float] = {}
        self._keys: set[tuple] = set()

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: FTRecord) -> None:
        if record.key in self._keys:
            raise ValueError(f"duplicate record key {record.key}")
        self._keys.add(record.key)
        self.records.append(record)
        previous = self._index.get(record.device_id, 0.0)
        self._index[record.device_id] = max(previous, record.torque)

    def record(self, device_id: str, trial: int, attempt: int,
               sim_time: float, torque: float, force: float = 0.0) -> None:
        self.add(FTRecord(device_id, trial, attempt, sim_time, torque, force))

    def max_torque(self, device_id: str) -> float:
        """Largest recorded torque for the device, 0 when nothing is known."""
        return self._index.get(device_id, 0.0)

    def devices(self) -> list[str]:
        return sorted(self._index)


def persist(store: DataStore, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(STORE_FIELDS)
        for rec in store.records:
            writer.writerow([rec.device_id, rec.trial, rec.attempt,
                             repr(rec.sim_time), repr(rec.torque), repr(rec.force)])


def load(path) -> DataStore:
    store = DataStore()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(STORE_FIELDS):
            raise ValueError(f"line 1: expected header {','.join(STORE_FIELDS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(STORE_FIELDS):
                raise ValueError(f"line {lineno}: expected {len(STORE_FIELDS)} fields, "
                                 f"got {len(row)}")
            try:
                store.record(row[0], int(row[1]), int(row[2]),
                             float(row[3]), float(row[4]), float(row[5]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return store


def select_strategy(store: DataStore, device_id: str,
                    registry: list[StrategySpec], margin: float = 0.0) -> str:
    """Cheapest strategy whose torque allowance covers the device history.

    Returns the id of the strategy with the smallest ft_limit satisfying
    ft_limit >= m * (1 + margin) where m is the device's recorded maximum;
    the sentinel when no strategy qualifies. Ties keep registry order.
    """
    if not registry:
        raise ValueError("strategy registry is empty")
    needed = store.max_torque(device_id) * (1.0 + margin)
    best: StrategySpec | None = None
    for spec in registry:
        if spec.ft_limit >= needed and (best is None or spec.ft_limit < best.ft_limit):
            best = spec
    return best.id if best is not None else NO_STRATEGIES


def remap_handle_angle(measured: float, symmetry_order: int,
                       angle_min: float, angle_max: float) -> float:
    """Shift an angle by whole symmetry steps into the allowed window.

    The result lies in [angle_min, angle_min + 2*pi/order) and differs from
    the input by an integer multiple of the symmetry angle.
    """
    if symmetry_order < 1:
        raise ValueError(f"symmetry_order must be >= 1, got {symmetry_order}")
    symmetry = 2.0 * math.pi / symmetry_order
    # grace absorbs windows constructed as angle_min + 2*pi/order in floats
    if angle_max - angle_min < symmetry - 1e-9:
        raise ValueError(
            f"window [{angle_min}, {angle_max}] is narrower than the "
            f"symmetry angle {symmetry}")
    delta = measured - angle_min
    if 0.0 <= delta < symmetry:
        return measured
    shifted = math.fmod(delta, symmetry)
    if shifted < 0.0:
        shifted += symmetry
    result = angle_min + shifted
    # rounding in the addition can land exactly on the open boundary; snap
    # one full step so outputs always satisfy the in-window test above
    if result - angle_min >= symmetry:
        result = angle_min
    return result


# ---------------------------------------------------------------------------
# decision leaves


def select_strategy_leaf(store: DataStore, device_id: str,
                         registry: list[StrategySpec], margin: float = 0.0,
                         observer=None):
    """Factory for the selection leaf. Always succeeds; writes the chosen id.

    `observer`, when given, is called with (strategy_id, max_torque) on each
    selection; harnesses use it for attempt counting and phase tracking.
    """
    def factory(name, ports):
        def on_start(node):
            chosen = select_strategy(store, device_id, registry, margin)
            node.output("strategy_id", chosen)
            if observer is not None:
                observer(chosen, store.max_torque(device_id))
            return NodeStatus.SUCCESS
        return StatefulAction(name, ports, on_start=on_start)
    return factory


def strategy_viable_leaf():
    """Factory for the final viability check: fails on the sentinel id."""
    def factory(name, ports):
        return Condition(
            name, ports=ports,
            predicate=lambda node: node.input("strategy_id") != NO_STRATEGIES)
    return factory


def is_tightened_leaf():
    """Success once the measured torque reaches the tightened threshold."""
    def factory(name, ports):
        return Condition(
            name, ports=ports,
            predicate=lambda node: node.input("torque") >= node.input("threshold"))
    return factory


def angle_within_limits_leaf(registry: dict[str, StrategySpec]):
    """Success while the handle estimate stays inside the strategy window.

    Leaving the window is a deliberate interruption: the leaf records the
    re-grasp reason so the retry decorator does not charge an attempt.
    """
    def factory(name, ports):
        def predicate(node):
            spec = registry[node.input("strategy")]
            angle = node.input("angle")
            if spec.angle_min <= angle <= spec.angle_max:
                return True
            node.bb.set(LAST_FAILURE_REASON, REGRASP)
            return False
        return Condition(name, ports=ports, predicate=predicate)
    return factory


def ft_within_limits_leaf(registry: dict[str, StrategySpec]):
    """Success while measured torque stays within the strategy allowance.

    Exceeding it preempts the attempt with the strategy-switch reason so a
    stronger strategy can be selected without charging an attempt.
    """
    def factory(name, ports):
        def predicate(node):
            spec = registry[node.input("strategy")]
            if node.input("torque") <= spec.ft_limit:
                return True
            node.bb.set(LAST_FAILURE_REASON, STRATEGY_SWITCH)
            return False
        return Condition(name, ports=ports, predicate=predicate)
    return factory
