"""Strategy registry, torque history, selection rule and decision leaves.

A strategy bundles everything one complete approach to a twisting task
needs: torque allowance, the window in which continuous twisting is safe,
twist rate, segment timings and a nuisance failure rate. Selection picks
the cheapest strategy whose allowance covers the largest torque ever
recorded for the specific device instance; devices never share data.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import zlib
from dataclasses import dataclass, fields
from typing import NamedTuple

from .core import (
    Condition,
    ConfigurationError,
    NO_STRATEGIES,
    NodeStatus,
    StatefulAction,
    _FAILURE,
    _SUCCESS,
)
from .treedef import PortSpec, infer_literal, parse_binding

# Failure reasons. The first two are exempt from retry accounting: they are
# deliberate interruptions, not task failures.
REGRASP = "regrasp"
STRATEGY_SWITCH = "strategy_switch"
GENUINE = "genuine"
CONFIG = "config"  # a strategy window cannot hold the device symmetry
EXEMPT_REASONS = (REGRASP, STRATEGY_SWITCH)
FAILURE_REASONS = frozenset({*EXEMPT_REASONS, GENUINE, CONFIG})

# module globals: on the hot path a global load is cheaper than an attribute load
_INF = math.inf
_tuple_new = tuple.__new__


# annotation -> the value types a field so annotated takes, and their name
_FIELD_TYPES = {"str": ((str,), "a string"), "int": ((int,), "an int"),
                "float": ((int, float), "a number"), "bool": ((bool,), "a bool")}


def check_field_types(instance) -> None:
    """Raise TypeError, naming the field, for a value its annotation refuses.

    For dataclasses such as `StrategySpec`, `DeviceInstance` and
    `EpisodeSettings`: a bool is not a number, an int field takes no float, a
    float field takes an int. Fields annotated other than bool, int, float or
    str are not checked. The message names the record's `id` if it has one.
    """
    where = f"{instance.id}: " if hasattr(instance, "id") else ""
    for field in fields(instance):
        if field.type not in _FIELD_TYPES:
            continue
        value = getattr(instance, field.name)
        types, kind = _FIELD_TYPES[field.type]
        if not isinstance(value, types) or (
                type(value) is bool and field.type != "bool"):
            raise TypeError(f"{where}{field.name} must be {kind}, got {value!r}")


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
        # an id travels through tree documents as a case value and a seed
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"strategy id must be a non-empty string, got {self.id!r}")
        if self.id == NO_STRATEGIES:
            raise ValueError(f"strategy id {self.id!r} is reserved for the "
                             f"no-strategy sentinel")
        try:
            as_text = parse_binding(self.id) is None and infer_literal(self.id) == self.id
        except ValueError:
            as_text = False
        if not as_text:
            raise ValueError(f"strategy id {self.id!r} must read as text: no braces, "
                             f"no number or bool spelling")
        check_field_types(self)
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

    def segment_duration(self, kind: str) -> float:
        return {"approach": self.t_approach, "grasp": self.t_grasp,
                "retract": self.t_retract}[kind]


def _as_float(field: str, value) -> float:
    """An FTRecord number field as a float: ints convert, bools do not."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a number, got {value!r}")
    return float(value)


class _FTFields(NamedTuple):
    device_id: str
    trial: int
    attempt: int
    sim_time: float
    torque: float
    force: float = 0.0


class FTRecord(_FTFields):
    """One wrist sensor reading taken during manipulation.

    An immutable tuple of the six store fields, validated on construction.
    `device_id` must be a non-empty string and `trial` and `attempt` ints;
    `sim_time`, `torque` and `force` are stored as floats, so every record
    persists in the form `load` reads back.
    """

    __slots__ = ()

    def __new__(cls, device_id: str, trial: int, attempt: int,
                sim_time: float, torque: float, force: float = 0.0):
        if not isinstance(device_id, str) or not device_id:
            raise ValueError(f"device_id must be a non-empty string, got {device_id!r}")
        if type(trial) is not int or type(attempt) is not int:
            raise TypeError(f"trial and attempt must be int, got "
                            f"{trial!r} and {attempt!r}")
        sim_time = _as_float("sim_time", sim_time)
        torque = _as_float("torque", torque)
        force = _as_float("force", force)
        if not -_INF < sim_time < _INF:
            raise ValueError(f"sim_time must be finite, got {sim_time}")
        if not 0.0 <= torque < _INF:
            raise ValueError(f"torque must be finite and >= 0, got {torque}")
        if not -_INF < force < _INF:
            raise ValueError(f"force must be finite, got {force}")
        return _tuple_new(cls, (device_id, trial, attempt, sim_time, torque, force))

    @classmethod
    def _make(cls, iterable) -> FTRecord:
        # the inherited _make, which _replace calls, would skip validation
        return cls(*iterable)


STORE_FIELDS = FTRecord._fields


class DataStore:
    """Append-only record log with a per-device running torque maximum."""

    def __init__(self):
        self.records: list[FTRecord] = []
        self._index: dict[str, float] = {}
        self._keys: set[tuple] = set()

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: FTRecord) -> None:
        key = record[:4]
        keys = self._keys
        if key in keys:
            raise ValueError(f"duplicate record key {key}")
        keys.add(key)
        self.records.append(record)
        index = self._index
        device_id = record[0]
        torque = record[4]
        if torque > index.get(device_id, 0.0):
            index[device_id] = torque
        elif device_id not in index:  # a device seen only at zero torque
            index[device_id] = 0.0

    def record(self, device_id: str, trial: int, attempt: int,
               sim_time: float, torque: float, force: float = 0.0) -> None:
        values = (device_id, trial, attempt, sim_time, torque, force)
        # FTRecord's checks, without its call when no field needs converting
        if (type(device_id) is str and device_id
                and type(trial) is type(attempt) is int
                and type(sim_time) is type(torque) is type(force) is float
                and -_INF < sim_time < _INF and 0.0 <= torque < _INF
                and -_INF < force < _INF):
            self.add(_tuple_new(FTRecord, values))
        else:  # FTRecord converts or refuses, with its messages
            self.add(FTRecord(*values))

    def max_torque(self, device_id: str) -> float:
        """Largest recorded torque for the device, 0 when nothing is known."""
        return self._index.get(device_id, 0.0)


class _SummaryStore(DataStore):
    """A store opened from its file's summary: the records on file are
    counted and summarised, not held, and `records` holds only new ones."""

    def __init__(self, path, state, count, index, trials):
        super().__init__()
        self._path, self._state = path, state  # state: _file_state when opened
        self._count, self._index, self._trials = count, index, trials

    def __len__(self) -> int:
        return self._count + len(self.records)

    def add(self, record: FTRecord) -> None:
        # only a record of a later trial than any on file has a key known new
        if record[1] <= self._trials.get(record[0], record[1] - 1):
            raise ValueError(f"trial {record[1]} of device {record[0]!r} may "
                             f"already be on file; load the store to add it")
        super().add(record)


def _file_state(st: os.stat_result) -> tuple:
    """What must not change between reading a store file and appending to it."""
    return st.st_size, st.st_mtime_ns, st.st_ino, st.st_dev


def persist(store: DataStore, path) -> None:
    """Write the store as CSV; the writer formats floats with repr.

    A store opened from a summary appends its new records to that file while
    its size, mtime and inode are unchanged, and refuses any other path with
    ValueError. Every other store rewrites the file whole: a summary-opened
    store whose file changed first loads it as it is now (none if gone) and
    adds its new records, where a duplicate key raises ValueError. A regular
    file also gets its summary, `PATH.summary`, which `open_store` reads.

    A write that raises leaves the file as it was: an append is cut back to
    the size the summary recorded, and a regular file is rewritten through
    `TARGET.tmp` moved over it, where TARGET is the file a symlink names and
    the new file takes the old one's mode. A non-regular file, such as a
    pipe, is written in place.
    """
    path = os.fsdecode(path)
    append = isinstance(store, _SummaryStore)
    if append:
        if path != store._path:
            raise ValueError(f"data store {path}: not the file this store was "
                             f"opened from, and the store holds only new records")
        exists = os.path.exists(path)
        append = exists and _file_state(os.stat(path)) == store._state
        if not append:  # the file changed under the store: merge, then rewrite
            try:
                new, store = store.records, load(path) if exists else DataStore()
                for record in new:
                    store.add(record)
            except ValueError as exc:
                raise ValueError(f"data store {path}: {exc}") from None
    tmp = None
    if not append:
        target = os.path.realpath(path)
        mode = os.stat(target).st_mode if os.path.exists(target) else None
        if mode is None or stat.S_ISREG(mode):
            tmp = f"{target}.tmp"
    try:
        if append:
            st = _write_rows(path, "a", store.records)
        elif tmp is None:
            st = _write_rows(path, "w", store.records)
        else:
            st = _write_rows(tmp, "w", store.records, mode=mode)
            os.replace(tmp, target)
    except BaseException as exc:
        if append:  # back to the bytes and mtime the summary describes
            size, mtime_ns = store._state[:2]
            os.truncate(path, size)
            os.utime(path, ns=(os.stat(path).st_atime_ns, mtime_ns))
        elif tmp is not None and os.path.lexists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename in (None, tmp):
            exc.filename = path  # the store, not the write or its .tmp
        raise
    if stat.S_ISREG(st.st_mode):
        _write_summary(store, path, st)


def _write_rows(path: str, how: str, records: list,
                mode: int | None = None) -> os.stat_result:
    """Write `records` to `path` opened with `how` ("w" writes the header
    first), with `mode`'s permission bits if given; the file's stat."""
    with open(path, how, newline="", encoding="utf-8") as handle:
        if mode is not None:
            os.fchmod(handle.fileno(), stat.S_IMODE(mode))
        writer = csv.writer(handle, lineterminator="\n")
        if how == "w":
            writer.writerow(STORE_FIELDS)
        writer.writerows(records)
        handle.flush()
        return os.fstat(handle.fileno())


def _write_summary(store: DataStore, path: str, st: os.stat_result) -> None:
    """Replace `PATH.summary`: a crc32 line, then csv rows of the file state
    and record count, and of each device's top trial and maximum."""
    trials = dict(store._trials) if isinstance(store, _SummaryStore) else {}
    for record in store.records:
        if record[1] > trials.get(record[0], record[1] - 1):
            trials[record[0]] = record[1]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow((*_file_state(st), len(store)))
    writer.writerows((d, trials[d], repr(m)) for d, m in store._index.items())
    body = text.getvalue().encode()
    with open(f"{path}.summary.tmp", "wb") as handle:
        handle.write(b"%08x\n%s" % (zlib.crc32(body), body))
    os.replace(f"{path}.summary.tmp", f"{path}.summary")


def open_store(path, device_id: str, trial: int) -> DataStore:
    """The store at `path`, to record `trial` of `device_id` in.

    When `PATH.summary` is intact, describes the file as it is, and lists
    only trials of `device_id` below `trial`, no new key can collide with one
    on file: the store is opened from the summary without reading the file.
    Otherwise it is `load(path)`.
    """
    path = os.fsdecode(path)
    try:
        with open(f"{path}.summary", "rb") as handle:
            check, _, body = handle.read().partition(b"\n")
        st = os.stat(path)
        if int(check, 16) == zlib.crc32(body):
            # a first row of other than five fields never matches the state
            (*state, count), *rows = csv.reader(
                io.StringIO(body.decode(), newline=""))
            state, count = tuple(map(int, state)), int(count)
            index = {d: float(m) for d, _, m in rows}
            trials = {d: int(t) for d, t, _ in rows}
            if (state == _file_state(st) and count >= 0
                    and all(0.0 <= m < _INF for m in index.values())
                    and trials.get(device_id, trial - 1) < trial):
                return _SummaryStore(path, state, count, index, trials)
    except (OSError, ValueError, csv.Error):
        pass
    return load(path)


def read_text(path) -> str:
    """The text of a user-edited file, read once and decoded as UTF-8 with a
    leading byte-order mark dropped; a byte that is not UTF-8 raises
    ValueError naming its line."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r\n or a lone \r, as csv and expat count them
        lineno = len((data[:exc.start] + b"x").splitlines())
        raise ValueError(f"line {lineno}: {exc}") from None


def load(path) -> DataStore:
    """Read a persisted store (`read_text`) with csv, row by row; a rejected
    row is named by the line it starts on."""
    store = DataStore()
    add = store.add
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header != list(STORE_FIELDS):
            raise ValueError(f"line 1: expected header {','.join(STORE_FIELDS)}")
        end = reader.line_num  # the last line the row before took
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(STORE_FIELDS):
                raise ValueError(f"line {lineno}: expected {len(STORE_FIELDS)} "
                                 f"fields, got {len(row)}")
            device_id, trial, attempt, sim_time, torque, force = row
            # int and float also read "1_0", " 2.5\n" and any Unicode
            # decimal digit, which persist never writes
            numbers = f"{trial}{attempt}{sim_time}{torque}{force}"
            # except the newline a quote left open at the end of the file
            # swallows: that row still loads
            if force.endswith("\n") and next(reader, None) is None:
                numbers = numbers[:-1]
            if "_" in numbers or " " in numbers or not numbers.isprintable() \
                    or not numbers.isascii():
                raise ValueError(f"line {lineno}: a number field holds a "
                                 f"non-ASCII character, '_' or whitespace")
            try:
                add(FTRecord(device_id, int(trial), int(attempt),
                             float(sim_time), float(torque), float(force)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValueError(f"line {reader.line_num}: {exc}") from None
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


def unknown_strategy(node, value) -> ConfigurationError:
    """The error of a leaf whose `strategy` port names no strategy in its registry."""
    return ConfigurationError(f"{node.name}: port 'strategy' names no known "
                              f"strategy, got {value!r}")


class SelectStrategy(StatefulAction):
    """Writes the chosen strategy id, reports it to `probe.on_select`, succeeds."""

    PORTS = (PortSpec("strategy_id", "out", "str"),)

    def __init__(self, name, ports, store: DataStore, device_id: str,
                 registry: list[StrategySpec], probe, margin: float = 0.0):
        super().__init__(name, ports)
        self.store = store
        self.device_id = device_id
        self.registry = registry
        self.probe = probe
        self.margin = margin

    def on_start(self) -> NodeStatus:
        chosen = select_strategy(self.store, self.device_id, self.registry,
                                 self.margin)
        self.output("strategy_id", chosen)
        self.probe.on_select(chosen, self.store.max_torque(self.device_id))
        return _SUCCESS


class CheckStrategyViable(Condition):
    """The final viability check: fails on the sentinel id."""

    PORTS = (PortSpec("strategy_id", "in", "str"),)

    def _tick(self, trace) -> NodeStatus:
        return _SUCCESS if self.input("strategy_id") != NO_STRATEGIES else _FAILURE


class IsTightened(Condition):
    """Success once the measured torque reaches the tightened threshold."""

    PORTS = (PortSpec("torque", "in", "float"), PortSpec("threshold", "in", "float"))

    def _tick(self, trace) -> NodeStatus:
        return _SUCCESS if self.input("torque") >= self.input("threshold") else _FAILURE


class AngleWithinLimits(Condition):
    """Success while the handle estimate stays inside the strategy window.

    Leaving the window is a deliberate interruption: the leaf records the
    re-grasp reason so the retry decorator does not charge an attempt.
    """

    PORTS = (PortSpec("angle", "in", "float"), PortSpec("strategy", "in", "str"))

    def __init__(self, name, ports, registry: dict[str, StrategySpec]):
        super().__init__(name, ports)
        self.registry = registry

    def _tick(self, trace) -> NodeStatus:
        strategy = self.input("strategy")
        try:
            spec = self.registry[strategy]
        except KeyError:
            raise unknown_strategy(self, strategy) from None
        angle = self.input("angle")
        if spec.angle_min <= angle <= spec.angle_max:
            return _SUCCESS
        return self.fail(REGRASP)


class FTWithinLimits(Condition):
    """Success while measured torque stays within the strategy allowance.

    Exceeding it preempts the attempt with the strategy-switch reason so a
    stronger strategy can be selected without charging an attempt.
    """

    PORTS = (PortSpec("torque", "in", "float"), PortSpec("strategy", "in", "str"))

    def __init__(self, name, ports, registry: dict[str, StrategySpec]):
        super().__init__(name, ports)
        self.registry = registry

    def _tick(self, trace) -> NodeStatus:
        strategy = self.input("strategy")
        try:
            spec = self.registry[strategy]
        except KeyError:
            raise unknown_strategy(self, strategy) from None
        if self.input("torque") <= spec.ft_limit:
            return _SUCCESS
        return self.fail(STRATEGY_SWITCH)
