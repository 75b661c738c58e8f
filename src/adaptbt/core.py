"""Tick-driven behavior-tree engine.

Composites propagate a tick left to right; reactive variants re-evaluate
prior children on every tick and halt a preempted subtree before returning.
Leaves exchange data through a scoped blackboard.
"""
from __future__ import annotations

import enum
from typing import Callable, Iterator, Sequence as SequenceT

UNBOUND_PREFIX = "unbound:"  # an unbound read's failure reason: this and its key

# Sentinel strategy id meaning "nothing viable"; shared vocabulary between
# the switch-coverage validator and the adaptive layer.
NO_STRATEGIES = "no_strategies"

# Most common first: isinstance tries the entries in order, and a port write
# checks its value on every call. bool is an int; it is listed for the reader.
_VALUE_TYPES = (float, str, int, bool)


def _value_type_error(value) -> TypeError:
    return TypeError(
        f"blackboard values must be bool, int, float or str, got {type(value).__name__}")


class NodeStatus(enum.Enum):
    """Status reported by a node after a tick (Idle means never ticked or halted)."""

    IDLE = "idle"
    RUNNING = "running"
    SUCCESS = "success"
    FAILURE = "failure"


# Hot-path aliases: a module global loads far faster than an enum attribute.
_IDLE = NodeStatus.IDLE
_RUNNING = NodeStatus.RUNNING
_SUCCESS = NodeStatus.SUCCESS
_FAILURE = NodeStatus.FAILURE


class BehaviorTreeError(Exception):
    pass


class ConfigurationError(BehaviorTreeError):
    """Structural or wiring defect detected at construction or tick time."""


class SwitchCaseError(ConfigurationError):
    """SwitchStatement variable matched no case and no default exists."""


class UnboundKeyError(BehaviorTreeError, KeyError):
    """A node read a blackboard key that nothing has written."""

    def __init__(self, key: str):
        # a Key binding arrives as is; keep plain text for the message
        key = str(key)
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:
        return f"unbound blackboard key {self.key!r}"


class Key(str):
    """Marks a port value as a blackboard key binding rather than a constant."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Key({str.__repr__(self)})"


class Blackboard:
    """Typed key-value store with optional parent scoping.

    Values are booleans, integers, reals or text. A child scope sees the
    parent only through explicit remaps; reads and writes of a remapped key
    resolve through the parent. Reading an unbound key raises, it never
    returns a default. Every scope of a tree shares one `reason_cell`.
    """

    def __init__(self, parent: "Blackboard | None" = None,
                 remaps: dict[str, str] | None = None):
        if remaps and parent is None:
            raise ConfigurationError("remaps require a parent scope")
        self.parent = parent
        self.remaps = dict(remaps or {})
        self._entries: dict[str, bool | int | float | str] = {}
        self.reason_cell = [None] if parent is None else parent.reason_cell

    def slot(self, key: str) -> tuple[dict, str]:
        """The entries of the scope that owns `key` and its name there,
        following remaps outward; the key need not be bound yet."""
        scope = self
        while key in scope.remaps:
            key = scope.remaps[key]
            scope = scope.parent
        return scope._entries, key

    def get(self, key: str):
        entries, key = self.slot(key)
        try:
            return entries[key]
        except KeyError:
            raise UnboundKeyError(key) from None

    def set(self, key: str, value) -> None:
        if not isinstance(value, _VALUE_TYPES):
            raise _value_type_error(value)
        entries, key = self.slot(key)
        entries[key] = value


class TickTrace:
    """Per-cycle record of (node name, status) in tick-entry order.

    Each entry holds the node's status at the end of its visit, even if a
    parent halts the node later in the same cycle. `UNTRACED`, built with
    `recording=False`, records nothing: its `entries` and `diagnostics` are
    None, and the tick path tests that before each write.
    """

    def __init__(self, recording: bool = True):
        self.entries: list[tuple[str, NodeStatus]] | None = \
            [] if recording else None
        self.diagnostics: list[str] | None = [] if recording else None

    def __len__(self) -> int:
        return 0 if self.entries is None else len(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={s.value}" for n, s in self.entries or ())
        return f"TickTrace({inner})"


class TreeNode:
    """Base node. Subclasses implement _tick and optionally on_halted/_reset;
    a leaf talks to the engine through `input`, `output` and `fail`.

    Those hooks are the only extension points: a composite, a switch and a
    subtree scope visit their children without calling their execute_tick,
    so an override of it is not honoured, and a composite reads each
    child's bound _tick once, at its own first tick. A node's name and
    children are fixed at construction.

    Halting is depth-first: children are halted before the node itself, the
    on-halt hook fires exactly once and only for nodes that were Running,
    and all node-local state returns to Idle.
    """

    def __init__(self, name: str | None = None,
                 children: SequenceT["TreeNode"] | None = None,
                 ports: dict[str, object] | None = None):
        self.name = name if name else type(self).__name__
        # the trace entry of a visit in progress, built once: name is fixed
        self._entered = (self.name, _RUNNING)
        self.children: list[TreeNode] = list(children or [])
        self.ports: dict[str, object] = dict(ports or {})
        self.status = _IDLE
        self.bb: Blackboard | None = None
        # Resolved ports: port -> (entries, key), the entries of the scope
        # that owns a Key binding, or (self.ports, port) for a constant.
        # Remaps are fixed once bound, so a slot stays valid.
        self._slots: dict[str, tuple[dict, str]] = {}

    # -- wiring ---------------------------------------------------------

    def bind(self, blackboard: Blackboard) -> None:
        if self.bb is blackboard:
            return
        if self.bb is not None:
            raise ConfigurationError(f"{self.name} is already bound to a blackboard")
        self.bb = blackboard
        self._bind_children(blackboard)

    def _bind_children(self, blackboard: Blackboard) -> None:
        for child in self.children:
            child.bind(blackboard)

    def input(self, port: str):
        """Read a port: a constant, or the value under its Key in the owning scope."""
        try:
            entries, key = self._slots[port]
        except KeyError:
            entries, key = self._resolve(port)
        try:
            return entries[key]
        except KeyError:
            raise UnboundKeyError(key) from None

    def output(self, port: str, value) -> None:
        try:
            entries, key = self._slots[port]
        except KeyError:
            entries, key = self._resolve(port)
        if entries is self.ports:
            raise ConfigurationError(
                f"{self.name} port {port!r} is not bound to a blackboard key")
        if not isinstance(value, _VALUE_TYPES):
            raise _value_type_error(value)
        entries[key] = value

    def fail(self, reason: str) -> NodeStatus:
        """Record why this node failed in the tree's reason cell; return Failure."""
        self.bb.reason_cell[0] = reason
        return _FAILURE

    def _resolve(self, port: str) -> tuple[dict, str]:
        try:
            binding = self.ports[port]
        except KeyError:
            raise ConfigurationError(f"{self.name} has no port {port!r}") from None
        if isinstance(binding, Key):
            slot = self.bb.slot(str(binding))
        else:
            slot = (self.ports, port)
        self._slots[port] = slot
        return slot

    # -- execution ------------------------------------------------------

    def execute_tick(self, trace: TickTrace) -> NodeStatus:
        """Visit this node once: the root's and a decorator child's path.

        `_Composite._tick`, `SwitchStatement._tick` and `SubTreeScope._tick`
        repeat these steps for their own children, so a change here is made
        there too.
        """
        # The entry reads Running while children are visited and is
        # overwritten in place once the status is terminal.
        entries = trace.entries
        if entries is not None:
            slot = len(entries)
            entries.append(self._entered)
        try:
            status = self._tick(trace)
        except UnboundKeyError as exc:
            status = self._unbound(trace, exc)
        if status is not _RUNNING:
            if status is not _SUCCESS and status is not _FAILURE:
                raise self._invalid(status)
            if entries is not None:
                entries[slot] = (self.name, status)
        self.status = status
        return status

    def _unbound(self, trace: TickTrace, exc: UnboundKeyError) -> NodeStatus:
        # Unbound reads surface as Failure at the reading node.
        if trace.diagnostics is not None:
            trace.diagnostics.append(f"{self.name}: {exc}")
        self._reset()
        return self.fail(UNBOUND_PREFIX + exc.key)

    def _invalid(self, status) -> ConfigurationError:
        return ConfigurationError(f"{self.name} returned invalid status {status!r}")

    def halt(self) -> None:
        for child in self.children:
            child.halt()
        if self.status is _RUNNING:
            self.on_halted()
        self._reset()
        self.status = _IDLE

    # -- subclass hooks --------------------------------------------------

    def _tick(self, trace: TickTrace) -> NodeStatus:
        raise NotImplementedError

    def on_halted(self) -> None:
        """Called once when the node is halted while Running."""

    def _reset(self) -> None:
        pass


# ---------------------------------------------------------------------------
# composites


class _Composite(TreeNode):
    """Ticks children left to right until one returns Running or `stops_on`.

    That status is returned at once; if every child returns the other
    terminal status, so does the composite. A memory composite keeps a
    cursor while a child is Running and resumes there on the next tick. A
    reactive one re-ticks from the first child on every cycle and halts any
    later child still active from an earlier cycle before it returns.
    """

    stops_on: NodeStatus
    exhausted: NodeStatus
    reactive: bool

    # (per child (node, name, Running entry, bound _tick), count, stops_on,
    # exhausted, reactive, reason cell), built at the first tick: children
    # are fixed at construction. This loop serves every composite and child
    # class, and CPython caches one class per attribute load, so attribute
    # loads here would stay unspecialized; tuple items do not. It walks the
    # tuple by index: no range object per visit and no slice per halt.
    _plan = None

    def __init__(self, name: str | None = None,
                 children: SequenceT[TreeNode] | None = None):
        super().__init__(name, children)
        if not self.children:
            raise ConfigurationError(f"{self.name}: composite requires at least one child")
        self._cursor = 0

    def _build_plan(self) -> tuple:
        visits = tuple((child, child.name, child._entered, child._tick)
                       for child in self.children)
        self._plan = (visits, len(visits), self.stops_on, self.exhausted,
                      self.reactive, self.bb.reason_cell)
        return self._plan

    def _tick(self, trace: TickTrace) -> NodeStatus:
        # Each child's visit is execute_tick's, inlined: one Python call
        # per visit instead of two on the engine's busiest path.
        visits, count, stops_on, exhausted, reactive, cell = \
            self._plan or self._build_plan()
        entries = trace.entries
        index = 0 if reactive else self._cursor
        while index < count:
            child, name, entered, tick = visits[index]
            index += 1
            if entries is not None:
                slot = len(entries)
                entries.append(entered)
            try:
                status = tick(trace)
            except UnboundKeyError as exc:
                status = child._unbound(trace, exc)
            if status is not _RUNNING:
                if status is not _SUCCESS and status is not _FAILURE:
                    raise child._invalid(status)
                if entries is not None:
                    entries[slot] = (name, status)
            child.status = status
            if status is _RUNNING or status is stops_on:
                if status is _SUCCESS and index > 1:
                    cell[0] = None  # a Fallback recovered from the failures before it
                if reactive:
                    while index < count:
                        later = visits[index][0]
                        if later.status is not _IDLE:
                            later.halt()
                        index += 1
                else:
                    self._cursor = index - 1 if status is _RUNNING else 0
                return status
        self._cursor = 0
        return exhausted

    def _reset(self) -> None:
        self._cursor = 0


class Sequence(_Composite):
    """Success requires every child to succeed; the first Failure fails it."""

    stops_on = NodeStatus.FAILURE
    exhausted = NodeStatus.SUCCESS
    reactive = False


class Fallback(_Composite):
    """Fails only if every child fails; the first Success succeeds it."""

    stops_on = NodeStatus.SUCCESS
    exhausted = NodeStatus.FAILURE
    reactive = False


class ReactiveSequence(_Composite):
    """Sequence that re-ticks all children from the start on every cycle."""

    stops_on = NodeStatus.FAILURE
    exhausted = NodeStatus.SUCCESS
    reactive = True


class ReactiveFallback(_Composite):
    """Fallback that re-ticks all children from the start on every cycle."""

    stops_on = NodeStatus.SUCCESS
    exhausted = NodeStatus.FAILURE
    reactive = True


# ---------------------------------------------------------------------------
# decorators


class RetryUntilSuccessful(TreeNode):
    """Re-ticks the child after a Failure, up to num_attempts non-exempt failures.

    A failure whose reason (the tree's reason cell) is one of `exempt_reasons`
    restarts the child without consuming an attempt. Every restart clears the
    cell, so a `history` entry (reason, exempt) names only its own failure;
    the failure that exhausts the limit keeps its reason for the nodes above.
    `history`, the harnesses' one tally of attempts, survives resets.
    """

    def __init__(self, child: TreeNode, num_attempts,
                 exempt_reasons: SequenceT[str] = (),
                 name: str | None = None):
        super().__init__(name, [child], {"num_attempts": num_attempts})
        self.exempt_reasons = frozenset(exempt_reasons)
        self._failures = 0
        self.history: list[tuple[str, bool]] = []

    def _tick(self, trace: TickTrace) -> NodeStatus:
        limit = self.input("num_attempts")
        if type(limit) is not int or limit < 1:  # not isinstance: a bool is no limit
            binding = self.ports["num_attempts"]
            bound = f" bound to {{{binding}}}" if isinstance(binding, Key) else ""
            raise ConfigurationError(f"{self.name}: port 'num_attempts'{bound} "
                                     f"must be an int >= 1, got {limit!r}")
        status = self.children[0].execute_tick(trace)
        if status is _RUNNING:
            return _RUNNING
        if status is _SUCCESS:
            self._failures = 0
            return _SUCCESS
        reason = self.bb.reason_cell[0]
        exempt = reason in self.exempt_reasons
        self.history.append((reason or "", exempt))
        if not exempt:
            self._failures += 1
            if self._failures >= limit:
                self._failures = 0
                return _FAILURE
        self.bb.reason_cell[0] = None
        self.children[0].halt()
        return _RUNNING

    def _reset(self) -> None:
        self._failures = 0


class SwitchStatement(TreeNode):
    """Ticks the first case whose value equals the variable, verbatim status.

    If the variable changes while the selected child is Running, that child
    is halted and the newly matching child is ticked in the same cycle.
    No matching case and no default is a configuration error.
    """

    def __init__(self, variable, cases: SequenceT[tuple[str, TreeNode]],
                 default: TreeNode | None = None, name: str | None = None):
        case_list = list(cases)
        if not case_list and default is None:
            raise ConfigurationError("SwitchStatement requires at least one case")
        values = [value for value, _ in case_list]
        if len(set(values)) != len(values):
            raise ConfigurationError("SwitchStatement case values must be unique")
        children = [child for _, child in case_list]
        self.default_index: int | None = None
        if default is not None:
            self.default_index = len(children)
            children.append(default)
        super().__init__(name, children, {"variable": variable})
        self._case_index = {value: index for index, value in enumerate(values)}
        self._active: int | None = None

    def _tick(self, trace: TickTrace) -> NodeStatus:
        value = self.input("variable")
        index = self._case_index.get(value, self.default_index)
        if index is None:
            raise SwitchCaseError(
                f"{self.name}: no case matches {value!r} and no default is defined")
        if self._active is not None and self._active != index:
            self.children[self._active].halt()
        # execute_tick's steps, inlined as in _Composite._tick
        child, entries = self.children[index], trace.entries
        if entries is not None:
            slot = len(entries)
            entries.append(child._entered)
        try:
            status = child._tick(trace)
        except UnboundKeyError as exc:
            status = child._unbound(trace, exc)
        if status is not _RUNNING:
            if status is not _SUCCESS and status is not _FAILURE:
                raise child._invalid(status)
            if entries is not None:
                entries[slot] = (child.name, status)
        child.status = status
        self._active = index if status is _RUNNING else None
        return status

    def _reset(self) -> None:
        self._active = None


class ForceFailure(TreeNode):
    """Passes Running through; converts any terminal child status to Failure."""

    def __init__(self, child: TreeNode, name: str | None = None):
        super().__init__(name, [child])

    def _tick(self, trace: TickTrace) -> NodeStatus:
        return _RUNNING if self.children[0].execute_tick(trace) is _RUNNING else _FAILURE


class SubTreeScope(TreeNode):
    """Executes a child tree in its own blackboard scope.

    `remaps` expose parent keys inside the scope under local names; `seeds`
    are constants written into the scope when the tree is bound.
    """

    def __init__(self, child: TreeNode, remaps: dict[str, str] | None = None,
                 seeds: dict[str, object] | None = None, name: str | None = None):
        super().__init__(name, [child])
        self.remaps = dict(remaps or {})
        self.seeds = dict(seeds or {})

    def _bind_children(self, blackboard: Blackboard) -> None:
        inner = Blackboard(parent=blackboard, remaps=self.remaps)
        for key, value in self.seeds.items():
            inner.set(key, value)
        self.children[0].bind(inner)

    def _tick(self, trace: TickTrace) -> NodeStatus:
        # execute_tick's steps, inlined as in _Composite._tick
        child, entries = self.children[0], trace.entries
        if entries is not None:
            slot = len(entries)
            entries.append(child._entered)
        try:
            status = child._tick(trace)
        except UnboundKeyError as exc:
            status = child._unbound(trace, exc)
        if status is not _RUNNING:
            if status is not _SUCCESS and status is not _FAILURE:
                raise child._invalid(status)
            if entries is not None:
                entries[slot] = (child.name, status)
        child.status = status
        return status


# ---------------------------------------------------------------------------
# leaves


class Condition(TreeNode):
    """Leaf that succeeds while its predicate holds; it is evaluated every tick."""

    def __init__(self, name: str | None = None,
                 ports: dict[str, object] | None = None,
                 predicate: Callable[["Condition"], bool] | None = None):
        super().__init__(name, None, ports)
        self._predicate = predicate

    def _tick(self, trace: TickTrace) -> NodeStatus:
        if self._predicate is None:
            raise NotImplementedError(f"{self.name} defines no predicate")
        return _SUCCESS if self._predicate(self) else _FAILURE


class StatefulAction(TreeNode):
    """Asynchronous leaf action.

    The first tick of an execution calls on_start, later ticks while Running
    call on_running, and interruption calls on_halted exactly once. Hooks
    must return promptly; long work is spread across ticks by returning
    Running.
    """

    def __init__(self, name: str | None = None,
                 ports: dict[str, object] | None = None,
                 on_start: Callable[["StatefulAction"], NodeStatus] | None = None,
                 on_running: Callable[["StatefulAction"], NodeStatus] | None = None):
        super().__init__(name, None, ports)
        self._start_cb = on_start
        self._running_cb = on_running

    def on_start(self) -> NodeStatus:
        if self._start_cb is None:
            raise NotImplementedError(f"{self.name} defines no on_start")
        return self._start_cb(self)

    def on_running(self) -> NodeStatus:
        if self._running_cb is None:
            raise ConfigurationError(
                f"{self.name} returned Running but defines no on_running")
        return self._running_cb(self)

    def _tick(self, trace: TickTrace) -> NodeStatus:
        # execute_tick stores every visit's status and halt resets it to
        # Idle, so Running here means this execution has already started
        if self.status is _RUNNING:
            return self.on_running()
        return self.on_start()


class AlwaysSuccess(TreeNode):
    def _tick(self, trace: TickTrace) -> NodeStatus:
        return _SUCCESS


class AlwaysFailure(TreeNode):
    def _tick(self, trace: TickTrace) -> NodeStatus:
        return _FAILURE


# ---------------------------------------------------------------------------
# module operations


# The one trace that records nothing: pass it to tick_root when no caller
# reads the trace. It holds no state, so every tree can share it.
UNTRACED = TickTrace(recording=False)


def tick_root(tree: TreeNode, blackboard: Blackboard,
              trace: TickTrace | None = None) -> tuple[NodeStatus, TickTrace]:
    """Deliver one tick to the root. Engine state persists while Running.

    The tick records into `trace`, by default a new one; returns the root's
    status and that trace.
    """
    if tree.bb is None:
        tree.bind(blackboard)
    elif tree.bb is not blackboard:
        raise ConfigurationError("tree is bound to a different blackboard")
    if trace is None:
        trace = TickTrace()
    return tree.execute_tick(trace), trace


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """Depth-first pre-order walk of anything whose nodes hold their
    children in `.children`: a TreeNode tree or a parsed RawElement tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))
