"""Tick-driven behavior-tree engine.

Composites propagate a tick left to right; reactive variants re-evaluate
prior children on every tick and halt a preempted subtree before returning.
Leaves exchange data through a scoped blackboard.
"""
from __future__ import annotations

import enum
from typing import Callable, Iterator, Sequence as SequenceT

# Reserved blackboard key: failing leaves record why they failed here, the
# retry decorator's exemption predicate reads it and the engine clears it
# once an exemption is consumed.
LAST_FAILURE_REASON = "last_failure_reason"

# Sentinel strategy id meaning "nothing viable"; shared vocabulary between
# the switch-coverage validator and the adaptive layer.
NO_STRATEGIES = "no_strategies"

_VALUE_TYPES = (bool, int, float, str)


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
    returns a default.
    """

    def __init__(self, parent: "Blackboard | None" = None,
                 remaps: dict[str, str] | None = None):
        if remaps and parent is None:
            raise ConfigurationError("remaps require a parent scope")
        self.parent = parent
        self.remaps = dict(remaps or {})
        self._entries: dict[str, bool | int | float | str] = {}

    def get(self, key: str):
        if key in self.remaps:
            return self.parent.get(self.remaps[key])
        try:
            return self._entries[key]
        except KeyError:
            raise UnboundKeyError(key) from None

    def peek(self, key: str, default=None):
        try:
            return self.get(key)
        except UnboundKeyError:
            return default

    def set(self, key: str, value) -> None:
        if not isinstance(value, _VALUE_TYPES):
            raise TypeError(
                f"blackboard values must be bool, int, float or str, got {type(value).__name__}")
        if key in self.remaps:
            self.parent.set(self.remaps[key], value)
            return
        self._entries[key] = value

    def delete(self, key: str) -> None:
        if key in self.remaps:
            self.parent.delete(self.remaps[key])
            return
        self._entries.pop(key, None)

    def has(self, key: str) -> bool:
        if key in self.remaps:
            return self.parent.has(self.remaps[key])
        return key in self._entries


class TickTrace:
    """Per-cycle record of (node name, status) in tick-entry order.

    Every tick records one; each entry holds the node's status at the end
    of its visit, even if a parent halts the node later in the same cycle.
    """

    def __init__(self):
        self.entries: list[tuple[str, NodeStatus]] = []
        self.diagnostics: list[str] = []

    def names(self) -> list[str]:
        return [name for name, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={s.value}" for n, s in self.entries)
        return f"TickTrace({inner})"


class TreeNode:
    """Base node. Subclasses implement _tick and optionally _on_halt/_reset.

    Halting is depth-first: children are halted before the node itself, the
    on-halt hook fires exactly once and only for nodes that were Running,
    and all node-local state returns to Idle.
    """

    kind = "node"

    def __init__(self, name: str | None = None,
                 children: SequenceT["TreeNode"] | None = None,
                 ports: dict[str, object] | None = None):
        self.name = name if name else type(self).__name__
        self.children: list[TreeNode] = list(children or [])
        self.ports: dict[str, object] = dict(ports or {})
        self.status = _IDLE
        self.bb: Blackboard | None = None

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
        """Resolve an input port: constants pass through, Keys read the blackboard."""
        try:
            binding = self.ports[port]
        except KeyError:
            raise ConfigurationError(f"{self.name} has no port {port!r}") from None
        if isinstance(binding, Key):
            return self.bb.get(binding)
        return binding

    def output(self, port: str, value) -> None:
        binding = self.ports.get(port)
        if not isinstance(binding, Key):
            raise ConfigurationError(
                f"{self.name} port {port!r} is not bound to a blackboard key")
        self.bb.set(str(binding), value)

    # -- execution ------------------------------------------------------

    def execute_tick(self, trace: TickTrace) -> NodeStatus:
        # The entry reads Running while children are visited and is
        # overwritten in place once the status is terminal.
        name = self.name
        entries = trace.entries
        slot = len(entries)
        entries.append((name, _RUNNING))
        try:
            status = self._tick(trace)
        except UnboundKeyError as exc:
            # Unbound reads surface as Failure at the reading node.
            trace.diagnostics.append(f"{name}: {exc}")
            self._reset()
            status = _FAILURE
        if status is not _RUNNING:
            if status is not _SUCCESS and status is not _FAILURE:
                raise ConfigurationError(f"{name} returned invalid status {status!r}")
            entries[slot] = (name, status)
        self.status = status
        return status

    def halt(self) -> None:
        for child in self.children:
            child.halt()
        if self.status is _RUNNING:
            self._on_halt()
        self._reset()
        self.status = _IDLE

    # -- subclass hooks --------------------------------------------------

    def _tick(self, trace: TickTrace) -> NodeStatus:
        raise NotImplementedError

    def _on_halt(self) -> None:
        pass

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

    def __init__(self, name: str | None = None,
                 children: SequenceT[TreeNode] | None = None):
        super().__init__(name, children)
        if not self.children:
            raise ConfigurationError(f"{self.name}: composite requires at least one child")
        self._cursor = 0

    def _tick(self, trace: TickTrace) -> NodeStatus:
        children = self.children
        for index in range(0 if self.reactive else self._cursor, len(children)):
            status = children[index].execute_tick(trace)
            if status is _RUNNING or status is self.stops_on:
                if self.reactive:
                    for child in children[index + 1:]:
                        if child.status is not _IDLE:
                            child.halt()
                else:
                    self._cursor = index if status is _RUNNING else 0
                return status
        self._cursor = 0
        return self.exhausted

    def _reset(self) -> None:
        self._cursor = 0


class Sequence(_Composite):
    """Success requires every child to succeed; the first Failure fails it."""

    kind = "sequence"
    stops_on = NodeStatus.FAILURE
    exhausted = NodeStatus.SUCCESS
    reactive = False


class Fallback(_Composite):
    """Fails only if every child fails; the first Success succeeds it."""

    kind = "fallback"
    stops_on = NodeStatus.SUCCESS
    exhausted = NodeStatus.FAILURE
    reactive = False


class ReactiveSequence(_Composite):
    """Sequence that re-ticks all children from the start on every cycle."""

    kind = "reactive_sequence"
    stops_on = NodeStatus.FAILURE
    exhausted = NodeStatus.SUCCESS
    reactive = True


class ReactiveFallback(_Composite):
    """Fallback that re-ticks all children from the start on every cycle."""

    kind = "reactive_fallback"
    stops_on = NodeStatus.SUCCESS
    exhausted = NodeStatus.FAILURE
    reactive = True


# ---------------------------------------------------------------------------
# decorators


def reason_exemption(reasons: SequenceT[str]) -> Callable[[Blackboard], bool]:
    """Exemption predicate: true when the recorded failure reason is in `reasons`."""
    allowed = frozenset(reasons)

    def predicate(bb: Blackboard) -> bool:
        return bb.peek(LAST_FAILURE_REASON) in allowed

    return predicate


class RetryUntilSuccessful(TreeNode):
    """Re-ticks the child after a Failure, up to num_attempts non-exempt failures.

    A failure for which the exemption predicate holds restarts the child
    without consuming an attempt; the engine clears the reason flag after
    consuming such an exemption. `history` and `attempts_consumed` are
    observability attributes for harnesses and survive resets.
    """

    kind = "retry"

    def __init__(self, child: TreeNode, num_attempts,
                 exemption: Callable[[Blackboard], bool] | None = None,
                 name: str | None = None):
        super().__init__(name, [child], {"num_attempts": num_attempts})
        self.exemption = exemption or (lambda bb: False)
        self._failures = 0
        self.history: list[tuple[str, bool]] = []
        self.attempts_consumed = 0

    def _tick(self, trace: TickTrace) -> NodeStatus:
        limit = int(self.input("num_attempts"))
        if limit < 1:
            raise ConfigurationError(f"{self.name}: num_attempts must be >= 1, got {limit}")
        status = self.children[0].execute_tick(trace)
        if status is _RUNNING:
            return _RUNNING
        if status is _SUCCESS:
            self.attempts_consumed = self._failures + 1
            self._failures = 0
            return _SUCCESS
        reason = self.bb.peek(LAST_FAILURE_REASON)
        exempt = bool(self.exemption(self.bb))
        self.history.append((reason if isinstance(reason, str) else "", exempt))
        if exempt:
            self.bb.delete(LAST_FAILURE_REASON)
            self.children[0].halt()
            return _RUNNING
        self._failures += 1
        if self._failures >= limit:
            self.attempts_consumed = self._failures
            self._failures = 0
            return _FAILURE
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

    kind = "switch"

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
        status = self.children[index].execute_tick(trace)
        self._active = index if status is _RUNNING else None
        return status

    def _reset(self) -> None:
        self._active = None


class ForceFailure(TreeNode):
    """Passes Running through; converts any terminal child status to Failure."""

    kind = "force_failure"

    def __init__(self, child: TreeNode, name: str | None = None):
        super().__init__(name, [child])

    def _tick(self, trace: TickTrace) -> NodeStatus:
        status = self.children[0].execute_tick(trace)
        if status is _RUNNING:
            return _RUNNING
        return _FAILURE


class SubTreeScope(TreeNode):
    """Executes a child tree in its own blackboard scope.

    `remaps` expose parent keys inside the scope under local names; `seeds`
    are constants written into the scope when the tree is bound.
    """

    kind = "subtree"

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
        return self.children[0].execute_tick(trace)


# ---------------------------------------------------------------------------
# leaves


class Condition(TreeNode):
    """Leaf evaluating a boolean predicate over the blackboard each tick."""

    kind = "condition"

    def __init__(self, name: str | None = None,
                 predicate: Callable[["Condition"], bool] | None = None,
                 ports: dict[str, object] | None = None):
        super().__init__(name, None, ports)
        self._predicate = predicate

    def check(self) -> bool:
        if self._predicate is None:
            raise NotImplementedError(f"{self.name} defines no predicate")
        return self._predicate(self)

    def _tick(self, trace: TickTrace) -> NodeStatus:
        return _SUCCESS if self.check() else _FAILURE


class StatefulAction(TreeNode):
    """Asynchronous leaf action.

    The first tick of an execution calls on_start, later ticks while Running
    call on_running, and interruption calls on_halted exactly once. Callbacks
    must return promptly; long work is spread across ticks by returning
    Running.
    """

    kind = "action"

    def __init__(self, name: str | None = None,
                 ports: dict[str, object] | None = None,
                 on_start: Callable[["StatefulAction"], NodeStatus] | None = None,
                 on_running: Callable[["StatefulAction"], NodeStatus] | None = None,
                 on_halted: Callable[["StatefulAction"], None] | None = None):
        super().__init__(name, None, ports)
        self._start_cb = on_start
        self._running_cb = on_running
        self._halted_cb = on_halted
        self._started = False

    def on_start(self) -> NodeStatus:
        if self._start_cb is None:
            raise NotImplementedError(f"{self.name} defines no on_start")
        return self._start_cb(self)

    def on_running(self) -> NodeStatus:
        if self._running_cb is None:
            raise ConfigurationError(
                f"{self.name} returned Running but defines no on_running")
        return self._running_cb(self)

    def on_halted(self) -> None:
        if self._halted_cb is not None:
            self._halted_cb(self)

    def _tick(self, trace: TickTrace) -> NodeStatus:
        if not self._started:
            self._started = True
            status = self.on_start()
        else:
            status = self.on_running()
        if status is not _RUNNING:
            self._started = False
        return status

    def _on_halt(self) -> None:
        self.on_halted()

    def _reset(self) -> None:
        self._started = False


class AlwaysSuccess(TreeNode):
    kind = "always_success"

    def _tick(self, trace: TickTrace) -> NodeStatus:
        return _SUCCESS


class AlwaysFailure(TreeNode):
    kind = "always_failure"

    def _tick(self, trace: TickTrace) -> NodeStatus:
        return _FAILURE


# ---------------------------------------------------------------------------
# module operations


def tick_root(tree: TreeNode, blackboard: Blackboard) -> tuple[NodeStatus, TickTrace]:
    """Deliver one tick to the root. Engine state persists while Running."""
    if tree.bb is None:
        tree.bind(blackboard)
    elif tree.bb is not blackboard:
        raise ConfigurationError("tree is bound to a different blackboard")
    trace = TickTrace()
    status = tree.execute_tick(trace)
    return status, trace


def halt_subtree(node: TreeNode) -> None:
    """Halt every Running node under `node` depth-first and reset to Idle."""
    node.halt()


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """Depth-first pre-order walk of a tree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))
