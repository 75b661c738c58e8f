"""Text definitions for behavior trees: parse, validate, serialize, build.

The dialect is a small XML vocabulary. Element names are node kinds,
attributes are ports, and an attribute value written as ``{key}`` binds the
port to a blackboard key while any other value is a constant. Documents look
like::

    <TreeDocument main_tree="Main" strategy_var="strategy_id">
      <Leaf id="ManipulateTarget">
        <Port name="target_angle" direction="in" type="float"/>
        <Port name="progress" direction="inout" type="float"/>
      </Leaf>
      <Tree id="Main">
        <Sequence>
          <ManipulateTarget target_angle="{target_angle}" progress="{twist_progress}"/>
        </Sequence>
      </Tree>
    </TreeDocument>

``SubTree`` elements splice another tree in its own blackboard scope: an
attribute with a ``{key}`` value remaps the local name onto that outer key,
and a literal value seeds a scope-local constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from xml.parsers import expat
from xml.sax.saxutils import quoteattr

from .core import (
    AlwaysFailure,
    AlwaysSuccess,
    Blackboard,
    Fallback,
    ForceFailure,
    Key,
    ReactiveFallback,
    ReactiveSequence,
    RetryUntilSuccessful,
    Sequence,
    SubTreeScope,
    SwitchStatement,
    TreeNode,
    reason_exemption,
)

ERROR = "error"
WARNING = "warning"

PORT_TYPES = ("bool", "int", "float", "str")
PORT_DIRECTIONS = ("in", "out", "inout")

COMPOSITE_KINDS = {
    "Sequence": Sequence,
    "Fallback": Fallback,
    "ReactiveSequence": ReactiveSequence,
    "ReactiveFallback": ReactiveFallback,
}
BUILTIN_LEAF_KINDS = {"AlwaysSuccess": AlwaysSuccess, "AlwaysFailure": AlwaysFailure}
STRUCTURAL_TAGS = {"TreeDocument", "Tree", "Leaf", "Port", "Case", "Default"}

REASON_SEPARATOR = ";"


class InstantiationError(Exception):
    """A parsed document could not be turned into an executable tree."""


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}:{self.line}:{self.col}:{self.rule}:{self.message}"


@dataclass
class RawElement:
    """One parsed element with its source location."""

    tag: str
    attrs: dict[str, str]
    children: list["RawElement"] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class PortSpec:
    name: str
    direction: str
    type: str


@dataclass(frozen=True)
class LeafSpec:
    name: str
    ports: tuple[PortSpec, ...]

    def port(self, name: str) -> PortSpec | None:
        for spec in self.ports:
            if spec.name == name:
                return spec
        return None


@dataclass
class TreeDocument:
    trees: dict[str, RawElement]
    main_tree_id: str
    strategy_var: str | None
    declared_leaves: dict[str, LeafSpec]


@dataclass
class ParseResult:
    document: TreeDocument | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.document is not None

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]


def parse_binding(value: str) -> str | None:
    """Return the key of a ``{key}`` binding, None for a literal.

    Raises ValueError for stray braces, which are reserved.
    """
    if value.startswith("{") and value.endswith("}") and len(value) > 2:
        key = value[1:-1]
        if "{" in key or "}" in key:
            raise ValueError(f"malformed binding {value!r}")
        return key
    if "{" in value or "}" in value:
        raise ValueError(f"malformed binding {value!r}")
    return None


def convert_literal(text: str, type_name: str):
    if type_name == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(f"expected true or false, got {text!r}")
    if type_name == "int":
        return int(text)
    if type_name == "float":
        value = float(text)
        if -math.inf < value < math.inf:
            return value
        raise ValueError(f"expected a finite float, got {text!r}")
    return text


def infer_literal(text: str):
    """Best-effort typing for SubTree seed constants."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    if -math.inf < value < math.inf:
        return value
    raise ValueError(f"expected a finite number, got {text!r}")


# ---------------------------------------------------------------------------
# parsing


class _TreeBuilder:
    """expat handlers that assemble the RawElement tree."""

    def __init__(self, parser: expat.ParserCreate):
        self._parser = parser
        self.root: RawElement | None = None
        self._stack: list[RawElement] = []
        self.diagnostics: list[Diagnostic] = []

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        el = RawElement(tag, dict(attrs), [],
                        self._parser.CurrentLineNumber,
                        self._parser.CurrentColumnNumber + 1)
        if self._stack:
            self._stack[-1].children.append(el)
        else:
            self.root = el
        self._stack.append(el)

    def end(self, tag: str) -> None:
        self._stack.pop()

    def text(self, data: str) -> None:
        if data.strip():
            self.diagnostics.append(Diagnostic(
                ERROR, self._parser.CurrentLineNumber,
                self._parser.CurrentColumnNumber + 1,
                "text-content", f"unexpected text {data.strip()!r}"))


def _read_markup(text: str) -> tuple[RawElement | None, list[Diagnostic]]:
    parser = expat.ParserCreate()
    builder = _TreeBuilder(parser)
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.text
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        builder.diagnostics.append(Diagnostic(
            ERROR, exc.lineno, exc.offset + 1, "xml-syntax",
            expat.errors.messages[exc.code]))
        return None, builder.diagnostics
    return builder.root, builder.diagnostics


class _Analyzer:
    """Structural rules over the raw element tree."""

    def __init__(self, root: RawElement):
        self.root = root
        self.diagnostics: list[Diagnostic] = []
        self.trees: dict[str, RawElement] = {}
        self.declared: dict[str, LeafSpec] = {}
        self.main_tree_id = ""
        self.strategy_var: str | None = None

    def error(self, el: RawElement, rule: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(ERROR, el.line, el.col, rule, message))

    def run(self) -> TreeDocument | None:
        self._document()
        if any(d.severity == ERROR for d in self.diagnostics):
            return None
        return TreeDocument(self.trees, self.main_tree_id,
                            self.strategy_var, self.declared)

    def _document(self) -> None:
        root = self.root
        if root.tag != "TreeDocument":
            self.error(root, "document-root",
                       f"expected TreeDocument root element, got {root.tag}")
            return
        self._check_attrs(root, allowed={"main_tree", "strategy_var"},
                          required={"main_tree"})
        self.main_tree_id = root.attrs.get("main_tree", "")
        self.strategy_var = root.attrs.get("strategy_var")
        for child in root.children:
            if child.tag == "Leaf":
                self._leaf_declaration(child)
            elif child.tag == "Tree":
                self._tree(child)
            else:
                self.error(child, "document-section",
                           f"expected Leaf or Tree, got {child.tag}")
        if self.main_tree_id and self.main_tree_id not in self.trees:
            self.error(root, "main-tree",
                       f"main_tree {self.main_tree_id!r} is not defined")
        self._subtree_references()

    def _leaf_declaration(self, el: RawElement) -> None:
        self._check_attrs(el, allowed={"id"}, required={"id"})
        leaf_id = el.attrs.get("id", "")
        if leaf_id in self.declared or leaf_id in COMPOSITE_KINDS \
                or leaf_id in BUILTIN_LEAF_KINDS or leaf_id in STRUCTURAL_TAGS:
            self.error(el, "leaf-id", f"leaf {leaf_id!r} is already defined")
            return
        ports = []
        for child in el.children:
            if child.tag != "Port":
                self.error(child, "leaf-section", f"expected Port, got {child.tag}")
                continue
            self._check_attrs(child, allowed={"name", "direction", "type"},
                              required={"name", "direction", "type"},
                              name_is_port=True)
            direction = child.attrs.get("direction", "")
            type_name = child.attrs.get("type", "")
            if direction not in PORT_DIRECTIONS:
                self.error(child, "port-direction",
                           f"direction must be one of {PORT_DIRECTIONS}, got {direction!r}")
            if type_name not in PORT_TYPES:
                self.error(child, "port-type",
                           f"type must be one of {PORT_TYPES}, got {type_name!r}")
            name = child.attrs.get("name", "")
            if any(p.name == name for p in ports):
                self.error(child, "port-name", f"duplicate port {name!r}")
            ports.append(PortSpec(name, direction, type_name))
        if leaf_id:
            self.declared[leaf_id] = LeafSpec(leaf_id, tuple(ports))

    def _tree(self, el: RawElement) -> None:
        self._check_attrs(el, allowed={"id"}, required={"id"})
        tree_id = el.attrs.get("id", "")
        if tree_id in self.trees:
            self.error(el, "tree-id", f"tree {tree_id!r} is already defined")
            return
        if len(el.children) != 1:
            self.error(el, "tree-arity",
                       f"tree {tree_id!r} must have exactly one root node")
            return
        self._node(el.children[0])
        if tree_id:
            self.trees[tree_id] = el.children[0]

    def _node(self, el: RawElement) -> None:
        tag = el.tag
        if tag in ("Case", "Default"):
            self.error(el, "switch-structure",
                       f"{tag} is only allowed directly under SwitchStatement")
            return
        if tag in COMPOSITE_KINDS:
            self._check_attrs(el, allowed=set(), required=set())
            if not el.children:
                self.error(el, "composite-arity", "composite requires ≥1 child")
            for child in el.children:
                self._node(child)
        elif tag == "ForceFailure":
            self._check_attrs(el, allowed=set(), required=set())
            self._decorator_arity(el)
        elif tag == "RetryUntilSuccessful":
            self._check_attrs(el, allowed={"num_attempts", "exempt_reasons"},
                              required={"num_attempts"})
            self._port_value(el, "num_attempts", "int")
            self._port_value(el, "exempt_reasons", "str")
            self._decorator_arity(el)
        elif tag == "SwitchStatement":
            self._switch(el)
        elif tag == "SubTree":
            self._check_attrs(el, allowed=None, required={"id"})
            for attr, value in el.attrs.items():
                if attr in ("id", "name"):
                    continue
                try:
                    parse_binding(value)
                except ValueError as exc:
                    self.error(el, "binding-syntax", f"{attr}: {exc}")
            if el.children:
                self.error(el, "leaf-arity", "SubTree takes no children")
        elif tag in BUILTIN_LEAF_KINDS:
            self._check_attrs(el, allowed=set(), required=set())
            if el.children:
                self.error(el, "leaf-arity", f"{tag} takes no children")
        elif tag in self.declared:
            spec = self.declared[tag]
            allowed = {p.name for p in spec.ports}
            self._check_attrs(el, allowed=allowed, required=allowed)
            for port in spec.ports:
                if port.name not in el.attrs:
                    continue
                binding = self._port_value(el, port.name, port.type)
                if binding is None and port.direction in ("out", "inout"):
                    self.error(el, "output-binding",
                               f"port {port.name!r} is an output and must be "
                               f"bound to a blackboard key")
            if el.children:
                self.error(el, "leaf-arity", f"{tag} takes no children")
        else:
            self.error(el, "unknown-node", f"unknown node kind {tag!r}")

    def _switch(self, el: RawElement) -> None:
        self._check_attrs(el, allowed={"variable"}, required={"variable"})
        variable = el.attrs.get("variable", "")
        try:
            if parse_binding(variable) is None:
                self.error(el, "switch-variable",
                           "variable must be a {key} blackboard binding")
        except ValueError as exc:
            self.error(el, "binding-syntax", f"variable: {exc}")
        seen_values = set()
        defaults = 0
        if not el.children:
            self.error(el, "switch-arity", "SwitchStatement requires ≥1 case")
        for child in el.children:
            if child.tag == "Case":
                self._check_attrs(child, allowed={"value"}, required={"value"})
                value = child.attrs.get("value", "")
                if value in seen_values:
                    self.error(child, "case-duplicate", f"duplicate case {value!r}")
                seen_values.add(value)
                self._decorator_arity(child)
            elif child.tag == "Default":
                self._check_attrs(child, allowed=set(), required=set())
                defaults += 1
                if defaults > 1:
                    self.error(child, "case-duplicate", "multiple Default cases")
                self._decorator_arity(child)
            else:
                self.error(child, "switch-structure",
                           f"SwitchStatement children must be Case or Default, "
                           f"got {child.tag}")

    def _decorator_arity(self, el: RawElement) -> None:
        if len(el.children) != 1:
            self.error(el, "decorator-arity",
                       f"{el.tag} requires exactly one child")
            return
        self._node(el.children[0])

    def _port_value(self, el: RawElement, port: str, type_name: str) -> str | None:
        """Validate one port attribute; returns the bound key if it is a binding."""
        value = el.attrs.get(port)
        if value is None:
            return None
        try:
            key = parse_binding(value)
        except ValueError as exc:
            self.error(el, "binding-syntax", f"{port}: {exc}")
            return None
        if key is not None:
            return key
        try:
            convert_literal(value, type_name)
        except ValueError:
            self.error(el, "port-value",
                       f"port {port!r} expects {type_name}, got {value!r}")
        return None

    def _check_attrs(self, el: RawElement, allowed: set[str] | None,
                     required: set[str], name_is_port: bool = False) -> None:
        """allowed=None admits arbitrary attributes (SubTree remaps/seeds)."""
        for attr in el.attrs:
            if attr == "name" and not name_is_port:
                continue
            if allowed is not None and attr not in allowed:
                self.error(el, "unknown-port",
                           f"{el.tag} has no port {attr!r}")
        for attr in required:
            if attr not in el.attrs:
                self.error(el, "missing-port",
                           f"{el.tag} requires port {attr!r}")

    def _subtree_references(self) -> None:
        """Every SubTree id resolves and the reference graph is acyclic."""
        refs: dict[str, list[tuple[str, RawElement]]] = {t: [] for t in self.trees}
        for tree_id, node in self.trees.items():
            for el in _walk(node):
                if el.tag != "SubTree":
                    continue
                target = el.attrs.get("id", "")
                if target not in self.trees:
                    self.error(el, "subtree-ref",
                               f"SubTree references undefined tree {target!r}")
                else:
                    refs[tree_id].append((target, el))
        state: dict[str, int] = {}

        def visit(tree_id: str) -> None:
            state[tree_id] = 1
            for target, el in refs[tree_id]:
                if state.get(target) == 1:
                    self.error(el, "subtree-cycle",
                               f"SubTree reference cycle through {target!r}")
                elif target not in state:
                    visit(target)
            state[tree_id] = 2

        for tree_id in self.trees:
            if tree_id not in state:
                visit(tree_id)


def _walk(el: RawElement):
    yield el
    for child in el.children:
        yield from _walk(child)


def parse_tree_definition(text: str) -> ParseResult:
    """Parse a definition document; diagnostics carry source locations."""
    root, diagnostics = _read_markup(text)
    if root is None:
        return ParseResult(None, diagnostics)
    analyzer = _Analyzer(root)
    analyzer.diagnostics.extend(diagnostics)
    document = analyzer.run()
    return ParseResult(document, analyzer.diagnostics)


# ---------------------------------------------------------------------------
# validation beyond structure


def validate_switch_coverage(doc: TreeDocument,
                             strategy_ids: set[str],
                             sentinel: str = "no_strategies") -> list[Diagnostic]:
    """Check strategy-selector switches against the registry's strategy ids.

    Every switch on the document's strategy variable needs one case per
    strategy id plus the sentinel case. Missing cases are errors, extra
    cases warnings.
    """
    if doc.strategy_var is None:
        return []
    wanted = set(strategy_ids) | {sentinel}
    variable = "{" + doc.strategy_var + "}"
    out: list[Diagnostic] = []
    for node in doc.trees.values():
        for el in _walk(node):
            if el.tag != "SwitchStatement" or el.attrs.get("variable") != variable:
                continue
            cases = {c.attrs.get("value", "") for c in el.children if c.tag == "Case"}
            for missing in sorted(wanted - cases):
                out.append(Diagnostic(
                    ERROR, el.line, el.col, "switch-coverage",
                    f"missing case for strategy id {missing!r}"))
            for extra in sorted(cases - wanted):
                out.append(Diagnostic(
                    WARNING, el.line, el.col, "switch-coverage",
                    f"case {extra!r} matches no registered strategy id"))
    return out


def validate_subtree_seeds(doc: TreeDocument) -> list[Diagnostic]:
    """Check SubTree seed constants: a numeric seed must be finite."""
    out: list[Diagnostic] = []
    for node in doc.trees.values():
        for el in _walk(node):
            if el.tag != "SubTree":
                continue
            for attr, value in el.attrs.items():
                if attr in ("id", "name") or parse_binding(value) is not None:
                    continue
                try:
                    infer_literal(value)
                except ValueError as exc:
                    out.append(Diagnostic(ERROR, el.line, el.col, "seed-value",
                                          f"{attr}: {exc}"))
    return out


# ---------------------------------------------------------------------------
# serialization


def serialize(doc: TreeDocument) -> str:
    """Render a document back to definition text.

    parse(serialize(doc)) yields a structurally identical document.
    """
    lines: list[str] = []
    attrs = {"main_tree": doc.main_tree_id}
    if doc.strategy_var is not None:
        attrs["strategy_var"] = doc.strategy_var
    lines.append(f"<TreeDocument{_format_attrs(attrs)}>")
    for leaf in doc.declared_leaves.values():
        lines.append(f'  <Leaf id={quoteattr(leaf.name)}>')
        for port in leaf.ports:
            lines.append(f"    <Port{_format_attrs(dict(name=port.name, direction=port.direction, type=port.type))}/>")
        lines.append("  </Leaf>")
    for tree_id, node in doc.trees.items():
        lines.append(f"  <Tree id={quoteattr(tree_id)}>")
        _serialize_node(node, lines, 2)
        lines.append("  </Tree>")
    lines.append("</TreeDocument>")
    return "\n".join(lines) + "\n"


def _format_attrs(attrs: dict[str, str]) -> str:
    return "".join(f" {k}={quoteattr(str(v))}" for k, v in attrs.items())


def _serialize_node(el: RawElement, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    head = f"{pad}<{el.tag}{_format_attrs(el.attrs)}"
    if el.children:
        lines.append(head + ">")
        for child in el.children:
            _serialize_node(child, lines, depth + 1)
        lines.append(f"{pad}</{el.tag}>")
    else:
        lines.append(head + "/>")


def structurally_equal(a: TreeDocument, b: TreeDocument) -> bool:
    return (a.main_tree_id == b.main_tree_id
            and a.strategy_var == b.strategy_var
            and a.declared_leaves == b.declared_leaves
            and set(a.trees) == set(b.trees)
            and all(_nodes_equal(a.trees[t], b.trees[t]) for t in a.trees))


def _nodes_equal(a: RawElement, b: RawElement) -> bool:
    return (a.tag == b.tag and a.attrs == b.attrs
            and len(a.children) == len(b.children)
            and all(_nodes_equal(x, y) for x, y in zip(a.children, b.children)))


# ---------------------------------------------------------------------------
# instantiation


class LeafRegistry:
    """Maps declared leaf names to node factories.

    A factory takes (name, ports) where ports maps port names to Key
    bindings or typed constants, and returns an executable node.
    """

    def __init__(self):
        self._factories: dict[str, object] = {}

    def register(self, leaf_id: str, factory) -> None:
        if leaf_id in self._factories:
            raise InstantiationError(f"leaf {leaf_id!r} registered twice")
        self._factories[leaf_id] = factory

    def build(self, leaf_id: str, name: str, ports: dict[str, object]) -> TreeNode:
        try:
            factory = self._factories[leaf_id]
        except KeyError:
            raise InstantiationError(f"unregistered leaf: {leaf_id}") from None
        return factory(name, ports)


def instantiate(doc: TreeDocument, registry: LeafRegistry,
                blackboard: Blackboard) -> TreeNode:
    """Build the executable main tree and bind it to the blackboard."""
    tree = _build_node(doc.trees[doc.main_tree_id], doc, registry)
    tree.bind(blackboard)
    return tree


def _build_node(el: RawElement, doc: TreeDocument,
                registry: LeafRegistry) -> TreeNode:
    tag = el.tag
    name = el.attrs.get("name", tag)
    if tag in COMPOSITE_KINDS:
        children = [_build_node(c, doc, registry) for c in el.children]
        return COMPOSITE_KINDS[tag](name, children)
    if tag == "ForceFailure":
        return ForceFailure(_build_node(el.children[0], doc, registry), name=name)
    if tag == "RetryUntilSuccessful":
        num_attempts = _port_binding(el, "num_attempts", "int")
        exemption = None
        raw_reasons = el.attrs.get("exempt_reasons")
        if raw_reasons is not None:
            if parse_binding(raw_reasons) is not None:
                raise InstantiationError(
                    f"{name}: exempt_reasons must be a constant list")
            reasons = [r for r in raw_reasons.split(REASON_SEPARATOR) if r]
            exemption = reason_exemption(reasons)
        return RetryUntilSuccessful(
            _build_node(el.children[0], doc, registry),
            num_attempts=num_attempts, exemption=exemption, name=name)
    if tag == "SwitchStatement":
        variable = Key(parse_binding(el.attrs["variable"]))
        cases = []
        default = None
        for child in el.children:
            built = _build_node(child.children[0], doc, registry)
            if child.tag == "Case":
                cases.append((child.attrs["value"], built))
            else:
                default = built
        return SwitchStatement(variable, cases, default=default, name=name)
    if tag == "SubTree":
        target = el.attrs["id"]
        remaps: dict[str, str] = {}
        seeds: dict[str, object] = {}
        for attr, value in el.attrs.items():
            if attr in ("id", "name"):
                continue
            key = parse_binding(value)
            if key is not None:
                remaps[attr] = key
            else:
                try:
                    seeds[attr] = infer_literal(value)
                except ValueError as exc:
                    raise InstantiationError(
                        f"line {el.line}: SubTree seed {attr!r}: {exc}") from None
        inner = _build_node(doc.trees[target], doc, registry)
        scope_name = el.attrs.get("name", target)
        return SubTreeScope(inner, remaps=remaps, seeds=seeds, name=scope_name)
    if tag in BUILTIN_LEAF_KINDS:
        return BUILTIN_LEAF_KINDS[tag](name)
    spec = doc.declared_leaves.get(tag)
    if spec is None:
        raise InstantiationError(f"unregistered leaf: {tag}")
    ports: dict[str, object] = {}
    for port in spec.ports:
        if port.name not in el.attrs:
            continue
        ports[port.name] = _port_binding(el, port.name, port.type)
    return registry.build(tag, name, ports)


def _port_binding(el: RawElement, port: str, type_name: str):
    value = el.attrs[port]
    key = parse_binding(value)
    if key is not None:
        return Key(key)
    try:
        return convert_literal(value, type_name)
    except ValueError as exc:
        raise InstantiationError(
            f"{el.tag} port {port!r}: {exc}") from None
