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
import re
from dataclasses import dataclass, field
from xml.parsers import expat

from .core import (
    AlwaysFailure,
    AlwaysSuccess,
    Blackboard,
    Fallback,
    ForceFailure,
    Key,
    NO_STRATEGIES,
    ReactiveFallback,
    ReactiveSequence,
    RetryUntilSuccessful,
    Sequence,
    SubTreeScope,
    SwitchStatement,
    TreeNode,
    UNBOUND_PREFIX,
    iter_nodes,
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
# every tag the dialect gives a meaning of its own; no Leaf may take one
BUILTIN_TAGS = frozenset({
    *COMPOSITE_KINDS, *BUILTIN_LEAF_KINDS, "ForceFailure",
    "RetryUntilSuccessful", "SwitchStatement", "SubTree",
    "TreeDocument", "Tree", "Leaf", "Port", "Case", "Default"})

REASON_SEPARATOR = ";"

_NO_ATTRS, _ID, _VALUE = frozenset(), frozenset({"id"}), frozenset({"value"})
_MAIN_TREE, _VARIABLE = frozenset({"main_tree"}), frozenset({"variable"})
_DOCUMENT_ATTRS = _MAIN_TREE | {"strategy_var"}
_PORT_ATTRS = frozenset({"name", "direction", "type"})
_NUM_ATTEMPTS = frozenset({"num_attempts"})
_RETRY_ATTRS = _NUM_ATTEMPTS | {"exempt_reasons"}

# The deepest element nesting a tree may have, counted from its root node
# down (Case and Default levels included) and, for the main tree, through
# its SubTrees. Parsing, building, binding, halting and ticking a tree
# recurse once or twice per level; this keeps them well inside Python's
# default limit of 1,000 frames.
MAX_TREE_DEPTH = 100


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
    """One parsed element with its source location and resolved record.

    The parser sets `resolved`, all that `instantiate` reads: a declared
    leaf's ports (each a Key or a typed constant), a RetryUntilSuccessful's
    (attempts as a Key or an int, exempt reasons), a SubTree's (remaps, typed
    seeds) and a SwitchStatement's variable Key. Elements are equal apart
    from source locations and resolved records.
    """

    tag: str
    attrs: dict[str, str]
    children: list["RawElement"] = field(default_factory=list)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    resolved: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PortSpec:
    name: str
    direction: str
    type: str


@dataclass
class TreeDocument:
    trees: dict[str, RawElement]
    main_tree_id: str
    strategy_var: str | None
    declared_leaves: dict[str, tuple[PortSpec, ...]]  # leaf id -> its ports


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


# The spellings float() accepts: surrounding whitespace, a sign, any Unicode
# decimal digits with single underscores between them, a fraction and an
# exponent, or a case-blind inf, infinity or nan. Its whitespace is re's but
# for \x1c-\x1f, which it does not strip. int() takes those whose `real`
# group is empty: digits alone.
_SPACE = r"[^\S\x1c-\x1f]*"
_DIGITS = r"\d(?:_?\d)*"
_EXPONENT = rf"(?:[eE][+-]?{_DIGITS})?"
_NUMBER_TEXT = re.compile(
    rf"{_SPACE}[+-]?(?:{_DIGITS}(?P<real>(?:\.(?:{_DIGITS})?)?{_EXPONENT})"
    rf"|\.{_DIGITS}{_EXPONENT}|(?i:inf|infinity|nan)){_SPACE}")


def infer_literal(text: str):
    """Best-effort typing for SubTree seed constants.

    An int spelling gives an int, any other float spelling a finite float
    (a non-finite one raises ValueError), "true" and "false" a bool, and
    all else the text itself.
    """
    if text in ("true", "false"):
        return text == "true"
    number = _NUMBER_TEXT.fullmatch(text)
    if number is None:
        return text
    if number["real"] == "":
        try:
            return int(text)
        except ValueError:  # more digits than int() converts from text
            pass
    value = float(text)
    if -math.inf < value < math.inf:
        return value
    raise ValueError(f"expected a finite number, got {text!r}")


# ---------------------------------------------------------------------------
# parsing


class _Doctype(Exception):
    """Stops the parse at a DOCTYPE, before any entity is expanded: (message, byte index)."""


class _TreeBuilder:
    """expat handlers that assemble the RawElement tree."""

    def __init__(self, parser: expat.ParserCreate):
        self._parser = parser
        self.root: RawElement | None = None
        self._stack: list[RawElement] = []
        self.diagnostics: list[Diagnostic] = []
        self.too_deep = False

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        el = RawElement(tag, dict(attrs), [],
                        self._parser.CurrentLineNumber,
                        self._parser.CurrentColumnNumber + 1)
        # below TreeDocument and Tree, a tree's root node is at depth 1
        if len(self._stack) == MAX_TREE_DEPTH + 2:
            self.too_deep = True
            self.diagnostics.append(Diagnostic(
                ERROR, el.line, el.col, "tree-depth",
                f"{tag} is nested more than {MAX_TREE_DEPTH} levels deep"))
        if self._stack:
            self._stack[-1].children.append(el)
        else:
            self.root = el
        self._stack.append(el)

    def end(self, tag: str) -> None:
        self._stack.pop()

    def doctype(self, name: str, *_) -> None:
        # a DTD's entities could expand one name into megabytes of text
        raise _Doctype(f"DOCTYPE {name} is not allowed: a tree file declares no DTD",
                       self._parser.CurrentByteIndex)

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
    parser.StartDoctypeDeclHandler = builder.doctype
    try:
        parser.Parse(text, True)
    except _Doctype as stop:
        # expat fires where the header ends: report its "<", lines split as expat's
        head = text.encode()[:stop.args[1]]
        lines = (head[:head.rfind(b"<!DOCTYPE")] + b"<").splitlines()
        builder.diagnostics.append(Diagnostic(ERROR, len(lines), len(lines[-1].decode()),
                                              "doctype", stop.args[0]))
        return None, builder.diagnostics
    except expat.ExpatError as exc:
        builder.diagnostics.append(Diagnostic(
            ERROR, exc.lineno, exc.offset + 1, "xml-syntax",
            expat.errors.messages[exc.code]))
        return None, builder.diagnostics
    if builder.too_deep:  # the analyzer recurses once or more per level
        return None, builder.diagnostics
    return builder.root, builder.diagnostics


class _Analyzer:
    """Structural rules over the raw element tree."""

    def __init__(self, root: RawElement):
        self.root = root
        self.diagnostics: list[Diagnostic] = []
        self.trees: dict[str, RawElement] = {}
        self.declared: dict[str, tuple[PortSpec, ...]] = {}
        self._port_names: dict[str, frozenset[str]] = {}
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
        self._check_attrs(root, allowed=_DOCUMENT_ATTRS, required=_MAIN_TREE)
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
        self._check_attrs(el, allowed=_ID, required=_ID)
        leaf_id = el.attrs.get("id", "")
        if leaf_id in self.declared or leaf_id in BUILTIN_TAGS:
            self.error(el, "leaf-id", f"leaf {leaf_id!r} is already defined")
            return
        ports = []
        for child in el.children:
            if child.tag != "Port":
                self.error(child, "leaf-section", f"expected Port, got {child.tag}")
                continue
            self._check_attrs(child, allowed=_PORT_ATTRS, required=_PORT_ATTRS)
            for inner in child.children:
                self.error(inner, "leaf-section",
                           f"Port takes no children, got {inner.tag}")
            direction = child.attrs.get("direction", "")
            type_name = child.attrs.get("type", "")
            if direction not in PORT_DIRECTIONS:
                self.error(child, "port-direction",
                           f"direction must be one of {PORT_DIRECTIONS}, got {direction!r}")
            if type_name not in PORT_TYPES:
                self.error(child, "port-type",
                           f"type must be one of {PORT_TYPES}, got {type_name!r}")
            name = child.attrs.get("name", "")
            if name == "name":
                self.error(child, "port-name",
                           "port 'name' is reserved: it is the node-name attribute")
                continue
            if any(p.name == name for p in ports):
                self.error(child, "port-name", f"duplicate port {name!r}")
            ports.append(PortSpec(name, direction, type_name))
        if leaf_id:
            self.declared[leaf_id] = tuple(ports)
            self._port_names[leaf_id] = frozenset(p.name for p in ports)

    def _tree(self, el: RawElement) -> None:
        self._check_attrs(el, allowed=_ID, required=_ID)
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
            self._check_attrs(el, allowed=_NO_ATTRS, required=_NO_ATTRS)
            if not el.children:
                self.error(el, "composite-arity", "composite requires ≥1 child")
            for child in el.children:
                self._node(child)
        elif tag == "ForceFailure":
            self._check_attrs(el, allowed=_NO_ATTRS, required=_NO_ATTRS)
            self._decorator_arity(el)
        elif tag == "RetryUntilSuccessful":
            self._check_attrs(el, allowed=_RETRY_ATTRS, required=_NUM_ATTEMPTS)
            num_attempts = self._port_value(el, "num_attempts", "int")
            if isinstance(num_attempts, int) and num_attempts < 1:
                self.error(el, "port-value", f"port 'num_attempts' must be "
                                             f">= 1, got {num_attempts}")
            reasons = self._port_value(el, "exempt_reasons", "str")
            if isinstance(reasons, Key):
                self.error(el, "port-value",
                           "port 'exempt_reasons' expects a literal list, "
                           "not a blackboard binding")
            el.resolved = (num_attempts, tuple(
                r for r in (reasons or "").split(REASON_SEPARATOR) if r))
            self._decorator_arity(el)
        elif tag == "SwitchStatement":
            self._switch(el)
        elif tag == "SubTree":
            self._check_attrs(el, allowed=None, required=_ID)
            remaps: dict[str, str] = {}
            seeds: dict[str, object] = {}
            for attr, value in el.attrs.items():
                if attr in ("id", "name"):
                    continue
                rule = "binding-syntax"
                try:
                    key = parse_binding(value)
                    if key is None:
                        rule = "seed-value"
                        seeds[attr] = infer_literal(value)
                    else:
                        remaps[attr] = key
                except ValueError as exc:
                    self.error(el, rule, f"{attr}: {exc}")
            el.resolved = (remaps, seeds)
            if el.children:
                self.error(el, "leaf-arity", "SubTree takes no children")
        elif tag in BUILTIN_LEAF_KINDS:
            self._check_attrs(el, allowed=_NO_ATTRS, required=_NO_ATTRS)
            if el.children:
                self.error(el, "leaf-arity", f"{tag} takes no children")
        elif tag in self.declared:
            names = self._port_names[tag]
            self._check_attrs(el, allowed=names, required=names)
            el.resolved = {
                port.name: self._port_value(el, port.name, port.type,
                                            output=port.direction != "in")
                for port in self.declared[tag] if port.name in el.attrs}
            if el.children:
                self.error(el, "leaf-arity", f"{tag} takes no children")
        else:
            self.error(el, "unknown-node", f"unknown node kind {tag!r}")

    def _switch(self, el: RawElement) -> None:
        self._check_attrs(el, allowed=_VARIABLE, required=_VARIABLE)
        variable = self._port_value(el, "variable", "str")
        if isinstance(variable, Key):
            el.resolved = variable
        elif variable is not None:
            self.error(el, "switch-variable",
                       "variable must be a {key} blackboard binding")
        seen_values = set()
        defaults = 0
        if not el.children:
            self.error(el, "switch-arity", "SwitchStatement requires ≥1 case")
        for child in el.children:
            if child.tag == "Case":
                self._check_attrs(child, allowed=_VALUE, required=_VALUE)
                value = child.attrs.get("value", "")
                if value in seen_values:
                    self.error(child, "case-duplicate", f"duplicate case {value!r}")
                seen_values.add(value)
                self._decorator_arity(child)
            elif child.tag == "Default":
                self._check_attrs(child, allowed=_NO_ATTRS, required=_NO_ATTRS)
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

    def _port_value(self, el: RawElement, port: str, type_name: str,
                    output: bool = False):
        """Validate one port attribute and return its Key binding or typed
        constant; None when it is absent or invalid. An output port takes
        only a binding."""
        value = el.attrs.get(port)
        if value is None:
            return None
        try:
            key = parse_binding(value)
        except ValueError as exc:
            self.error(el, "binding-syntax", f"{port}: {exc}")
            return None
        if key is not None:
            return Key(key)
        if output:
            self.error(el, "output-binding", f"port {port!r} is an output "
                                             f"and must be bound to a blackboard key")
            return None
        try:
            return convert_literal(value, type_name)
        except ValueError:
            self.error(el, "port-value",
                       f"port {port!r} expects {type_name}, got {value!r}")
        return None

    def _check_attrs(self, el: RawElement, allowed: frozenset[str] | None,
                     required: frozenset[str]) -> None:
        """Any element may carry `name`; allowed=None admits arbitrary
        attributes (SubTree remaps/seeds)."""
        if allowed is not None:
            for attr in el.attrs:
                if attr not in allowed and attr != "name":
                    self.error(el, "unknown-port",
                               f"{el.tag} has no port {attr!r}")
        for attr in required:
            if attr not in el.attrs:
                self.error(el, "missing-port",
                           f"{el.tag} requires port {attr!r}")

    def _subtree_references(self) -> None:
        """Every SubTree id resolves, the reference graph is acyclic, and
        the main tree with its SubTrees expanded is at most MAX_TREE_DEPTH
        levels deep (Case and Default levels included)."""
        reported = len(self.diagnostics)
        # per tree: its own height, and (target, element, level) per SubTree
        height: dict[str, int] = {}
        refs: dict[str, list[tuple[str, RawElement, int]]] = {}
        for tree_id, node in self.trees.items():
            refs[tree_id] = links = []
            level, depth = [node], 0
            while level:
                depth += 1
                for el in level:
                    if el.tag != "SubTree":
                        continue
                    target = el.attrs.get("id", "")
                    if target not in self.trees:
                        self.error(el, "subtree-ref",
                                   f"SubTree references undefined tree {target!r}")
                    else:
                        links.append((target, el, depth))
                level = [child for el in level for child in el.children]
            height[tree_id] = depth
        # depth-first with an explicit stack: a chain of SubTrees may be
        # longer than Python's recursion limit. A tree's height is final
        # once it finishes, after every tree it references.
        state: dict[str, int] = {}
        for start in self.trees:
            if start in state:
                continue
            state[start] = 1
            stack = [(start, iter(refs[start]))]
            while stack:
                tree_id, pending = stack[-1]
                for target, el, _ in pending:
                    if state.get(target) == 1:
                        self.error(el, "subtree-cycle",
                                   f"SubTree reference cycle through {target!r}")
                    elif target not in state:
                        state[target] = 1
                        stack.append((target, iter(refs[target])))
                        break
                else:
                    state[tree_id] = 2
                    stack.pop()
                    for target, _, depth in refs[tree_id]:
                        height[tree_id] = max(height[tree_id],
                                              depth + height[target])
        main = self.main_tree_id
        if len(self.diagnostics) == reported and height.get(main, 0) > MAX_TREE_DEPTH:
            self.error(self.trees[main], "tree-depth",
                       f"main tree {main!r} is {height[main]} levels deep with "
                       f"its SubTrees expanded, more than {MAX_TREE_DEPTH}")


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
                             strategy_ids: set[str]) -> list[Diagnostic]:
    """Check strategy-selector switches against the registry's strategy ids.

    Every switch on the document's strategy variable needs one case per
    strategy id plus the sentinel case. Missing cases are errors, extra
    cases warnings.
    """
    if doc.strategy_var is None:
        return []
    wanted = set(strategy_ids) | {NO_STRATEGIES}
    out: list[Diagnostic] = []
    for node in doc.trees.values():
        for el in iter_nodes(node):
            if el.tag != "SwitchStatement" or el.resolved != doc.strategy_var:
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


def validate_exempt_reasons(doc: TreeDocument, known: set[str]) -> list[Diagnostic]:
    """An error, at its retry, for each exempt reason no node fails with."""
    return [Diagnostic(ERROR, el.line, el.col, "exempt-reason",
                       f"exempt reason {reason!r} is not a known failure reason")
            for node in doc.trees.values() for el in iter_nodes(node)
            if el.tag == "RetryUntilSuccessful" for reason in el.resolved[1]
            if reason not in known and not reason.startswith(UNBOUND_PREFIX)]


def validate_leaf_ports(doc: TreeDocument,
                        expected: dict[str, tuple[PortSpec, ...]]) -> list[Diagnostic]:
    """An error, at each node of a leaf in `expected` (leaf id -> its class's
    ports), whose declared ports are not those: one is missing or extra, or
    has another direction or type."""
    differ = {}
    for leaf_id, ports in doc.declared_leaves.items():
        table = expected.get(leaf_id)
        if table is not None and set(ports) != set(table):
            differ[leaf_id] = (
                f"leaf {leaf_id!r} declares {_port_list(ports, table)} where "
                f"its class has {_port_list(table, ports)}")
    return [Diagnostic(ERROR, el.line, el.col, "leaf-ports", differ[el.tag])
            for node in doc.trees.values() for el in iter_nodes(node)
            if el.tag in differ]


def _port_list(ports: tuple[PortSpec, ...], other: tuple[PortSpec, ...]) -> str:
    """The ports not in `other`, each as `name (direction type)`."""
    return ", ".join(f"{p.name} ({p.direction} {p.type})"
                     for p in ports if p not in other) or "no other port"


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
    lines += declaration_lines(doc.declared_leaves)
    for tree_id, node in doc.trees.items():
        lines.append(f"  <Tree id={quote_attribute(tree_id)}>")
        _serialize_node(node, lines, 2)
        lines.append("  </Tree>")
    lines.append("</TreeDocument>")
    return "\n".join(lines) + "\n"


def declaration_lines(leaves: dict[str, tuple[PortSpec, ...]]) -> list[str]:
    """The `Leaf` sections declaring `leaves` (leaf id -> its ports), one
    line per element, indented as `serialize` writes them."""
    lines = []
    for leaf_id, ports in leaves.items():
        lines.append(f'  <Leaf id={quote_attribute(leaf_id)}>')
        for port in ports:
            lines.append(f"    <Port{_format_attrs(dict(name=port.name, direction=port.direction, type=port.type))}/>")
        lines.append("  </Leaf>")
    return lines


# a value holding none of these characters is written as it is, in ""
_ESCAPED = frozenset('&<>"\n\r\t')


def quote_attribute(value: str) -> str:
    """`value` escaped and quoted as an XML attribute value.

    The output is `xml.sax.saxutils.quoteattr`'s, character for character;
    importing that module would load `urllib.request` and with it
    `http.client`, `email` and `ssl` into every process.
    """
    if _ESCAPED.isdisjoint(value):
        return f'"{value}"'
    value = (value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
             .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


def _format_attrs(attrs: dict[str, str]) -> str:
    return "".join(f" {k}={quote_attribute(str(v))}" for k, v in attrs.items())


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
    """Equal apart from source locations and resolved records."""
    return a == b


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
    """Build the executable main tree and bind it to the blackboard.

    It builds from what `parse_tree_definition` resolved, not from the
    attribute text: to change a parsed document, edit the text and parse it.
    """
    tree = _build_node(doc.trees[doc.main_tree_id], doc, registry, 1)
    tree.bind(blackboard)
    return tree


def _build_node(el: RawElement, doc: TreeDocument,
                registry: LeafRegistry, depth: int) -> TreeNode:
    # `depth` skips Case and Default levels, so it never exceeds the height
    # the parser measures: what that accepts builds here, and a document
    # edited after parsing stops here, not in a RecursionError.
    tag = el.tag
    if depth > MAX_TREE_DEPTH:
        raise InstantiationError(
            f"line {el.line}: tree-depth: {tag} is more than {MAX_TREE_DEPTH} "
            f"levels deep with its SubTrees expanded")
    name = el.attrs.get("name", tag)
    if tag in COMPOSITE_KINDS:
        children = [_build_node(c, doc, registry, depth + 1) for c in el.children]
        return COMPOSITE_KINDS[tag](name, children)
    if tag == "ForceFailure":
        return ForceFailure(_build_node(el.children[0], doc, registry, depth + 1),
                            name=name)
    if tag in BUILTIN_LEAF_KINDS:
        return BUILTIN_LEAF_KINDS[tag](name)
    record = el.resolved
    if record is None:
        raise InstantiationError(
            f"line {el.line}: {tag} was not resolved by parse_tree_definition")
    if tag == "RetryUntilSuccessful":
        num_attempts, reasons = record
        return RetryUntilSuccessful(
            _build_node(el.children[0], doc, registry, depth + 1),
            num_attempts=num_attempts, exempt_reasons=reasons, name=name)
    if tag == "SwitchStatement":
        cases = []
        default = None
        for child in el.children:
            built = _build_node(child.children[0], doc, registry, depth + 1)
            if child.tag == "Case":
                cases.append((child.attrs["value"], built))
            else:
                default = built
        return SwitchStatement(record, cases, default=default, name=name)
    if tag == "SubTree":
        remaps, seeds = record
        target = el.attrs["id"]
        inner = _build_node(doc.trees[target], doc, registry, depth + 1)
        return SubTreeScope(inner, remaps=remaps, seeds=seeds,
                            name=el.attrs.get("name", target))
    # a fresh dict per build: the factory may keep or change it
    return registry.build(tag, name, dict(record))
