import dataclasses
import itertools
import math
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import example, given, settings, strategies as st

from adaptbt.bench import canonical_tree_text
from adaptbt.core import (
    NO_STRATEGIES,
    Blackboard,
    Key,
    NodeStatus,
    RetryUntilSuccessful,
    Sequence,
    StatefulAction,
    UnboundKeyError,
    tick_root,
)
from adaptbt.treedef import (
    MAX_TREE_DEPTH,
    Diagnostic,
    InstantiationError,
    LeafRegistry,
    PortSpec,
    RawElement,
    convert_literal,
    infer_literal,
    instantiate,
    parse_binding,
    parse_tree_definition,
    quote_attribute,
    serialize,
    structurally_equal,
    validate_leaf_ports,
    validate_switch_coverage,
)
from conftest import trace_names

S = NodeStatus.SUCCESS


def doc(body, main="Main", extra=""):
    return (f'<TreeDocument main_tree="{main}"{extra}>\n'
            f'{body}\n'
            f'</TreeDocument>\n')


def subtree_chain(links):
    """`links` one-level trees, each holding a SubTree of the next, then a
    leaf: the main tree is links + 1 levels deep with its SubTrees expanded."""
    trees = [f'<Tree id="T{i}"><SubTree id="T{i + 1}"/></Tree>'
             for i in range(links)]
    trees.append(f'<Tree id="T{links}"><AlwaysSuccess/></Tree>')
    return doc("\n".join(trees), main="T0")


def parse_ok(text):
    result = parse_tree_definition(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.document


def parse_errors(text):
    result = parse_tree_definition(text)
    assert not result.ok
    return result.errors()


class TestParsing:
    def test_minimal_document(self):
        document = parse_ok(doc(
            '<Tree id="Main"><Sequence><AlwaysSuccess/></Sequence></Tree>'))
        assert list(document.trees) == ["Main"]
        root = document.trees["Main"]
        assert root.tag == "Sequence"
        assert [c.tag for c in root.children] == ["AlwaysSuccess"]

    def test_retry_with_constant_attempts(self):
        document = parse_ok(doc(
            '<Tree id="Main">'
            '<RetryUntilSuccessful num_attempts="5"><AlwaysSuccess/>'
            '</RetryUntilSuccessful></Tree>'))
        tree = instantiate(document, LeafRegistry(), Blackboard())
        assert isinstance(tree, RetryUntilSuccessful)
        assert tree.input("num_attempts") == 5

    def test_empty_composite_rejected(self):
        errors = parse_errors(doc('<Tree id="Main"><Fallback/></Tree>'))
        assert len(errors) == 1
        assert errors[0].rule == "composite-arity"
        assert "≥1 child" in errors[0].message

    def test_malformed_markup_reports_location(self):
        errors = parse_errors('<TreeDocument main_tree="Main">\n  <Tree id=>\n')
        assert errors[0].rule == "xml-syntax"
        assert errors[0].line == 2

    # a five-level entity chain names a node with 4**5 copies of "a"
    ENTITY_CHAIN = ('[\n' + "".join(
        f'<!ENTITY e{i} "{(f"&e{i - 1};" if i else "a") * 4}">\n'
        for i in range(5)) + ']')

    @pytest.mark.parametrize("declaration", [
        f"<!DOCTYPE TreeDocument {ENTITY_CHAIN}>",
        '<!DOCTYPE TreeDocument SYSTEM "tree.dtd">',
        "<!DOCTYPE TreeDocument>",
    ], ids=["internal-subset", "system", "bare"])
    def test_doctype_rejected_at_its_line(self, declaration):
        name = "&e4;" if "ENTITY" in declaration else "x"
        text = ('<?xml version="1.0"?>\n' + declaration + "\n"
                + doc(f'<Tree id="Main"><AlwaysSuccess name="{name}"/></Tree>'))
        result = parse_tree_definition(text)
        # the parse stops at the declaration: no entity is expanded
        assert result.document is None
        [error] = result.diagnostics
        assert (error.line, error.col, error.rule) == (2, 1, "doctype")
        assert "TreeDocument" in error.message

    @pytest.mark.parametrize("prolog,position", [
        ("<!DOCTYPE TreeDocument>\n", (1, 1)),
        ('<!DOCTYPE TreeDocument\n  SYSTEM "tree.dtd">\n', (1, 1)),
        ('<?xml version="1.0"?>\n<!-- c -->\n  <!DOCTYPE TreeDocument [\n'
         '<!ENTITY e "x">]>\n', (3, 3)),
        # lines end at \r\n or a lone \r as well; a column counts characters
        ("<!-- <!DOCTYPE -->\r\n\r<!--é--> <!DOCTYPE TreeDocument\r\n>\n", (3, 10)),
    ], ids=["bare", "split-header", "after-comment", "crlf"])
    def test_doctype_reported_at_its_open_bracket(self, prolog, position):
        # expat reports the event where the header ends, not where it starts
        result = parse_tree_definition(
            prolog + doc('<Tree id="Main"><AlwaysSuccess/></Tree>'))
        [error] = result.diagnostics
        assert (error.line, error.col, error.rule) == (*position, "doctype")

    def test_xml_declaration_accepted(self):
        parse_ok('<?xml version="1.0" encoding="UTF-8"?>\n'
                 + doc('<Tree id="Main"><AlwaysSuccess/></Tree>'))

    def test_unknown_node_kind(self):
        errors = parse_errors(doc('<Tree id="Main"><Teleport/></Tree>'))
        assert any(e.rule == "unknown-node" and "Teleport" in e.message
                   for e in errors)

    def test_unknown_port_name(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><Sequence speed="9"><AlwaysSuccess/></Sequence></Tree>'))
        assert errors[0].rule == "unknown-port"

    def test_missing_required_port(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><RetryUntilSuccessful><AlwaysSuccess/>'
            '</RetryUntilSuccessful></Tree>'))
        assert any(e.rule == "missing-port" for e in errors)

    def test_bad_port_literal(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><RetryUntilSuccessful num_attempts="soon">'
            '<AlwaysSuccess/></RetryUntilSuccessful></Tree>'))
        assert errors[0].rule == "port-value"

    def test_non_finite_float_port_names_line(self):
        errors = parse_errors(doc(
            '<Leaf id="Move"><Port name="speed" direction="in" type="float"/>'
            '</Leaf>\n'
            '<Tree id="Main"><Move speed="nan"/></Tree>'))
        assert [(e.line, e.rule) for e in errors] == [(3, "port-value")]

    def test_exempt_reasons_binding_names_line(self):
        errors = parse_errors(doc(
            '<Tree id="Main">\n'
            '<RetryUntilSuccessful num_attempts="2" exempt_reasons="{reasons}">'
            '<AlwaysSuccess/></RetryUntilSuccessful></Tree>'))
        assert [(e.line, e.rule) for e in errors] == [(3, "port-value")]
        assert "exempt_reasons" in errors[0].message

    def test_exempt_reasons_binding_rejected_by_instantiate(self):
        # instantiate builds from what the parser resolved, so an edit to a
        # parsed document takes effect, and is checked, only through its text
        document = parse_ok(doc(
            '<Tree id="Main"><RetryUntilSuccessful num_attempts="2" '
            'exempt_reasons="regrasp"><AlwaysSuccess/></RetryUntilSuccessful>'
            '</Tree>'))
        document.trees["Main"].attrs["exempt_reasons"] = "{reasons}"
        [error] = parse_errors(serialize(document))
        assert (error.line, error.rule) == (3, "port-value")
        assert "exempt_reasons" in error.message

    def test_text_content_rejected(self):
        errors = parse_errors(doc('<Tree id="Main"><Sequence>beep</Sequence></Tree>'))
        assert any(e.rule == "text-content" for e in errors)

    def test_undefined_subtree_reference(self):
        errors = parse_errors(doc('<Tree id="Main"><SubTree id="Ghost"/></Tree>'))
        assert errors[0].rule == "subtree-ref"

    def test_subtree_cycle(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><SubTree id="A"/></Tree>'
            '<Tree id="A"><SubTree id="B"/></Tree>'
            '<Tree id="B"><SubTree id="A"/></Tree>'))
        assert any(e.rule == "subtree-cycle" for e in errors)

    def test_missing_main_tree(self):
        errors = parse_errors(doc('<Tree id="Other"><AlwaysSuccess/></Tree>'))
        assert any(e.rule == "main-tree" for e in errors)

    def test_switch_children_must_be_cases(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><SwitchStatement variable="{mode}">'
            '<AlwaysSuccess/></SwitchStatement></Tree>'))
        assert any(e.rule == "switch-structure" for e in errors)

    def test_switch_variable_must_be_binding(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><SwitchStatement variable="mode">'
            '<Case value="x"><AlwaysSuccess/></Case></SwitchStatement></Tree>'))
        assert errors[0].rule == "switch-variable"

    def test_duplicate_case_values(self):
        errors = parse_errors(doc(
            '<Tree id="Main"><SwitchStatement variable="{mode}">'
            '<Case value="x"><AlwaysSuccess/></Case>'
            '<Case value="x"><AlwaysFailure/></Case>'
            '</SwitchStatement></Tree>'))
        assert any(e.rule == "case-duplicate" for e in errors)

    # `name` names the node on every element, so a port of that name could
    # never be told from it
    @pytest.mark.parametrize("node_name", ["fast", "1.5"])
    def test_port_called_name_rejected(self, node_name):
        errors = parse_errors(doc(
            '<Leaf id="Foo">\n<Port name="name" direction="in" type="float"/>'
            f'</Leaf>\n<Tree id="Main"><Foo name="{node_name}"/></Tree>'))
        assert [(e.line, e.rule) for e in errors] == [(3, "port-name")]

    def test_output_port_requires_binding(self):
        errors = parse_errors(doc(
            '<Leaf id="Emit"><Port name="out_val" direction="out" type="float"/></Leaf>'
            '<Tree id="Main"><Emit out_val="3.5"/></Tree>'))
        assert errors[0].rule == "output-binding"

    # one mistake, one diagnostic: a missing or malformed value is not
    # reported again as a value of the wrong kind
    @pytest.mark.parametrize("body,want", [
        ('<Tree id="Main"><SwitchStatement>'
         '<Case value="x"><AlwaysSuccess/></Case></SwitchStatement></Tree>',
         [("missing-port", "SwitchStatement requires port 'variable'")]),
        ('<Leaf id="Emit"><Port name="o" direction="out" type="float"/></Leaf>'
         '<Tree id="Main"><Emit o="{bad"/></Tree>',
         [("binding-syntax", "o: malformed binding '{bad'")]),
        ('<Leaf id="Emit"><Port name="o" direction="out" type="float"/></Leaf>'
         '<Tree id="Main"><Emit o="soon"/></Tree>',
         [("output-binding",
           "port 'o' is an output and must be bound to a blackboard key")]),
    ], ids=["switch_without_variable", "malformed_output", "text_output"])
    def test_one_diagnostic_per_mistake(self, body, want):
        assert [(e.rule, e.message) for e in parse_errors(doc(body))] == want

    # each structural rule's diagnostic, pinned where it is reported: the
    # offending element's own line and column
    MAIN = '<Tree id="Main"><AlwaysSuccess/></Tree>'

    @pytest.mark.parametrize("text,want", [
        ('<Tree id="Main">\n  <AlwaysSuccess/>\n</Tree>\n',
         ("document-root", 1, 1, "expected TreeDocument root element, got Tree")),
        (doc(f'{MAIN}\n  <Junk/>'),
         ("document-section", 3, 3, "expected Leaf or Tree, got Junk")),
        (doc(f'<Leaf id="Move"/>\n  <Leaf id="Move"/>\n{MAIN}'),
         ("leaf-id", 3, 3, "leaf 'Move' is already defined")),
        (doc(f'<Leaf id="Move">\n    <Junk/>\n  </Leaf>\n{MAIN}'),
         ("leaf-section", 3, 5, "expected Port, got Junk")),
        (doc('<Leaf id="Move">\n'
             '    <Port name="x" direction="sideways" type="int"/>\n'
             f'  </Leaf>\n{MAIN}'),
         ("port-direction", 3, 5,
          "direction must be one of ('in', 'out', 'inout'), got 'sideways'")),
        (doc('<Leaf id="Move">\n'
             '    <Port name="x" direction="in" type="complex"/>\n'
             f'  </Leaf>\n{MAIN}'),
         ("port-type", 3, 5,
          "type must be one of ('bool', 'int', 'float', 'str'), got 'complex'")),
        (doc('<Leaf id="Move">\n'
             '    <Port name="x" direction="in" type="int"/>\n'
             '    <Port name="x" direction="out" type="int"/>\n'
             f'  </Leaf>\n{MAIN}'),
         ("port-name", 4, 5, "duplicate port 'x'")),
        (doc(f'{MAIN}\n  <Tree id="Main"><AlwaysFailure/></Tree>'),
         ("tree-id", 3, 3, "tree 'Main' is already defined")),
        (doc(f'{MAIN}\n  <Tree id="Spare">\n'
             '    <AlwaysSuccess/><AlwaysFailure/>\n  </Tree>'),
         ("tree-arity", 3, 3, "tree 'Spare' must have exactly one root node")),
        (doc('<Tree id="Main">\n'
             '    <Case value="x"><AlwaysSuccess/></Case>\n  </Tree>'),
         ("switch-structure", 3, 5,
          "Case is only allowed directly under SwitchStatement")),
        (doc('<Tree id="Main">\n'
             '    <SubTree id="Spare"><AlwaysSuccess/></SubTree>\n  </Tree>\n'
             '  <Tree id="Spare"><AlwaysSuccess/></Tree>'),
         ("leaf-arity", 3, 5, "SubTree takes no children")),
        (doc('<Tree id="Main">\n'
             '    <AlwaysSuccess><AlwaysFailure/></AlwaysSuccess>\n  </Tree>'),
         ("leaf-arity", 3, 5, "AlwaysSuccess takes no children")),
        (doc('<Leaf id="Move"/>\n  <Tree id="Main">\n'
             '    <Move><AlwaysFailure/></Move>\n  </Tree>'),
         ("leaf-arity", 4, 5, "Move takes no children")),
        (doc('<Tree id="Main">\n'
             '    <SwitchStatement variable="{mode}"/>\n  </Tree>'),
         ("switch-arity", 3, 5, "SwitchStatement requires ≥1 case")),
        (doc('<Tree id="Main">\n'
             '    <SwitchStatement variable="{mode}">\n'
             '      <Default><AlwaysSuccess/></Default>\n'
             '      <Default><AlwaysFailure/></Default>\n'
             '    </SwitchStatement>\n  </Tree>'),
         ("case-duplicate", 5, 7, "multiple Default cases")),
    ], ids=["document_root", "document_section", "leaf_id", "leaf_section",
            "port_direction", "port_type", "port_name_duplicate", "tree_id",
            "tree_arity", "case_outside_switch", "subtree_arity",
            "builtin_leaf_arity", "declared_leaf_arity", "switch_arity",
            "second_default"])
    def test_rule_diagnostic_is_pinned(self, text, want):
        assert [(d.rule, d.line, d.col, d.message)
                for d in parse_tree_definition(text).diagnostics] == [want]

    # a declared leaf of a built-in tag would be built as the built-in kind
    @pytest.mark.parametrize("tag", [
        "SubTree", "ForceFailure", "RetryUntilSuccessful", "SwitchStatement",
        "Sequence", "AlwaysSuccess", "Case", "Port"])
    def test_leaf_may_not_take_a_builtin_tag(self, tag):
        text = doc(f'<Leaf id="{tag}"/>\n{self.MAIN}')
        assert [(d.rule, d.line, d.col, d.message)
                for d in parse_tree_definition(text).diagnostics] == [
            ("leaf-id", 2, 1, f"leaf {tag!r} is already defined")]

    def test_element_inside_a_port_is_reported(self):
        # serialize would drop it
        text = doc('<Leaf id="Move">\n'
                   '    <Port name="x" direction="in" type="int"><Junk/></Port>\n'
                   f'  </Leaf>\n{self.MAIN}')
        assert [(d.rule, d.line, d.col, d.message)
                for d in parse_tree_definition(text).diagnostics] == [
            ("leaf-section", 3, 46, "Port takes no children, got Junk")]

    def test_diagnostic_locations_lie_within_input(self):
        bad_docs = [
            doc('<Tree id="Main"><Fallback/></Tree>'),
            doc('<Tree id="Main"><Nope/></Tree>'),
            doc('<Tree id="Other"><AlwaysSuccess/></Tree>'),
            '<TreeDocument main_tree="M">\n<Tree id=>\n',
        ]
        for text in bad_docs:
            lines = text.splitlines()
            for d in parse_errors(text):
                assert 1 <= d.line <= len(lines)
                assert 1 <= d.col <= len(lines[d.line - 1]) + 2

    def test_diagnostic_string_format(self):
        d = Diagnostic("error", 3, 7, "unknown-node", "unknown node kind 'X'")
        assert str(d) == "error:3:7:unknown-node:unknown node kind 'X'"


class TestBindingSyntax:
    def test_binding_forms(self):
        assert parse_binding("{angle}") == "angle"
        assert parse_binding("plain") is None
        assert parse_binding("3.5") is None

    @pytest.mark.parametrize("bad", ["{", "{}", "{a{b}", "a}b", "{a}b"])
    def test_malformed_bindings(self, bad):
        with pytest.raises(ValueError):
            parse_binding(bad)

    def test_literal_conversion(self):
        assert convert_literal("true", "bool") is True
        assert convert_literal("-4", "int") == -4
        assert convert_literal("2.5", "float") == 2.5
        assert convert_literal("hi", "str") == "hi"
        with pytest.raises(ValueError):
            convert_literal("yes", "bool")
        with pytest.raises(ValueError):
            convert_literal("2.5", "int")

    def test_seed_inference(self):
        assert infer_literal("true") is True
        assert infer_literal("5") == 5
        assert infer_literal("5.5") == 5.5
        assert infer_literal("low_torque") == "low_torque"

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf",
                                      "Infinity", "1e400"])
    def test_non_finite_literals_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            convert_literal(text, "float")
        with pytest.raises(ValueError, match="finite"):
            infer_literal(text)


SWITCH_DOC = doc(
    '<Tree id="Main"><SwitchStatement variable="{strategy_id}">'
    '<Case value="low_torque"><AlwaysSuccess/></Case>'
    '<Case value="high_torque"><AlwaysSuccess/></Case>'
    '<Case value="no_strategies"><AlwaysSuccess/></Case>'
    '</SwitchStatement></Tree>',
    extra=' strategy_var="strategy_id"')


def exception_typed_literal(text: str):
    """infer_literal as it was written with int() and float() attempts."""
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


def typed(function, text):
    try:
        value = function(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), repr(value)


# characters that number spellings are made of, and near misses
NUMBER_CHARS = st.sampled_from(list("0123456789_.eE+- \t\nfinatyINFx")
                               + ["\u0661", "\u066b", "\u2003", "\xa0", "\x1c"])


class TestLiteralTyping:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(NUMBER_CHARS, max_size=10), st.text(max_size=6)))
    @example("1_000")
    @example(" 7 ")
    @example("\u0661")
    @example("nan")
    @example("-inf")
    @example("1e5")
    @example("-0")
    @example("1" + "0" * 400)
    @example("true")
    @example("True")
    @example("\x1c5")  # str.isspace, but int() and float() do not strip it
    def test_infer_literal_keeps_exception_typing(self, text):
        assert typed(infer_literal, text) == typed(exception_typed_literal, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from("&<>\"'\n\r\t a"), st.characters()),
                   max_size=12))
    def test_quote_attribute_is_quoteattr(self, value):
        assert quote_attribute(value) == quoteattr(value)


class TestSwitchCoverage:
    IDS = {"low_torque", "high_torque"}

    def test_full_coverage_is_clean(self):
        document = parse_ok(SWITCH_DOC)
        assert validate_switch_coverage(document, self.IDS) == []

    def test_missing_sentinel_case_is_one_error(self):
        document = parse_ok(SWITCH_DOC.replace(
            '<Case value="no_strategies"><AlwaysSuccess/></Case>', ''))
        diags = validate_switch_coverage(document, self.IDS)
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].rule == "switch-coverage"
        assert "no_strategies" in diags[0].message

    def test_extra_case_is_warning(self):
        document = parse_ok(SWITCH_DOC.replace(
            '</SwitchStatement>',
            '<Case value="medium_torque"><AlwaysSuccess/></Case></SwitchStatement>'))
        diags = validate_switch_coverage(document, self.IDS)
        assert [d.severity for d in diags] == ["warning"]
        assert "medium_torque" in diags[0].message

    def test_unrelated_switches_ignored(self):
        document = parse_ok(doc(
            '<Tree id="Main"><SwitchStatement variable="{other}">'
            '<Case value="x"><AlwaysSuccess/></Case></SwitchStatement></Tree>',
            extra=' strategy_var="strategy_id"'))
        assert validate_switch_coverage(document, self.IDS) == []


class TestLeafPorts:
    TABLE = {"Twist": (PortSpec("rate", "in", "float"),
                       PortSpec("done", "out", "bool"))}

    def twist_doc(self, ports, uses=1):
        declaration = "".join(
            f'<Port name="{n}" direction="{d}" type="{t}"/>' for n, d, t in ports)
        node = "<Twist " + " ".join(f'{n}="{{{n}}}"' for n, _, _ in ports) + "/>"
        return parse_ok(doc(f'<Leaf id="Twist">{declaration}</Leaf>\n'
                            f'<Tree id="Main">\n<Sequence>\n'
                            + f"{node}\n" * uses + '</Sequence>\n</Tree>'))

    @pytest.mark.parametrize("ports", [
        [("rate", "in", "float"), ("done", "out", "bool")],
        [("done", "out", "bool"), ("rate", "in", "float")],  # any order
    ])
    def test_the_class_table_is_clean(self, ports):
        assert validate_leaf_ports(self.twist_doc(ports), self.TABLE) == []

    @pytest.mark.parametrize("ports,declared,has", [
        ([("rate", "in", "str"), ("done", "out", "bool")],
         "rate (in str)", "rate (in float)"),
        ([("rate", "inout", "float"), ("done", "out", "bool")],
         "rate (inout float)", "rate (in float)"),
        ([("rate", "in", "float")], "no other port", "done (out bool)"),
        ([("rate", "in", "float"), ("done", "out", "bool"),
          ("spare", "in", "int")], "spare (in int)", "no other port"),
    ])
    def test_each_difference_is_an_error_at_each_use(self, ports, declared, has):
        diags = validate_leaf_ports(self.twist_doc(ports, uses=2), self.TABLE)
        message = f"leaf 'Twist' declares {declared} where its class has {has}"
        assert [str(d) for d in diags] == [
            f"error:5:1:leaf-ports:{message}", f"error:6:1:leaf-ports:{message}"]

    def test_unused_or_unknown_leaves_are_not_checked(self):
        unused = parse_ok(doc('<Leaf id="Twist"><Port name="rate" direction="in" '
                              'type="str"/></Leaf><Tree id="Main"><AlwaysSuccess/>'
                              '</Tree>'))
        assert validate_leaf_ports(unused, self.TABLE) == []
        other = self.twist_doc([("rate", "in", "str")])
        assert validate_leaf_ports(other, {"Other": ()}) == []


RICH_DOC = doc(
    '<Leaf id="Probe">'
    '<Port name="level" direction="in" type="float"/>'
    '<Port name="result" direction="out" type="bool"/>'
    '</Leaf>'
    '<Tree id="Main">'
    '<ReactiveFallback>'
    '<Probe level="0.25" result="{probe_ok}"/>'
    '<RetryUntilSuccessful num_attempts="3" exempt_reasons="regrasp">'
    '<Sequence name="work">'
    '<SubTree id="Inner" angle="{valve_angle}" gain="2.5"/>'
    '<ForceFailure><AlwaysSuccess/></ForceFailure>'
    '</Sequence>'
    '</RetryUntilSuccessful>'
    '</ReactiveFallback>'
    '</Tree>'
    '<Tree id="Inner"><AlwaysSuccess/></Tree>',
    extra=' strategy_var="strategy_id"')


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        first = parse_ok(RICH_DOC)
        text = serialize(first)
        second = parse_ok(text)
        assert structurally_equal(first, second)
        assert serialize(second) == text

    def test_serialize_golden_bytes(self):
        # quoteattr escapes &, <, > and newlines, and quotes a value that
        # holds " but no ' with single quotes
        document = parse_ok(doc(
            '<Leaf id="Say">'
            '<Port name="text" direction="in" type="str"/>'
            '<Port name="alt" direction="in" type="str"/>'
            '</Leaf>'
            '<Tree id="Main"><Sequence name="a&amp;b &lt;c&gt;">'
            '<Say text="he said &quot;hi&quot;"'
            ' alt="it&apos;s &quot;both&quot;&#10;two lines"/>'
            '<Say text="it&apos;s" alt="&amp;&lt;&#10;"/>'
            '</Sequence></Tree>'))
        assert serialize(document).encode() == (
            b'<TreeDocument main_tree="Main">\n'
            b'  <Leaf id="Say">\n'
            b'    <Port name="text" direction="in" type="str"/>\n'
            b'    <Port name="alt" direction="in" type="str"/>\n'
            b'  </Leaf>\n'
            b'  <Tree id="Main">\n'
            b'    <Sequence name="a&amp;b &lt;c&gt;">\n'
            b'      <Say text=\'he said "hi"\''
            b' alt="it\'s &quot;both&quot;&#10;two lines"/>\n'
            b'      <Say text="it\'s" alt="&amp;&lt;&#10;"/>\n'
            b'    </Sequence>\n'
            b'  </Tree>\n'
            b'</TreeDocument>\n')

    def test_structural_inequality_detected(self):
        a = parse_ok(doc('<Tree id="Main"><AlwaysSuccess/></Tree>'))
        b = parse_ok(doc('<Tree id="Main"><AlwaysFailure/></Tree>'))
        assert not structurally_equal(a, b)


class TestInstantiation:
    def make_registry(self):
        registry = LeafRegistry()

        def bump(name, ports):
            def on_start(node):
                node.output("angle", node.input("angle") + node.bb.get("gain"))
                return S
            return StatefulAction(name, ports, on_start=on_start)

        registry.register("BumpAngle", bump)
        return registry

    def test_subtree_remap_and_seed(self):
        document = parse_ok(doc(
            '<Leaf id="BumpAngle">'
            '<Port name="angle" direction="inout" type="float"/></Leaf>'
            '<Tree id="Main"><Sequence>'
            '<SubTree id="Inner" angle="{valve_angle}" gain="2.5"/>'
            '</Sequence></Tree>'
            '<Tree id="Inner"><BumpAngle angle="{angle}"/></Tree>'))
        bb = Blackboard()
        bb.set("valve_angle", 1.0)
        tree = instantiate(document, self.make_registry(), bb)
        status, trace = tick_root(tree, bb)
        assert status is S
        assert trace.diagnostics == []
        assert bb.get("valve_angle") == 3.5
        with pytest.raises(UnboundKeyError):
            bb.get("gain")

    @pytest.mark.parametrize("seed", ["nan", "-inf"])
    def test_non_finite_subtree_seed(self, seed):
        text = doc(
            '<Tree id="Main"><Sequence>\n'
            f'<SubTree id="Inner" angle="{{valve_angle}}" gain="{seed}"/>'
            '</Sequence></Tree>'
            '<Tree id="Inner"><AlwaysSuccess/></Tree>')
        [error] = parse_errors(text)
        assert (error.line, error.rule) == (3, "seed-value")
        assert "gain" in error.message
        # an edit to a parsed document is checked when its text is parsed
        document = parse_ok(text.replace(f'gain="{seed}"', 'gain="1.0"'))
        document.trees["Main"].children[0].attrs["gain"] = seed
        [error] = parse_errors(serialize(document))
        assert error.rule == "seed-value"
        assert error.message.startswith("gain: ")

    def test_unregistered_leaf_names_the_leaf(self):
        document = parse_ok(doc(
            '<Leaf id="ManipulateTarget">'
            '<Port name="target_angle" direction="in" type="float"/></Leaf>'
            '<Tree id="Main"><ManipulateTarget target_angle="1.0"/></Tree>'))
        with pytest.raises(InstantiationError, match="ManipulateTarget"):
            instantiate(document, LeafRegistry(), Blackboard())

    def test_port_type_mismatch(self):
        document = parse_ok(doc(
            '<Tree id="Main"><RetryUntilSuccessful num_attempts="2">'
            '<AlwaysSuccess/></RetryUntilSuccessful></Tree>'))
        document.trees["Main"].attrs["num_attempts"] = "many"
        [error] = parse_errors(serialize(document))
        assert (error.rule, error.message) == (
            "port-value", "port 'num_attempts' expects int, got 'many'")

    def test_switch_and_names_survive_instantiation(self):
        document = parse_ok(doc(
            '<Tree id="Main"><SwitchStatement variable="{mode}" name="router">'
            '<Case value="go"><AlwaysSuccess name="go_leaf"/></Case>'
            '<Default><AlwaysFailure/></Default>'
            '</SwitchStatement></Tree>'))
        bb = Blackboard()
        bb.set("mode", "go")
        tree = instantiate(document, LeafRegistry(), bb)
        assert tree.name == "router"
        status, trace = tick_root(tree, bb)
        assert status is S
        assert trace_names(trace) == ["router", "go_leaf"]

    def test_hand_built_element_rejects_bad_literal(self):
        el = RawElement("RetryUntilSuccessful", {"num_attempts": "x"})
        document = parse_ok(doc(
            '<Tree id="Main"><AlwaysSuccess/></Tree>'))
        document.trees["Main"] = el
        el.children.append(RawElement("AlwaysSuccess", {}))
        with pytest.raises(InstantiationError):
            instantiate(document, LeafRegistry(), Blackboard())

    def test_chain_at_the_limit_builds_and_ticks(self):
        document = parse_ok(subtree_chain(MAX_TREE_DEPTH - 1))
        bb = Blackboard()
        tree = instantiate(document, LeafRegistry(), bb)
        status, trace = tick_root(tree, bb)
        assert status is S
        assert trace_names(trace) == [f"T{i}" for i in range(1, MAX_TREE_DEPTH)] \
            + ["AlwaysSuccess"]

    # the parser measures the main tree with its SubTrees expanded and
    # reports it at its root. instantiate counts again, for a document
    # edited after parsing: here a chain within the limit is stretched to
    # `links` links. 1,200 links overflowed the recursion limit before
    # instantiate counted its depth.
    @pytest.mark.parametrize("links,tag", [
        (MAX_TREE_DEPTH, "AlwaysSuccess"), (1200, "SubTree")])
    def test_chain_past_the_limit_is_refused(self, links, tag):
        [error] = parse_errors(subtree_chain(links))
        assert (error.line, error.col, error.rule, error.message) == (
            2, 15, "tree-depth", f"main tree 'T0' is {links + 1} levels deep "
            f"with its SubTrees expanded, more than {MAX_TREE_DEPTH}")
        document = parse_ok(subtree_chain(MAX_TREE_DEPTH - 1))
        trees = document.trees
        trees[f"T{links}"] = trees[f"T{MAX_TREE_DEPTH - 1}"]
        for i in range(MAX_TREE_DEPTH - 1, links):
            trees[f"T{i}"] = dataclasses.replace(trees["T0"], attrs={"id": f"T{i + 1}"})
        with pytest.raises(InstantiationError, match=(
                f"tree-depth: {tag} is more than {MAX_TREE_DEPTH} levels deep")):
            instantiate(document, LeafRegistry(), Blackboard())


# Every feature that resolves a value: literal ports of the four types, a
# bound and a literal num_attempts, a Default case, and a SubTree with a
# remap and int, float, bool and str seeds.
RESOLVED_DOC = doc(
    '<Leaf id="Probe">'
    '<Port name="flag" direction="in" type="bool"/>'
    '<Port name="count" direction="in" type="int"/>'
    '<Port name="gain" direction="in" type="float"/>'
    '<Port name="label" direction="in" type="str"/>'
    '<Port name="word" direction="out" type="str"/>'
    '</Leaf>'
    '<Tree id="Main"><Sequence name="root">'
    '<Probe name="literal" flag="true" count="7" gain="2.5" label="7"'
    ' word="{mode}"/>'
    '<RetryUntilSuccessful name="bound_retry" num_attempts="{attempts}"'
    ' exempt_reasons="regrasp;;slip">'
    '<SwitchStatement name="switch" variable="{mode}">'
    '<Case value="a"><SubTree id="Inner" name="inner" level="3" scale="0.5"'
    ' on="false" tag="a" outer="{shared}"/></Case>'
    '<Default><RetryUntilSuccessful name="literal_retry" num_attempts="2">'
    '<Probe name="fallback" flag="{on}" count="{level}" gain="{scale}"'
    ' label="{tag}" word="{shared}"/>'
    '</RetryUntilSuccessful></Default>'
    '</SwitchStatement></RetryUntilSuccessful>'
    '</Sequence></Tree>'
    '<Tree id="Inner"><Probe name="seeded" flag="{on}" count="{level}"'
    ' gain="{scale}" label="{tag}" word="{outer}"/></Tree>')

WRITTEN = {"bool": lambda n: n % 2 == 0, "int": lambda n: n,
           "float": lambda n: n / 4}


def scripted_registry(document, words):
    """One leaf per declared id of `document`, all driven by one counter.

    Each tick of a leaf logs the inputs it reads. A leaf returns Running
    when it starts; its next tick writes every output (a str output the next
    of `words`) and returns Failure on every eleventh turn, Success otherwise.
    `built` keeps the ports each factory call was given.
    """
    registry = LeafRegistry()
    log, built = [], []
    turn, writes = itertools.count(), itertools.count()

    def register(leaf_id, specs):
        def factory(name, ports):
            built.append((name, dict(ports)))

            def step(node):
                n = next(turn)
                log.append((name, [node.input(p.name) for p in specs
                                   if p.direction != "out"]))
                if node.status is not NodeStatus.RUNNING:
                    return NodeStatus.RUNNING
                for p in specs:
                    if p.direction != "in":
                        node.output(p.name, WRITTEN[p.type](n) if p.type != "str"
                                    else words[next(writes) % len(words)])
                return NodeStatus.FAILURE if n % 11 == 0 else S
            return StatefulAction(name, ports, on_start=step, on_running=step)
        registry.register(leaf_id, factory)

    for leaf_id, specs in document.declared_leaves.items():
        register(leaf_id, specs)
    return registry, log, built


def run_ticks(document, words, seeds, ticks=40):
    registry, log, built = scripted_registry(document, words)
    bb = Blackboard()
    for key, value in seeds.items():
        bb.set(key, value)
    tree = instantiate(document, registry, bb)
    traces = []
    for _ in range(ticks):
        status, trace = tick_root(tree, bb)
        traces.append((status, trace.entries, trace.diagnostics))
    return traces, log, built


CANONICAL_SEEDS = {"num_attempts": 5, "target_angle": 1.5,
                   "tightened_threshold": math.inf, "twist_progress": 0.0}


class TestResolvedRecords:
    """instantiate builds from what the parser resolved, once per element."""

    @pytest.mark.parametrize("ids", [1, 2, 64])
    def test_canonical_tree_ticks_the_same_after_a_round_trip(self, ids):
        strategy_ids = [f"s{i}" for i in range(ids)]
        text = canonical_tree_text(strategy_ids)
        words = strategy_ids + [NO_STRATEGIES]
        first = run_ticks(parse_ok(text), words, CANONICAL_SEEDS)
        again = run_ticks(parse_ok(serialize(parse_ok(text))), words,
                          CANONICAL_SEEDS)
        assert first == again
        traces, log, _ = first
        visited = {name for _, entries, _ in traces for name, _ in entries}
        assert {"s0_run", "IsTightened", "retract_then_fail"} <= visited
        assert ("IsTightened", [0.0, math.inf]) in log  # a seed and a remap

    def test_hand_document_ticks_the_same_after_a_round_trip(self):
        seeds = {"attempts": 3, "shared": "x"}
        first = run_ticks(parse_ok(RESOLVED_DOC), ["a", "b"], seeds)
        again = run_ticks(parse_ok(serialize(parse_ok(RESOLVED_DOC))),
                          ["a", "b"], seeds)
        assert first == again
        traces, log, _ = first
        visited = {name for _, entries, _ in traces for name, _ in entries}
        assert {"inner", "seeded", "fallback", "literal_retry"} <= visited
        assert ("seeded", [False, 3, 0.5, "a"]) in log
        assert any(diagnostics for _, _, diagnostics in traces)  # {on} unbound

    def test_ports_hold_keys_and_typed_constants(self):
        _, _, built = run_ticks(parse_ok(RESOLVED_DOC), ["a", "b"],
                                {"attempts": 3}, ticks=0)
        ports = dict(built)
        assert [(p, type(v), v) for p, v in ports["literal"].items()] == [
            ("flag", bool, True), ("count", int, 7), ("gain", float, 2.5),
            ("label", str, "7"), ("word", Key, "mode")]
        assert all(type(v) is Key for v in ports["seeded"].values())

    def test_records_of_each_kind(self):
        document = parse_ok(RESOLVED_DOC)
        literal, bound_retry = document.trees["Main"].children
        switch = bound_retry.children[0]
        case, default = switch.children
        subtree = case.children[0]
        literal_retry = default.children[0]
        assert (type(bound_retry.resolved[0]), bound_retry.resolved) == (
            Key, ("attempts", ("regrasp", "slip")))
        assert (type(literal_retry.resolved[0]), literal_retry.resolved) == (
            int, (2, ()))
        assert (type(switch.resolved), switch.resolved) == (Key, "mode")
        remaps, seeds = subtree.resolved
        assert remaps == {"outer": "shared"}
        assert [(k, type(v), v) for k, v in seeds.items()] == [
            ("level", int, 3), ("scale", float, 0.5), ("on", bool, False),
            ("tag", str, "a")]
        tree = instantiate(document, scripted_registry(document, ["a"])[0],
                           Blackboard())
        assert tree.children[1].exempt_reasons == {"regrasp", "slip"}

    def test_equality_ignores_resolved_records(self):
        first = parse_ok(RESOLVED_DOC)
        assert first == parse_ok(serialize(first))
        root = first.trees["Main"]
        leaf = root.children[0]
        assert dataclasses.replace(leaf, resolved={"flag": False}) == leaf
        assert dataclasses.replace(root, resolved=("other",)) == root
        assert "resolved" not in repr(leaf)

    def test_factory_cannot_change_the_record(self):
        document = parse_ok(doc(
            '<Leaf id="Move"><Port name="speed" direction="in" type="float"/>'
            '</Leaf><Tree id="Main"><Move speed="1.5"/></Tree>'))
        given = []

        def factory(name, ports):
            given.append(dict(ports))
            ports["speed"] = Key("elsewhere")
            ports["extra"] = 1
            return StatefulAction(name, ports, on_start=lambda node: S)

        registry = LeafRegistry()
        registry.register("Move", factory)
        for _ in range(2):
            instantiate(document, registry, Blackboard())
        assert given == [{"speed": 1.5}, {"speed": 1.5}]

    @pytest.mark.parametrize("tag,attrs", [
        ("RetryUntilSuccessful", {"num_attempts": "2"}),
        ("SwitchStatement", {"variable": "{mode}"}),
        ("SubTree", {"id": "Main"}),
        ("Probe", {}),
    ])
    def test_element_the_parser_never_saw_is_refused(self, tag, attrs):
        document = parse_ok(RESOLVED_DOC)
        document.trees["Main"] = RawElement(
            tag, attrs, [RawElement("AlwaysSuccess", {})], line=9)
        with pytest.raises(InstantiationError, match=(
                f"^line 9: {tag} was not resolved by parse_tree_definition$")):
            instantiate(document, LeafRegistry(), Blackboard())
