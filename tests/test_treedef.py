import pytest

from adaptbt.core import (
    Blackboard,
    NodeStatus,
    RetryUntilSuccessful,
    Sequence,
    StatefulAction,
    tick_root,
)
from adaptbt.treedef import (
    Diagnostic,
    InstantiationError,
    LeafRegistry,
    RawElement,
    convert_literal,
    infer_literal,
    instantiate,
    parse_binding,
    parse_tree_definition,
    serialize,
    structurally_equal,
    validate_subtree_seeds,
    validate_switch_coverage,
)

S = NodeStatus.SUCCESS


def doc(body, main="Main", extra=""):
    return (f'<TreeDocument main_tree="{main}"{extra}>\n'
            f'{body}\n'
            f'</TreeDocument>\n')


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

    def test_output_port_requires_binding(self):
        errors = parse_errors(doc(
            '<Leaf id="Emit"><Port name="out_val" direction="out" type="float"/></Leaf>'
            '<Tree id="Main"><Emit out_val="3.5"/></Tree>'))
        assert errors[0].rule == "output-binding"

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
        assert not bb.has("gain")

    @pytest.mark.parametrize("seed", ["nan", "-inf"])
    def test_non_finite_subtree_seed(self, seed):
        document = parse_ok(doc(
            '<Tree id="Main"><Sequence>\n'
            f'<SubTree id="Inner" angle="{{valve_angle}}" gain="{seed}"/>'
            '</Sequence></Tree>'
            '<Tree id="Inner"><AlwaysSuccess/></Tree>'))
        [error] = validate_subtree_seeds(document)
        assert (error.line, error.rule) == (3, "seed-value")
        assert "gain" in error.message
        with pytest.raises(InstantiationError, match="line 3: SubTree seed 'gain'"):
            instantiate(document, LeafRegistry(), Blackboard())

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
        with pytest.raises(InstantiationError, match="num_attempts"):
            instantiate(document, LeafRegistry(), Blackboard())

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
        assert trace.names() == ["router", "go_leaf"]

    def test_hand_built_element_rejects_bad_literal(self):
        el = RawElement("RetryUntilSuccessful", {"num_attempts": "x"})
        document = parse_ok(doc(
            '<Tree id="Main"><AlwaysSuccess/></Tree>'))
        document.trees["Main"] = el
        el.children.append(RawElement("AlwaysSuccess", {}))
        with pytest.raises(InstantiationError):
            instantiate(document, LeafRegistry(), Blackboard())
