"""Guards for the per-tick code path.

Loading an enum member (`NodeStatus.RUNNING`) is a class attribute lookup
that costs several times a module-global load, and the functions below run
on every node visit or every tick. One such load in the composite loop once
cost 9-13% per tick. `core` binds aliases (`_RUNNING`, `_SUCCESS`, ...) that
the other modules import instead; this test keeps the member loads out
without timing anything, and keeps the aliases in `core` alone.

On CPython 3.11 and 3.12 an instance keeps its attributes in an inline
array that attribute loads and stores are specialized for; reading its
`__dict__` (or `vars()` of it) replaces the array with a dict for good, and
every later attribute access on it misses those caches. The last two tests
keep that read out of the package, statically and at run time.
"""

import ast
import gc
import math
import sys
from pathlib import Path

import pytest

import adaptbt
from adaptbt import bench
from adaptbt.bench import DEFAULT_DEVICES, DEFAULT_STRATEGIES, EpisodeProbe, \
    run_episode, trial_rng
from adaptbt.core import Blackboard, Condition, NodeStatus, StatefulAction, \
    iter_nodes, tick_root
from adaptbt.strategies import DataStore
from adaptbt.treedef import LeafRegistry, instantiate, parse_tree_definition

PACKAGE = Path(adaptbt.__file__).parent

HOT_FUNCTIONS = {
    "core.py": {"execute_tick", "_tick", "on_start", "on_running", "input",
                "output"},
    "sim.py": {"on_start", "on_running", "_advance_segment", "_twist_step",
               "step_twist"},
    "strategies.py": {"on_start", "_tick", "record"},
    "bench.py": {"run_episode"},
}


def member_loads(function: ast.AST) -> list[str]:
    return [f"NodeStatus.{node.attr} (line {node.lineno})"
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "NodeStatus"]


@pytest.mark.parametrize("module", sorted(HOT_FUNCTIONS))
def test_no_enum_member_loads_on_the_hot_path(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    wanted = HOT_FUNCTIONS[module]
    seen = set()
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in wanted:
            seen.add(node.name)
            offenders += [f"{node.name}: {load}" for load in member_loads(node)]
    # a renamed function would otherwise drop out of the check unnoticed
    assert seen == wanted
    assert offenders == []


def test_only_core_binds_status_members_at_module_level():
    # a second alias of a member is a second name for it to drift from
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        for statement in tree.body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)) \
                    and statement.value is not None:
                offenders += [f"{path.name}: {load}"
                              for load in member_loads(statement.value)]
    assert offenders == []


@pytest.mark.parametrize("method", ["input", "output"])
def test_port_access_calls_no_blackboard_method(method):
    # A port resolves through the SubTree remap chain once, in
    # TreeNode._resolve; a Blackboard call here would put that walk back
    # on every read or write.
    tree = ast.parse((PACKAGE / "core.py").read_text(), filename="core.py")
    node_class = next(node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "TreeNode")
    function = next(node for node in node_class.body
                    if isinstance(node, ast.FunctionDef) and node.name == method)
    blackboard_methods = {name for name, value in vars(Blackboard).items()
                          if callable(value) and not name.startswith("__")}
    calls = [f"{node.func.attr} (line {node.lineno})"
             for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in blackboard_methods]
    assert calls == []


def attribute_loads(function: ast.AST, owner: str) -> list[ast.Attribute]:
    return [node for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == owner]


def composite_tick() -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / "core.py").read_text(), filename="core.py")
    composite = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "_Composite")
    return next(node for node in composite.body
                if isinstance(node, ast.FunctionDef) and node.name == "_tick")


def test_composite_loop_reads_its_prebuilt_tuple():
    # The loop serves every composite and child class, and CPython caches
    # one class per attribute load, so an attribute read here stays
    # unspecialized: the kind's fields and each child's name, entry and
    # _tick come from the tuple built at the first tick, and so do the
    # later children a reactive halt visits.
    function = composite_tick()
    own = [f"self.{node.attr} (line {node.lineno})"
           for node in attribute_loads(function, "self")
           if node.attr not in {"_plan", "_build_plan", "_cursor"}]
    of_child = [f"child.{node.attr} (line {node.lineno})"
                for node in attribute_loads(function, "child")
                if node.attr not in {"_unbound", "_invalid"}]
    assert own == []
    assert of_child == []


def test_composite_loop_walks_its_tuple_by_index():
    # a range object per visit, or a slice per reactive halt, is an
    # allocation the index walk does without
    offenders = [f"line {node.lineno}: {ast.unparse(node)}"
                 for node in ast.walk(composite_tick())
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "range"
                 or isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)]
    assert offenders == []


def test_no_instance_dict_reads_in_the_package():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "__dict__"
                      or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "vars"]
    assert offenders == []


_ABSENT = object()


def materialized(obj) -> bool:
    """Whether `obj` holds an instance dict, found without reading
    `__dict__`: the gc sees either the inline attribute values or one dict
    that maps attribute names to them."""
    return any(type(ref) is dict and ref
               and all(type(key) is str and getattr(obj, key, _ABSENT) is value
                       for key, value in ref.items())
               for ref in gc.get_referents(obj))


CALLBACK_DOCUMENT = """\
<TreeDocument main_tree="Main">
  <Leaf id="Above">
    <Port name="value" direction="in" type="float"/>
    <Port name="floor" direction="in" type="float"/>
  </Leaf>
  <Leaf id="Count">
    <Port name="value" direction="inout" type="float"/>
    <Port name="step" direction="in" type="float"/>
  </Leaf>
  <Tree id="Main">
    <RetryUntilSuccessful num_attempts="3">
      <ReactiveSequence>
        <Above value="{value}" floor="-1.0"/>
        <SubTree id="Inner" value="{value}" step="0.5"/>
      </ReactiveSequence>
    </RetryUntilSuccessful>
  </Tree>
  <Tree id="Inner"><Count value="{value}" step="{step}"/></Tree>
</TreeDocument>
"""


def callback_registry() -> LeafRegistry:
    def count(node):
        node.output("value", node.input("value") + node.input("step"))
        return NodeStatus.SUCCESS if node.input("value") >= 2.0 \
            else NodeStatus.RUNNING

    registry = LeafRegistry()
    registry.register("Above", lambda name, ports: Condition(
        name, ports, predicate=lambda node: node.input("value") > node.input("floor")))
    registry.register("Count", lambda name, ports: StatefulAction(
        name, ports, on_start=count, on_running=count))
    return registry


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] not in ((3, 11), (3, 12)),
                    reason="inline attribute values as in CPython 3.11 and 3.12")
def test_ticked_objects_keep_inline_attributes(monkeypatch):
    control = EpisodeProbe()
    assert not materialized(control)
    control.__dict__  # the read this test looks for
    assert materialized(control)

    built = []

    def keeping(factory):
        def build(*args, **kwargs):
            built.append(factory(*args, **kwargs))
            return built[-1]
        return build

    monkeypatch.setattr(bench, "World", keeping(bench.World))
    monkeypatch.setattr(bench, "instantiate", keeping(bench.instantiate))
    store, probe = DataStore(), EpisodeProbe()
    run_episode(DEFAULT_DEVICES["testB"], DEFAULT_STRATEGIES, store,
                trial_rng(7, 0), trial=1, target_angle=math.inf,
                num_attempts=5, probe=probe)
    world, canonical = built

    result = parse_tree_definition(CALLBACK_DOCUMENT)
    assert result.ok, [str(d) for d in result.diagnostics]
    blackboard = Blackboard()
    blackboard.set("value", 0.0)
    callback = instantiate(result.document, callback_registry(), blackboard)
    for _ in range(4):
        status, _ = tick_root(callback, blackboard)
    assert status is NodeStatus.SUCCESS

    nodes = [*iter_nodes(canonical), *iter_nodes(callback)]
    scopes = {id(node.bb): node.bb for node in nodes}
    offenders = sorted({type(obj).__name__
                        for obj in [*nodes, *scopes.values(), world, store, probe]
                        if materialized(obj)})
    assert offenders == []
