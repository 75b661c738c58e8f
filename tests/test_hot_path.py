"""Static guard for the per-tick code path.

Loading an enum member (`NodeStatus.RUNNING`) is a class attribute lookup
that costs several times a module-global load, and the functions below run
on every node visit or every tick. One such load in the composite loop once
cost 9-13% per tick. `core` binds aliases (`_RUNNING`, `_SUCCESS`, ...) that
the other modules import instead; this test keeps the member loads out
without timing anything, and keeps the aliases in `core` alone.
"""

import ast
from pathlib import Path

import pytest

import adaptbt
from adaptbt.core import Blackboard

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


def test_composite_loop_reads_its_prebuilt_tuple():
    # The loop serves every composite and child class, and CPython caches
    # one class per attribute load, so an attribute read here stays
    # unspecialized: the kind's fields and each child's name, entry and
    # _tick come from the tuple built at the first tick.
    tree = ast.parse((PACKAGE / "core.py").read_text(), filename="core.py")
    composite = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "_Composite")
    function = next(node for node in composite.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_tick")
    reactive_branch = next(
        node for node in ast.walk(function)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
        and node.test.id == "reactive")
    halting = {id(node) for statement in reactive_branch.body
               for node in ast.walk(statement)}
    own = [f"self.{node.attr} (line {node.lineno})"
           for node in attribute_loads(function, "self")
           if node.attr not in {"_plan", "_build_plan", "_cursor"}
           and not (node.attr == "children" and id(node) in halting)]
    of_child = [f"child.{node.attr} (line {node.lineno})"
                for node in attribute_loads(function, "child")
                if node.attr not in {"_unbound", "_invalid"}]
    assert own == []
    assert of_child == []
