"""Static guard for the per-tick code path.

Loading an enum member (`NodeStatus.RUNNING`) is a class attribute lookup
that costs several times a module-global load, and the functions below run
on every node visit or every tick. One such load in the composite loop once
cost 9-13% per tick. The modules keep aliases (`_RUNNING`, `RUNNING`, ...)
instead; this test keeps the member loads out without timing anything.
"""

import ast
from pathlib import Path

import pytest

import adaptbt

PACKAGE = Path(adaptbt.__file__).parent

HOT_FUNCTIONS = {
    "core.py": {"execute_tick", "_tick", "on_start", "on_running"},
    "sim.py": {"on_start", "on_running", "_advance_segment", "_twist_step"},
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
