"""Static guards on the package's names and layers.

The package root defines nothing, so every name has one import path: its
module. The modules form layers, `LAYERS` from the bottom up, and each
imports only the layers below it, so importing `adaptbt.core` loads the
engine alone. A leaf talks to the engine through `input`, `output` and
`fail`, so only `core` loads a node's `.bb`, and the failure reason is
engine state that no module names as a blackboard key.

Every public name in the package has a caller. A definition is, in each
module, every public top-level function, class and constant, and every
public method, property and classmethod of those classes. A use is looked
for in the package's modules and in the benchmark harness
(`perfbench/*.py`); tests do not count.

- A top-level name is used by a name load, an import alias or an attribute
  load of that name.
- A method or property is used only by an attribute load of its name, since
  local variables share names like `key`. A `self.X` load does not count in
  a class that assigns `self.X` itself: that reads its own attribute.

Names are matched by text, not by type. So an attribute load of the same
name on any object counts as a use: `config.devices`, a field of
`ExperimentConfig`, once hid an unused `DataStore.devices()` method.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import adaptbt

PACKAGE = Path(adaptbt.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The modules from the bottom layer up.
LAYERS = ("core", "treedef", "strategies", "sim", "bench", "cli")

# Names kept without a caller, each with the reason it stays.
ALLOWED: dict[str, str] = {}


def public(name: str) -> bool:
    return not name.startswith("_")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions() -> tuple[dict[str, str], dict[str, str]]:
    """Top-level names and class members: qualified name -> bare name."""
    top, members = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in filter(public, names):
                top[f"{module}.{name}"] = name
            if isinstance(node, ast.ClassDef) and public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and public(item.name):
                        members[f"{module}.{node.name}.{item.name}"] = item.name
    return top, members


def own_attributes(cls: ast.ClassDef) -> set[str]:
    return {node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def uses() -> tuple[set[str], set[str]]:
    """Names loaded or imported, and attribute names loaded, by callers."""
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = parse(path)
        ignored = set()  # self.X loads of classes that assign self.X
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                assigned = own_attributes(cls)
                ignored |= {id(node) for node in ast.walk(cls)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self" and node.attr in assigned}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in ignored:
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_has_a_caller():
    top, members = definitions()
    names, attributes = uses()
    unused = {q for q, name in top.items() if name not in names | attributes}
    unused |= {q for q, name in members.items() if name not in attributes}
    missing = sorted(unused - ALLOWED.keys())
    assert not missing, "no caller: " + ", ".join(missing)
    stale = sorted(ALLOWED.keys() - unused)
    assert not stale, "allowed but defined and used, or not defined: " + ", ".join(stale)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_package_root_is_only_its_docstring():
    tree = parse(PACKAGE / "__init__.py")
    assert ast.get_docstring(tree) and len(tree.body) == 1, \
        "adaptbt/__init__.py holds more than its docstring"


def test_each_layer_imports_only_the_layers_below_it():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(("__init__",) + LAYERS)
    upward = []
    for index, layer in enumerate(LAYERS):
        for node in ast.walk(parse(PACKAGE / f"{layer}.py")):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{layer}:{node.lineno} imports {target}"
                           for target in targets if target not in LAYERS[:index]]
    assert not upward, "; ".join(upward)


def test_only_the_engine_touches_a_node_blackboard_or_the_reason_key():
    # the failure reason lives in the engine's reason cell: no module names
    # the blackboard key that once carried it, in any spelling
    offenders = [f"{path.stem}: last_failure_reason"
                 for path in sorted(PACKAGE.glob("*.py"))
                 if "last_failure_reason" in path.read_text().lower()]
    for layer in LAYERS[1:]:
        offenders += [f"{layer}:{node.lineno} .bb"
                      for node in ast.walk(parse(PACKAGE / f"{layer}.py"))
                      if isinstance(node, ast.Attribute) and node.attr == "bb"]
    assert not offenders, ", ".join(offenders)


def test_importing_a_layer_loads_no_layer_above_it():
    # one interpreter imports the layers bottom up and lists the package's
    # modules after each import
    script = (
        "import importlib, sys\n"
        f"for layer in {LAYERS!r}:\n"
        "    importlib.import_module('adaptbt.' + layer)\n"
        "    print(' '.join(sorted(m for m in sys.modules\n"
        "                          if m.split('.')[0] == 'adaptbt')))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    lines = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True, text=True).stdout.splitlines()
    assert lines == [" ".join(["adaptbt"] + [f"adaptbt.{below}"
                                              for below in sorted(LAYERS[:i + 1])])
                     for i in range(len(LAYERS))]
