"""Static guard: every public name in the package has a caller.

A definition is every name `adaptbt/__init__.py` imports and, in each other
module, every public top-level function, class and constant, and every
public method, property and classmethod of those classes. A use is looked
for in the package's modules (not `__init__.py`) and in the benchmark
harness (`perfbench/*.py`); tests do not count.

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
from pathlib import Path

import adaptbt

PACKAGE = Path(adaptbt.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names kept without a caller, each with the reason it stays.
ALLOWED: dict[str, str] = {}


def public(name: str) -> bool:
    return not name.startswith("_")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions() -> tuple[dict[str, str], dict[str, str]]:
    """Top-level names and class members: qualified name -> bare name."""
    top, members = {}, {}
    for node in ast.walk(parse(PACKAGE / "__init__.py")):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                top[f"adaptbt.{alias.asname or alias.name}"] = alias.name
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path in paths + sorted(PERFBENCH.glob("*.py")):
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
