"""Seeded generator of tree documents in the adaptbt XML dialect.

Each document is rendered one element per line, so the generator knows the
source line of every element and can say where an injected defect must be
reported. Random documents draw their leaves from a fixed vocabulary of
typed declarations, so one registry of trivial leaves can build all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

# leaf id -> ports as (name, direction, type)
VOCABULARY = {
    "IsReady": (("flag", "in", "bool"),),
    "InRange": (("value", "in", "float"), ("limit", "in", "float")),
    "HasItem": (("item", "in", "str"),),
    "Tally": (("counter", "inout", "int"),),
    "Measure": (("target", "in", "str"), ("reading", "out", "float")),
    "Choose": (("choice", "out", "str"),),
    "MoveTo": (("goal", "in", "str"), ("speed", "in", "float")),
    "Hold": (("cycles", "in", "int"),),
    "Latch": (("flag", "out", "bool"),),
}
CASE_VALUES = ("c0", "c1", "c2", "c3")
MAIN_KEYS = ("k0", "k1", "k2", "k3", "k4", "k5")
SUBTREE_PARAMS = ("p0", "p1", "p2")
COMPOSITES = ("Sequence", "Fallback", "ReactiveSequence", "ReactiveFallback")
EXEMPT_REASONS = "regrasp;strategy_switch"

# Parser rule each injected defect must be reported under.
DEFECTS = ("unknown-node", "binding-syntax", "decorator-arity",
           "composite-arity", "case-duplicate", "subtree-ref")


@dataclass
class Doc:
    """One generated document and what parsing it must report."""

    text: str
    kind: str                      # "canonical" or "random"
    strategy_ids: tuple[str, ...]  # ids for the switch-coverage check
    defect: str | None = None      # parser rule of the injected defect
    defect_line: int = 0


@dataclass
class _El:
    tag: str
    attrs: dict
    children: list


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = 0
        self.budget = 0
        self.leaves: list[tuple[_El, list[_El]]] = []  # (leaf, siblings)
        self.switches: list[_El] = []
        self.used_leaves: set[str] = set()

    def name(self) -> str:
        self.names += 1
        return f"n{self.names}"

    def value(self, direction: str, type_name: str, keys) -> str:
        rng = self.rng
        if direction != "in" or rng.random() < 0.5:
            return "{" + rng.choice(keys) + "}"
        return {"bool": lambda: rng.choice(("true", "false")),
                "int": lambda: str(rng.randint(0, 9)),
                "float": lambda: f"{rng.uniform(0, 5):.2f}",
                "str": lambda: rng.choice(CASE_VALUES)}[type_name]()

    def leaf(self, keys, subtrees) -> _El:
        rng = self.rng
        roll = rng.random()
        if subtrees and roll < 0.12:
            target = rng.choice(subtrees)
            attrs = {"id": target, "name": self.name()}
            for param in SUBTREE_PARAMS:
                if rng.random() < 0.6:
                    attrs[param] = "{" + rng.choice(keys) + "}"
                else:
                    attrs[param] = str(rng.randint(0, 3))
            return _El("SubTree", attrs, [])
        if roll < 0.2:
            return _El(rng.choice(("AlwaysSuccess", "AlwaysFailure")),
                       {"name": self.name()}, [])
        leaf_id = rng.choice(sorted(VOCABULARY))
        self.used_leaves.add(leaf_id)
        attrs = {"name": self.name()}
        for port, direction, type_name in VOCABULARY[leaf_id]:
            attrs[port] = self.value(direction, type_name, keys)
        return _El(leaf_id, attrs, [])

    def node(self, depth: int, max_depth: int, width: int, keys,
             subtrees) -> _El:
        rng = self.rng
        self.budget -= 1
        if depth >= max_depth or self.budget <= 0 or rng.random() < 0.15 * depth:
            return self.leaf(keys, subtrees)
        child = lambda: self.node(depth + 1, max_depth, width, keys, subtrees)
        roll = rng.random()
        if roll < 0.6:
            el = _El(rng.choice(COMPOSITES), {"name": self.name()}, [])
            for _ in range(rng.randint(1, width)):
                self.append(el, child())
        elif roll < 0.72:
            attrs = {"name": self.name(), "num_attempts": str(rng.randint(1, 3))}
            if rng.random() < 0.5:
                attrs["exempt_reasons"] = EXEMPT_REASONS
            el = _El("RetryUntilSuccessful", attrs, [])
            self.append(el, child())
        elif roll < 0.86:
            el = _El("SwitchStatement", {"name": self.name(),
                                         "variable": "{" + rng.choice(keys) + "}"}, [])
            values = rng.sample(CASE_VALUES, rng.randint(1, 3))
            for value in values:
                el.children.append(_El("Case", {"value": value}, [child()]))
            el.children.append(_El("Default", {}, [child()]))
            self.switches.append(el)
        else:
            el = _El("ForceFailure", {"name": self.name()}, [])
            self.append(el, child())
        return el

    def append(self, parent: _El, child: _El) -> None:
        parent.children.append(child)
        if not child.children and child.tag != "SubTree":
            self.leaves.append((child, parent.children))


def _render(el: _El, depth: int, lines: list[str], marks: dict) -> None:
    marks[id(el)] = len(lines) + 1
    pad = "  " * depth
    attrs = "".join(f" {k}={quoteattr(v)}" for k, v in el.attrs.items())
    if el.children:
        lines.append(f"{pad}<{el.tag}{attrs}>")
        for child in el.children:
            _render(child, depth + 1, lines, marks)
        lines.append(f"{pad}</{el.tag}>")
    else:
        lines.append(f"{pad}<{el.tag}{attrs}/>")


def _inject(gen: _Gen, defect: str) -> _El | None:
    """Mutate the generated tree; return the element the defect sits on."""
    rng = gen.rng
    if defect == "case-duplicate":
        candidates = [s for s in gen.switches
                      if sum(c.tag == "Case" for c in s.children) >= 2]
        if not candidates:
            return None
        cases = [c for c in rng.choice(candidates).children if c.tag == "Case"]
        cases[1].attrs["value"] = cases[0].attrs["value"]
        return cases[1]
    if defect == "binding-syntax":
        candidates = [(leaf, siblings) for leaf, siblings in gen.leaves
                      if any(d == "in" for _, d, _ in VOCABULARY.get(leaf.tag, ()))]
        if not candidates:
            return None
        leaf, _ = rng.choice(candidates)
        port = next(p for p, d, _ in VOCABULARY[leaf.tag] if d == "in")
        leaf.attrs[port] = "{" + MAIN_KEYS[0]
        return leaf
    if not gen.leaves:
        return None
    leaf, siblings = rng.choice(gen.leaves)
    replacement = {
        "unknown-node": _El("Gizmo", {"name": gen.name()}, []),
        "decorator-arity": _El("ForceFailure", {"name": gen.name()}, []),
        "composite-arity": _El("Sequence", {"name": gen.name()}, []),
        "subtree-ref": _El("SubTree", {"id": "Missing", "name": gen.name()}, []),
    }[defect]
    siblings[siblings.index(leaf)] = replacement
    return replacement


def random_doc(rng: random.Random, defect: str | None = None,
               shape: int | None = None) -> Doc:
    """A well-formed random document, or one carrying exactly `defect`.

    `shape` in 0..24 fixes the width (1-5) and depth limit (2-6); by default
    both are drawn.
    """
    if shape is None:
        shape = rng.randrange(25)
    width = 1 + shape % 5
    max_depth = 2 + shape // 5
    while True:
        gen = _Gen(rng)
        subtree_ids = [f"Sub{i}" for i in range(rng.randint(0, 2))]
        trees = {}
        # a subtree only references later ones, so references stay acyclic
        for i, tree_id in reversed(list(enumerate(subtree_ids))):
            gen.budget = 25
            trees[tree_id] = gen.node(1, max_depth, width, SUBTREE_PARAMS,
                                      subtree_ids[i + 1:])
        gen.budget = 120
        trees["Main"] = gen.node(0, max_depth, width, MAIN_KEYS, subtree_ids)
        marked = _inject(gen, defect) if defect else None
        if defect and marked is None:
            continue
        break

    root = _El("TreeDocument", {"main_tree": "Main"}, [])
    for leaf_id in sorted(gen.used_leaves):
        ports = [_El("Port", {"name": p, "direction": d, "type": t}, [])
                 for p, d, t in VOCABULARY[leaf_id]]
        root.children.append(_El("Leaf", {"id": leaf_id}, ports))
    for tree_id in ["Main"] + subtree_ids:
        root.children.append(_El("Tree", {"id": tree_id}, [trees[tree_id]]))
    lines: list[str] = []
    marks: dict = {}
    _render(root, 0, lines, marks)
    return Doc("\n".join(lines) + "\n", "random", (), defect,
               marks[id(marked)] if marked is not None else 0)


CANONICAL_SIZES = (1, 2, 3, 4, 8, 16, 32, 64)


def canonical_doc(rng: random.Random, canonical_tree_text, count: int) -> Doc:
    """The episode tree for `count` seeded strategy ids."""
    ids = tuple(f"s{rng.randrange(10**6):06d}_{i}" for i in range(count))
    return Doc(canonical_tree_text(list(ids)), "canonical", ids)


def make_docs(seed: int, count: int, canonical_tree_text) -> list[Doc]:
    """In every ten documents: three canonical, five random well-formed and
    two random with one defect each.

    Canonical sizes, defect kinds and the shapes of the well-formed random
    documents cycle rather than being drawn, so the mix, and with it where
    the latency percentiles fall, is the same for every seed; the seed
    varies the documents themselves.
    """
    rng = random.Random(f"trees/{seed}")
    docs = []
    canonical = defective = valid = 0
    for index in range(count):
        slot = index % 10
        if slot in (0, 3, 6):
            size = CANONICAL_SIZES[canonical % len(CANONICAL_SIZES)]
            docs.append(canonical_doc(rng, canonical_tree_text, size))
            canonical += 1
        elif slot in (4, 9):
            docs.append(random_doc(rng, DEFECTS[defective % len(DEFECTS)]))
            defective += 1
        else:
            docs.append(random_doc(rng, shape=valid % 25))
            valid += 1
    return docs
