"""Port reads and writes through resolved slots.

A node resolves each port once, on first use, to the entries of the scope
that owns its key. These tests hold every read and write through that slot
equal to the blackboard's own remap walk, across nested SubTree scopes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from adaptbt.core import (
    Blackboard,
    ConfigurationError,
    Key,
    Sequence,
    SubTreeScope,
    TreeNode,
    UnboundKeyError,
)

KEYS = ["a", "b", "c", "d"]
PORTS = {f"p_{key}": Key(key) for key in KEYS} | {"const": 7}
VALUES = st.one_of(st.booleans(), st.integers(), st.text(max_size=3),
                   st.floats(allow_nan=False))


def build_chain(levels):
    """A root blackboard and one port-reading node per scope, outermost first.

    `levels` holds a (remaps, seeds) pair per SubTreeScope, outermost first;
    the innermost scope's node is a bare leaf.
    """
    leaves = [TreeNode(f"leaf{depth}", ports=PORTS)
              for depth in range(len(levels) + 1)]
    tree = leaves[-1]
    for depth in reversed(range(len(levels))):
        remaps, seeds = levels[depth]
        scope = SubTreeScope(tree, remaps=remaps, seeds=seeds,
                             name=f"scope{depth}")
        tree = Sequence(f"level{depth}", [leaves[depth], scope])
    root = Blackboard()
    tree.bind(root)
    return root, leaves


def read(read_value):
    try:
        return "value", read_value()
    except UnboundKeyError as exc:
        return "unbound", str(exc)


def assert_reads_agree(leaves):
    for node in leaves:
        for port, binding in node.ports.items():
            if isinstance(binding, Key):
                expected = read(lambda: node.bb.get(binding))
            else:
                expected = ("value", binding)
            assert read(lambda: node.input(port)) == expected


levels_strategy = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(KEYS), st.sampled_from(KEYS)),
              st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=2)),
    min_size=2, max_size=4)


@settings(max_examples=150, deadline=None)
@given(levels_strategy, st.data())
def test_port_reads_match_the_remap_walk(levels, data):
    root, leaves = build_chain(levels)
    scopes = [root] + [leaf.bb for leaf in leaves[1:]]
    # reads first, so later writes go through cached slots
    assert_reads_agree(leaves)
    operations = data.draw(st.lists(st.tuples(
        st.sampled_from(["output", "set"]),
        st.integers(0, len(leaves) - 1), st.sampled_from(KEYS), VALUES),
        max_size=12))
    for op, depth, key, value in operations:
        if op == "output":
            leaves[depth].output(f"p_{key}", value)
        else:
            scopes[depth].set(key, value)
        assert_reads_agree(leaves)


def test_write_through_two_remaps_lands_in_the_outer_scope():
    root, leaves = build_chain([({"b": "a"}, {}), ({"c": "b"}, {})])
    inner = leaves[2]
    inner.output("p_c", 2.5)
    assert root.get("a") == 2.5
    for key in ("b", "c"):
        with pytest.raises(UnboundKeyError) as caught:
            root.get(key)
        assert str(caught.value) == f"unbound blackboard key {key!r}"
    assert inner.input("p_c") == 2.5


def test_constant_port_write_raises_before_and_after_a_read():
    node = TreeNode("writer", ports={"n": 3})
    node.bind(Blackboard())
    with pytest.raises(ConfigurationError, match="writer port 'n' is not bound"):
        node.output("n", 4)
    assert node.input("n") == 3
    with pytest.raises(ConfigurationError, match="writer port 'n' is not bound"):
        node.output("n", 4)
    assert node.input("n") == 3


def test_unknown_port_and_bad_value_keep_their_errors():
    node = TreeNode("node", ports={"out": Key("x")})
    node.bind(Blackboard())
    for access in (lambda: node.input("nope"), lambda: node.output("nope", 1)):
        with pytest.raises(ConfigurationError, match="node has no port 'nope'"):
            access()
    with pytest.raises(TypeError) as caught:
        node.output("out", [1])
    assert str(caught.value) == \
        "blackboard values must be bool, int, float or str, got list"
    with pytest.raises(UnboundKeyError):
        node.input("out")
