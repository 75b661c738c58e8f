"""Independent reference interpreter for composite tick semantics.

Trees are nested tuples: ("leaf", leaf_id) or (kind, [children]) with kind in
{"seq", "fall", "rseq", "rfall"}. Leaf schedules are strings over "SFR"; the
k-th tick of a leaf returns schedule[k], with the last entry repeating. Leaf
tick counts are global and never rewind: they model an environment evolving
over time, not node-local state.

State is held externally: a dict from node path to the resume cursor of
memory composites, and from leaf path to the leaf's last status. Halting a
subtree drops every cursor under its path, counts one halt (`halts`, by
leaf name) for each leaf under it whose last status is Running, and drops
the last status of every leaf under it: the leaf is idle again.

Each tick also records `trace`: the pre-order list of (name, status) of the
nodes it visited, each with the status its visit returned. Nodes are named
as conftest.build_engine_tree names them: leaf i is "L<i>", and composites
are "<kind><n>", numbered in post-order.
"""

import itertools

SUCCESS = "S"
FAILURE = "F"
RUNNING = "R"


class ReferenceTree:
    def __init__(self, shape, schedules):
        self.shape = shape
        self.schedules = schedules
        self.cursors = {}
        self.leaf_ticks = {}
        self.leaf_status = {}
        self.halts = {}
        self.names = {}
        self._name(shape, (), itertools.count())
        self.trace = []

    def _name(self, node, path, counter):
        if node[0] == "leaf":
            self.names[path] = f"L{node[1]}"
            return
        for i, child in enumerate(node[1]):
            self._name(child, path + (i,), counter)
        self.names[path] = f"{node[0]}{next(counter)}"

    def root_tick(self):
        self.trace = []
        return self._tick(self.shape, ())

    def _drop(self, path):
        depth = len(path)
        self.cursors = {p: c for p, c in self.cursors.items() if p[:depth] != path}
        for leaf in [p for p in self.leaf_status if p[:depth] == path]:
            if self.leaf_status.pop(leaf) == RUNNING:
                name = self.names[leaf]
                self.halts[name] = self.halts.get(name, 0) + 1

    def _tick(self, node, path):
        slot = len(self.trace)
        self.trace.append(None)
        status = self._visit(node, path)
        self.trace[slot] = (self.names[path], status)
        return status

    def _visit(self, node, path):
        kind = node[0]
        if kind == "leaf":
            leaf_id = node[1]
            k = self.leaf_ticks.get(leaf_id, 0)
            self.leaf_ticks[leaf_id] = k + 1
            schedule = self.schedules[leaf_id]
            status = schedule[k] if k < len(schedule) else schedule[-1]
            self.leaf_status[path] = status
            return status

        children = node[1]
        if kind == "seq":
            i = self.cursors.get(path, 0)
            while i < len(children):
                s = self._tick(children[i], path + (i,))
                if s == RUNNING:
                    self.cursors[path] = i
                    return RUNNING
                if s == FAILURE:
                    self.cursors[path] = 0
                    return FAILURE
                i += 1
            self.cursors[path] = 0
            return SUCCESS

        if kind == "fall":
            i = self.cursors.get(path, 0)
            while i < len(children):
                s = self._tick(children[i], path + (i,))
                if s == RUNNING:
                    self.cursors[path] = i
                    return RUNNING
                if s == SUCCESS:
                    self.cursors[path] = 0
                    return SUCCESS
                i += 1
            self.cursors[path] = 0
            return FAILURE

        if kind == "rseq":
            for i, child in enumerate(children):
                s = self._tick(child, path + (i,))
                if s in (RUNNING, FAILURE):
                    for j in range(i + 1, len(children)):
                        self._drop(path + (j,))
                    return s
            return SUCCESS

        if kind == "rfall":
            for i, child in enumerate(children):
                s = self._tick(child, path + (i,))
                if s in (RUNNING, SUCCESS):
                    for j in range(i + 1, len(children)):
                        self._drop(path + (j,))
                    return s
            return FAILURE

        raise ValueError(f"unknown kind {kind!r}")
