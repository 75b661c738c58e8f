"""Output checks of the benchmark: a corrupted output is counted as failed."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]

import treegen  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload):
    rec = workloads.Recorder()
    workload.run_pass(rec)
    return rec


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    return workloads.Trees(3, str(tmp_path_factory.mktemp("trees")), smoke=True)


def test_clean_pass_has_no_failures(trees):
    rec = run_pass(trees)
    assert len(rec.ok) == len(trees.docs) and rec.failed == 0
    assert {doc.kind for doc in trees.docs} == {"canonical", "random"}
    assert any(doc.defect for doc in trees.docs)


def test_corrupted_tree_output_is_counted_failed(trees):
    index = next(i for i, d in enumerate(trees.docs) if d.defect is None)
    saved = trees.expected[index]
    trees.expected[index] = saved[:-1] + (("SUCCESS", 99, 0),)
    try:
        rec = run_pass(trees)
    finally:
        trees.expected[index] = saved
    assert len(rec.ok) == len(trees.docs)
    assert [i for i, ok in enumerate(rec.ok) if not ok] == [index]


def test_raising_op_is_counted_failed(trees):
    index = next(i for i, d in enumerate(trees.docs) if d.defect is None)
    saved = trees.docs[index]
    trees.docs[index] = dataclasses.replace(saved, text="<TreeDocument")
    try:
        rec = run_pass(trees)
    finally:
        trees.docs[index] = saved
    assert len(rec.ok) == len(trees.docs) and rec.failed == 1
    assert rec.errors


def test_defect_must_be_reported_at_its_line():
    doc = treegen.random_doc(random.Random(5), "subtree-ref")
    out = ("defect", False, (("subtree-ref", doc.defect_line),))
    assert workloads.tree_check(doc, out, None)
    moved = ("defect", False, (("subtree-ref", doc.defect_line + 1),))
    assert not workloads.tree_check(doc, moved, None)
    assert not workloads.tree_check(doc, ("defect", False, ()), None)


@pytest.mark.parametrize("defect", treegen.DEFECTS)
def test_every_injected_defect_is_reported_alone(defect):
    from adaptbt.treedef import parse_tree_definition
    for seed in range(5):
        doc = treegen.random_doc(random.Random(seed), defect)
        errors = parse_tree_definition(doc.text).errors()
        assert {(d.rule, d.line) for d in errors} == {(defect, doc.defect_line)}


def test_corrupted_sweep_outputs_are_counted_failed(tmp_path):
    sweep = workloads.Sweep(3, str(tmp_path), smoke=True)
    assert run_pass(sweep).failed == 0
    total = sum(len(r[0]) for r in sweep.expected.values())
    key = next(k for k, c in sweep.configs.items() if c.experiment == "C")
    saved = results, csv_text, summary = sweep.expected[key]
    assert len(results) == 2
    shifted = dataclasses.replace(results[1], sim_time=results[1].sim_time + 0.1)
    sweep.expected[key] = (results[:1] + [shifted], csv_text, summary)
    rec = run_pass(sweep)
    assert len(rec.ok) == total and rec.failed == 1
    sweep.expected[key] = (results, csv_text + "corrupted\n", summary)
    rec = run_pass(sweep)
    assert len(rec.ok) == total and rec.failed == len(results)
    sweep.expected[key] = saved


def test_corrupted_tick_line_is_counted_failed(tmp_path):
    ticks = workloads.TickStore(3, str(tmp_path), smoke=True)
    assert run_pass(ticks).failed == 0
    code, count, line, result = ticks.expected[1]
    ticks.expected[1] = (code, count, line.replace("records", "records 1"), result)
    rec = run_pass(ticks)
    assert len(rec.ok) == len(ticks.calls)
    assert [i for i, ok in enumerate(rec.ok) if not ok] == [1]
