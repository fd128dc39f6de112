"""Tests of the benchmark's own arithmetic and of its tracing wrappers."""

import dataclasses
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from perfbench.run import END_TO_END, PER_LAYER
from perfbench.stats import quartiles, tail_percentile
from perfbench.tracing import Span, Tracer, analyse, self_times
from perfbench.workloads import WORKLOADS, compress, make_inputs

ROOT = Path(__file__).resolve().parent.parent


def _span(span_id, name, start, end, parent=0, thread=1, **attrs):
    return Span(span_id, name, start, parent, thread, end=end, attrs=attrs)


def _tree():
    """A root on thread 1 whose scheduler call runs two tasks on threads 2 and 3."""
    return [
        _span(1, "root", 0.0, 10.0),
        _span(2, "sched", 1.0, 9.0, parent=1),
        _span(3, "task1", 1.0, 5.0, parent=2, thread=2),
        _span(4, "task2", 2.0, 8.0, parent=2, thread=3),
        _span(5, "leaf", 3.0, 4.0, parent=3, thread=2),
    ]


def test_self_time_splits_instants_between_concurrent_innermost_spans():
    rows, other = self_times(_tree(), [(0.0, 10.0)])
    # [0,1) root alone, [1,2) task1, [2,3) task1|task2, [3,4) leaf|task2,
    # [4,5) task1|task2, [5,8) task2, [8,9) sched (no task left), [9,10) root
    assert rows == pytest.approx({"root": 2.0, "sched": 1.0, "task1": 2.0, "task2": 4.5, "leaf": 0.5})
    assert other == 0.0


def test_self_time_clips_to_windows_and_reports_uncovered_time_as_other():
    spans = [_span(1, "a", 2.0, 6.0), _span(2, "b", 3.0, 4.0, parent=1)]
    rows, other = self_times(spans, [(0.0, 10.0)])
    assert rows == pytest.approx({"a": 3.0, "b": 1.0})
    assert other == pytest.approx(6.0)
    rows, other = self_times(spans, [(3.5, 12.0), (20.0, 21.0)])
    assert rows == pytest.approx({"a": 2.0, "b": 0.5})
    assert other == pytest.approx(7.0)


def test_rows_and_other_add_up_to_the_window():
    spans = _tree() + [_span(6, "late", 9.5, 14.0, parent=0, thread=4)]
    report = analyse(spans, [(0.5, 12.0)])
    total = sum(report["self_s"].values()) + report["other_s"]
    assert total == pytest.approx(report["wall_s"]) and report["wall_s"] == pytest.approx(11.5)


def test_parallel_counts_use_the_scheduler_call_and_its_tasks():
    spans = _tree()
    spans[1].name, spans[1].attrs = "parallel.scheduler", {"jobs": 2, "tasks": 2}
    spans[2].name = spans[3].name = "parallel.task"
    counts = analyse(spans, [(0.0, 10.0)])["counts"]
    assert counts["parallel.tasks"] == 2
    assert counts["parallel.task_s"] == pytest.approx(4.0 + 6.0)
    assert counts["parallel.capacity_s"] == pytest.approx(8.0 * 2)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(1, 1001))) == (99, 990.0)
    assert tail_percentile(list(range(1, 501))) == (98, 490.0)
    for n in range(11, 3000, 37):
        samples = list(range(n))
        percentile, value = tail_percentile(samples)
        assert sum(s > value for s in samples) >= 10
        # the next whole percentile would leave fewer than ten beyond
        assert percentile == 99 or math.ceil((percentile + 1) / 100 * n) > n - 10
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_quartiles_are_those_of_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_scheduler_tasks_on_pool_threads_are_parented_to_their_call():
    from repro.parallel.engine import ChunkScheduler

    original = ChunkScheduler.__dict__["imap"]
    tracer = Tracer().install()
    try:
        doubled = list(ChunkScheduler(jobs=2).imap(lambda x: 2 * x, range(8)))
    finally:
        tracer.uninstall()
    assert doubled == [2 * x for x in range(8)]
    assert ChunkScheduler.__dict__["imap"] is original
    (call,) = [s for s in tracer.spans if s.name == "parallel.scheduler"]
    tasks = [s for s in tracer.spans if s.name == "parallel.task"]
    assert len(tasks) == 8 and all(t.parent == call.id for t in tasks)
    assert all(t.thread != call.thread for t in tasks)
    assert all(call.start <= t.start and t.end <= call.end for t in tasks)


@pytest.mark.parametrize(
    "name, shape, chunk",
    [("snapshot-roundtrip", (64, 128), (32, 32)), ("cross-field-cfnn", (8, 32, 32), (8, 16, 16))],
)
def test_tracing_leaves_archive_bytes_unchanged(tmp_path, name, shape, chunk):
    from repro.data import make_dataset

    workload = dataclasses.replace(WORKLOADS[name], shape=shape, chunk=chunk)
    fieldset = make_dataset(workload.dataset, shape=shape, seed=3)
    compress(workload, fieldset, tmp_path / "plain.xfa")
    with Tracer() as tracer:
        compress(workload, fieldset, tmp_path / "traced.xfa")
    assert (tmp_path / "plain.xfa").read_bytes() == (tmp_path / "traced.xfa").read_bytes()
    names = {span.name for span in tracer.spans}
    assert {"store.writer", "parallel.task", "sz.compress", "encoding.entropy.encode"} <= names
    if workload.cross_field is not None:
        assert {"core.compress", "core.train"} <= names


@pytest.mark.parametrize(
    "name, shape", [("snapshot-roundtrip", (64, 128)), ("cross-field-cfnn", (4, 16, 16))]
)
def test_inputs_are_one_snapshot_moved_by_a_seeded_symmetry(name, shape):
    workload = dataclasses.replace(WORKLOADS[name], shape=shape)
    first, again, other = make_inputs(workload, 1), make_inputs(workload, 1), make_inputs(workload, 4)
    assert first.names == list(workload.fields)
    for field in workload.fields:
        a, b, c = first[field].data, again[field].data, other[field].data
        assert np.array_equal(a, b)
        assert a.shape == c.shape == shape and a.dtype == c.dtype
        assert np.array_equal(np.sort(a, axis=None), np.sort(c, axis=None))
    assert any(not np.array_equal(first[f].data, other[f].data) for f in workload.fields)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
