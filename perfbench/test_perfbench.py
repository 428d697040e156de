"""Tests of the benchmark's own code (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench
"""

import copy
import json
import threading
from pathlib import Path

import pytest

import checks
import hostspeed
import spans
from spans import Span, Tracer

HERE = Path(__file__).resolve().parent


def _span(id, start, end, parent, thread=1, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, thread=thread)


def test_self_time_of_nested_spans():
    tree = [
        _span(0, 0.0, 10.0, None),
        _span(1, 2.0, 5.0, 0),
        _span(2, 3.0, 4.0, 1),
        _span(3, 6.0, 7.0, 0),
    ]
    assert spans.self_times(tree) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_with_children_on_two_threads_counts_overlap_once():
    tree = [
        _span(0, 0.0, 10.0, None, thread=1),
        _span(1, 1.0, 5.0, 0, thread=2),
        _span(2, 3.0, 8.0, 0, thread=3),
    ]
    own = spans.self_times(tree)
    assert own[0] == 3.0  # 10 minus the union [1, 8]
    assert own[1] == 4.0 and own[2] == 5.0


def test_layer_table_sums_per_name():
    tree = [
        _span(0, 0.0, 10.0, None, name="run"),
        _span(1, 1.0, 3.0, 0, name="leaf"),
        _span(2, 4.0, 5.0, 0, name="leaf"),
    ]
    table = spans.layer_table(tree)
    assert table["leaf"].calls == 2 and table["leaf"].total_s == 3.0
    assert table["run"].total_s == 10.0 and table["run"].self_s == 7.0


class _Clock:
    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.now += 1.0
            return self.now


def test_tracer_parents_pool_thread_spans_to_the_run():
    tracer = Tracer(clock=_Clock())
    root = tracer.open("run")
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outer()
    tracer.close(root)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.parent for s in by_name["outer"]] == [root, root]
    assert [s.parent for s in by_name["inner"]] == [s.id for s in by_name["outer"]]
    assert by_name["outer"][0].thread != by_name["outer"][1].thread
    assert all(s.end is not None for s in tracer.spans)


def test_count_runs_in_its_own_span_before_the_call():
    tracer = Tracer(clock=_Clock())

    def scale(x, factor=2):
        return x * factor

    traced = tracer.wrap(scale, "scale", lambda t, a: t.add("work", a["x"] * a["factor"]))
    root = tracer.open("run")
    assert traced(3, factor=5) == 15
    tracer.close(root)
    assert tracer.counters == {"work": 15}
    assert [s.name for s in tracer.spans] == ["run", spans.COUNT_SPAN, "scale"]
    assert tracer.spans[1].parent == root and tracer.spans[2].parent == root


def _document():
    cell = {
        "cell_id": "cat00/unsupervised",
        "status": "ok",
        "metrics": {"image_auroc": 0.75, "aupro": 0.5},
    }
    return {
        "cells": [cell, dict(copy.deepcopy(cell), cell_id="cat01/unsupervised")],
        "task_matrices": {},
        "timings": {"cat00/unsupervised": {"latency_ms_p50": 1.0}},
    }


def test_digest_ignores_timings():
    doc = _document()
    other = copy.deepcopy(doc)
    other["timings"]["cat00/unsupervised"]["latency_ms_p50"] = 99.0
    other["cells"][0]["timings"] = {"stages": {"score": 1.0}}
    assert checks.result_digests(doc) == checks.result_digests(other)


def test_digest_catches_a_changed_metric_value():
    doc = _document()
    expected = checks.result_digests(doc)
    doc["cells"][1]["metrics"]["aupro"] = 0.5000000000000001
    got = checks.result_digests(doc)
    assert checks.failed_cells({}, got, expected) == {"cat01/unsupervised"}


def test_failed_cells_counts_status_missing_and_task_matrices():
    doc = _document()
    expected = checks.result_digests(doc)
    doc["cells"] = doc["cells"][:1]
    doc["task_matrices"] = {"continual": {"k": 2}}
    got = checks.result_digests(doc)
    statuses = {"cat00/unsupervised": "failed"}
    assert checks.failed_cells(statuses, got, expected) == {
        "cat00/unsupervised",
        "cat01/unsupervised",
    }


def test_factor_divides_out_the_host_speed_the_probes_saw():
    readings = [hostspeed.Reading(0.5, 1.0), hostspeed.Reading(0.4, 9.0),
                hostspeed.Reading(0.6, 1.6)]
    assert hostspeed.factor(readings, reference_cpu_s=0.8) == pytest.approx(0.5)
    assert hostspeed.factor(readings[:1], reference_cpu_s=1.0) == 1.0


def test_probe_reading_comes_from_a_child_process():
    reading = hostspeed.read(threads=1, timeout=60)
    assert reading.wall_s > 0 and reading.cpu_s > 0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_units = {k: u for k, (_, u) in spans.layer_metrics([], {}).items()}
    layer_units["runner.thread_utilisation"] = "ratio"
    layer_units["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    reference = json.loads((HERE / "reference.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(reference)
