"""In-memory span tracing around the public calls of iadbench's modules.

A span is (name, start, end, parent, thread). Spans are kept in memory
while the run executes and written out once it ends; the benchmark
process turns them into per-layer metrics. A layer's self time is its
span's duration minus the part of that interval its child spans cover.
A span opened on a thread with no open span of its own is a child of
the first span the tracer opened (the run), so work done by pool
threads is charged to the run, and overlapping children on two threads
are covered once.

Counts marked "computed" are derived from call arguments (array shapes,
bank sizes, coreset targets) and never from inside the program. The
arithmetic that derives them runs inside a ``trace.count`` span, so it
is excluded from the caller's self time and shows as tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    thread: int


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            parent = stack[-1] if stack else self._root
            if self._root is None:
                self._root = span_id
            self.spans.append(
                Span(span_id, name, self._clock(), None, parent, threading.get_ident())
            )
        stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        stack.pop()
        self.spans[span_id].end = end

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, fn, name: str | None, count=None):
        """Record a span named ``name`` around each call of ``fn``.

        ``count(tracer, bound_arguments)`` runs before the call, in a
        ``trace.count`` span. With ``name`` None only the count runs.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                span_id = self.open(COUNT_SPAN)
                try:
                    count(self, signature.bind(*args, **kwargs).arguments)
                finally:
                    self.close(span_id)
            if name is None:
                return fn(*args, **kwargs)
            span_id = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counters": self.counters}, fh
            )


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, [])
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = (s.end - s.start) - covered_length(clipped)
    return out


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_table(spans: list[Span]) -> dict[str, Layer]:
    """Calls, inclusive seconds and self seconds per span name."""
    own = self_times(spans)
    table: dict[str, Layer] = {}
    for s in spans:
        layer = table.setdefault(s.name, Layer())
        layer.calls += 1
        layer.total_s += s.end - s.start
        layer.self_s += own[s.id]
    return table


def load_spans(path: str) -> tuple[list[Span], dict[str, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return [Span(**s) for s in raw["spans"]], raw["counters"]


# ---------------------------------------------------------------------------
# what is wrapped, and the computed counts


def _count_score_patches(tracer: Tracer, a: dict) -> None:
    bank, patches = a["bank"], a["grid"].vectors.shape[0]
    tracer.add("detector.score_patches.dist_evals", patches * bank.count)
    # the (chunk, bank, dim) float64 broadcast of the reference search
    temp = min(patches, 256) * bank.count * bank.dim * 8
    tracer.maximum("detector.score_patches.temp_mb_max", temp / 2**20)


def _count_coreset(tracer: Tracer, a: dict) -> None:
    bank = a["bank"]
    tracer.add("detector.coreset_select.dist_evals", bank.count * a["params"].resolve_l(bank.count))


def _count_region_sweep(tracer: Tracer, a: dict) -> None:
    maps = a["score_maps"]
    if not maps:
        return
    thresholds = np.unique(
        np.concatenate([np.asarray(m, dtype=np.float64).ravel() for m in maps])
    ).size
    regions = sum(len(rs.regions) for rs in a["region_sets"])
    tracer.add("metrics.region_sweep.work", thresholds * regions)


def _count_useful(tracer: Tracer, a: dict) -> None:
    tracer.add("runner.images_in_results", len(a["image_scores"]))


# (module, attribute, span name or None, count). Each name is wrapped
# where it is looked up: the runner imports most functions by name, the
# detector and metrics modules call their own helpers through their
# globals, and run_experiment imports write_reports from report lazily.
WRAPS = (
    ("runner", "synth_dataset", "synth.synth_dataset", None),
    ("runner", "make_unsupervised", "protocols.make_unsupervised", None),
    ("runner", "make_supervised", "protocols.make_supervised", None),
    ("runner", "make_fewshot", "protocols.make_fewshot", None),
    ("runner", "augment_rotations", "protocols.augment_rotations", None),
    ("runner", "inject_noise", "protocols.inject_noise", None),
    ("runner", "make_continual", "protocols.make_continual", None),
    ("runner", "extract_features", "features.extract_features", None),
    ("runner", "build_bank", "detector.build_bank", None),
    ("runner", "coreset_select", "detector.coreset_select", _count_coreset),
    ("runner", "extend_bank_for_task", "detector.extend_bank_for_task", None),
    ("runner", "score_image", "detector.score_image", None),
    ("runner", "render_anomaly_map", "detector.render_anomaly_map", None),
    ("runner", "measure_efficiency", "runner.measure_efficiency", None),
    ("runner", "_cell_metrics", None, _count_useful),
    ("runner", "auroc", "metrics.auroc", None),
    ("runner", "average_precision", "metrics.average_precision", None),
    ("runner", "pooled_pixel_scores", "metrics.pooled_pixel_scores", None),
    ("runner", "aupro", "metrics.aupro", None),
    ("runner", "mean_spro", "metrics.mean_spro", _count_region_sweep),
    ("runner", "connected_regions", "metrics.connected_regions", None),
    ("runner", "forgetting_measure", "metrics.forgetting_measure", None),
    ("detector", "build_bank", "detector.build_bank", None),
    ("detector", "coreset_select", "detector.coreset_select", _count_coreset),
    ("detector", "score_patches", "detector.score_patches", _count_score_patches),
    ("detector", "reweight", "detector.reweight", None),
    ("metrics", "mean_spro", "metrics.mean_spro", _count_region_sweep),
    ("metrics", "connected_regions", "metrics.connected_regions", None),
    ("report", "write_reports", "report.write_reports", None),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPS that exists; returns the names missing."""
    import importlib

    missing = []
    for module_name, attr, span_name, count in WRAPS:
        module = importlib.import_module(f"iadbench.{module_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, span_name, count))
    state = importlib.import_module("iadbench.runner").DetectorState
    state.score_sample = tracer.wrap(state.score_sample, "runner.score_sample")
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit). Absent layers read 0."""
    table = layer_table(spans)

    def layer(name: str) -> Layer:
        return table.get(name, Layer())

    sample_ms = sorted(
        (s.end - s.start) * 1000.0 for s in spans if s.name == "runner.score_sample"
    )
    score_calls = layer("detector.score_image").calls
    out = {
        "detector.score_patches.s": (layer("detector.score_patches").total_s, "s"),
        "detector.score_patches.calls": (layer("detector.score_patches").calls, "count"),
        "detector.score_patches.dist_evals": (
            counters.get("detector.score_patches.dist_evals", 0), "count"),
        "detector.score_patches.temp_mb_max": (
            counters.get("detector.score_patches.temp_mb_max", 0), "MiB"),
        "detector.reweight.s": (layer("detector.reweight").total_s, "s"),
        "detector.build_bank.s": (layer("detector.build_bank").total_s, "s"),
        "detector.coreset_select.s": (layer("detector.coreset_select").total_s, "s"),
        "detector.coreset_select.dist_evals": (
            counters.get("detector.coreset_select.dist_evals", 0), "count"),
        "detector.extend_bank_for_task.s": (layer("detector.extend_bank_for_task").total_s, "s"),
        "detector.render_anomaly_map.s": (layer("detector.render_anomaly_map").total_s, "s"),
        "features.extract_features.s": (layer("features.extract_features").total_s, "s"),
        "features.extract_features.calls": (layer("features.extract_features").calls, "count"),
        "runner.score_sample.ms_p50": (_nearest_rank(sample_ms, 0.50), "ms"),
        "runner.score_sample.ms_p95": (_nearest_rank(sample_ms, 0.95), "ms"),
        "runner.measure_efficiency.s": (layer("runner.measure_efficiency").total_s, "s"),
        "runner.score_useful_ratio": (
            counters.get("runner.images_in_results", 0) / score_calls if score_calls else 0.0,
            "ratio"),
        "runner.run_experiment.self_s": (layer("runner.run_experiment").self_s, "s"),
        "metrics.aupro.self_s": (layer("metrics.aupro").self_s, "s"),
        "metrics.mean_spro.s": (layer("metrics.mean_spro").total_s, "s"),
        "metrics.region_sweep.work": (counters.get("metrics.region_sweep.work", 0), "count"),
        "metrics.average_precision.s": (layer("metrics.average_precision").total_s, "s"),
        "metrics.auroc.s": (layer("metrics.auroc").total_s, "s"),
        "metrics.pooled_pixel_scores.s": (layer("metrics.pooled_pixel_scores").total_s, "s"),
        "metrics.connected_regions.s": (layer("metrics.connected_regions").total_s, "s"),
        "synth.synth_dataset.s": (layer("synth.synth_dataset").total_s, "s"),
        "protocols.s": (
            sum(v.total_s for k, v in table.items() if k.startswith("protocols.")), "s"),
        "report.write_reports.s": (layer("report.write_reports").total_s, "s"),
    }
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
