"""The names the benchmark's tracer wraps must still exist.

``perfbench/spans.py`` wraps functions by module attribute. A name that
no longer resolves is skipped with a "not traced" note, and its spans
(and any count derived from them) silently vanish from a traced run.
These checks resolve every wrapped name without installing the tracer.
The count functions read the wrapped calls' arguments (a bank's
``count`` and ``dim``, a grid's ``vectors``); one check feeds them the
arguments of a real run's calls, so a field they read cannot vanish
while the tier-1 tests still pass. The last runs with the benchmark's
tracer installed and checks that bank building shows in its spans.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from iadbench import detector, metrics, runner
from iadbench.runner import parse_config, run_experiment

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# named by the benchmark, removed from the runner: when scoring became one
# pass, and when each map was pooled as it was rendered (labelling now runs
# inside metrics, whose connected_regions the benchmark also wraps)
KNOWN_STALE = {
    "runner.measure_efficiency",
    "runner.pooled_pixel_scores",
    "runner.connected_regions",
}


_FEATURE = {"patch_size": 4, "stride": 4}


def _tiny_config(settings: list[dict], detector_config: dict) -> dict:
    """A run config over two synthetic categories of a few 16 px images."""
    dataset = {
        "categories": 2,
        "normals_train": 3,
        "normals_test": 2,
        "abnormals_test": 2,
        "image_size": 16,
    }
    return {
        "dataset": {"synthetic": dataset},
        "setting": settings,
        "detector": detector_config,
        "seed": 3,
    }


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve(monkeypatch):
    missing = set()
    for module_name, attr, _span, _count in _spans_module(monkeypatch).WRAPS:
        module = importlib.import_module(f"iadbench.{module_name}")
        if getattr(module, attr, None) is None:
            missing.add(f"{module_name}.{attr}")
    assert missing == KNOWN_STALE


def test_runner_hook_points():
    assert callable(runner.DetectorState.score_sample)
    # perfbench's count functions read these arguments by name; a rename
    # raises KeyError inside every traced run
    for fn, names in (
        (runner._cell_metrics, {"image_scores"}),
        (metrics.mean_spro, {"score_maps", "region_sets"}),
        (detector.score_patches, {"bank", "grid"}),
        (detector.coreset_select, {"bank", "params"}),
    ):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__


def test_count_functions_read_real_arguments(monkeypatch):
    spans = _spans_module(monkeypatch)
    counted = {}  # wrapped function -> its count functions
    for module_name, attr, _span, count in spans.WRAPS:
        fn = getattr(importlib.import_module(f"iadbench.{module_name}"), attr, None)
        if count is not None and fn is not None:
            counted.setdefault(fn, set()).add(count)
    calls = {}  # wrapped function -> the bound arguments of its first call

    def recording(fn):
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            calls.setdefault(fn, signature.bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)

        return call

    # each name wrapped where it is looked up, as the tracer wraps it
    for module_name, attr, _span, _count in spans.WRAPS:
        module = importlib.import_module(f"iadbench.{module_name}")
        fn = getattr(module, attr, None)
        if fn in counted:
            monkeypatch.setattr(module, attr, recording(fn))
    coreset = {"feature": _FEATURE, "coreset": {"l": 4}, "b": 2}
    run_experiment(parse_config(_tiny_config([{"type": "unsupervised"}], coreset)))
    assert set(calls) == set(counted)
    tracer = spans.Tracer()
    for fn, counts in counted.items():
        for count in counts:
            count(tracer, calls[fn])
    assert tracer.counters["detector.score_patches.dist_evals"] > 0


def _traced_run(monkeypatch, detector_config: dict, output_dir: str | None = None):
    """Run a tiny config with every name in WRAPS traced, as a traced
    benchmark run installs them; returns the run's cells and its spans'
    layer table."""
    spans = _spans_module(monkeypatch)
    tracer = spans.Tracer()
    for module_name, attr, span_name, count in spans.WRAPS:
        module = importlib.import_module(f"iadbench.{module_name}")
        fn = getattr(module, attr, None)
        if fn is not None:
            monkeypatch.setattr(module, attr, tracer.wrap(fn, span_name, count))
    settings = [
        {"type": "unsupervised"},
        {"type": "supervised", "n": 1},
        {"type": "fewshot", "m": 2},
        {"type": "continual"},
    ]
    config = parse_config(_tiny_config(settings, detector_config))
    result = run_experiment(config, threads=2, output_dir=output_dir)
    assert result.failures == []
    return result.document["cells"], spans.layer_table(tracer.spans)


def test_selected_bank_building_is_traced(monkeypatch):
    _, table = _traced_run(monkeypatch, {"feature": _FEATURE, "coreset": {"l": 4}, "b": 2})
    # per category, one selection for the unsupervised and supervised
    # cells and the continual task (the same normal images), one for fewshot
    assert table["detector.coreset_select"].calls == 4
    assert table["detector.build_bank"].calls == 4  # one bank per selection
    assert table["detector.build_bank"].total_s > 0


def test_whole_bank_building_is_traced(monkeypatch):
    cells, table = _traced_run(monkeypatch, {"feature": _FEATURE, "b": 2})
    # no selection: one bank per plain cell and one per continual task
    assert "detector.coreset_select" not in table
    assert table["detector.build_bank"].calls == len(cells) == 8


def test_report_writing_is_traced(monkeypatch, tmp_path):
    """The runner looks ``write_reports`` up on the report module at each
    call, so the wrapper installed there times it."""
    _, table = _traced_run(monkeypatch, {"feature": _FEATURE, "b": 2}, str(tmp_path))
    assert table["report.write_reports"].calls == 1
    assert (tmp_path / "results.json").is_file()
