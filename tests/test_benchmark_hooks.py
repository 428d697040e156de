"""The names the benchmark's tracer wraps must still exist.

``perfbench/spans.py`` wraps functions by module attribute. A name that
no longer resolves is skipped with a "not traced" note, and its spans
(and any count derived from them) silently vanish from a traced run.
These checks resolve every wrapped name without installing the tracer,
so no module global is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from iadbench import detector, metrics, runner

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# named by the benchmark, removed from the runner: when scoring became one
# pass, and when each map was pooled as it was rendered (labelling now runs
# inside metrics, whose connected_regions the benchmark also wraps)
KNOWN_STALE = {
    "runner.measure_efficiency",
    "runner.pooled_pixel_scores",
    "runner.connected_regions",
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
    assert missing <= KNOWN_STALE


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
