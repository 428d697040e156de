from __future__ import annotations

import csv
import io
import re

import pytest

from iadbench.errors import ReportError
from iadbench.report import emit_report, render_csv, render_markdown
from iadbench.runner import METRIC_NAMES


def _document():
    def cell(category, setting, metrics, na=None, info=None):
        return {
            "cell_id": f"{category}/{setting}",
            "category": category,
            "setting": setting,
            "status": "ok",
            "error": None,
            "metrics": metrics,
            "na_reasons": na or {},
            "provenance": [],
            "info": info or {},
            "bank_vectors": 10,
            "bank_bytes": 640,
            "cell_seed": 1,
        }

    metrics_a = {
        "image_auroc": 0.98,
        "image_ap": 0.97,
        "pixel_auroc": 0.96,
        "pixel_ap": 0.5,
        "aupro": 0.9,
        "mean_spro": 0.8,
        "fm": None,
    }
    metrics_b = dict(metrics_a, image_auroc=0.91)
    continual_a = dict(metrics_a, fm=0.01)
    continual_b = dict(metrics_b, fm=None)
    return {
        "schema": 1,
        "config": {"seed": 1},
        "config_hash": "ab" * 32,
        "seed": 1,
        "metrics_requested": list(METRIC_NAMES),
        "cells": [
            cell("catA", "unsupervised", metrics_a, na={"fm": "not-continual"}),
            cell("catB", "unsupervised", metrics_b, na={"fm": "not-continual"}),
            cell("catA", "continual", continual_a),
            cell("catB", "continual", continual_b, na={"fm": "fm-undefined-for-final-task"}),
        ],
        "task_matrices": {
            "continual": {
                "k": 2,
                "order": ["catA", "catB"],
                "entries": {"1,1": 0.99, "2,1": 0.98, "2,2": 0.91},
                "fm_per_task": {"1": 0.01},
                "fm_mean": 0.01,
            }
        },
        "timings": {
            "catA/unsupervised": {
                "latency_ms_mean": 2.0,
                "latency_ms_p50": 1.5,
                "latency_ms_p95": 3.0,
            }
        },
    }


def test_csv_shape_and_formatting():
    csv = render_csv(_document())
    lines = csv.splitlines()
    assert lines[0] == (
        "category,setting,image_auroc,image_ap,pixel_auroc,pixel_ap,aupro,"
        "mean_spro,fm,latency_p50_ms,bank_bytes"
    )
    assert len(lines) == 5
    row = next(l for l in lines if l.startswith("catA,unsupervised")).split(",")
    assert row[2] == "0.9800"
    assert row[8] == ""  # fm not applicable
    assert row[9] == "1.5000"  # latency p50 from timings
    assert row[10] == "640"


def test_csv_round_half_even():
    # exact binary ties at the 5th decimal round to the even neighbor
    document = _document()
    document["cells"][0]["metrics"]["image_auroc"] = 0.15625
    document["cells"][0]["metrics"]["image_ap"] = 0.21875
    csv = render_csv(document)
    row = next(
        l for l in csv.splitlines() if l.startswith("catA,unsupervised")
    ).split(",")
    assert row[2] == "0.1562"  # down to even
    assert row[3] == "0.2188"  # up to even


def test_csv_quotes_fields_that_need_it():
    """A category is a directory name, so it may hold a comma or a quote;
    each row still reads back as 11 fields with the names intact."""
    document = _document()
    names = ["a,b", 'q"x', "line\nbreak"]
    for cell, name in zip(document["cells"], names):
        cell["category"] = name
    rows = list(csv.reader(io.StringIO(render_csv(document))))
    assert [len(row) for row in rows] == [11] * 5
    assert [row[0] for row in rows[1:4]] == names
    assert rows[1][2] == "0.9800" and rows[1][10] == "640"


def test_markdown_marks_best_and_pairs_continual():
    md = render_markdown(_document())
    assert "## Setting: unsupervised" in md
    assert "**0.9800**" in md  # best image_auroc bolded
    assert "Image AUC (higher better) / FM (lower better)" in md
    assert "**0.9800** / **0.0100**" in md
    assert "/ n/a" in md  # final task has no FM
    assert "## Task matrix: continual" in md
    # unweighted category mean row: (0.98 + 0.91) / 2
    assert "| mean | 0.9450 |" in md


def test_markdown_escapes_pipes_in_cells():
    """A category may hold a ``|``; escaped, it splits no cell, so every
    table row has the header's cell count."""
    document = _document()
    for cell in document["cells"]:
        if cell["category"] == "catA":
            cell["category"] = "a|b"
    md = render_markdown(document)
    assert "| a\\|b |" in md
    tables = 0
    for block in md.split("\n\n"):
        rows = [line for line in block.splitlines() if line.startswith("|")]
        if not rows:
            continue
        tables += 1
        widths = {len(re.split(r"(?<!\\)\|", row)) for row in rows}
        assert len(widths) == 1, block
    assert tables == 3  # two settings and the task matrix
    # cells without a pipe keep their bytes
    plain = render_markdown(_document()).replace("catA", "a\\|b")
    assert md == plain


def test_emit_report_errors(tmp_path):
    with pytest.raises(ReportError) as exc:
        emit_report({"cells": []}, "csv", str(tmp_path))
    assert exc.value.code == "empty-results"
    with pytest.raises(ReportError) as exc:
        emit_report(_document(), "pdf", str(tmp_path))
    assert exc.value.code == "unknown-format"


def test_emit_report_io_failure(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    # parent is a regular file, so the write must fail even for root
    with pytest.raises(ReportError) as exc:
        emit_report(_document(), "csv", str(blocker / "sub"))
    assert exc.value.code == "io-failure"
