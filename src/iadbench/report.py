"""Result persistence: canonical JSON, delimited CSV, and markdown tables.

All numeric report output is fixed to 4 decimal places (round half to
even). The JSON document is the canonical record; CSV and markdown are
pure functions of it, so regenerating them from results.json reproduces
the run's own report files byte for byte. ``config_digest`` is the
config hash: sha256 of the config's compact, key-sorted JSON.

The module imports no runner code; the runner calls ``write_reports``.
"""

from __future__ import annotations

import hashlib
import json
import os

from .errors import ReportError, read_json
from .metrics import METRIC_NAMES

# lower is better only for forgetting
_LOWER_IS_BETTER = {"fm"}


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".4f")


def config_digest(config: dict) -> str:
    """sha256 of a config's compact, key-sorted UTF-8 JSON."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def render_csv(document: dict) -> str:
    header = ["category", "setting", *METRIC_NAMES, "latency_p50_ms", "bank_bytes"]
    lines = [",".join(header)]
    timings = document.get("timings", {})
    for cell in document["cells"]:
        metrics = cell.get("metrics", {})
        row = [cell["category"], cell["setting"]]
        row.extend(_fmt(metrics.get(name)) for name in METRIC_NAMES)
        timing = timings.get(cell["cell_id"], {})
        row.append(_fmt(timing.get("latency_ms_p50")))
        row.append(str(cell.get("bank_bytes", "")))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _best_per_column(rows: list[dict], names: list[str]) -> dict[str, float]:
    best = {}
    for name in names:
        values = [r[name] for r in rows if r.get(name) is not None]
        if values:
            best[name] = min(values) if name in _LOWER_IS_BETTER else max(values)
    return best


def _unweighted_means(rows: list[dict], names: list[str]) -> dict[str, float]:
    """Category aggregation: plain mean over cells where the metric applies."""
    means = {}
    for name in names:
        values = [r[name] for r in rows if r.get(name) is not None]
        if values:
            means[name] = sum(values) / len(values)
    return means


def _md_table(header: list[str], body: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_markdown(document: dict) -> str:
    requested = [m for m in METRIC_NAMES if m in document.get("metrics_requested", METRIC_NAMES)]
    settings: dict[str, list[dict]] = {}
    for cell in document["cells"]:
        settings.setdefault(cell["setting"], []).append(cell)

    lines = ["# Benchmark report", ""]
    lines.append(f"Config hash: `{document['config_hash']}`  ")
    lines.append(f"Seed: {document['seed']}")
    lines.append("")

    for setting in sorted(settings):
        cells = sorted(settings[setting], key=lambda c: c["category"])
        rows = [dict(c.get("metrics", {}), category=c["category"]) for c in cells]
        lines.append(f"## Setting: {setting}")
        lines.append("")
        failed = [c["category"] for c in cells if c.get("status") != "ok"]
        if failed:
            lines.append(f"Failed cells: {', '.join(failed)}")
            lines.append("")

        paired = setting.startswith("continual") and "fm" in requested and "image_auroc" in requested
        columns = [m for m in requested if not (paired and m in ("image_auroc", "fm"))]
        best = _best_per_column(rows, requested)

        header = ["category"]
        if paired:
            header.append("Image AUC (higher better) / FM (lower better)")
        header.extend(columns)
        body = []
        for row in rows:
            out = [row["category"]]
            if paired:
                auc, fm = row.get("image_auroc"), row.get("fm")
                auc_s = _mark(_fmt(auc), auc is not None and auc == best.get("image_auroc"))
                fm_s = _mark(_fmt(fm), fm is not None and fm == best.get("fm")) if fm is not None else "n/a"
                out.append(f"{auc_s} / {fm_s}")
            for name in columns:
                value = row.get(name)
                if value is None:
                    out.append("n/a")
                else:
                    out.append(_mark(_fmt(value), value == best.get(name)))
            body.append(out)
        if len(rows) > 1:
            means = _unweighted_means(rows, requested)
            out = ["mean"]
            if paired:
                auc_s = _fmt(means.get("image_auroc")) or "n/a"
                fm_s = _fmt(means.get("fm")) or "n/a"
                out.append(f"{auc_s} / {fm_s}")
            out.extend(_fmt(means.get(name)) or "n/a" for name in columns)
            body.append(out)
        lines.extend(_md_table(header, body))
        lines.append("")

    matrices = document.get("task_matrices", {})
    for label in sorted(matrices):
        matrix = matrices[label]
        lines.append(f"## Task matrix: {label}")
        lines.append("")
        lines.append(f"Mean FM: {_fmt(matrix['fm_mean'])} over {matrix['k']} steps")
        lines.append("")
        header = ["step \\ task", *[str(j) for j in range(1, matrix["k"] + 1)]]
        body = []
        for l in range(1, matrix["k"] + 1):
            row = [str(l)]
            for j in range(1, matrix["k"] + 1):
                row.append(_fmt(matrix["entries"].get(f"{l},{j}")) or "")
            body.append(row)
        lines.extend(_md_table(header, body))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _mark(text: str, is_best: bool) -> str:
    return f"**{text}**" if is_best and text else text


def write_reports(document: dict, out_dir: str) -> dict[str, str]:
    """Write results.json, results.csv, and report.md into out_dir."""
    paths = {}
    for fmt in ("json", "csv", "markdown"):
        paths[fmt] = emit_report(document, fmt, out_dir)
    return paths


def emit_report(document: dict, fmt: str, out_dir: str) -> str:
    if not document.get("cells"):
        raise ReportError("empty-results", "no cells to report")
    renderers = {
        "json": ("results.json", render_json),
        "csv": ("results.csv", render_csv),
        "markdown": ("report.md", render_markdown),
    }
    if fmt not in renderers:
        raise ReportError("unknown-format", f"unknown report format {fmt!r}")
    name, renderer = renderers[fmt]
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(renderer(document))
    except OSError as exc:
        raise ReportError("io-failure", f"cannot write {path}: {exc}") from exc
    return path


def load_results(path: str) -> dict:
    """Read a results.json and verify its embedded config hash."""
    document = read_json(path, ReportError, "io-failure")
    if not isinstance(document, dict):
        raise ReportError("io-failure", f"{path}: not a JSON object")
    for key in ("config", "config_hash", "cells"):
        if key not in document:
            raise ReportError("io-failure", f"{path}: missing key {key!r}")
    cells = document["cells"]
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ReportError("io-failure", f"{path}: cells must be a list of objects")
    if config_digest(document["config"]) != document["config_hash"]:
        raise ReportError(
            "io-failure", f"{path}: config hash mismatch (corrupted results?)"
        )
    _check_renderable(document, path)
    return document


def _number_or_null(value) -> bool:
    return value is None or type(value) in (int, float)


def _check_renderable(document: dict, path: str) -> None:
    """Raise io-failure unless every field that ``render_csv`` and
    ``render_markdown`` read is present with the type they need."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ReportError("io-failure", f"{path}: {what}")

    require("seed" in document, "missing key 'seed'")
    requested = document.get("metrics_requested", [])
    require(isinstance(requested, list), "metrics_requested must be a list")
    timings = document.get("timings", {})
    require(isinstance(timings, dict), "timings must be an object")
    for i, cell in enumerate(document["cells"]):
        for key in ("cell_id", "category", "setting"):
            require(isinstance(cell.get(key), str), f"cells[{i}].{key} must be a string")
        metrics = cell.get("metrics", {})
        require(
            isinstance(metrics, dict)
            and all(_number_or_null(metrics.get(name)) for name in METRIC_NAMES),
            f"cells[{i}].metrics must map metric names to numbers or null",
        )
        timing = timings.get(cell["cell_id"], {})
        require(
            isinstance(timing, dict) and _number_or_null(timing.get("latency_ms_p50")),
            f"timings[{cell['cell_id']!r}] must be an object with a numeric latency_ms_p50",
        )
    matrices = document.get("task_matrices", {})
    require(isinstance(matrices, dict), "task_matrices must be an object")
    for label, matrix in matrices.items():
        require(
            isinstance(matrix, dict)
            and isinstance(matrix.get("order"), list)
            and all(isinstance(name, str) for name in matrix["order"])
            and type(matrix.get("k")) is int and matrix["k"] == len(matrix["order"])
            and "fm_mean" in matrix and _number_or_null(matrix["fm_mean"])
            and isinstance(matrix.get("entries"), dict)
            and all(_number_or_null(v) for v in matrix["entries"].values()),
            f"task_matrices[{label!r}] needs an order of names, k = its length, "
            "a numeric fm_mean and numeric entries",
        )
        k = matrix["k"]
        for key in matrix["entries"]:
            require(
                _is_entry_key(key, k),
                f"task_matrices[{label!r}].entries: key {key!r} is not 'l,j' with 1 <= j <= l <= k",
            )
        # distinct valid keys, so all k(k+1)/2 are there: the table cannot outgrow the file
        require(
            len(matrix["entries"]) == k * (k + 1) // 2,
            f"task_matrices[{label!r}].entries: needs every 'l,j' with 1 <= j <= l <= k = {k}",
        )


def _is_entry_key(key: str, k: int) -> bool:
    """Whether ``key`` names a cell "l,j" of a k-step task matrix, 1 <= j <= l <= k."""
    step, _, task = key.partition(",")
    try:
        l, j = int(step), int(task)
    except ValueError:  # not integers, or too many digits to convert
        return False
    return 1 <= j <= l <= k and key == f"{l},{j}"
