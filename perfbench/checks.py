"""Correctness digests of a results document.

The digests cover what the determinism contract covers: every cell
document and the continual task matrices. Wall-clock data lives under
``timings`` and never enters a digest.
"""

from __future__ import annotations

import hashlib
import json


def _sha256(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_digests(document: dict) -> dict:
    """{"cells": {cell_id: sha256}, "task_matrices": sha256}."""
    cells = {
        cell["cell_id"]: _sha256({k: v for k, v in cell.items() if k != "timings"})
        for cell in document["cells"]
    }
    return {"cells": cells, "task_matrices": _sha256(document.get("task_matrices", {}))}


def failed_cells(statuses: dict[str, str], digests: dict, expected: dict) -> set[str]:
    """Cells that failed, differ from ``expected`` digests, or are missing or extra.

    A task-matrix mismatch fails every continual cell, or the whole run's
    first expected cell when there is none, so that it always counts.
    """
    bad = {cid for cid, status in statuses.items() if status == "failed"}
    bad |= set(digests["cells"]) ^ set(expected["cells"])
    bad |= {
        cid
        for cid, sha in digests["cells"].items()
        if cid in expected["cells"] and sha != expected["cells"][cid]
    }
    if digests["task_matrices"] != expected["task_matrices"]:
        continual = {cid for cid in expected["cells"] if cid.endswith("/continual")}
        bad |= continual or {min(expected["cells"])}
    return bad
