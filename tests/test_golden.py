"""Golden bytes of four small runs, each at 1 and 2 threads.

Each digest below is the sha256 of ``results.json`` with its ``timings``
subtree removed, re-serialised with sorted keys. It was recorded with
Python 3.11.7 and numpy 2.4.6. A change to the runner, the protocols,
the detector or the metrics that moves any result byte fails this test;
a change that is meant to move results must say so and re-record the
digest.

``GOLDEN_CONFIG`` covers all five settings: a sweep in each of few-shot
and noisy, a supervised instance that fails on every category (too few
test abnormals), a continual job over an explicit order of three
categories, a projected coreset and explicit metric limits.

``HIRES_CONFIG`` is shaped like perfbench's ``hires_regions`` at 64 px:
patches tile the image (stride == patch), and twenty defects per
category give the region sweeps many regions, so map rendering and
AUPRO/sPRO at that geometry are pinned here too.

``SHARED_CONFIG`` trains unsupervised, supervised and continual on each
category's same normal images with an unprojected coreset, so those
cells and tasks share one set of picks; few-shot cells train on subsets
and select their own. ``FULL_BANK_CONFIG`` is the same run with no
coreset section: no cell or continual task selects, and each keeps its
whole bank in natural order. Both digests were recorded before jobs
shared coresets, when every job selected its own, and the whole-bank one
when each continual task still picked every row, in pick order.

Every run is checked at 1 and 2 threads: with 2, the coresets are
selected and the jobs scored two at a time.

Each run also saves its banks (``save_banks``), and each ``*_BANKS``
maps a snapshot's file name under ``banks/`` to the sha256 of its IADB
bytes, recorded with the same versions while banks were still stored
as float32.

The results digest cannot see scores that move without changing rank,
since most reported metrics are rank statistics. So each ``*_SCORES``
pins the scores themselves: the sha256 of one record per
``score_image`` call (its ``s`` and ``s_star`` as ``float.hex``) and
one per rendered pixel map (its shape and bytes), continual steps
included. The records are sorted before hashing, so the order the
threads run in cannot matter. They were recorded with the same versions
while the detector still wrote its reference distance out in three
places.

``python tests/test_golden.py``, with ``src`` on ``PYTHONPATH``, runs
every config at 1 and 2 threads and prints every pin as this module
spells it, to re-record them with one command.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import tempfile
from pathlib import Path

from iadbench import runner
from iadbench.runner import parse_config, run_experiment

GOLDEN_CONFIG = {
    "schema": 1,
    "dataset": {
        "synthetic": {
            "categories": 3,
            "normals_train": 8,
            "normals_test": 4,
            "abnormals_test": 6,
            "image_size": 24,
            "defect_kinds": ["scratch", "blob", "missing-patch"],
        }
    },
    "setting": [
        {"type": "unsupervised"},
        {"type": "supervised", "n": 2},
        {"type": "supervised", "n": 7},
        {"type": "fewshot", "m": [1, 2], "rotation_k": 2},
        {"type": "noisy", "noise_ratio": [0.1, 0.2]},
        {"type": "continual", "category_order": ["cat02", "cat00", "cat01"]},
    ],
    "detector": {
        "feature": {"patch_size": 6, "stride": 3},
        "coreset": {"target_fraction": 0.5, "projection_dim": 8},
        "b": 2,
        "smoothing_sigma": 1.5,
    },
    "metrics": {"pro_limit": 0.3, "spro_limit": 0.05},
    "seed": 5,
}

GOLDEN_SHA256 = "ee250b34900523d0929a52a12319e28d72d4477e6417125f344fd903e1e7e4c2"

GOLDEN_BANKS = {
    "cat00.iadb": "4a39aad5c4dae3660eaa48af8cbc577005fa19a68b51e76f6a9890b46e591e4f",
    "cat01.iadb": "ea59266a464195ee37016572c700b2d53ddbc73e478b3fb101ba35fed320ef60",
    "cat02.iadb": "311b397669fb254cff5ff319818c9698dbd028754afeb464a9f989dc4051cb2b",
}

GOLDEN_SCORES = "9d5076531e945e742b65d139af3c4e05d070e2283d62aa1b9e199fc9d7dd8ede"

HIRES_CONFIG = {
    "schema": 1,
    "dataset": {
        "synthetic": {
            "categories": 2,
            "normals_train": 2,
            "normals_test": 4,
            "abnormals_test": 20,
            "image_size": 64,
        }
    },
    "setting": [{"type": "unsupervised"}],
    "detector": {
        "feature": {"patch_size": 8, "stride": 8},
        "coreset": {"l": 16},
        "b": 2,
        "smoothing_sigma": 2.0,
    },
    "metrics": ["image_auroc", "pixel_auroc", "pixel_ap", "aupro", "mean_spro"],
    "seed": 11,
}

HIRES_SHA256 = "2c6b3082efb82871fceea9c215ca33c88c8325865f43f5953f82877e10634c4b"

HIRES_BANKS = {
    "cat00.iadb": "4cd950e9664f65f76108f08cc5a75f295bf74f5cf1e5931dba9336233d8fa730",
    "cat01.iadb": "d108680093e82a637a261fc9475889711e80685302fa63bde7f37e954763dce1",
}

HIRES_SCORES = "0bdb3d39f722eb465fde7ff0952fda61368ea36790d02084eabd8c7127698c9d"

SHARED_CONFIG = {
    "schema": 1,
    "dataset": {
        "synthetic": {
            "categories": 3,
            "normals_train": 8,
            "normals_test": 4,
            "abnormals_test": 6,
            "image_size": 24,
            "defect_kinds": ["scratch", "blob", "missing-patch"],
        }
    },
    "setting": [
        {"type": "unsupervised"},
        {"type": "supervised", "n": 2},
        {"type": "fewshot", "m": [2, 4]},
        {"type": "continual"},
    ],
    "detector": {
        "feature": {"patch_size": 6, "stride": 3},
        "coreset": {"target_fraction": 0.5},
        "b": 2,
        "smoothing_sigma": 1.5,
    },
    "seed": 9,
}

SHARED_SHA256 = "5cbe640fc03cdae0e7ca5d08d0fd33d33ac76d3d7757127b1e5e63b5333e4dc3"

SHARED_BANKS = {
    "cat00.iadb": "405ef506e21100805c6b31d9ef72a313bf2c040b944f156b85f2f149cde4ef25",
    "cat01.iadb": "a96f7cde45835ab4703ad8c16f458236625bb9f6bbf1440d2a8a0d64f48a1f92",
    "cat02.iadb": "4a922d8b1081bbde5a6237f51d987ca655151fd2ab76cbe6056ac4048c6e6a9b",
}

SHARED_SCORES = "ad44898ac1af2758c22cec8a8079c6d8c97fe3797548d0cb0514a1da6280b01a"

FULL_BANK_CONFIG = copy.deepcopy(SHARED_CONFIG)
del FULL_BANK_CONFIG["detector"]["coreset"]

FULL_BANK_SHA256 = "25e085cc47d889a046b811f92db3e30656092763ccad3eed08377479e3283ee1"

FULL_BANK_BANKS = {
    "cat00.iadb": "d886ac6b4d72d862db9c23e57c7cd8734e74586c59050e7b18006cf90b1db42f",
    "cat01.iadb": "4534b9de99ccda38db541f07585ca78049c334d4307cb6c7730648bc569d1a4d",
    "cat02.iadb": "1924e0cd26edb36472f9f9bfc12b2a29d7008329ece6ac7597d2cec3a74b17a9",
}

FULL_BANK_SCORES = "960804b1b1121a92a6a140cd947f07103949c836dc34f58e6aa3b94466b9efa0"


def _digest_without_timings(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    document.pop("timings")
    payload = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _bank_digests(banks_dir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in banks_dir.iterdir()}


@contextlib.contextmanager
def _recorded_scores():
    """Records every image score and rendered 2-D map the runner makes while open."""
    records = []
    score_image, render_anomaly_map = runner.score_image, runner.render_anomaly_map

    def scoring(*args, **kwargs):
        result, patch_map = score_image(*args, **kwargs)
        records.append(f"score {result.s.hex()} {result.s_star.hex()}")
        return result, patch_map

    def rendering(*args, **kwargs):
        pixel_maps = render_anomaly_map(*args, **kwargs)
        # one record per 2-D map, whether it was rendered alone or in a stack
        for pixel_map in pixel_maps.reshape(-1, *pixel_maps.shape[-2:]):
            records.append(
                f"map {pixel_map.shape} {hashlib.sha256(pixel_map.tobytes()).hexdigest()}"
            )
        return pixel_maps

    runner.score_image, runner.render_anomaly_map = scoring, rendering
    try:
        yield records
    finally:
        runner.score_image, runner.render_anomaly_map = score_image, render_anomaly_map


def _pinned_run(config: dict, threads: int, out) -> tuple[dict, tuple[str, dict, str]]:
    """The run's results document and its (results, banks, scores) digests."""
    with _recorded_scores() as records:
        result = run_experiment(
            parse_config(config), threads=threads, save_banks=True, output_dir=str(out)
        )
    scores = hashlib.sha256("\n".join(sorted(records)).encode("ascii")).hexdigest()
    digests = (_digest_without_timings(out / "results.json"), _bank_digests(out / "banks"), scores)
    return result.document, digests


def _golden_runs(tmp_path, name: str) -> list[dict]:
    """The ``name`` config's results documents at 1 and 2 threads, each
    checked against its results, banks and scores pins."""
    config = globals()[f"{name}_CONFIG"]
    pins = tuple(globals()[f"{name}_{pin}"] for pin in ("SHA256", "BANKS", "SCORES"))
    documents = []
    for threads in (1, 2):
        document, digests = _pinned_run(config, threads, tmp_path / f"threads{threads}")
        assert digests == pins, f"threads={threads}"
        documents.append(document)
    return documents


def test_results_bytes_are_golden(tmp_path):
    for document in _golden_runs(tmp_path, "GOLDEN"):
        assert {c["status"] for c in document["cells"]} == {"ok", "failed"}


def test_hires_shaped_results_bytes_are_golden(tmp_path):
    for document in _golden_runs(tmp_path, "HIRES"):
        assert {c["status"] for c in document["cells"]} == {"ok"}


def test_shared_coreset_results_bytes_are_golden(tmp_path):
    for document in _golden_runs(tmp_path, "SHARED"):
        assert {c["status"] for c in document["cells"]} == {"ok"}


def test_full_bank_results_bytes_are_golden(tmp_path):
    for document in _golden_runs(tmp_path, "FULL_BANK"):
        assert {c["status"] for c in document["cells"]} == {"ok"}


def _print_pins() -> None:
    """Prints every config's pins, from fresh runs, as this module spells them."""
    for name in ("GOLDEN", "HIRES", "SHARED", "FULL_BANK"):
        config = globals()[f"{name}_CONFIG"]
        with tempfile.TemporaryDirectory() as tmp:
            runs = [_pinned_run(config, threads, Path(tmp, str(threads)))[1] for threads in (1, 2)]
        if runs[0] != runs[1]:
            raise SystemExit(f"{name}: the digests differ between 1 and 2 threads")
        results, banks, scores = runs[0]
        print(f'{name}_SHA256 = "{results}"\n')
        print(f"{name}_BANKS = {{")
        for file_name in sorted(banks):
            print(f'    "{file_name}": "{banks[file_name]}",')
        print("}\n")
        print(f'{name}_SCORES = "{scores}"\n')


if __name__ == "__main__":
    _print_pins()
