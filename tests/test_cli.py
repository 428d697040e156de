from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

from iadbench.cli import main
from iadbench.pgm import write_pgm


def _synth_spec(tmp_path, **overrides):
    spec = {
        "categories": 1,
        "normals_train": 6,
        "normals_test": 4,
        "abnormals_test": 6,
        "image_size": 24,
        "defect_kinds": ["blob"],
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _run_config(tmp_path, dataset_dir):
    cfg = {
        "schema": 1,
        "dataset": {"path": dataset_dir},
        "setting": [{"type": "unsupervised"}],
        "detector": {
            "feature": {"patch_size": 6, "stride": 3},
            "coreset": {"target_fraction": 0.5},
            "b": 2,
            "smoothing_sigma": 1.0,
        },
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_run_report_round_trip(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--spec", _synth_spec(tmp_path), "--seed", "3", "--out", data_dir]) == 0
    assert os.path.isdir(os.path.join(data_dir, "cat00", "train", "good"))

    config = _run_config(tmp_path, data_dir)
    assert main(["run", "--config", config, "--save-banks"]) == 0
    out = tmp_path / "out"
    results = out / "results.json"
    assert results.is_file()
    csv_bytes = (out / "results.csv").read_bytes()
    md_bytes = (out / "report.md").read_bytes()
    assert (out / "banks" / "cat00.iadb").is_file()

    # regeneration from results.json alone is byte-identical
    (out / "results.csv").unlink()
    assert main(["report", "--in", str(results), "--format", "csv"]) == 0
    assert (out / "results.csv").read_bytes() == csv_bytes
    assert main(["report", "--in", str(results), "--format", "markdown"]) == 0
    assert (out / "report.md").read_bytes() == md_bytes


def test_synth_invalid_spec_exit_2(tmp_path, capsys):
    bad = _synth_spec(tmp_path, image_size=8)
    assert main(["synth", "--spec", bad, "--seed", "1", "--out", str(tmp_path / "d")]) == 2
    # JSON that is not an object
    for text in ("5", "null"):
        spec = tmp_path / "scalar.json"
        spec.write_text(text)
        capsys.readouterr()
        argv = ["synth", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "d")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "iadbench: invalid-spec: spec: must be an object\n"


def test_synth_io_failure_exit_3(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    # output root under a regular file fails even when running as root
    code = main(
        ["synth", "--spec", _synth_spec(tmp_path), "--seed", "1",
         "--out", str(blocker / "data")]
    )
    assert code == 3


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "dataset": {"synthetic": {"categories": 1, "normals_train": 2, "normals_test": 1,
                                   "abnormals_test": 1, "image_size": 24}},
        "setting": {"type": "unsupervised"},
        "detector": {"b": 0},
        "seed": 1,
        "output_dir": str(tmp_path / "o"),
    }))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "detector.b" in capsys.readouterr().err


def _missing_mask_config(tmp_path):
    cat = tmp_path / "data" / "widget"
    for sub in ("train/good", "test/good", "test/scratch"):
        (cat / sub).mkdir(parents=True)
    img = np.full((24, 24), 128, np.uint8)
    write_pgm(str(cat / "train" / "good" / "000.pgm"), img)
    write_pgm(str(cat / "test" / "good" / "000.pgm"), img)
    write_pgm(str(cat / "test" / "scratch" / "000.pgm"), img)
    return _run_config(tmp_path, str(tmp_path / "data"))


def _bad_saturations_config(tmp_path):
    """A run config over a one-image dataset whose saturations.json is not JSON."""
    cat = tmp_path / "data" / "widget"
    (cat / "train" / "good").mkdir(parents=True)
    write_pgm(str(cat / "train" / "good" / "000.pgm"), np.full((24, 24), 128, np.uint8))
    (cat / "saturations.json").write_text("{not json")
    return _run_config(tmp_path, str(tmp_path / "data"))


def _sigma_config(tmp_path, sigma):
    """A one-category 16 px synthetic run config with the given smoothing sigma."""
    cfg = {
        "dataset": {"synthetic": {"categories": 1, "normals_train": 2, "normals_test": 1,
                                   "abnormals_test": 1, "image_size": 16}},
        "setting": {"type": "unsupervised"},
        "detector": {"feature": {"patch_size": 4, "stride": 4}, "smoothing_sigma": sigma},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    return _write(tmp_path, "sigma.json", json.dumps(cfg).encode())


@pytest.mark.parametrize("sigma", [1e-160, 1e-200])
def test_run_tiny_sigma_keeps_pixel_metrics(tmp_path, sigma):
    """A sigma whose kernel radius is 0 leaves the maps unblurred, so the
    pixel metrics are those of sigma = 0, not null from NaN maps."""
    got = {}
    for value in (sigma, 0.0):
        out = tmp_path / str(value)
        out.mkdir()
        assert main(["run", "--config", _sigma_config(out, value)]) == 0
        document = json.loads((out / "out" / "results.json").read_text())
        got[value] = [(c["metrics"], c["na_reasons"]) for c in document["cells"]]
    assert all(m["pixel_auroc"] is not None for m, _ in got[sigma])
    assert got[sigma] == got[0.0]


def test_run_missing_mask_exit_3(tmp_path):
    assert main(["run", "--config", _missing_mask_config(tmp_path)]) == 3


def test_run_partial_failure_exit_1(tmp_path):
    data_dir = str(tmp_path / "data")
    main(["synth", "--spec", _synth_spec(tmp_path), "--seed", "3", "--out", data_dir])
    cfg = json.loads(open(_run_config(tmp_path, data_dir)).read())
    cfg["setting"] = [{"type": "unsupervised"}, {"type": "supervised", "n": 50}]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1


def test_run_malformed_saturations_exit_3(tmp_path, capsys):
    data_dir = tmp_path / "data"
    main(["synth", "--spec", _synth_spec(tmp_path), "--seed", "3", "--out", str(data_dir)])
    (data_dir / "cat00" / "saturations.json").write_text("[1, 2]")
    assert main(["run", "--config", _run_config(tmp_path, str(data_dir))]) == 3
    assert "malformed-pgm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_metrics_scores_output(tmp_path, capsys):
    csv = tmp_path / "scores.csv"
    csv.write_text("id,score,label\n a,0.9,abnormal\n b,0.1,normal\n")
    assert main(["metrics", "--scores", str(csv)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"auroc": 1.0000, "ap": 1.0000}'
    assert json.loads(out) == {"auroc": 1.0, "ap": 1.0}


def test_metrics_scores_quoted_ids(tmp_path, capsys):
    """RFC 4180-quoted ids, one holding a comma and one an escaped quote,
    score as the plain ids do."""
    plain = tmp_path / "plain.csv"
    plain.write_text("id,score,label\na,0.9,1\nb,0.4,0\nc,0.7,abnormal\nd,0.8,good\n")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(
        'id,score,label\n"a,1",0.9,1\n"b ""x""",0.4,0\n "c", 0.7 ,abnormal\n\nd,"0.8",good\n'
    )
    outputs = []
    for path in (plain, quoted):
        assert main(["metrics", "--scores", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ['{"auroc": 0.7500, "ap": 0.8333}\n'] * 2


def test_metrics_flag_conflict_exit_2(tmp_path, capsys):
    csv = tmp_path / "scores.csv"
    csv.write_text("a,0.9,1\n")
    assert main(["metrics", "--scores", str(csv), "--maps", str(tmp_path)]) == 2
    assert main(["metrics"]) == 2
    assert main(["metrics", "--maps", str(tmp_path)]) == 2
    # a limit outside (0, 1] is checked before any input is read
    maps = ["metrics", "--maps", str(tmp_path / "none"), "--masks", str(tmp_path / "none")]
    for flag, value in [
        ("--pro-limit", "0"),
        ("--pro-limit", "1.5"),
        ("--pro-limit", "nan"),
        ("--spro-limit", "-1"),
    ]:
        capsys.readouterr()
        assert main([*maps, flag, value]) == 2
        assert capsys.readouterr().err == f"iadbench: invalid-flag: {flag} must be in (0, 1]\n"


def test_metrics_maps_mode(tmp_path, capsys):
    maps_dir = tmp_path / "maps"
    masks_dir = tmp_path / "masks"
    maps_dir.mkdir()
    masks_dir.mkdir()
    mask = np.zeros((8, 8), np.uint8)
    mask[2:4, 2:4] = 255
    write_pgm(str(maps_dir / "a.pgm"), mask)  # perfect prediction
    write_pgm(str(masks_dir / "a_mask.pgm"), mask)
    assert main(["metrics", "--maps", str(maps_dir), "--masks", str(masks_dir)]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["pixel_auroc"] == 1.0
    assert values["aupro"] == 1.0
    assert values["mean_spro"] == 1.0


def _metrics_fixture(root):
    """Four 12x12 maps with tied 8-level scores; two regions per mask, one empty mask."""
    rng = np.random.default_rng(7)
    maps_dir, masks_dir = root / "maps", root / "masks"
    maps_dir.mkdir()
    masks_dir.mkdir()
    for i in range(4):
        mask = np.zeros((12, 12), np.uint8)
        if i != 2:
            mask[1 + i : 4 + i, 2:5] = 255
            mask[8:10, 7 + i % 3 : 11] = 255
        smap = rng.integers(0, 16, (12, 12)) * 8 + (mask > 0) * rng.integers(0, 120, (12, 12))
        write_pgm(str(maps_dir / f"img{i}.pgm"), np.minimum(smap, 255).astype(np.uint8))
        write_pgm(str(masks_dir / (f"img{i}_mask.pgm" if i % 2 else f"img{i}.pgm")), mask)
    return str(maps_dir), str(masks_dir)


@pytest.mark.parametrize(
    "limits, expected",
    [
        ([], '{"pixel_auroc": 0.8217, "pixel_ap": 0.6233, "aupro": 0.6243, "mean_spro": 0.4954}'),
        (
            ["--pro-limit", "1.0", "--spro-limit", "0.25"],
            '{"pixel_auroc": 0.8217, "pixel_ap": 0.6233, "aupro": 0.8191, "mean_spro": 0.6045}',
        ),
    ],
)
def test_metrics_maps_stdout_pinned(tmp_path, capsys, limits, expected):
    # mean_spro here is plain per-region overlap at the sPRO limit: the
    # CLI has no saturation table
    maps_dir, masks_dir = _metrics_fixture(tmp_path)
    assert main(["metrics", "--maps", maps_dir, "--masks", masks_dir, *limits]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_metrics_maps_peak_memory(tmp_path, capsys):
    """Traced peak of ``metrics --maps`` on 16 maps of 256 x 256, three 12 x 15 defects each.

    The maps are held as their 8-bit codes and fed to the pool one at a
    time, so the pool's 8 bytes a pixel and the metrics' transients over
    it dominate: 19.3 bytes a pixel here. Holding every map as float64
    and pooling the list peaked at 26.3.
    """
    rng = np.random.default_rng(0)
    maps_dir, masks_dir = tmp_path / "maps", tmp_path / "masks"
    maps_dir.mkdir()
    masks_dir.mkdir()
    for i in range(16):
        mask = np.zeros((256, 256), np.uint8)
        for y, x in rng.integers(0, 236, (3, 2)):
            mask[y : y + 12, x : x + 15] = 255
        write_pgm(str(maps_dir / f"m{i:02d}.pgm"), rng.integers(0, 256, (256, 256), np.uint8))
        write_pgm(str(masks_dir / f"m{i:02d}.pgm"), mask)
    tracemalloc.start()
    try:
        code = main(["metrics", "--maps", str(maps_dir), "--masks", str(masks_dir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    values = json.loads(capsys.readouterr().out)
    assert list(values) == ["pixel_auroc", "pixel_ap", "aupro", "mean_spro"]
    assert peak <= 21 * 16 * 256 * 256


def test_metrics_dim_mismatch_exit_3(tmp_path):
    maps_dir = tmp_path / "maps"
    masks_dir = tmp_path / "masks"
    maps_dir.mkdir()
    masks_dir.mkdir()
    write_pgm(str(maps_dir / "a.pgm"), np.zeros((8, 8), np.uint8))
    mask = np.zeros((4, 4), np.uint8)
    mask[0, 0] = 255
    write_pgm(str(masks_dir / "a.pgm"), mask)
    assert main(["metrics", "--maps", str(maps_dir), "--masks", str(masks_dir)]) == 3


def test_report_corrupted_exit_3(tmp_path):
    bad = tmp_path / "results.json"
    bad.write_text("{not json")
    assert main(["report", "--in", str(bad), "--format", "csv"]) == 3


def _write(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


NOT_UTF8 = b"\xff\xfe{}"
# nested past the JSON decoder's recursion limit
TOO_DEEP = b"[" * 200000


def _results_with_cells(tmp_path, cells, seed=1, task_matrices=None) -> str:
    from iadbench.runner import config_digest

    document = {"config": {}, "config_hash": config_digest({}), "cells": cells}
    if seed is not None:
        document["seed"] = seed
    if task_matrices is not None:
        document["task_matrices"] = task_matrices
    return _write(tmp_path, "results.json", json.dumps(document).encode())


# the fewest fields a cell needs for both renderers
CELL = {"cell_id": "a/unsupervised", "category": "a", "setting": "unsupervised",
        "status": "ok", "metrics": {"image_auroc": 0.5}}
# a task matrix that render_markdown draws as a 2 x 2 table
MATRIX = {"k": 2, "order": ["a", "b"], "entries": {"1,1": 0.9, "2,1": 0.8, "2,2": 0.7},
          "fm_mean": 0.1}


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_report_renders_minimal_cell(tmp_path, fmt):
    path = _results_with_cells(tmp_path, [CELL])
    assert main(["report", "--in", path, "--format", fmt]) == 0
    name = {"csv": "results.csv", "markdown": "report.md"}[fmt]
    assert "0.5000" in (tmp_path / name).read_text()


def test_report_renders_valid_task_matrix(tmp_path):
    path = _results_with_cells(tmp_path, [CELL], task_matrices={"continual": MATRIX})
    assert main(["report", "--in", path, "--format", "markdown"]) == 0
    assert "| 2 | 0.8000 | 0.7000 |" in (tmp_path / "report.md").read_text()


@pytest.mark.parametrize(
    "make_argv, exit_code, code",
    [
        pytest.param(
            lambda t: ["run", "--config", _write(t, "c.json", NOT_UTF8)],
            2, "invalid-config", id="run-config-not-utf8",
        ),
        pytest.param(
            lambda t: ["run", "--config", _write(t, "c.json", TOO_DEEP)],
            2, "invalid-config", id="run-config-too-deep",
        ),
        pytest.param(
            lambda t: ["run", "--config", str(t / "absent.json")],
            2, "invalid-config", id="run-config-missing",
        ),
        pytest.param(
            lambda t: ["run", "--config", _missing_mask_config(t)],
            3, "missing-mask", id="run-mask-missing",
        ),
        pytest.param(
            lambda t: ["run", "--config", _missing_mask_config(t), "--threads", "0"],
            2, "invalid-config", id="run-threads-0",
        ),
        pytest.param(
            lambda t: ["run", "--config", _bad_saturations_config(t)],
            3, "malformed-pgm", id="run-saturations-not-json",
        ),
        pytest.param(
            lambda t: ["run", "--config", _sigma_config(t, 1e12)],
            2, "invalid-config", id="run-sigma-too-large",
        ),
        # sigma < 0.125: a kernel radius of 0, so no blur
        pytest.param(
            lambda t: ["run", "--config", _sigma_config(t, 1e-200)],
            0, None, id="run-sigma-tiny",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", _write(t, "s.json", b'{"categories": 1}'),
                       "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-count-missing",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", _synth_spec(t, image_size="24"),
                       "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-count-not-integer",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", "{bad", "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-inline-not-json",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", str(t / "absent.json"),
                       "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-missing",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", _write(t, "s.json", NOT_UTF8),
                       "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-not-utf8",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", _write(t, "s.json", TOO_DEEP),
                       "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-too-deep",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", _write(t, "s.json", b"5"),
                       "--seed", "1", "--out", str(t / "d")],
            2, "invalid-spec", id="synth-spec-not-object",
        ),
        pytest.param(
            lambda t: ["synth", "--spec", _synth_spec(t), "--seed", "1",
                       "--out", _write(t, "file.txt", b"x") + "/data"],
            3, "io-failure", id="synth-out-unwritable",
        ),
        pytest.param(
            lambda t: ["metrics", "--scores", _write(t, "s.csv", b"a,0.9,1\n\xff,0.1,0\n")],
            3, "malformed-csv", id="metrics-csv-not-utf8",
        ),
        pytest.param(lambda t: ["metrics"], 2, "invalid-flag", id="metrics-no-input"),
        pytest.param(
            lambda t: ["metrics", "--scores", _write(t, "s.csv", b"a,0.9,1\n"), "--maps", str(t)],
            2, "invalid-flag", id="metrics-scores-and-maps",
        ),
        pytest.param(
            lambda t: ["metrics", "--maps", str(t)], 2, "invalid-flag", id="metrics-maps-no-masks",
        ),
        pytest.param(
            lambda t: ["metrics", "--maps", str(t / "none"), "--masks", str(t / "none"),
                       "--spro-limit", "0"],
            2, "invalid-flag", id="metrics-limit-out-of-range",
        ),
        pytest.param(
            lambda t: ["metrics", "--scores", _write(t, "s.csv", b"a,0.9,1\nb,0.1,0\n"),
                       "--pro-limit", "5"],
            2, "invalid-flag", id="metrics-scores-pro-limit-out-of-range",
        ),
        pytest.param(
            lambda t: ["metrics", "--scores", str(t / "absent.csv"), "--spro-limit", "-1"],
            2, "invalid-flag", id="metrics-scores-spro-limit-out-of-range",
        ),
        pytest.param(
            lambda t: ["report", "--in", _write(t, "results.json", NOT_UTF8), "--format", "csv"],
            3, "io-failure", id="report-results-not-utf8",
        ),
        pytest.param(
            lambda t: ["report", "--in", _write(t, "results.json", b"{not json"),
                       "--format", "csv"],
            3, "io-failure", id="report-results-corrupted",
        ),
        pytest.param(
            lambda t: ["report", "--in", _write(t, "results.json", b"5"), "--format", "csv"],
            3, "io-failure", id="report-results-not-object",
        ),
        pytest.param(
            lambda t: ["report", "--in", _write(t, "results.json", TOO_DEEP), "--format", "csv"],
            3, "io-failure", id="report-results-too-deep",
        ),
        pytest.param(
            lambda t: ["report", "--in", _results_with_cells(t, [1]), "--format", "csv"],
            3, "io-failure", id="report-cells-not-objects",
        ),
        pytest.param(
            lambda t: ["report", "--in", _results_with_cells(t, {}), "--format", "markdown"],
            3, "io-failure", id="report-cells-not-list",
        ),
        *[
            pytest.param(
                lambda t, cells=cells, fmt=fmt: [
                    "report", "--in", _results_with_cells(t, cells), "--format", fmt
                ],
                3, "io-failure", id=f"report-{name}-{fmt}",
            )
            for name, cells in [
                ("empty-cell", [{}]),
                ("metrics-not-object", [dict(CELL, metrics=[1])]),
                ("category-not-string", [dict(CELL, category=5)]),
            ]
            for fmt in ("csv", "markdown")
        ],
        pytest.param(
            lambda t: ["report", "--in", _results_with_cells(t, [CELL], seed=None),
                       "--format", "markdown"],
            3, "io-failure", id="report-no-seed",
        ),
        *[
            pytest.param(
                lambda t, matrix=matrix: [
                    "report", "--in",
                    _results_with_cells(t, [CELL], task_matrices={"continual": matrix}),
                    "--format", "markdown",
                ],
                3, "io-failure", id=f"report-matrix-{name}",
            )
            for name, matrix in [
                # about 300 bytes that would render a 2000 x 2000 table
                ("k-2000", dict(MATRIX, k=2000, entries={})),
                # about 8 KB whose 2000 x 2000 table has no entries: each must be present
                ("order-2000-no-entries", dict(MATRIX, k=2000, order=["a"] * 2000, entries={})),
                ("entry-missing", dict(MATRIX, entries={"1,1": 0.9, "2,2": 0.7})),
                ("k-not-order-length", dict(MATRIX, k=3)),
                ("no-order", {key: v for key, v in MATRIX.items() if key != "order"}),
                ("key-outside-k", dict(MATRIX, entries={"3,1": 0.5})),
                ("key-above-diagonal", dict(MATRIX, entries={"1,2": 0.5})),
                ("key-not-numeric", dict(MATRIX, entries={"a,b": 0.5})),
                ("key-too-many-digits", dict(MATRIX, entries={"9" * 5000 + ",1": 0.5})),
            ]
        ],
    ],
)
def test_exit_code_table(tmp_path, capsys, make_argv, exit_code, code):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    # an error is one line with its code; a clean run, one summary line
    prefix = f"iadbench: {code}: " if code else "iadbench: 1 cells ok, "
    assert len(lines) == 1 and lines[0].startswith(prefix)


def test_data_root_env_fallback(tmp_path, monkeypatch):
    data_dir = str(tmp_path / "data")
    main(["synth", "--spec", _synth_spec(tmp_path), "--seed", "3", "--out", data_dir])
    cfg = json.loads(open(_run_config(tmp_path, data_dir)).read())
    cfg["dataset"] = {}  # path comes from the environment
    path = tmp_path / "env.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("IADBENCH_DATA_ROOT", data_dir)
    assert main(["run", "--config", str(path)]) == 0
    monkeypatch.delenv("IADBENCH_DATA_ROOT")
    assert main(["run", "--config", str(path)]) == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "schema 1" in capsys.readouterr().out


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x", "--frobnicate"])
    assert exc.value.code == 2
