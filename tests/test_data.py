from __future__ import annotations

import json

import numpy as np
import pytest

from iadbench.data import ABNORMAL, NORMAL, ImageGrid, PixelMask, Sample, load_dataset
from iadbench.errors import DataError
from iadbench.pgm import write_pgm


def _write(path, shape=(16, 16), value=128):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(str(path), np.full(shape, value, dtype=np.uint8))


def _make_tree(root, with_mask=True, mask_shape=(16, 16)):
    cat = root / "widget"
    _write(cat / "train" / "good" / "000.pgm")
    _write(cat / "train" / "good" / "001.pgm")
    _write(cat / "test" / "good" / "000.pgm")
    _write(cat / "test" / "scratch" / "000.pgm")
    if with_mask:
        mask = np.zeros(mask_shape, dtype=np.uint8)
        mask[3:5, 3:5] = 255
        path = cat / "ground_truth" / "scratch" / "000_mask.pgm"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_pgm(str(path), mask)
    return root


def test_directory_contract(tmp_path):
    dataset = load_dataset(str(_make_tree(tmp_path)))
    assert dataset.categories == ["widget"]
    train = dataset.train["widget"]
    test = dataset.test["widget"]
    assert len(train) == 2 and all(s.label == NORMAL for s in train)
    assert sorted(s.label for s in test) == [ABNORMAL, NORMAL]
    abnormal = next(s for s in test if s.label == ABNORMAL)
    assert abnormal.mask is not None and abnormal.mask.any()
    assert abnormal.defect_type == "scratch"


def test_missing_mask(tmp_path):
    _make_tree(tmp_path, with_mask=False)
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert exc.value.code == "missing-mask"


def test_mask_dim_mismatch(tmp_path):
    _make_tree(tmp_path, mask_shape=(8, 8))
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert exc.value.code == "dim-mismatch"


def test_empty_category(tmp_path):
    (tmp_path / "widget" / "train" / "good").mkdir(parents=True)
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert exc.value.code == "empty-category"


def test_saturations_loaded(tmp_path):
    _make_tree(tmp_path)
    sat = {"scratch": {"relative_area": 0.25}}
    (tmp_path / "widget" / "saturations.json").write_text(json.dumps(sat))
    dataset = load_dataset(str(tmp_path))
    assert dataset.saturation_table["widget"] == {"scratch": 0.25}


def test_bad_saturation_value(tmp_path):
    _make_tree(tmp_path)
    (tmp_path / "widget" / "saturations.json").write_text(
        json.dumps({"scratch": {"relative_area": 2.0}})
    )
    with pytest.raises(DataError):
        load_dataset(str(tmp_path))


@pytest.mark.parametrize("value", [True, False])
def test_boolean_saturation_is_malformed(tmp_path, value):
    """JSON true is not the number 1: a boolean relative_area is refused."""
    _make_tree(tmp_path)
    path = tmp_path / "widget" / "saturations.json"
    path.write_text(json.dumps({"scratch": {"relative_area": value}}))
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert exc.value.code == "malformed-pgm"
    assert "relative_area for 'scratch' must be in (0, 1]" in exc.value.message


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "not valid JSON"),
        (b"\xff\xfe{}", "not valid JSON"),
        pytest.param(b"[" * 200000, "not valid JSON", id="too-deep"),
        ("[1, 2]", "must be a JSON object"),
        ("null", "must be a JSON object"),
    ],
)
def test_malformed_saturations_file(tmp_path, text, message):
    _make_tree(tmp_path)
    path = tmp_path / "widget" / "saturations.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(DataError) as exc:
        load_dataset(str(tmp_path))
    assert exc.value.code == "malformed-pgm"
    assert str(path) in exc.value.message and message in exc.value.message


def test_abnormal_sample_requires_nonempty_mask():
    image = ImageGrid(np.zeros((4, 4), np.uint8))
    with pytest.raises(DataError) as exc:
        Sample("x", image, ABNORMAL, PixelMask(np.zeros((4, 4), bool)), "scratch", "c")
    assert exc.value.code == "missing-mask"


def test_normal_sample_rejects_anomalous_mask():
    image = ImageGrid(np.zeros((4, 4), np.uint8))
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = True
    with pytest.raises(DataError):
        Sample("x", image, NORMAL, PixelMask(mask), "good", "c")


def test_image_values_range_checked():
    with pytest.raises(DataError):
        ImageGrid(np.full((2, 2), 1.5))


def test_every_code_reads_as_its_intensity():
    """Each of the 256 codes k reads as the float64 k/255; the grid takes
    only the codes, not those floats."""
    codes = np.arange(256, dtype=np.uint8).reshape(16, 16)
    image = ImageGrid(codes)
    assert image.codes.dtype == np.uint8
    assert image.values.dtype == np.float64
    assert image.values.tobytes() == (codes / 255.0).tobytes()
    assert image.values.ravel().tolist() == [k / 255 for k in range(256)]
    with pytest.raises(DataError) as exc:
        ImageGrid(image.values)
    assert exc.value.code == "malformed-pgm"


@pytest.mark.parametrize(
    "values",
    [
        np.full((4, 4), 0.5),
        np.random.default_rng(0).random((8, 8)),
        np.full((2, 3), np.nextafter(128 / 255, 1.0)),
    ],
    ids=["half", "random", "one-ulp-off"],
)
def test_off_grid_intensity_rejected(values):
    with pytest.raises(DataError) as exc:
        ImageGrid(values)
    assert exc.value.code == "malformed-pgm"
