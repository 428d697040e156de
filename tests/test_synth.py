from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from iadbench.data import ABNORMAL, NORMAL, load_dataset
from iadbench.errors import ConfigError
from iadbench.synth import SynthSpec, _background, _quantize, synth_dataset, write_dataset_tree


def _spec(**overrides):
    base = dict(
        categories=1,
        normals_train=10,
        normals_test=5,
        abnormals_test=5,
        image_size=64,
        defect_kinds=("blob",),
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_count_contract():
    dataset = synth_dataset(_spec(), seed=7)
    assert len(dataset.train["cat00"]) == 10
    test = dataset.test["cat00"]
    assert sum(s.label == NORMAL for s in test) == 5
    abnormal = [s for s in test if s.label == ABNORMAL]
    assert len(abnormal) == 5
    assert all(s.mask is not None and s.mask.any() for s in abnormal)


def test_determinism_bit_identical():
    a = synth_dataset(_spec(), seed=7)
    b = synth_dataset(_spec(), seed=7)
    for split in ("train", "test"):
        for sa, sb in zip(getattr(a, split)["cat00"], getattr(b, split)["cat00"]):
            assert sa.id == sb.id
            assert np.array_equal(sa.image.values, sb.image.values)
    c = synth_dataset(_spec(), seed=8)
    assert not np.array_equal(
        a.train["cat00"][0].image.values, c.train["cat00"][0].image.values
    )


def test_no_abnormals_is_valid():
    dataset = synth_dataset(_spec(abnormals_test=0), seed=1)
    assert all(s.label == NORMAL for s in dataset.test["cat00"])


def test_invalid_specs():
    with pytest.raises(ConfigError) as exc:
        _spec(image_size=8)
    assert exc.value.code == "invalid-spec"
    with pytest.raises(ConfigError):
        _spec(normals_train=0)
    with pytest.raises(ConfigError):
        _spec(categories=0)
    with pytest.raises(ConfigError):
        _spec(defect_kinds=("dent",))


def test_mask_fidelity_and_contrast():
    """Pixels that differ from the defect-free render are exactly the mask,
    and differ by at least 0.2 intensity."""
    spec = _spec(categories=2, defect_kinds=("scratch", "blob", "missing-patch"))
    dataset = synth_dataset(spec, seed=11)
    from iadbench.rng import derive_seed

    for ci, category in enumerate(dataset.categories):
        background = _background(ci, spec.image_size)
        for i, sample in enumerate(s for s in dataset.test[category] if s.label == ABNORMAL):
            rng = np.random.default_rng(derive_seed(11, category, "test-defect", i))
            clean = _quantize(background + 0.02 * rng.standard_normal(background.shape)) / 255.0
            diff = np.abs(sample.image.values - clean)
            changed = diff > 0
            assert np.array_equal(changed, sample.mask.bits)
            assert diff[changed].min() >= 0.2


def test_distinct_category_textures():
    dataset = synth_dataset(_spec(categories=2), seed=3)
    a = dataset.train["cat00"][0].image.values
    b = dataset.train["cat01"][0].image.values
    assert np.abs(a - b).mean() > 0.02


def test_tree_round_trip(tmp_path):
    spec = _spec(categories=2, normals_train=3, normals_test=2, abnormals_test=3,
                 image_size=32, defect_kinds=("scratch", "blob"))
    dataset = synth_dataset(spec, seed=5)
    write_dataset_tree(dataset, str(tmp_path))
    loaded = load_dataset(str(tmp_path))
    assert loaded.categories == dataset.categories
    assert loaded.saturation_table == dataset.saturation_table
    for category in dataset.categories:
        for split in ("train", "test"):
            original = {s.id: s for s in getattr(dataset, split)[category]}
            read_back = {s.id: s for s in getattr(loaded, split)[category]}
            assert original.keys() == read_back.keys()
            for sid, sample in original.items():
                other = read_back[sid]
                assert sample.image.codes.dtype == other.image.codes.dtype == np.uint8
                assert np.array_equal(sample.image.codes, other.image.codes)
                assert sample.label == other.label
                if sample.mask is not None:
                    assert np.array_equal(sample.mask.bits, other.mask.bits)


def test_dataset_images_hold_one_byte_per_pixel():
    """A synthetic dataset's traced size is about one byte per image pixel
    (plus its masks' one byte per pixel); float64 images would be eight."""
    spec = _spec(normals_train=8, normals_test=4, abnormals_test=4, image_size=128)
    tracemalloc.start()
    try:
        dataset = synth_dataset(spec, seed=0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = dataset.train["cat00"] + dataset.test["cat00"]
    pixels = sum(s.image.height * s.image.width for s in samples)
    mask_bytes = sum(s.mask.bits.nbytes for s in samples if s.mask is not None)
    assert all(s.image.codes.dtype == np.uint8 for s in samples)
    assert held - mask_bytes <= 1.25 * pixels


def test_quantize_matches_original_expression():
    """uint8 codes whose intensities k/255 are bit for bit round(clip(v, 0, 1) * 255) / 255,
    input untouched: values outside [0, 1], exact levels, halfway points and their
    neighbours."""
    levels = np.arange(256) / 255.0
    halfway = (np.arange(255) + 0.5) / 255.0
    values = np.concatenate(
        [
            [-1.0, -0.0, 1.0, 1.5, np.inf, -np.inf],
            levels,
            halfway,
            np.nextafter(halfway, 0.0),
            np.nextafter(halfway, 1.0),
            np.random.default_rng(0).random(4096) * 1.4 - 0.2,
        ]
    )
    before = values.copy()
    got = _quantize(values)
    assert np.array_equal(values, before)
    assert got.dtype == np.uint8
    assert np.array_equal(got / 255.0, np.round(np.clip(values, 0.0, 1.0) * 255.0) / 255.0)
