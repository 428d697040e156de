from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadbench.data import ImageGrid
from iadbench.detector import build_bank
from iadbench.errors import ConfigError, DetectorError
from iadbench.features import FeatureProviderConfig, PatchFeatureGrid, extract_features, intensities
from oracles import patch_vectors_reference


def test_grid_arithmetic():
    image = ImageGrid(np.arange(0, 256, 4, dtype=np.uint8).reshape(8, 8))
    config = FeatureProviderConfig(patch_size=4, stride=4, descriptor="raw-patch")
    grid = extract_features(image, config)
    assert (grid.grid_h, grid.grid_w, grid.dim) == (2, 2, 16)


def test_constant_image_gives_identical_vectors():
    image = ImageGrid(np.full((12, 12), 128, dtype=np.uint8))
    config = FeatureProviderConfig(patch_size=3, stride=2, descriptor="raw-patch")
    grid = extract_features(image, config)
    assert np.all(grid.vectors == grid.vectors[0])


def test_patch_too_large():
    image = ImageGrid(np.zeros((3, 3), np.uint8))
    config = FeatureProviderConfig(patch_size=4, stride=1, descriptor="raw-patch")
    with pytest.raises(ConfigError) as exc:
        extract_features(image, config)
    assert exc.value.code == "patch-too-large"


def test_shape_law_matches_window_enumeration():
    """grid_h x grid_w equals the brute-force count of valid windows."""
    rng = np.random.default_rng(0)
    for _ in range(25):
        h = int(rng.integers(4, 20))
        w = int(rng.integers(4, 20))
        p = int(rng.integers(1, min(h, w) + 1))
        s = int(rng.integers(1, p + 1))
        image = ImageGrid(rng.integers(0, 256, (h, w), dtype=np.uint8))
        config = FeatureProviderConfig(patch_size=p, stride=s, descriptor="raw-patch")
        grid = extract_features(image, config)
        count_h = sum(1 for y in range(h) if y % s == 0 and y + p <= h)
        count_w = sum(1 for x in range(w) if x % s == 0 and x + p <= w)
        assert grid.grid_h == count_h and grid.grid_w == count_w
        # first window content check
        assert np.allclose(grid.rows(0), image.values[:p, :p].ravel().astype(np.float32))


@st.composite
def _images_and_windows(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    p = draw(st.integers(1, min(h, w)))
    s = draw(st.integers(1, p))
    codes = draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
    return np.array(codes, dtype=np.uint8).reshape(h, w), p, s


def test_every_code_gives_its_float32_intensity():
    """Code k becomes float32(float64(k / 255)), for all 256 codes."""
    image = ImageGrid(np.arange(256, dtype=np.uint8).reshape(16, 16))
    grid = extract_features(image, FeatureProviderConfig(1, 1, "raw-patch"))
    rows = grid.rows(slice(None))
    assert rows.tobytes() == (np.arange(256) / 255.0).astype(np.float32).tobytes()


@settings(max_examples=300, deadline=None)
@given(_images_and_windows())
def test_features_from_codes_equal_float_path(case):
    """A grid's float32 rows are, byte for byte, the float32 cast of the
    float64 image's windows."""
    codes, p, s = case
    image = ImageGrid(codes)
    grid = extract_features(image, FeatureProviderConfig(p, s, "raw-patch"))
    expected = patch_vectors_reference(image.values, p, s)
    rows = grid.rows(slice(None))
    assert grid.vectors.dtype == np.uint8 and grid.vectors.shape == expected.shape
    assert rows.dtype == np.float32 and rows.tobytes() == expected.tobytes()


@st.composite
def _training_images(draw):
    """A patch size, a stride and 1-4 images of mixed, mostly non-square
    sizes that each fit the patch, with random codes or all one code."""
    p = draw(st.integers(1, 8))
    s = draw(st.integers(1, p))
    sizes = draw(
        st.lists(st.tuples(st.integers(p, p + 14), st.integers(p, p + 14)), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constant = draw(st.booleans())
    images = [
        ImageGrid(
            np.full((h, w), rng.integers(0, 256), np.uint8)
            if constant
            else rng.integers(0, 256, (h, w), dtype=np.uint8)
        )
        for h, w in sizes
    ]
    return images, p, s, rng


@settings(max_examples=300, deadline=None)
@given(_training_images())
def test_bank_rows_equal_extracted_features(case):
    """A built bank's codes are the training set's grids, each image's grid
    its own slice of the bank, and its float32 rows are their feature
    vectors, byte for byte: all at once, picked in any order, or through
    the bank of the picks."""
    images, p, s, rng = case
    cfg = FeatureProviderConfig(p, s, "raw-patch")
    bank = build_bank(images, cfg)
    grids = [extract_features(image, cfg) for image in images]
    assert bank.codes.tobytes() == np.concatenate([g.vectors for g in grids]).tobytes()
    expected = np.concatenate([g.rows(slice(None)) for g in grids])
    assert bank.codes.dtype == np.uint8 and bank.codes.shape == expected.shape
    assert (bank.count, bank.dim) == expected.shape
    assert bank.rows(slice(None)).tobytes() == expected.tobytes()
    picks = rng.permutation(bank.count)[: rng.integers(1, bank.count + 1)]
    assert bank.rows(picks).tobytes() == expected[picks].tobytes()
    picked = bank.take(picks)
    assert picked.rows(slice(None)).tobytes() == expected[picks].tobytes()
    assert bank.task_tags.tolist() == [0] * bank.count
    assert picked.task_tags.tolist() == [0] * len(picks)


def test_patch_grid_rejects_float_rows():
    """A grid holds 8-bit codes, as a bank does: a float or wider integer
    array, finite or not, is refused rather than cast."""
    codes = np.random.default_rng(22).integers(0, 256, (6, 4), dtype=np.uint8)
    assert PatchFeatureGrid(2, 3, 4, codes).vectors is codes
    for rows in (intensities(codes), codes.astype(np.float64), np.full((6, 4), np.nan),
                 codes.astype(np.int64)):
        with pytest.raises(DetectorError) as exc:
            PatchFeatureGrid(2, 3, 4, rows)
        assert (exc.value.code, exc.value.message) == (
            "dim-mismatch", "grid rows must be uint8 codes"
        )


def test_build_bank_errors_match_the_float_path():
    cfg = FeatureProviderConfig(4, 1, "raw-patch")
    with pytest.raises(DetectorError) as got:
        build_bank([], cfg)
    assert (got.value.code, got.value.message) == ("empty-input", "need at least one feature grid")
    small = ImageGrid(np.zeros((3, 5), np.uint8))
    with pytest.raises(ConfigError) as got:
        build_bank([ImageGrid(np.zeros((6, 6), np.uint8)), small], cfg)
    with pytest.raises(ConfigError) as want:
        extract_features(small, cfg)
    assert (got.value.code, got.value.message) == ("patch-too-large", "patch 4 exceeds image 3x5")
    assert (want.value.code, want.value.message) == (got.value.code, got.value.message)
