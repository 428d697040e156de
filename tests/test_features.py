from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadbench.data import ImageGrid
from iadbench.errors import ConfigError
from iadbench.features import FeatureProviderConfig, extract_features
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
    image = ImageGrid(np.zeros((3, 3)))
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
        assert np.allclose(
            grid.vectors[0], image.values[:p, :p].ravel().astype(np.float32)
        )


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
    assert grid.vectors.tobytes() == (np.arange(256) / 255.0).astype(np.float32).tobytes()


@settings(max_examples=300, deadline=None)
@given(_images_and_windows())
def test_features_from_codes_equal_float_path(case):
    """Byte for byte the float32 cast of the float64 image's windows."""
    codes, p, s = case
    image = ImageGrid(codes)
    grid = extract_features(image, FeatureProviderConfig(p, s, "raw-patch"))
    expected = patch_vectors_reference(image.values, p, s)
    assert grid.vectors.dtype == np.float32 and grid.vectors.shape == expected.shape
    assert grid.vectors.tobytes() == expected.tobytes()
