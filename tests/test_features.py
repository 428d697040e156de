from __future__ import annotations

import numpy as np
import pytest

from iadbench.data import ImageGrid
from iadbench.errors import ConfigError
from iadbench.features import FeatureProviderConfig, extract_features


def test_grid_arithmetic():
    image = ImageGrid(np.linspace(0, 1, 64).reshape(8, 8))
    config = FeatureProviderConfig(patch_size=4, stride=4, descriptor="raw-patch")
    grid = extract_features(image, config)
    assert (grid.grid_h, grid.grid_w, grid.dim) == (2, 2, 16)


def test_constant_image_gives_identical_vectors():
    image = ImageGrid(np.full((12, 12), 0.5))
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
        image = ImageGrid(rng.random((h, w)))
        config = FeatureProviderConfig(patch_size=p, stride=s, descriptor="raw-patch")
        grid = extract_features(image, config)
        count_h = sum(1 for y in range(h) if y % s == 0 and y + p <= h)
        count_w = sum(1 for x in range(w) if x % s == 0 and x + p <= w)
        assert grid.grid_h == count_h and grid.grid_w == count_w
        # first window content check
        assert np.allclose(
            grid.vectors[0], image.values[:p, :p].ravel().astype(np.float32)
        )

