"""Patch feature extraction.

The reference descriptor is the raw patch: a sliding window of
patch_size x patch_size pixels flattened row-major, giving a grid of
(grid_h x grid_w) vectors of dimension patch_size^2. Images arrive as
8-bit codes, and a patch stays one: a grid row is the window's codes.
Each code k reads as the float32 quotient k/255 (``intensities``), the
value a float64 image cast to float32 would give. ``intensities`` is
the one rule that turns codes into floats, and the detector applies it
only where it reads rows (``PatchFeatureGrid.rows``,
``MemoryBank.rows``).

``windows`` is the one window rule. ``extract_features`` and
``detector.build_bank`` both apply it to an image's codes, so a bank
row and a grid row of the same window are the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ImageGrid
from .errors import ConfigError, DetectorError


@dataclass(frozen=True)
class FeatureProviderConfig:
    patch_size: int
    stride: int
    descriptor: str

    def __post_init__(self):
        if self.patch_size < 1:
            raise ConfigError("invalid-spec", "patch_size must be >= 1")
        if not 1 <= self.stride <= self.patch_size:
            raise ConfigError("invalid-spec", "stride must be in [1, patch_size]")
        if self.descriptor != "raw-patch":
            raise ConfigError("invalid-spec", f"unknown descriptor {self.descriptor!r}")

    @property
    def dim(self) -> int:
        """The descriptor's length: a raw patch's patch_size**2 pixels."""
        return self.patch_size**2

    def grid_shape(self, image: ImageGrid) -> tuple[int, int]:
        """(grid_h, grid_w) of the patch grid ``extract_features`` makes of ``image``."""
        p, s, h, w = self.patch_size, self.stride, image.height, image.width
        if h < p or w < p:
            raise ConfigError("patch-too-large", f"patch {p} exceeds image {h}x{w}")
        return (h - p) // s + 1, (w - p) // s + 1


@dataclass
class PatchFeatureGrid:
    grid_h: int
    grid_w: int
    dim: int
    vectors: np.ndarray  # (grid_h * grid_w, dim) uint8 codes, row-major patches

    def __post_init__(self):
        if not isinstance(self.vectors, np.ndarray) or self.vectors.dtype != np.uint8:
            raise DetectorError("dim-mismatch", "grid rows must be uint8 codes")
        if self.grid_h < 1 or self.grid_w < 1 or self.dim < 1:
            raise DetectorError("bad-dims", "grid dims and dim must be >= 1")
        if self.vectors.shape != (self.grid_h * self.grid_w, self.dim):
            raise DetectorError(
                "bad-dims",
                f"vectors shape {self.vectors.shape} != ({self.grid_h * self.grid_w}, {self.dim})",
            )

    def rows(self, index) -> np.ndarray:
        """The float32 descriptors of the patches at ``index`` (a slice or an index)."""
        return intensities(self.vectors[index])


def intensities(codes: np.ndarray) -> np.ndarray:
    """The float32 intensities of 8-bit codes: code k becomes k/255."""
    # float32(k) / 255 is k/255 rounded correctly to float32, and so is
    # float32(k / 255.0): float64 carries more than 2 x 24 + 2 bits, so
    # rounding its quotient twice is harmless. Both give the same value.
    values = codes.astype(np.float32)
    values /= np.float32(255.0)
    return values


def windows(pixels: np.ndarray, cfg: FeatureProviderConfig) -> np.ndarray:
    """Each patch window of ``pixels`` as a row, in row-major window order."""
    p, s = cfg.patch_size, cfg.stride
    view = sliding_window_view(pixels, (p, p))[::s, ::s]
    return view.reshape(view.shape[0] * view.shape[1], cfg.dim)


def extract_features(image: ImageGrid, cfg: FeatureProviderConfig) -> PatchFeatureGrid:
    """Slide the patch window over the image's codes and flatten each window."""
    grid_h, grid_w = cfg.grid_shape(image)
    vectors = windows(image.codes, cfg)
    return PatchFeatureGrid(grid_h=grid_h, grid_w=grid_w, dim=cfg.dim, vectors=vectors)
