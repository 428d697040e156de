"""Procedural synthetic datasets for desk-scale benchmarking.

Each category gets a distinct sinusoidal background texture; abnormal
test samples carry one drawn defect (scratch, blob, or missing-patch)
together with an exactly matching pixel mask. Images are made as 8-bit
codes k (intensity k/255), the bytes a PGM stores, so writing to PGM and
loading back is lossless, and the whole generation is a pure function of
(spec, seed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import numpy.random  # at start-up: numpy otherwise loads it on first use, mid-run

from .data import ABNORMAL, NORMAL, Dataset, ImageGrid, PixelMask, Sample
from .errors import ConfigError, expect_keys, expect_type
from .pgm import write_pgm
from .rng import derive_seed

DEFECT_KINDS = ("scratch", "blob", "missing-patch")

# relative saturation areas (fraction of image area) per defect kind
_SATURATIONS = {"scratch": 0.005, "blob": 0.02, "missing-patch": 0.03}

# the spec's required integer fields
_COUNTS = ("categories", "normals_train", "normals_test", "abnormals_test", "image_size")


@dataclass(frozen=True)
class SynthSpec:
    categories: int
    normals_train: int
    normals_test: int
    abnormals_test: int
    image_size: int
    defect_kinds: tuple[str, ...] = DEFECT_KINDS

    def __post_init__(self):
        if self.categories < 1 or self.normals_train < 1:
            raise ConfigError("invalid-spec", "categories and normals_train must be >= 1")
        if self.normals_test < 0 or self.abnormals_test < 0:
            raise ConfigError("invalid-spec", "test counts must be >= 0")
        if self.image_size < 16:
            raise ConfigError("invalid-spec", f"image_size {self.image_size} < 16")
        bad = [k for k in self.defect_kinds if k not in DEFECT_KINDS]
        if bad:
            raise ConfigError("invalid-spec", f"unknown defect kinds: {bad}")
        if self.abnormals_test > 0 and not self.defect_kinds:
            raise ConfigError("invalid-spec", "abnormals_test > 0 needs defect kinds")

    @classmethod
    def from_dict(cls, raw: dict, key_path: str = "spec") -> "SynthSpec":
        expect_type(raw, key_path, dict, "an object", "invalid-spec")
        expect_keys(raw, key_path, set(_COUNTS), {"defect_kinds"}, "invalid-spec")
        for key in _COUNTS:
            expect_type(raw[key], f"{key_path}.{key}", int, "an integer", "invalid-spec")
        kinds = raw.get("defect_kinds", list(DEFECT_KINDS))
        expect_type(kinds, f"{key_path}.defect_kinds", list, "a list", "invalid-spec")
        for kind in kinds:
            expect_type(kind, f"{key_path}.defect_kinds[]", str, "a string", "invalid-spec")
        return cls(**{key: raw[key] for key in _COUNTS}, defect_kinds=tuple(kinds))


def _quantize(values: np.ndarray) -> np.ndarray:
    """The 8-bit codes round(clip(v) * 255) of intensities ``values``."""
    out = np.clip(values, 0.0, 1.0)
    out *= 255.0
    np.round(out, out=out)
    return out.astype(np.uint8)


def _background(category_index: int, size: int) -> np.ndarray:
    """Deterministic per-category texture, comfortably inside [0.15, 0.85]."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    base = 0.35 + 0.08 * (category_index % 4)
    fx = 1.5 + 0.7 * (category_index % 5)
    fy = 2.0 + 0.9 * ((category_index * 3 + 1) % 5)
    phase = 0.37 * category_index
    tex = 0.10 * np.sin(2.0 * np.pi * fx * xs / size + phase)
    tex += 0.06 * np.sin(2.0 * np.pi * fy * ys / size + 1.1 * phase)
    return base + tex


def _normal_codes(background: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A defect-free image: ``background`` plus fresh sensor noise, as codes."""
    return _quantize(background + 0.02 * rng.standard_normal(background.shape))


def _defect_delta(rng: np.random.Generator) -> float:
    # on the 1/255 grid, magnitude in [0.30, 0.45]; sign chosen per pixel
    return (77 + int(rng.integers(0, 39))) / 255.0


def _scratch_mask(rng: np.random.Generator, size: int) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    length = max(4, size // 2)
    y0 = int(rng.integers(2, size - 2))
    x0 = int(rng.integers(2, size - 2))
    angle = float(rng.uniform(0.0, np.pi))
    dy, dx = np.sin(angle), np.cos(angle)
    for t in range(length):
        y = int(round(y0 + t * dy))
        x = int(round(x0 + t * dx))
        if 0 <= y < size and 0 <= x < size:
            mask[y, x] = True
    mask[y0, x0] = True
    return mask


def _blob_mask(rng: np.random.Generator, size: int) -> np.ndarray:
    radius = float(rng.uniform(size / 10.0, size / 6.0))
    cy = float(rng.uniform(radius, size - radius))
    cx = float(rng.uniform(radius, size - radius))
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= radius**2


def _patch_mask(rng: np.random.Generator, size: int) -> np.ndarray:
    h = int(rng.integers(size // 8, size // 4 + 1))
    w = int(rng.integers(size // 8, size // 4 + 1))
    y0 = int(rng.integers(0, size - h))
    x0 = int(rng.integers(0, size - w))
    mask = np.zeros((size, size), dtype=bool)
    mask[y0 : y0 + h, x0 : x0 + w] = True
    return mask


_DEFECT_DRAWERS = {
    "scratch": _scratch_mask,
    "blob": _blob_mask,
    "missing-patch": _patch_mask,
}


def _apply_defect(clean: np.ndarray, mask: np.ndarray, delta: float) -> np.ndarray:
    """The codes of image ``clean`` (codes) with ``delta`` pushed into ``mask``.

    Dark pixels go up and bright ones down, in intensity k/255; the
    result is quantized again onto the same grid.
    """
    image = clean / 255.0
    lift = image <= 0.5
    image[mask & lift] += delta
    image[mask & ~lift] -= delta
    return _quantize(image)


def synth_dataset(spec: SynthSpec, seed: int) -> Dataset:
    """Generate a synthetic dataset; bit-identical for equal (spec, seed)."""
    size = spec.image_size
    categories = [f"cat{i:02d}" for i in range(spec.categories)]
    train: dict[str, list[Sample]] = {}
    test: dict[str, list[Sample]] = {}
    saturations: dict[str, dict[str, float]] = {}

    for ci, category in enumerate(categories):
        background = _background(ci, size)
        for split, tag, count in (
            (train, "train", spec.normals_train),
            (test, "test-good", spec.normals_test),
        ):
            split[category] = []
            for i in range(count):
                rng = np.random.default_rng(derive_seed(seed, category, tag, i))
                codes = _normal_codes(background, rng)
                split[category].append(
                    Sample(f"good/{i:03d}", ImageGrid(codes), NORMAL, None, "good", category)
                )

        kind_counters = {kind: 0 for kind in spec.defect_kinds}
        for i in range(spec.abnormals_test):
            kind = spec.defect_kinds[i % len(spec.defect_kinds)]
            rng = np.random.default_rng(derive_seed(seed, category, "test-defect", i))
            clean = _normal_codes(background, rng)
            mask = _DEFECT_DRAWERS[kind](rng, size)
            image = _apply_defect(clean, mask, _defect_delta(rng))
            idx = kind_counters[kind]
            kind_counters[kind] += 1
            test[category].append(
                Sample(
                    f"{kind}/{idx:03d}",
                    ImageGrid(image),
                    ABNORMAL,
                    PixelMask(mask),
                    kind,
                    category,
                )
            )

        saturations[category] = {
            kind: _SATURATIONS[kind] for kind in spec.defect_kinds
        }

    return Dataset(
        categories=categories, train=train, test=test, saturation_table=saturations
    )


def write_dataset_tree(dataset: Dataset, out_dir: str) -> None:
    """Materialize a dataset in the on-disk layout consumed by load_dataset."""
    for category in dataset.categories:
        cat_dir = os.path.join(out_dir, category)
        for sample in dataset.train[category]:
            _write_sample(cat_dir, "train", sample)
        for sample in dataset.test[category]:
            _write_sample(cat_dir, "test", sample)
        table = dataset.saturation_table.get(category)
        if table:
            payload = {k: {"relative_area": v} for k, v in sorted(table.items())}
            with open(os.path.join(cat_dir, "saturations.json"), "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _write_sample(cat_dir: str, split: str, sample: Sample) -> None:
    defect_type, _, stem = sample.id.partition("/")
    img_dir = os.path.join(cat_dir, split, defect_type)
    os.makedirs(img_dir, exist_ok=True)
    write_pgm(os.path.join(img_dir, f"{stem}.pgm"), sample.image.codes)
    if sample.mask is not None:
        mask_dir = os.path.join(cat_dir, "ground_truth", defect_type)
        os.makedirs(mask_dir, exist_ok=True)
        write_pgm(
            os.path.join(mask_dir, f"{stem}_mask.pgm"),
            sample.mask.bits.astype(np.uint8) * 255,
        )
