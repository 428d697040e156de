"""Core data model: images, masks, samples, datasets, and the on-disk layout.

A dataset root follows the common industrial-inspection layout::

    <root>/<category>/train/good/<id>.pgm
    <root>/<category>/test/<defect_type>/<id>.pgm
    <root>/<category>/ground_truth/<defect_type>/<id>_mask.pgm
    <root>/<category>/saturations.json          (optional)

``saturations.json`` maps defect_type to {"relative_area": r} with
r in (0, 1], expressing each defect type's saturation threshold as a
fraction of the image area.

Images are held as their 8-bit codes (``ImageGrid.codes``, one byte per
pixel), exactly as a maxval-255 PGM stores them; the intensity k/255 is
computed only where a float is needed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .pgm import read_pgm

NORMAL = "normal"
ABNORMAL = "abnormal"


@dataclass
class ImageGrid:
    """Single-channel image held as its 8-bit codes, row-major.

    ``codes`` is an (h, w) uint8 array; code k stands for the intensity
    k/255 in [0, 1], so an image costs one byte per pixel. ``values`` is
    computed on each read, never stored. The constructor takes uint8
    codes only; any other dtype raises ``malformed-pgm``.
    """

    codes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.codes)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("dim-mismatch", f"image must be 2-D, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            raise DataError("malformed-pgm", f"image codes must be uint8, got {arr.dtype}")
        self.codes = arr

    @property
    def values(self) -> np.ndarray:
        """The intensities k/255 as a fresh float64 array."""
        return self.codes / 255.0

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]


@dataclass
class PixelMask:
    """Boolean per-pixel mask; True marks an anomalous pixel."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.dtype != np.bool_:
            arr = arr != 0
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError("dim-mismatch", f"mask must be 2-D, got shape {arr.shape}")
        self.bits = arr

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    def any(self) -> bool:
        return bool(self.bits.any())


@dataclass
class Sample:
    """One image with its label, optional ground-truth mask, and provenance."""

    id: str
    image: ImageGrid
    label: str
    mask: PixelMask | None
    defect_type: str
    category: str

    def __post_init__(self):
        if self.label not in (NORMAL, ABNORMAL):
            raise DataError("malformed-pgm", f"unknown label {self.label!r}")
        if self.mask is not None and (
            self.mask.height != self.image.height or self.mask.width != self.image.width
        ):
            raise DataError(
                "dim-mismatch",
                f"sample {self.id}: mask {self.mask.height}x{self.mask.width} "
                f"vs image {self.image.height}x{self.image.width}",
            )
        if self.label == ABNORMAL and (self.mask is None or not self.mask.any()):
            raise DataError(
                "missing-mask", f"abnormal sample {self.id} needs a nonempty mask"
            )
        if self.label == NORMAL and self.mask is not None and self.mask.any():
            raise DataError(
                "missing-mask", f"normal sample {self.id} must not have anomalous pixels"
            )


@dataclass
class Dataset:
    """Samples grouped by category and split, plus saturation thresholds.

    ``saturation_table[category][defect_type]`` is the relative saturation
    area in (0, 1]. Missing entries mean the threshold defaults to the
    full region size downstream.
    """

    categories: list[str]
    train: dict[str, list[Sample]]
    test: dict[str, list[Sample]]
    saturation_table: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        for split_name, split in (("train", self.train), ("test", self.test)):
            for category, samples in split.items():
                if category not in self.categories:
                    raise DataError(
                        "empty-category", f"{split_name} has unknown category {category}"
                    )
                ids = [s.id for s in samples]
                if len(ids) != len(set(ids)):
                    raise DataError(
                        "dim-mismatch",
                        f"duplicate sample ids in {category}/{split_name}",
                    )

    def require_category(self, category: str) -> None:
        if category not in self.categories:
            raise DataError("unknown-category", f"no category named {category!r}")


def grid_from_pgm(path: str) -> ImageGrid:
    """A PGM image (or score map); its raw bytes are the codes, read as v/255."""
    return ImageGrid(read_pgm(path))


def mask_from_pgm(path: str) -> PixelMask:
    """A PGM mask: every value above zero is anomalous."""
    return PixelMask(read_pgm(path) > 0)


def _list_pgms(directory: str) -> list[str]:
    return sorted(f for f in os.listdir(directory) if f.endswith(".pgm"))


def _load_saturations(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or too deep
            raise DataError("malformed-pgm", f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("malformed-pgm", f"{path}: must be a JSON object")
    table = {}
    for defect_type, entry in raw.items():
        rel = entry.get("relative_area") if isinstance(entry, dict) else None
        number = isinstance(rel, (int, float)) and not isinstance(rel, bool)
        if not number or not 0.0 < rel <= 1.0:
            raise DataError(
                "malformed-pgm",
                f"{path}: relative_area for {defect_type!r} must be in (0, 1]",
            )
        table[defect_type] = float(rel)
    return table


def dataset_digest(root: str) -> str:
    """sha256 over the sorted relative paths and bytes of every file under ``root``.

    It names the data independently of where the tree lies on disk. Each
    file adds its "/"-separated relative path, a NUL byte, its length as
    8 little-endian bytes, and its bytes.
    """
    if not os.path.isdir(root):
        raise DataError("empty-category", f"dataset root {root!r} does not exist")
    files = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            files.append((os.path.relpath(path, root).replace(os.sep, "/"), path))
    digest = hashlib.sha256()
    for relative, path in sorted(files):
        with open(path, "rb") as fh:
            payload = fh.read()
        digest.update(relative.encode("utf-8") + b"\0" + len(payload).to_bytes(8, "little"))
        digest.update(payload)
    return digest.hexdigest()


def _load_sample(cat_dir: str, category: str, split: str, defect_type: str, name: str) -> Sample:
    """The image ``<split>/<defect_type>/<name>``, and for a non-"good" type its mask."""
    stem = os.path.splitext(name)[0]
    image = grid_from_pgm(os.path.join(cat_dir, split, defect_type, name))
    mask = None
    if defect_type != "good":
        mask_path = os.path.join(cat_dir, "ground_truth", defect_type, f"{stem}_mask.pgm")
        if not os.path.isfile(mask_path):
            raise DataError(
                "missing-mask",
                f"{category}/{split}/{defect_type}/{name} has no mask at {mask_path}",
            )
        mask = mask_from_pgm(mask_path)
    return Sample(
        id=f"{defect_type}/{stem}",
        image=image,
        label=NORMAL if mask is None else ABNORMAL,
        mask=mask,
        defect_type=defect_type,
        category=category,
    )


def load_dataset(root: str) -> Dataset:
    """Load a dataset tree rooted at ``root``.

    Train samples come from ``train/good`` only. Every non-"good" test
    image must have a ground-truth mask of matching size; a missing or
    empty mask is an error, as is a mask whose dimensions disagree with
    its image.
    """
    if not os.path.isdir(root):
        raise DataError("empty-category", f"dataset root {root!r} does not exist")
    categories = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    if not categories:
        raise DataError("empty-category", f"no categories under {root!r}")

    train: dict[str, list[Sample]] = {}
    test: dict[str, list[Sample]] = {}
    saturations: dict[str, dict[str, float]] = {}
    for category in categories:
        cat_dir = os.path.join(root, category)
        train_good = os.path.join(cat_dir, "train", "good")
        if not os.path.isdir(train_good) or not _list_pgms(train_good):
            raise DataError("empty-category", f"{category}: no train/good images")
        train[category] = [
            _load_sample(cat_dir, category, "train", "good", name)
            for name in _list_pgms(train_good)
        ]

        test[category] = []
        test_dir = os.path.join(cat_dir, "test")
        defect_types = (
            sorted(
                d for d in os.listdir(test_dir) if os.path.isdir(os.path.join(test_dir, d))
            )
            if os.path.isdir(test_dir)
            else []
        )
        for defect_type in defect_types:
            for name in _list_pgms(os.path.join(test_dir, defect_type)):
                test[category].append(_load_sample(cat_dir, category, "test", defect_type, name))

        sat_path = os.path.join(cat_dir, "saturations.json")
        if os.path.isfile(sat_path):
            saturations[category] = _load_saturations(sat_path)

    return Dataset(
        categories=categories, train=train, test=test, saturation_table=saturations
    )
