"""Split construction for the five benchmark settings.

Every operation is a pure, seeded transformation of a Dataset into a
Split (or a list of Tasks) with full provenance of moved, injected, or
augmented samples. Sampling is uniform without replacement through the
splitmix64 stream in :mod:`iadbench.rng`, so identical inputs and seeds
reproduce identical splits on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ABNORMAL, NORMAL, Dataset, ImageGrid, PixelMask, Sample
from .errors import ProtocolError
from .rng import sample_without_replacement

ROTATION_ANGLES = {1: (0,), 2: (0, 180), 4: (0, 90, 180, 270)}

# injected noise may consume at most this fraction of the test abnormals
NOISE_CAP_FRACTION = 0.75


@dataclass
class ProvenanceRecord:
    sample_id: str
    origin: str
    true_label: str
    observed_label: str
    transform: str


@dataclass
class TrainItem:
    sample: Sample
    observed_label: str


@dataclass
class Split:
    train: list[TrainItem]
    test: list[Sample]
    provenance: list[ProvenanceRecord] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _category_train(dataset: Dataset, category: str) -> list[Sample]:
    dataset.require_category(category)
    samples = dataset.train.get(category, [])
    if not samples:
        raise ProtocolError("empty-train", f"category {category} has no train samples")
    return samples


def make_unsupervised(dataset: Dataset, category: str) -> Split:
    """All normal train samples; the full test set; no provenance."""
    train = _category_train(dataset, category)
    return Split(
        train=[TrainItem(s, NORMAL) for s in train],
        test=list(dataset.test.get(category, [])),
    )


def _move_abnormals_to_train(
    split: Split, positions: list[int], n: int, seed: int, observed: str, transform: str
) -> None:
    """Move n seeded test abnormals, drawn from ``positions``, into train."""
    drawn = sample_without_replacement(len(positions), n, seed)
    moved = {positions[i] for i in drawn}
    for pos in sorted(moved):
        sample = split.test[pos]
        split.train.append(TrainItem(sample, observed))
        split.provenance.append(
            ProvenanceRecord(sample.id, "test", ABNORMAL, observed, transform)
        )
    split.test = [s for i, s in enumerate(split.test) if i not in moved]


def make_supervised(dataset: Dataset, category: str, n: int, seed: int) -> Split:
    """Unsupervised split plus n labeled abnormals moved out of the test set."""
    split = make_unsupervised(dataset, category)
    abnormal_positions = [i for i, s in enumerate(split.test) if s.label == ABNORMAL]
    if len(abnormal_positions) < n:
        raise ProtocolError(
            "insufficient-abnormals",
            f"need {n} test abnormals, category {category} has {len(abnormal_positions)}",
        )
    _move_abnormals_to_train(split, abnormal_positions, n, seed, ABNORMAL, "moved-to-train")
    return split


def make_fewshot(dataset: Dataset, category: str, m: int, seed: int) -> Split:
    """m seeded normal train samples; the test set is untouched."""
    pool = _category_train(dataset, category)
    if len(pool) < m:
        raise ProtocolError(
            "insufficient-normals", f"need m={m}, category {category} has {len(pool)}"
        )
    drawn = sorted(sample_without_replacement(len(pool), m, seed))
    split = Split(
        train=[TrainItem(pool[i], NORMAL) for i in drawn],
        test=list(dataset.test.get(category, [])),
    )
    for i in drawn:
        split.provenance.append(
            ProvenanceRecord(pool[i].id, "train", NORMAL, NORMAL, "fewshot-selected")
        )
    return split


def _rotated_sample(sample: Sample, angle: int) -> Sample:
    turns = angle // 90
    image = ImageGrid(np.rot90(sample.image.codes, k=turns).copy())
    mask = None
    if sample.mask is not None:
        mask = PixelMask(np.rot90(sample.mask.bits, k=turns).copy())
    return Sample(
        id=f"{sample.id}#rot{angle}",
        image=image,
        label=sample.label,
        mask=mask,
        defect_type=sample.defect_type,
        category=sample.category,
    )


def augment_rotations(split: Split, rotation_k: int) -> Split:
    """Replace each train sample by rotation_k copies at right-angle turns.

    The 0-degree copy keeps the original sample and id; the others get
    derived ids tagged with their angle. Requires square images so the
    grid rotations are exact.
    """
    if rotation_k not in ROTATION_ANGLES:
        raise ProtocolError("invalid-k", f"rotation_k={rotation_k} not in (1, 2, 4)")
    if rotation_k == 1:
        return split
    for item in split.train:
        if item.sample.image.height != item.sample.image.width:
            raise ProtocolError(
                "non-square-image",
                f"sample {item.sample.id} is {item.sample.image.height}x{item.sample.image.width}",
            )
    train: list[TrainItem] = []
    provenance = list(split.provenance)
    for item in split.train:
        for angle in ROTATION_ANGLES[rotation_k]:
            sample = item.sample if angle == 0 else _rotated_sample(item.sample, angle)
            train.append(TrainItem(sample, item.observed_label))
            provenance.append(
                ProvenanceRecord(
                    sample.id, "train", sample.label, item.observed_label, f"rot{angle}"
                )
            )
    return Split(train=train, test=split.test, provenance=provenance, info=dict(split.info))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def inject_noise(dataset: Dataset, category: str, noise_ratio: float, seed: int) -> Split:
    """Move seeded test abnormals into train, observed as normal.

    The injected count n solves n / (m + n) = noise_ratio for the m
    normal train samples (rounded half up), capped at 75% of the test
    abnormals. Injected samples are dropped from the test set; the
    achieved ratio lands in split.info.
    """
    if not 0.0 < noise_ratio < 1.0:
        raise ProtocolError("invalid-ratio", f"noise_ratio={noise_ratio} not in (0, 1)")
    split = make_unsupervised(dataset, category)
    m = len(split.train)
    abnormal_positions = [i for i, s in enumerate(split.test) if s.label == ABNORMAL]
    if not abnormal_positions:
        raise ProtocolError("no-abnormals", f"category {category} has no test abnormals")
    uncapped = _round_half_up(noise_ratio * m / (1.0 - noise_ratio))
    cap = int(math.floor(NOISE_CAP_FRACTION * len(abnormal_positions)))
    n = min(uncapped, cap)
    if n == 0:
        raise ProtocolError(
            "zero-injection",
            f"ratio {noise_ratio} with m={m} and {len(abnormal_positions)} abnormals "
            f"yields no injected samples (uncapped {uncapped}, cap {cap})",
        )
    _move_abnormals_to_train(split, abnormal_positions, n, seed, NORMAL, "injected-as-normal")
    split.info = {
        "requested_ratio": noise_ratio,
        "injected": n,
        "uncapped": uncapped,
        "cap": cap,
        "achieved_ratio": n / (m + n),
    }
    return split


@dataclass
class Task:
    index: int  # 1-based step
    category: str
    train: list[TrainItem]
    test: list[Sample]


def make_continual(dataset: Dataset, category_order: list[str]) -> list[Task]:
    """Order categories into tasks, each with its unsupervised train split."""
    if len(category_order) < 2:
        raise ProtocolError("too-few-categories", "continual needs at least 2 categories")
    if len(set(category_order)) != len(category_order):
        raise ProtocolError("duplicate-category", f"order {category_order} repeats a category")
    tasks = []
    for index, category in enumerate(category_order, start=1):
        base = make_unsupervised(dataset, category)
        tasks.append(Task(index=index, category=category, train=base.train, test=base.test))
    return tasks
