"""Ranking and segmentation metrics plus the forgetting measure.

Ranking metrics use grouped thresholds at distinct scores: AUROC is the
Mann-Whitney statistic (tied pairs count half), and average precision is
the step sum AP = sum_n (R_n - R_{n-1}) * P_n with ties merged into one
step. Region metrics sweep every distinct score value as a threshold,
track the per-region overlap against pooled false-positive rate, and
integrate the resulting curve up to an FPR limit with linear
interpolation between operating points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .data import PixelMask
from .errors import MetricError

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)

# default FPR integration limits of AUPRO (MVTec AD) and sPRO (MVTec LOCO)
DEFAULT_PRO_LIMIT = 0.3
DEFAULT_SPRO_LIMIT = 0.05


@dataclass
class LabeledScores:
    """Per-item scores with binary labels (True = positive/anomalous)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).ravel()
        labels = np.asarray(self.labels).ravel().astype(bool)
        if scores.size == 0 or scores.size != labels.size:
            raise MetricError(
                "degenerate-labels",
                f"need equal nonzero lengths, got {scores.size} scores / {labels.size} labels",
            )
        if not np.all(np.isfinite(scores)):
            raise MetricError("degenerate-labels", "scores must be finite")
        self.scores = scores
        self.labels = labels


def auroc(data: LabeledScores) -> float:
    """Area under the ROC curve via the Mann-Whitney pair statistic."""
    pos = data.scores[data.labels]
    neg = data.scores[~data.labels]
    if pos.size == 0 or neg.size == 0:
        raise MetricError("degenerate-labels", "AUROC needs both classes present")
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left")
    tied = np.searchsorted(neg_sorted, pos, side="right") - below
    u = float(below.sum()) + 0.5 * float(tied.sum())
    return u / (pos.size * neg.size)


def average_precision(data: LabeledScores) -> float:
    """Step-sum average precision over distinct descending score thresholds."""
    total_pos = int(data.labels.sum())
    if total_pos == 0:
        raise MetricError("no-positives", "AP needs at least one positive")
    uniq, inverse = np.unique(data.scores, return_inverse=True)
    pos_at = np.bincount(inverse[data.labels], minlength=uniq.size)
    all_at = np.bincount(inverse, minlength=uniq.size)
    tp = np.cumsum(pos_at[::-1])
    seen = np.cumsum(all_at[::-1])
    precision = tp / seen
    recall = tp / total_pos
    steps = np.diff(recall, prepend=0.0)
    return float(np.sum(steps * precision))


@dataclass
class Region:
    """One connected anomaly region with its saturation threshold."""

    pixels: np.ndarray  # flat row-major indices into the image
    saturation: int

    @property
    def area(self) -> int:
        return int(self.pixels.size)


@dataclass
class RegionSet:
    height: int
    width: int
    regions: list[Region]


def connected_regions(
    mask: PixelMask, saturation: int | float | None = None
) -> RegionSet:
    """Split a mask into 8-connected regions and attach saturation thresholds.

    ``saturation`` may be an absolute pixel count (int) or an area
    fraction of the whole image (float in (0, 1]); either is clamped to
    [1, region area]. When absent, each region saturates at its own size,
    which makes the saturated overlap degrade to the plain per-region
    overlap.
    """
    bits = mask.bits
    labeled, count = ndimage.label(bits, structure=_EIGHT_CONNECTED)
    regions = []
    flat_labels = labeled.ravel()
    order = np.argsort(flat_labels, kind="stable")
    boundaries = np.searchsorted(flat_labels[order], np.arange(1, count + 2))
    for idx in range(count):
        pixels = order[boundaries[idx] : boundaries[idx + 1]]
        area = pixels.size
        if saturation is None:
            sat = area
        elif isinstance(saturation, (int, np.integer)) and not isinstance(saturation, bool):
            sat = int(saturation)
        else:
            rel = float(saturation)
            if not 0.0 < rel <= 1.0:
                raise MetricError("no-regions", f"relative saturation {rel} not in (0, 1]")
            sat = int(round(rel * bits.size))
        sat = max(1, min(sat, area))
        regions.append(Region(pixels=np.sort(pixels), saturation=sat))
    return RegionSet(height=mask.height, width=mask.width, regions=regions)


def _check_maps(score_maps, shapes) -> None:
    if len(score_maps) != len(shapes):
        raise MetricError("dim-mismatch", "score maps and ground truth counts differ")
    for smap, shape in zip(score_maps, shapes):
        if smap.shape != shape:
            raise MetricError(
                "dim-mismatch", f"score map {smap.shape} vs ground truth {shape}"
            )
        if not np.all(np.isfinite(smap)):
            raise MetricError("dim-mismatch", "score maps must be finite")


def _overlap_curve_area(
    score_maps: list[np.ndarray], region_sets: list[RegionSet], fpr_limit: float
) -> float:
    """Shared threshold sweep behind aupro and mean_spro.

    Thresholds are the distinct score values pooled over every map, in
    descending order; the predicted set at threshold t is {score >= t}.
    The curve starts at the synthetic empty-prediction point (0, 0) and
    is integrated over [0, fpr_limit], normalized by the limit.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricError("no-regions", f"fpr_limit {fpr_limit} not in (0, 1]")
    region_scores: list[tuple[np.ndarray, int]] = []
    normal_parts = []
    all_parts = []
    for smap, rset in zip(score_maps, region_sets):
        flat = np.asarray(smap, dtype=np.float64).ravel()
        anomalous = np.zeros(flat.size, dtype=bool)
        for region in rset.regions:
            anomalous[region.pixels] = True
            region_scores.append((np.sort(flat[region.pixels]), region.saturation))
        normal_parts.append(flat[~anomalous])
        all_parts.append(flat)
    if not region_scores:
        raise MetricError("no-regions", "no ground-truth regions in the evaluation set")
    normal = np.sort(np.concatenate(normal_parts))
    if normal.size == 0:
        raise MetricError("no-normal-pixels", "no normal pixels in the evaluation set")

    thresholds = np.unique(np.concatenate(all_parts))[::-1]
    fpr = (normal.size - np.searchsorted(normal, thresholds, side="left")) / normal.size
    overlap = np.zeros(thresholds.size, dtype=np.float64)
    for scores_asc, sat in region_scores:
        covered = scores_asc.size - np.searchsorted(scores_asc, thresholds, side="left")
        overlap += np.minimum(covered / sat, 1.0)
    overlap /= len(region_scores)

    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], overlap])
    return _integrate_to_limit(xs, ys, fpr_limit)


def _integrate_to_limit(xs: np.ndarray, ys: np.ndarray, limit: float) -> float:
    """Trapezoidal area under a piecewise-linear curve, clipped to [0, limit]."""
    x0, x1 = xs[:-1], xs[1:]
    y0, y1 = ys[:-1], ys[1:]
    inside = x1 <= limit
    area = float(np.sum((x1[inside] - x0[inside]) * (y0[inside] + y1[inside]) * 0.5))
    straddle = (x0 < limit) & (x1 > limit)
    if straddle.any():
        i = np.nonzero(straddle)[0]
        y_at = y0[i] + (y1[i] - y0[i]) * (limit - x0[i]) / (x1[i] - x0[i])
        area += float(np.sum((limit - x0[i]) * (y0[i] + y_at) * 0.5))
    return area / limit


def aupro(
    score_maps: list[np.ndarray],
    masks: list[PixelMask | None],
    fpr_limit: float = DEFAULT_PRO_LIMIT,
) -> float:
    """Area under the per-region-overlap curve up to ``fpr_limit``.

    Regions are the 8-connected components of each mask; a None (or
    all-false) mask contributes only normal pixels. The false-positive
    rate pools normal pixels across every image.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in score_maps]
    if len(maps) != len(masks):
        raise MetricError("dim-mismatch", "score maps and masks counts differ")
    region_sets = [
        connected_regions(m) if m is not None else RegionSet(s.shape[0], s.shape[1], [])
        for m, s in zip(masks, maps)
    ]
    return mean_spro(maps, region_sets, fpr_limit)


def mean_spro(
    score_maps: list[np.ndarray],
    region_sets: list[RegionSet],
    fpr_limit: float = DEFAULT_SPRO_LIMIT,
) -> float:
    """Area under the saturated per-region-overlap curve up to ``fpr_limit``.

    Per threshold, each region contributes min(|A ∩ P| / s, 1); with
    s equal to the region area this reduces exactly to the plain
    per-region overlap.
    """
    maps = [np.asarray(m, dtype=np.float64) for m in score_maps]
    _check_maps(maps, [(rs.height, rs.width) for rs in region_sets])
    return _overlap_curve_area(maps, region_sets, fpr_limit)


def pooled_pixel_scores(
    score_maps: list[np.ndarray], masks: list[PixelMask | None]
) -> LabeledScores:
    """Pool every pixel of every map into one LabeledScores set."""
    if not score_maps:
        raise MetricError("degenerate-labels", "no score maps to pool")
    scores = []
    labels = []
    for smap, mask in zip(score_maps, masks):
        flat = np.asarray(smap, dtype=np.float64).ravel()
        scores.append(flat)
        if mask is None:
            labels.append(np.zeros(flat.size, dtype=bool))
        else:
            labels.append(mask.bits.ravel())
    return LabeledScores(np.concatenate(scores), np.concatenate(labels))


@dataclass
class TaskMatrix:
    """Lower-triangular matrix of metric values: entry (l, j) is the
    metric on task j after training step l, 1-indexed, defined for l >= j."""

    k: int
    values: dict[tuple[int, int], float]

    def __post_init__(self):
        for (l, j), value in self.values.items():
            if not 1 <= j <= l <= self.k:
                raise MetricError(
                    "incomplete-matrix", f"entry ({l}, {j}) outside lower triangle"
                )
            if not 0.0 <= value <= 1.0:
                raise MetricError("incomplete-matrix", f"entry ({l}, {j}) not in [0, 1]")


@dataclass
class ForgettingResult:
    per_task: dict[int, float]
    mean: float


def forgetting_measure(matrix: TaskMatrix) -> ForgettingResult:
    """Best past performance minus final performance, per task and averaged.

    FM for task j after k steps is max over steps l in {j..k-1} of the
    matrix entry (l, j), minus entry (k, j); improvement shows up as
    negative forgetting. Defined for j < k; k >= 2 required.
    """
    k = matrix.k
    if k < 2:
        raise MetricError("single-task", "forgetting needs at least two tasks")
    for l in range(1, k + 1):
        for j in range(1, l + 1):
            if (l, j) not in matrix.values:
                raise MetricError("incomplete-matrix", f"missing entry ({l}, {j})")
    per_task = {}
    for j in range(1, k):
        best_past = max(matrix.values[(l, j)] for l in range(j, k))
        per_task[j] = best_past - matrix.values[(k, j)]
    mean = sum(per_task.values()) / len(per_task)
    return ForgettingResult(per_task=per_task, mean=mean)
