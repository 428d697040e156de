"""Ranking and segmentation metrics plus the forgetting measure.

Ranking metrics use grouped thresholds at distinct scores: AUROC is the
Mann-Whitney statistic (tied pairs count half), and average precision is
the step sum AP = sum_n (R_n - R_{n-1}) * P_n with ties merged into one
step. Both read the two classes' scores sorted once. Region metrics
sweep the distinct score values as thresholds, track the per-region
overlap against pooled false-positive rate, and integrate the resulting
curve up to an FPR limit with linear interpolation between operating
points; the sweep stops at the first operating point past the limit,
the last one the integral reads.

Pixel metrics read a ``PixelPool``: every pixel of a set of maps, split
by the ground truth into sorted normal and anomalous sides, plus each
labelled region's scores. A pool is sized from the ground truth before
any map exists and fed one map at a time by ``PixelPool.add``, the only
way pixels enter it, so a caller need not hold its maps. ``aupro`` reads
a pool; ``mean_spro`` called with maps feeds them into one the same way.

No metric holds a copy of the pool. Their sums run over a term per
distinct score (AP) or per curve segment (the region sweeps), and each
is taken by ``_pairwise_sum``, which walks numpy's summation tree and
builds only its leaves of ``_SEGMENT_BLOCK`` terms, so it equals one
``np.sum`` over all of them bit for bit. Beyond the pool, AP holds a
few arrays per distinct positive score and one leaf; AUPRO and sPRO
hold a few arrays per anomalous pixel, one block of their thresholds
(``_ThresholdWalk``; no array holds them all) and one leaf of points
and terms.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .data import PixelMask
from .errors import MetricError

# default FPR integration limits of AUPRO (MVTec AD) and sPRO (MVTec LOCO)
DEFAULT_PRO_LIMIT = 0.3
DEFAULT_SPRO_LIMIT = 0.05

# elements per block or leaf of the metrics' block-at-a-time passes
_SEGMENT_BLOCK = 1 << 15
# numpy adds a float64 stretch of at most this many elements in one loop
_PAIRWISE_BLOCK = 128


class LabeledScores:
    """Per-item scores with binary labels (True = positive/anomalous).

    Kept as the two classes' scores, each sorted ascending:
    ``negatives`` and ``positives``.
    """

    def __init__(self, scores, labels):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        labels = np.asarray(labels).ravel().astype(bool)
        if scores.size == 0 or scores.size != labels.size:
            raise MetricError(
                "degenerate-labels",
                f"need equal nonzero lengths, got {scores.size} scores / {labels.size} labels",
            )
        if not np.all(np.isfinite(scores)):
            raise MetricError("degenerate-labels", "scores must be finite")
        self.negatives = scores[~labels]
        self.negatives.sort()
        self.positives = scores[labels]
        self.positives.sort()


def _run_starts(sorted_values: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """True where an element of a sorted array, or of its slice [lo, hi),
    differs from the one before it; the array's first always does."""
    hi = sorted_values.size if hi is None else hi
    starts = np.empty(hi - lo, dtype=bool)
    starts[:1] = lo == 0 or sorted_values[lo] != sorted_values[lo - 1]
    np.not_equal(sorted_values[lo + 1 : hi], sorted_values[lo : hi - 1], out=starts[1:])
    return starts


def auroc(data: LabeledScores) -> float:
    """Area under the ROC curve via the Mann-Whitney pair statistic."""
    pos, neg = data.positives, data.negatives
    if pos.size == 0 or neg.size == 0:
        raise MetricError("degenerate-labels", "AUROC needs both classes present")
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    u = float(below.sum()) + 0.5 * float(tied.sum())
    return u / (pos.size * neg.size)


def _pairwise_sum(n: int, block, lo: int = 0) -> float:
    """``np.sum`` of a virtual length-``n`` float64 array, bit for bit.

    ``block(a, b)`` builds the array's slice [a, b); ``lo`` is where
    the stretch being summed starts in it. numpy adds a 1-D
    float64 array pairwise: a stretch longer than ``_PAIRWISE_BLOCK``
    elements is the sum of its two halves, split at half its length
    rounded down to a multiple of 8, and a shorter one is added in one
    unrolled loop; the whole sum is then added to 0.0. So the stretches
    are split the same way down to leaves of at most ``_SEGMENT_BLOCK``
    elements, never splitting one numpy adds in a loop, and only the
    leaves are built. Each leaf's ``np.sum`` is its stretch's sum (plus
    0.0), and the halves are added as numpy adds them; a sum that is zero
    comes out +0.0 either way. An input of one leaf or less is one
    ``block`` call and one ``np.sum``. ``tests/test_metrics.py`` pins
    this tree against ``np.sum``.
    """
    if n <= max(_SEGMENT_BLOCK, _PAIRWISE_BLOCK):
        return float(np.sum(block(lo, lo + n)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(half, block, lo) + _pairwise_sum(n - half, block, lo + half)


def _distinct_upto(sorted_values: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, int]:
    """Distinct values in ``sorted_values[:end]`` for each of ``ends``
    (ascending), and in the whole array: each prefix's length less the
    repeats in it, found a block at a time."""
    counts = ends.copy()
    repeats = 0  # in the blocks before this one
    for lo in range(0, sorted_values.size, _SEGMENT_BLOCK):
        hi = min(lo + _SEGMENT_BLOCK, sorted_values.size)
        found = np.flatnonzero(~_run_starts(sorted_values, lo, hi))
        found += lo
        a, b = np.searchsorted(ends, (lo, hi), side="right")
        counts[a:b] -= repeats + np.searchsorted(found, ends[a:b], side="left")
        repeats += found.size
    return counts, sorted_values.size - repeats


def average_precision(data: LabeledScores) -> float:
    """Step-sum average precision over distinct descending score thresholds.

    The sum runs over one term per distinct score, in descending order.
    A threshold with no positive at it adds recall 0, so its term is an
    exact 0.0; only the distinct positive scores are computed, and each
    is placed where it falls among all distinct scores. ``np.sum`` of
    that array is taken a leaf at a time (``_pairwise_sum``), each leaf
    built as zeros plus the terms placed in it, so no array has a slot
    per distinct score.
    """
    pos, neg = data.positives, data.negatives
    total_pos = pos.size
    if total_pos == 0:
        raise MetricError("no-positives", "AP needs at least one positive")
    starts = np.flatnonzero(_run_starts(pos))[::-1]
    values = pos[starts]  # distinct positive scores, descending
    tp = total_pos - starts
    neg_below = np.searchsorted(neg, values, side="left")
    precision = tp / (tp + (neg.size - neg_below))
    recall = tp / total_pos
    terms = np.diff(recall, prepend=0.0)
    terms *= precision
    del starts, tp, precision, recall
    # distinct scores above each value: positive ones, plus negative ones,
    # minus the values both classes hold
    neg_upto = np.searchsorted(neg, values, side="right")
    distinct_upto, neg_distinct = _distinct_upto(neg, neg_upto[::-1])
    shared = neg_upto > neg_below
    place = (
        np.arange(values.size)
        + (neg_distinct - distinct_upto[::-1])
        - (np.cumsum(shared) - shared)
    )
    del neg_upto, distinct_upto, neg_below

    def leaf(a: int, b: int) -> np.ndarray:
        out = np.zeros(b - a)
        lo, hi = np.searchsorted(place, (a, b))
        out[place[lo:hi] - a] = terms[lo:hi]
        return out

    return _pairwise_sum(values.size + neg_distinct - int(shared.sum()), leaf)


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

    def saturated(self, saturation: int | float | None) -> RegionSet:
        """The same regions with saturation thresholds from ``saturation``.

        ``saturation`` may be an absolute pixel count (int) or an area
        fraction of the whole image (float in (0, 1]); either is clamped
        to [1, region area]. When absent, each region saturates at its
        own size, which makes the saturated overlap degrade to the plain
        per-region overlap.
        """
        regions = []
        for region in self.regions:
            area = region.area
            if saturation is None:
                sat = area
            elif isinstance(saturation, (int, np.integer)) and not isinstance(saturation, bool):
                sat = int(saturation)
            else:
                rel = float(saturation)
                if not 0.0 < rel <= 1.0:
                    raise MetricError("no-regions", f"relative saturation {rel} not in (0, 1]")
                # times the area, as one product: rel * h * w rounds twice
                # and can land on the other side of .5 (0.05 * 14 * 15)
                sat = int(round(rel * (self.height * self.width)))
            regions.append(Region(pixels=region.pixels, saturation=max(1, min(sat, area))))
        return RegionSet(self.height, self.width, regions)


def connected_regions(
    mask: PixelMask, saturation: int | float | None = None
) -> RegionSet:
    """Split a mask into 8-connected regions and attach saturation thresholds.

    Each region's pixels are its flat indices in ascending order; see
    ``RegionSet.saturated`` for ``saturation``.
    """
    regions = [
        Region(pixels=pixels, saturation=0) for pixels in _eight_connected_pixels(mask.bits)
    ]
    return RegionSet(mask.height, mask.width, regions).saturated(saturation)


def _eight_connected_pixels(bits: np.ndarray) -> list[np.ndarray]:
    """Each 8-connected component's ascending flat pixel indices.

    Components come in raster order of their first pixel, the numbering
    of ``ndimage.label`` with a 3 x 3 structure. Works on row runs:
    one shifted compare finds them all, over the mask laid out with a
    false cell after each row. A run touches exactly the runs of the row
    above that end at or after its start - 1 and start at or before its
    end, one contiguous stretch of the raster-ordered runs found with two
    binary searches. Union-find then joins runs, never pixels; each root
    is its component's first run.
    """
    height, width = bits.shape
    stride = width + 1
    # one false cell ahead of the mask, one after each row
    padded = np.zeros(height * stride + 1, dtype=bool)
    padded[1:].reshape(height, stride)[:, :width] = bits
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = edges[0::2], edges[1::2]  # padded flat index, end exclusive
    # (above, below) run pairs: run `below` touches runs first .. first+touching-1
    first = np.searchsorted(ends, starts - stride, side="left")
    touching = np.maximum(np.searchsorted(starts, ends - stride, side="right") - first, 0)
    below = np.repeat(np.arange(starts.size), touching)
    above = np.arange(below.size) - np.repeat(np.cumsum(touching) - touching - first, touching)
    parent = list(range(starts.size))
    for a, b in zip(above.tolist(), below.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # a parent always precedes its child, so one raster pass resolves roots
    for run, up in enumerate(parent):
        parent[run] = parent[up]
    root = np.asarray(parent, dtype=np.intp)
    is_root = root == np.arange(root.size)
    label = (np.cumsum(is_root) - 1)[root]  # rank of the component's first run
    count = int(is_root.sum())
    order = np.argsort(label, kind="stable")
    lengths = (ends - starts)[order]
    offsets = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    image_starts = starts - starts // stride  # drop one padding cell per row
    pixels = np.arange(total, dtype=np.intp) + np.repeat(
        image_starts[order] - offsets, lengths
    )
    bounds = np.append(offsets[np.searchsorted(label[order], np.arange(count))], total)
    return [pixels[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def mask_regions(
    masks: list[PixelMask | None], shapes: list[tuple[int, int]]
) -> list[RegionSet]:
    """Each mask's 8-connected regions, saturating at their own area.

    A None mask has no regions and takes its map's shape from ``shapes``;
    a mask gives its own. Unequal counts raise ``dim-mismatch``.
    """
    if len(masks) != len(shapes):
        raise MetricError("dim-mismatch", "score maps and ground truth counts differ")
    return [
        connected_regions(m) if m is not None else RegionSet(shape[0], shape[1], [])
        for m, shape in zip(masks, shapes)
    ]


def _in_regions(rset: RegionSet) -> np.ndarray:
    """Flat boolean map of the pixels in any of the set's regions."""
    inside = np.zeros(rset.height * rset.width, dtype=bool)
    for region in rset.regions:
        inside[region.pixels] = True
    return inside


class PixelPool(LabeledScores):
    """Every pixel of a cell's score maps, pooled as each map arrives.

    Sized from the ground truth before any map exists: one region set per
    map gives its shape, its anomalous pixels (those in any region) and
    its labelled regions. ``add`` takes the maps in order and keeps none
    of them: a map's normal pixels go into the next slice of
    ``negatives`` and its anomalous ones into ``positives``, both in
    pixel order, and each region's scores are gathered, sorted, into
    ``region_scores``. As the last map arrives both sides are sorted in
    place and checked finite, once. Pixel AUROC and AP read
    ``ranked()``; ``aupro`` and ``mean_spro`` read the sorted sides as
    their normal and anomalous pixels and ``region_scores`` as their
    regions', so the maps are pooled and labelled once for all four.
    """

    def __init__(self, region_sets: list[RegionSet]):
        self.regions = region_sets
        self.region_scores: list[np.ndarray] = []  # per region, in region order
        total = sum(rset.height * rset.width for rset in region_sets)
        anomalous = sum(int(np.count_nonzero(_in_regions(rset))) for rset in region_sets)
        self.negatives = np.empty(total - anomalous)
        self.positives = np.empty(anomalous)
        self._finite = True
        self._added = 0
        self._filled = (0, 0)  # negatives and positives written so far

    def add(self, score_map: np.ndarray) -> None:
        """Pool the next map; a surplus or wrong-shaped one raises ``dim-mismatch``.

        Whether the pixels are finite is checked only as the metrics read
        the pool, since each metric reports it under its own code.
        """
        smap = np.asarray(score_map, dtype=np.float64)
        if self._added == len(self.regions):
            raise MetricError("dim-mismatch", "score maps and ground truth counts differ")
        rset = self.regions[self._added]
        shape = (rset.height, rset.width)
        if smap.shape != shape:
            raise MetricError("dim-mismatch", f"score map {smap.shape} vs ground truth {shape}")
        self._added += 1
        flat = smap.ravel()
        inside = _in_regions(rset)
        anomalous = int(np.count_nonzero(inside))
        neg, pos = self._filled
        self.negatives[neg : neg + flat.size - anomalous] = flat[~inside]
        self.positives[pos : pos + anomalous] = flat[inside]
        self._filled = neg + flat.size - anomalous, pos + anomalous
        self.region_scores.extend(np.sort(flat[region.pixels]) for region in rset.regions)
        if self._added == len(self.regions):
            self.negatives.sort()
            self.positives.sort()
            # NaN sorts last, so the ends show any non-finite pixel
            self._finite = all(
                side.size == 0 or (-np.inf < side[0] and side[-1] < np.inf)
                for side in (self.negatives, self.positives)
            )

    def _check_complete(self) -> None:
        if self._added != len(self.regions):
            raise MetricError("dim-mismatch", "score maps and ground truth counts differ")

    def ranked(self) -> PixelPool:
        """This pool for pixel AUROC and AP, once every map is in and finite."""
        if self._added == 0:
            raise MetricError("degenerate-labels", "no score maps to pool")
        self._check_complete()
        if self.negatives.size + self.positives.size == 0:
            raise MetricError("degenerate-labels", "no pixels to pool")
        if not self._finite:
            raise MetricError("degenerate-labels", "scores must be finite")
        return self

    def check_maps(self, region_sets: list[RegionSet]) -> None:
        """Raise what ``mean_spro`` raises for the pooled maps against ``region_sets``."""
        self._check_complete()
        if [(rs.height, rs.width, len(rs.regions)) for rs in region_sets] != [
            (rs.height, rs.width, len(rs.regions)) for rs in self.regions
        ]:
            raise MetricError("dim-mismatch", "region sets differ from the pooled ground truth")
        if not self._finite:
            raise MetricError("dim-mismatch", "score maps must be finite")


class _ThresholdWalk:
    """The thresholds a region sweep reads, a block at a time.

    They are the distinct pooled scores from the cut up, ascending. The
    FPR at threshold t is (normal pixels >= t) / n. The first operating
    point past the limit needs ``past`` normal pixels at or above it,
    the fewest with past / n > fpr_limit; the largest pooled score that
    has them is the ``past``-th largest normal score, the ``cut``. The
    integral reads no operating point after that one. Nothing is past a
    limit of 1.

    No array holds them all. The kept range is split by value at pivots,
    every ``_SEGMENT_BLOCK // 2``-th score of each side's kept tail, so
    equal scores never straddle two blocks and no block holds more than
    a leaf of thresholds. Block i holds the scores of
    ``normal[normal_at[i]:normal_at[i + 1]]`` and of the same slice of
    ``anomalous`` by ``anomalous_at``; its thresholds are their distinct
    values, merged (``block``). One pass from the top block down counts
    them: block i's first threshold is ``firsts[i]`` of ``k``. The same
    pass gives ``entries``: for each kept anomalous score
    (``anomalous[tail:]``), the thresholds above it. The block last
    built is kept, so a sweep of one block merges once.
    """

    def __init__(self, normal: np.ndarray, anomalous: np.ndarray, fpr_limit: float):
        n = normal.size
        past = bisect.bisect_right(range(n + 1), fpr_limit, key=lambda c: c / n)
        self.cut = normal[n - past] if past <= n else -np.inf
        self.normal, self.anomalous = normal, anomalous
        low = int(np.searchsorted(normal, self.cut))
        self.tail = int(np.searchsorted(anomalous, self.cut))
        step = _SEGMENT_BLOCK // 2
        lowest = normal[low]
        if self.tail < anomalous.size:
            lowest = min(lowest, anomalous[self.tail])
        # block i holds the kept scores in [pivots[i], pivots[i + 1]): the
        # first pivot is the lowest kept score, the last +inf, above every
        # score of a finite pool
        pivots = np.concatenate(
            [[lowest], normal[low + step :: step], anomalous[self.tail + step :: step], [np.inf]]
        )
        pivots.sort()
        pivots = pivots[_run_starts(pivots)]
        self.normal_at = np.searchsorted(normal, pivots)
        self.anomalous_at = np.searchsorted(anomalous, pivots)
        self._built: tuple[int, np.ndarray | None] = (-1, None)
        self.entries = np.empty(anomalous.size - self.tail, dtype=np.intp)
        self.firsts = np.zeros(pivots.size, dtype=np.intp)
        above = 0
        for i in range(pivots.size - 2, -1, -1):
            thresholds = self.block(i)
            a, b = self.anomalous_at[i : i + 2]
            found = np.searchsorted(thresholds, anomalous[a:b], side="right")
            a, b = a - self.tail, b - self.tail
            np.subtract(above + thresholds.size, found, out=self.entries[a:b])
            above += thresholds.size
            self.firsts[i + 1] = thresholds.size
        self.k = above
        np.cumsum(self.firsts, out=self.firsts)

    def block(self, i: int) -> np.ndarray:
        """Block i's thresholds, ascending."""
        if self._built[0] != i:
            self._built = (-1, None)  # freed before the next is made
            (n0, n1), (a0, a1) = self.normal_at[i : i + 2], self.anomalous_at[i : i + 2]
            merged = np.concatenate([self.normal[n0:n1], self.anomalous[a0:a1]])
            merged.sort(kind="stable")  # two sorted runs: one merge
            self._built = (i, merged[_run_starts(merged)])
        return self._built[1]

    def false_positives(self, lo: int, hi: int) -> np.ndarray:
        """Normal scores at or above each of thresholds lo to hi - 1.

        Each block, from the top down, is searched in its own normal
        slice: every normal score before the slice is below the block.
        """
        out = np.empty(hi - lo, dtype=np.intp)
        i = int(np.searchsorted(self.firsts, hi - 1, side="right")) - 1
        while hi > lo:
            first = self.firsts[i]
            a = max(lo, first)
            start, stop = self.normal_at[i : i + 2]
            found = np.searchsorted(self.normal[start:stop], self.block(i)[a - first : hi - first])
            np.subtract(self.normal.size - start, found, out=out[a - lo : hi - lo])
            hi, i = a, i - 1
        return out


def _overlap_curve_area(pool: PixelPool, region_sets: list[RegionSet], fpr_limit: float) -> float:
    """Shared threshold sweep behind aupro and mean_spro.

    Thresholds are the distinct score values pooled over every map, in
    descending order; the predicted set at threshold t is {score >= t}.
    The curve starts at the synthetic empty-prediction point (0, 0) and
    is integrated over [0, fpr_limit], normalized by the limit. Only the
    thresholds the integral reads are swept, a block at a time
    (``_ThresholdWalk``). Regions are the pool's, with the saturations
    of ``region_sets``.
    """
    if not 0.0 < fpr_limit <= 1.0:
        raise MetricError("no-regions", f"fpr_limit {fpr_limit} not in (0, 1]")
    saturations = [region.saturation for rset in region_sets for region in rset.regions]
    if not saturations:
        raise MetricError("no-regions", "no ground-truth regions in the evaluation set")
    normal, anomalous = pool.negatives, pool.positives
    if normal.size == 0:
        raise MetricError("no-normal-pixels", "no normal pixels in the evaluation set")

    walk = _ThresholdWalk(normal, anomalous, fpr_limit)
    k = walk.k
    # A pixel is covered from the threshold equal to its score on: in
    # descending order, the index that counts the thresholds above it
    # (``entries``), or k if it is below every kept one.
    # Coverage changes only at those indices, so the overlap is summed,
    # region by region as before, once per stretch between two of them
    # and then repeated over the stretch. The regions' pixels are the
    # anomalous side, so the stretches start at 0 and at each distinct
    # entry; a region's coverage over them is a running count of its
    # entries at each start.
    ascending = walk.entries[::-1]
    starts = np.concatenate([[0], ascending[_run_starts(ascending) & (ascending > 0)]])
    overlap = np.zeros(starts.size + 1, dtype=np.float64)  # the (0, 0) point first
    for scores, sat in zip(pool.region_scores, saturations):
        kept = scores[np.searchsorted(scores, walk.cut) :]
        entered = walk.entries[np.searchsorted(anomalous, kept) - walk.tail]
        covered = np.bincount(np.searchsorted(starts, entered), minlength=starts.size)
        share = np.cumsum(covered, out=covered) / sat
        overlap[1:] += np.minimum(share, 1.0, out=share)
    overlap /= len(saturations)
    # the curve's points: (0, 0), then one per threshold, descending. Point
    # j > 0 has the overlap of the stretch holding j - 1, so overlap[t] is
    # the y of the points before ends[t] and from ends[t - 1] on
    ends = np.append(starts + 1, k + 1)

    def points(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        first = max(a, 1)  # point j > 0 is threshold k - j
        false_pos = walk.false_positives(k - b + 1, k - first + 1)
        xs = np.empty(b - a, dtype=np.float64)
        xs[: first - a] = 0.0
        np.divide(false_pos[::-1], normal.size, out=xs[first - a :])
        del false_pos
        lo, hi = np.searchsorted(ends, (a, b - 1), side="right")
        held = np.diff(np.clip(ends[lo : hi + 1], a, b), prepend=a)
        return xs, np.repeat(overlap[lo : hi + 1], held)

    return _integrate_to_limit(k + 1, points, fpr_limit)


def _integrate_to_limit(size: int, points, limit: float) -> float:
    """Trapezoidal area under a piecewise-linear curve, clipped to [0, limit].

    The curve has ``size`` points, and ``points(a, b)`` gives the xs and
    ys of points a to b - 1, so no caller holds the whole curve. ``xs``
    never decreases, so the segments that end inside the limit are a
    prefix, and only the segment after it can straddle the limit. The
    points past the limit are counted a block at a time from the end:
    a region sweep has at most one (``_ThresholdWalk``), so one
    block does. The prefix's terms (x1 - x0) * (y0 + y1) * 0.5 are
    formed a leaf at a time and added as one ``np.sum`` over them all
    would add them (``_pairwise_sum``). A curve of one block is formed
    once and sliced.
    """
    if size <= _SEGMENT_BLOCK:
        curve_xs, curve_ys = points(0, size)

        def points(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
            return curve_xs[a:b], curve_ys[a:b]

    n = 0
    for b in range(size, 1, -_SEGMENT_BLOCK):
        a = max(b - _SEGMENT_BLOCK, 1)
        inside = int(np.count_nonzero(points(a, b)[0] <= limit))
        if inside:
            n = a - 1 + inside  # every point before a is inside too
            break

    def terms(a: int, b: int) -> np.ndarray:
        xs, ys = points(a, b + 1)
        out = np.subtract(xs[1:], xs[:-1])
        del xs
        out *= ys[:-1] + ys[1:]
        out *= 0.5
        return out

    area = _pairwise_sum(n, terms)
    xs, ys = points(n, min(n + 2, size))
    x0, x1, y0, y1 = xs[:1], xs[1:], ys[:1], ys[1:]
    if x1.size and x0[0] < limit:
        y_at = y0 + (y1 - y0) * (limit - x0) / (x1 - x0)
        area += float(np.sum((limit - x0) * (y0 + y_at) * 0.5))
    return area / limit


def aupro(pool: PixelPool, fpr_limit: float = DEFAULT_PRO_LIMIT) -> float:
    """Area under the per-region-overlap curve up to ``fpr_limit``.

    ``pool`` holds the score maps, labelled by the 8-connected regions of
    each mask (``mask_regions``); a map without regions contributes only
    normal pixels. The false-positive rate pools normal pixels across
    every map. This is ``mean_spro`` with each region saturating at its
    own area.
    """
    return mean_spro(None, pool.regions, fpr_limit, pool=pool)


def mean_spro(
    score_maps: list[np.ndarray] | None,
    region_sets: list[RegionSet],
    fpr_limit: float = DEFAULT_SPRO_LIMIT,
    pool: PixelPool | None = None,
) -> float:
    """Area under the saturated per-region-overlap curve up to ``fpr_limit``.

    Per threshold, each region contributes min(|A ∩ P| / s, 1); with
    s equal to the region area this reduces exactly to the plain
    per-region overlap. ``pool``, if given, is a ``PixelPool`` of these
    maps whose regions are ``region_sets`` (saturations aside);
    ``score_maps`` is then not read, and may be None. Without it the
    maps are fed into a pool of ``region_sets`` here.
    """
    if pool is None:
        pool = PixelPool(region_sets)
        for smap in score_maps:
            pool.add(smap)
    pool.check_maps(region_sets)
    return _overlap_curve_area(pool, region_sets, fpr_limit)


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
