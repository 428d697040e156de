"""Independent brute-force oracles used to verify the fast implementations.

Everything here is written with plain Python loops, on purpose: these
are the reference computations the package's vectorized code paths are
checked against, so they must not share any code with them.
"""

from __future__ import annotations

import math
from itertools import combinations


def auroc_pairwise(scores, labels) -> float:
    """O(n^2) Mann-Whitney: ordered pairs count 1, tied pairs 0.5."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ap_stepsum(scores, labels) -> float:
    """Step-sum AP with thresholds at distinct descending scores."""
    thresholds = sorted(set(scores), reverse=True)
    total_pos = sum(1 for l in labels if l)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and not l)
        precision = tp / (tp + fp)
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def flood_fill_regions(mask) -> list[list[tuple[int, int]]]:
    """8-connected components of a 2-D boolean mask, DFS flood fill."""
    h = len(mask)
    w = len(mask[0])
    seen = [[False] * w for _ in range(h)]
    regions = []
    for y in range(h):
        for x in range(w):
            if not mask[y][x] or seen[y][x]:
                continue
            stack = [(y, x)]
            seen[y][x] = True
            pixels = []
            while stack:
                cy, cx = stack.pop()
                pixels.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny][nx] and not seen[ny][nx]:
                            seen[ny][nx] = True
                            stack.append((ny, nx))
            regions.append(pixels)
    return regions


def gaussian_filter_scipy(image, sigma) -> "np.ndarray":
    """``scipy.ndimage.gaussian_filter`` at its defaults (reflect, truncate 4).

    scipy is a test-only dependency, imported here on first use.
    """
    from scipy import ndimage

    return ndimage.gaussian_filter(image, sigma=sigma)


def render_reference(patch_map, image_h, image_w, patch_size, stride, smoothing_sigma):
    """The package's original map rendering, verbatim: four ``np.ix_``
    gathers of the full map weighted and summed in one expression, then
    ``gaussian_filter_scipy`` (skipped at sigma 0). Input checks are left
    out."""
    import numpy as np

    grid = np.asarray(patch_map, dtype=np.float64)
    gh, gw = grid.shape
    offset = (patch_size - 1) / 2.0

    def coords(n_pixels, n_cells):
        u = (np.arange(n_pixels, dtype=np.float64) - offset) / stride
        u = np.clip(u, 0.0, n_cells - 1.0)
        lo = np.floor(u).astype(np.int64)
        lo = np.minimum(lo, n_cells - 1)
        hi = np.minimum(lo + 1, n_cells - 1)
        return lo, hi, u - lo

    y0, y1, wy = coords(image_h, gh)
    x0, x1, wx = coords(image_w, gw)
    wy = wy[:, None]
    wx = wx[None, :]
    upsampled = (
        grid[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
        + grid[np.ix_(y0, x1)] * (1 - wy) * wx
        + grid[np.ix_(y1, x0)] * wy * (1 - wx)
        + grid[np.ix_(y1, x1)] * wy * wx
    )
    if smoothing_sigma > 0:
        upsampled = gaussian_filter_scipy(upsampled, smoothing_sigma)
    return upsampled


def reweight_reference(bank_vectors, test_vector, s_star, neighbor_index, b) -> float:
    """The package's original re-weighting, verbatim: the whole bank
    ranked by (distance, index) with ``np.lexsort``, the first b kept.
    Range checks and the b = 1 pass-through are left out."""
    import numpy as np

    test = np.asarray(test_vector, dtype=np.float64).ravel()
    rows = np.asarray(bank_vectors)
    d = np.sqrt(((rows.astype(np.float64, copy=False) - test) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(rows.shape[0]), d))
    hood = d[order[:b]]
    d_star = d[neighbor_index]
    shift = hood.max()
    weight = np.exp(d_star - shift) / np.sum(np.exp(hood - shift))
    return float((1.0 - weight) * s_star)


def label_scipy(bits) -> list["np.ndarray"]:
    """8-connected components as ascending flat pixel indices, in
    ``scipy.ndimage.label`` order (raster order of the first pixel)."""
    import numpy as np
    from scipy import ndimage

    labeled, count = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
    flat = labeled.ravel()
    return [np.flatnonzero(flat == k) for k in range(1, count + 1)]


def region_curve_area(maps, masks, fpr_limit, relative_saturation=None) -> float:
    """Exhaustive-threshold PRO/sPRO curve area, no interpolation shortcuts.

    ``relative_saturation`` (fraction of image area) applies the same
    clamped threshold rule to every region; None means each region
    saturates at its own size (plain PRO).
    """
    regions = []  # (image index, pixel list, saturation)
    normals = []  # (image index, y, x)
    values = set()
    for i, (smap, mask) in enumerate(zip(maps, masks)):
        h = len(smap)
        w = len(smap[0])
        mask_pixels = set()
        if mask is not None:
            for pixels in flood_fill_regions(mask):
                sat = len(pixels)
                if relative_saturation is not None:
                    sat = max(1, min(len(pixels), round(relative_saturation * h * w)))
                regions.append((i, pixels, sat))
                mask_pixels.update(pixels)
        for y in range(h):
            for x in range(w):
                values.add(smap[y][x])
                if (y, x) not in mask_pixels:
                    normals.append((i, y, x))
    points = [(0.0, 0.0)]
    for t in sorted(values, reverse=True):
        fp = sum(1 for (i, y, x) in normals if maps[i][y][x] >= t)
        fpr = fp / len(normals)
        total = 0.0
        for (i, pixels, sat) in regions:
            covered = sum(1 for (y, x) in pixels if maps[i][y][x] >= t)
            total += min(covered / sat, 1.0)
        points.append((fpr, total / len(regions)))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= fpr_limit:
            area += (x1 - x0) * (y0 + y1) / 2.0
        elif x0 < fpr_limit:
            y_at = y0 + (y1 - y0) * (fpr_limit - x0) / (x1 - x0)
            area += (fpr_limit - x0) * (y0 + y_at) / 2.0
            break
        else:
            break
    return area / fpr_limit


def nearest_bruteforce(bank_vectors, test_vectors) -> tuple[list[float], list[int]]:
    """Per test row: (Euclidean distance, index) of the nearest bank row.

    A double loop over (test row, bank row) pairs. Each squared distance
    is numpy's ``((t - b) ** 2).sum()`` on one float64 pair, the value the
    package's search must reproduce bit for bit; a strict ``<`` keeps the
    lowest index on ties.
    """
    import numpy as np

    bank = np.asarray(bank_vectors, dtype=np.float64)
    distances, indices = [], []
    for t in np.asarray(test_vectors, dtype=np.float64):
        best_d2, best_j = None, None
        for j, b in enumerate(bank):
            d2 = ((t - b) ** 2).sum()
            if best_d2 is None or d2 < best_d2:
                best_d2, best_j = d2, j
        distances.append(float(np.sqrt(best_d2)))
        indices.append(best_j)
    return distances, indices


def projection_reference(vectors, matrix) -> "np.ndarray":
    """The package's original projection, verbatim: the whole bank
    converted to float64, then one einsum."""
    import numpy as np

    return np.einsum("nd,od->no", np.asarray(vectors, dtype=np.float64), matrix)


def coreset_reference(points, l) -> tuple[list[int], "np.ndarray"]:
    """Farthest-first picks and final min_d2, recomputing every row per pick.

    The package's original broadcast loop, verbatim, over float64
    ``points``: seed index 0, then the argmax of min_d2 (lowest index on
    ties), each row's min_d2 lowered with numpy's ``((p - q) ** 2)``
    summed over the last axis, and -1 for picked rows.
    """
    import numpy as np

    points = np.asarray(points, dtype=np.float64)
    selected = [0]
    min_d2 = ((points - points[0]) ** 2).sum(axis=1)
    min_d2[0] = -1.0
    for _ in range(l - 1):
        idx = int(np.argmax(min_d2))
        selected.append(idx)
        cand = ((points - points[idx]) ** 2).sum(axis=1)
        np.minimum(min_d2, cand, out=min_d2)
        min_d2[idx] = -1.0
    return selected, min_d2


def _d2(a, b) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def greedy_kcenter(points, l) -> list[int]:
    """Reference greedy k-center: seed index 0, farthest-first, lowest
    index on ties."""
    selected = [0]
    while len(selected) < l:
        best_index = None
        best_dist = -1.0
        for i in range(len(points)):
            if i in selected:
                continue
            dmin = min(_d2(points[i], points[j]) for j in selected)
            if dmin > best_dist:
                best_dist = dmin
                best_index = i
        selected.append(best_index)
    return selected


def covering_radius(points, selected) -> float:
    return max(
        min(math.sqrt(_d2(p, points[j])) for j in selected) for p in points
    )


def optimal_kcenter_radius(points, l) -> float:
    """Exact optimal k-center covering radius by subset enumeration."""
    best = math.inf
    for subset in combinations(range(len(points)), l):
        radius = covering_radius(points, subset)
        best = min(best, radius)
    return best


def forgetting_direct(entries: dict, k: int) -> tuple[dict, float]:
    """Hand evaluation of max-past-minus-final forgetting."""
    per_task = {}
    for j in range(1, k):
        best = max(entries[(l, j)] for l in range(j, k))
        per_task[j] = best - entries[(k, j)]
    return per_task, sum(per_task.values()) / len(per_task)


def pixel_metrics_reference(score_maps, masks, pro_limit, spro_limit, saturations=None) -> dict:
    """A cell's four pixel metrics by the package's original code, verbatim.

    ``masks`` holds 2-D boolean arrays or None; ``saturations`` holds one
    saturation per image (None, an int pixel count or a relative float)
    for sPRO, or is None for the CLI's rule (plain per-region overlap at
    ``spro_limit``). Each metric maps to its value, or to the code of the
    ``MetricError`` it raised. Every pixel is pooled once per ranking
    metric, every distinct pooled score is swept for each region, and
    each mask is labelled once per region metric.
    """
    import numpy as np
    from scipy import ndimage

    from iadbench.errors import MetricError

    def labeled_scores(scores, labels):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        labels = np.asarray(labels).ravel().astype(bool)
        if scores.size == 0 or scores.size != labels.size:
            raise MetricError(
                "degenerate-labels",
                f"need equal nonzero lengths, got {scores.size} scores / {labels.size} labels",
            )
        if not np.all(np.isfinite(scores)):
            raise MetricError("degenerate-labels", "scores must be finite")
        return scores, labels

    def auroc(data):
        scores, labels = data
        pos = scores[labels]
        neg = scores[~labels]
        if pos.size == 0 or neg.size == 0:
            raise MetricError("degenerate-labels", "AUROC needs both classes present")
        neg_sorted = np.sort(neg)
        below = np.searchsorted(neg_sorted, pos, side="left")
        tied = np.searchsorted(neg_sorted, pos, side="right") - below
        u = float(below.sum()) + 0.5 * float(tied.sum())
        return u / (pos.size * neg.size)

    def average_precision(data):
        scores, labels = data
        total_pos = int(labels.sum())
        if total_pos == 0:
            raise MetricError("no-positives", "AP needs at least one positive")
        uniq, inverse = np.unique(scores, return_inverse=True)
        pos_at = np.bincount(inverse[labels], minlength=uniq.size)
        all_at = np.bincount(inverse, minlength=uniq.size)
        tp = np.cumsum(pos_at[::-1])
        seen = np.cumsum(all_at[::-1])
        precision = tp / seen
        recall = tp / total_pos
        steps = np.diff(recall, prepend=0.0)
        return float(np.sum(steps * precision))

    def connected_regions(bits, saturation=None):
        labeled, count = ndimage.label(bits, structure=np.ones((3, 3), dtype=int))
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
            regions.append((np.sort(pixels), sat))
        return bits.shape, regions

    def check_maps(maps, shapes):
        if len(maps) != len(shapes):
            raise MetricError("dim-mismatch", "score maps and ground truth counts differ")
        for smap, shape in zip(maps, shapes):
            if smap.shape != shape:
                raise MetricError("dim-mismatch", f"score map {smap.shape} vs ground truth {shape}")
            if not np.all(np.isfinite(smap)):
                raise MetricError("dim-mismatch", "score maps must be finite")

    def integrate_to_limit(xs, ys, limit):
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

    def overlap_curve_area(maps, region_sets, fpr_limit):
        if not 0.0 < fpr_limit <= 1.0:
            raise MetricError("no-regions", f"fpr_limit {fpr_limit} not in (0, 1]")
        region_scores = []
        normal_parts = []
        all_parts = []
        for smap, (_shape, regions) in zip(maps, region_sets):
            flat = np.asarray(smap, dtype=np.float64).ravel()
            anomalous = np.zeros(flat.size, dtype=bool)
            for pixels, sat in regions:
                anomalous[pixels] = True
                region_scores.append((np.sort(flat[pixels]), sat))
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
        return integrate_to_limit(xs, ys, fpr_limit)

    def mean_spro(maps, region_sets, fpr_limit):
        maps = [np.asarray(m, dtype=np.float64) for m in maps]
        check_maps(maps, [shape for shape, _regions in region_sets])
        return overlap_curve_area(maps, region_sets, fpr_limit)

    def aupro(maps, masks, fpr_limit):
        maps = [np.asarray(m, dtype=np.float64) for m in maps]
        if len(maps) != len(masks):
            raise MetricError("dim-mismatch", "score maps and masks counts differ")
        region_sets = [
            connected_regions(m) if m is not None else ((s.shape[0], s.shape[1]), [])
            for m, s in zip(masks, maps)
        ]
        return mean_spro(maps, region_sets, fpr_limit)

    def pooled():
        if not score_maps:
            raise MetricError("degenerate-labels", "no score maps to pool")
        scores, labels = [], []
        for smap, mask in zip(score_maps, masks):
            flat = np.asarray(smap, dtype=np.float64).ravel()
            scores.append(flat)
            labels.append(np.zeros(flat.size, dtype=bool) if mask is None else mask.ravel())
        return labeled_scores(np.concatenate(scores), np.concatenate(labels))

    def spro():
        if saturations is None:
            return aupro(score_maps, masks, spro_limit)
        region_sets = [
            connected_regions(mask, sat)
            if mask is not None
            else ((smap.shape[0], smap.shape[1]), [])
            for mask, sat, smap in zip(masks, saturations, score_maps)
        ]
        return mean_spro(score_maps, region_sets, spro_limit)

    out = {}
    for name, fn in (
        ("pixel_auroc", lambda: auroc(pooled())),
        ("pixel_ap", lambda: average_precision(pooled())),
        ("aupro", lambda: aupro(score_maps, masks, pro_limit)),
        ("mean_spro", spro),
    ):
        try:
            out[name] = fn()
        except MetricError as exc:
            out[name] = exc.code
    return out


def patch_vectors_reference(values, patch_size, stride) -> "np.ndarray":
    """The package's original feature extraction, verbatim: windows of a
    float64 image, flattened row-major, then cast to float32."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    values = np.asarray(values, dtype=np.float64)
    p, s = patch_size, stride
    windows = sliding_window_view(values, (p, p))[::s, ::s]
    return windows.reshape(windows.shape[0] * windows.shape[1], p * p).astype(np.float32)


def average_precision_reference(negatives, positives) -> float:
    """The package's original step-sum AP, verbatim, over the two classes'
    sorted scores: it copies the distinct negatives to place each distinct
    positive score among all distinct scores."""
    import numpy as np

    def run_starts(sorted_values):
        starts = np.empty(sorted_values.size, dtype=bool)
        starts[:1] = True
        np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
        return starts

    pos, neg = positives, negatives
    total_pos = pos.size
    starts = np.flatnonzero(run_starts(pos))[::-1]
    values = pos[starts]
    tp = total_pos - starts
    neg_below = np.searchsorted(neg, values, side="left")
    precision = tp / (tp + (neg.size - neg_below))
    recall = tp / total_pos
    steps = np.diff(recall, prepend=0.0)
    neg_distinct = neg[run_starts(neg)]
    shared = neg_below < neg.size
    shared[shared] = neg[neg_below[shared]] == values[shared]
    place = (
        np.arange(values.size)
        + (neg_distinct.size - np.searchsorted(neg_distinct, values, side="right"))
        - (np.cumsum(shared) - shared)
    )
    terms = np.zeros(values.size + neg_distinct.size - int(shared.sum()))
    terms[place] = steps * precision
    return float(np.sum(terms))


def integrate_to_limit_reference(xs, ys, limit) -> float:
    """The package's original clipped trapezoid integral, verbatim: the
    prefix's terms as whole-array expressions, then one sum."""
    import numpy as np

    n = int(np.count_nonzero(xs[1:] <= limit))
    x0, x1, y0, y1 = xs[:n], xs[1 : n + 1], ys[:n], ys[1 : n + 1]
    area = float(np.sum((x1 - x0) * (y0 + y1) * 0.5))
    x0, x1, y0, y1 = xs[n : n + 1], xs[n + 1 : n + 2], ys[n : n + 1], ys[n + 1 : n + 2]
    if x1.size and x0[0] < limit:
        y_at = y0 + (y1 - y0) * (limit - x0) / (x1 - x0)
        area += float(np.sum((limit - x0) * (y0 + y_at) * 0.5))
    return area / limit


def thresholds_to_limit_reference(normal, anomalous, fpr_limit) -> "np.ndarray":
    """The package's former merged threshold array: the distinct pooled
    scores, ascending, from the ``past``-th largest normal score up, where
    ``past`` is the fewest normal pixels with past / n > fpr_limit
    (every score when none is past the limit). Both sides' tails are
    concatenated, stable-sorted, and their repeats dropped."""
    import bisect

    import numpy as np

    n = normal.size
    past = bisect.bisect_right(range(n + 1), fpr_limit, key=lambda c: c / n)
    cut = normal[n - past] if past <= n else -np.inf
    kept = np.concatenate([normal[normal >= cut], anomalous[anomalous >= cut]])
    kept.sort(kind="stable")
    return kept[np.concatenate([[True], kept[1:] != kept[:-1]])] if kept.size else kept


def read_bank_file(path) -> tuple[int, "np.ndarray", "np.ndarray"]:
    """An IADB bank snapshot's (dim, task tags, float32 rows), read from
    the documented layout: magic ``IADB``, u16 version 1, u32 dim, u64
    count, count u32 task tags, then count x dim binary32 values, all
    little-endian. A malformed file raises the ``FormatError`` a reader
    of the format owes: ``truncated-file``, ``bad-magic`` or
    ``version-unsupported``."""
    import struct

    import numpy as np

    from iadbench.errors import FormatError

    header = struct.Struct("<4sHIQ")
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < header.size:
        raise FormatError("truncated-file", f"{path}: header incomplete")
    magic, version, dim, count = header.unpack_from(data)
    if magic != b"IADB":
        raise FormatError("bad-magic", f"{path}: expected IADB, got {magic!r}")
    if version != 1:
        raise FormatError("version-unsupported", f"{path}: version {version}")
    payload, tags_bytes = data[header.size :], count * 4
    if len(payload) != tags_bytes * (1 + dim):
        raise FormatError(
            "truncated-file",
            f"{path}: expected {tags_bytes * (1 + dim)} payload bytes, got {len(payload)}",
        )
    tags = np.frombuffer(payload[:tags_bytes], dtype="<u4").copy()
    vectors = np.frombuffer(payload[tags_bytes:], dtype="<f4").reshape(count, dim).copy()
    return dim, tags, vectors


def bank_from_grids(grids) -> "np.ndarray":
    """The float32 bank of feature grids: every grid's vectors, in (grid,
    row-major) order, concatenated."""
    import numpy as np

    return np.concatenate([g.vectors for g in grids], axis=0)
