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
