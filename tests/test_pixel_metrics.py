"""The cell's pixel metrics against the original implementation, bit for bit.

``oracles.pixel_metrics_reference`` is the package's original code for
pixel AUROC, pixel AP, AUPRO and sPRO, copied verbatim. The runner's
``_cell_metrics`` and the calls ``iadbench metrics`` makes on its pool
must return ``==``-equal values and the same ``MetricError`` codes on
every input.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadbench import metrics
from iadbench.data import ABNORMAL, NORMAL, Dataset, ImageGrid, PixelMask, Sample
from iadbench.detector import MemoryBank
from iadbench.errors import MetricError
from iadbench.features import FeatureProviderConfig
from iadbench.metrics import (
    PixelPool,
    aupro,
    auroc,
    average_precision,
    mask_regions,
)
from iadbench.runner import DetectorState, _cell_metrics, _not_continual, evaluate, parse_config
from oracles import pixel_metrics_reference

PIXEL_METRICS = ["pixel_auroc", "pixel_ap", "aupro", "mean_spro"]

# relative saturations: a floor that clamps to one pixel, typical areas,
# and the whole image, which clamps to each region's area
SATURATIONS = {"tiny": 0.001, "small": 0.05, "half": 0.5, "whole": 1.0}
LIMITS = st.sampled_from([0.3, 1.0, 0.05, 0.5]) | st.floats(0.01, 1.0)


def _config(pro_limit, spro_limit):
    return parse_config(
        {
            "dataset": {
                "synthetic": {
                    "categories": 1,
                    "normals_train": 1,
                    "normals_test": 1,
                    "abnormals_test": 1,
                    "image_size": 16,
                }
            },
            "setting": {"type": "unsupervised"},
            "metrics": {"names": PIXEL_METRICS, "pro_limit": pro_limit, "spro_limit": spro_limit},
            "seed": 0,
        }
    )


@st.composite
def separate_regions(draw, shape):
    """A mask of five or more 8-connected regions, and a mask of some of their pixels.

    Each region lies in the top-left 2 x 2 of its own 3 x 3 cell, so a
    pixel-wide gap keeps every pair of regions apart.
    """
    corners = [(r, c) for r in range(0, shape[0] - 1, 3) for c in range(0, shape[1] - 1, 3)]
    chosen = draw(
        st.lists(st.sampled_from(corners), min_size=5, max_size=len(corners), unique=True)
    )
    mask = np.zeros(shape, bool)
    low = np.zeros(shape, bool)
    for r, c in chosen:
        block = np.array(draw(st.lists(st.booleans(), min_size=4, max_size=4))).reshape(2, 2)
        block[0, 0] = True
        mask[r : r + 2, c : c + 2] = block
        part = draw(st.sampled_from(["none", "corner", "all"]))
        if part == "corner":
            low[r, c] = True
        elif part == "all":
            low[r : r + 2, c : c + 2] = block
    return mask, low


@st.composite
def cells(draw):
    """Score maps with many ties, masks (some absent), defect types and limits.

    One draw in four has 10-16 px maps, and there most masks hold five or
    more separate regions, some of whose pixels score below every other
    pixel: below every threshold kept short of a limit under 1.
    """
    n = draw(st.integers(1, 4))
    same_shape = draw(st.booleans())
    big = draw(st.integers(0, 3)) == 0
    sides = st.integers(10, 16) if big else st.integers(1, 6)
    kinds = ["none", "empty", "full", "bits", "bits", "bits"] + ["regions"] * (12 if big else 0)
    shape = (draw(sides), draw(sides))
    levels = draw(st.sampled_from([1, 2, 3, 5, 40]))  # 1 makes every map constant
    maps, masks, defects = [], [], []
    for _ in range(n):
        if not same_shape:
            shape = (draw(sides), draw(sides))
        size = shape[0] * shape[1]
        values = draw(st.lists(st.integers(0, levels - 1), min_size=size, max_size=size))
        maps.append(np.array(values, dtype=np.float64).reshape(shape) / 7.0)
        kind = draw(st.sampled_from(kinds))
        if kind == "regions":
            mask, low = draw(separate_regions(shape))
            maps[-1][low] = -1.0 / 7.0
            masks.append(mask)
        elif kind == "bits":
            bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            masks.append(np.array(bits).reshape(shape))
        else:
            masks.append(None if kind == "none" else np.full(shape, kind == "full"))
        defects.append(draw(st.sampled_from([*SATURATIONS, "unlisted"])))
    if draw(st.integers(0, 19)) == 7:  # one map in twenty is not finite
        maps[draw(st.integers(0, n - 1))].flat[0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return maps, masks, defects, draw(LIMITS), draw(LIMITS)


@st.composite
def wide_cells(draw):
    """Maps of 16-40 px on 50-5,000 levels, so that the sweeps and the AP
    sum run over hundreds of distinct scores; masks of scattered pixels
    (many small regions), or one in four none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(50, 5000))
    maps, masks, defects = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        shape = (draw(st.integers(16, 40)), draw(st.integers(16, 40)))
        maps.append(rng.integers(0, levels, shape) / levels)
        density = draw(st.floats(0.0, 0.3))
        masks.append(rng.random(shape) < density if draw(st.integers(0, 3)) else None)
        defects.append(draw(st.sampled_from([*SATURATIONS, "unlisted"])))
    return maps, masks, defects, draw(LIMITS), draw(LIMITS)


def _cell_pool(test, maps):
    """The samples' pixel pool fed these maps one at a time, as ``evaluate`` feeds it."""
    pool = PixelPool(mask_regions([s.mask for s in test], [s.image.values.shape for s in test]))
    for smap in maps:
        pool.add(smap)
    return pool


def _cell_test(images, masks, defects):
    """One category's test samples and its dataset."""
    test = [
        Sample(
            id=f"s{i}",
            image=ImageGrid(image),
            label=ABNORMAL if mask is not None and mask.any() else NORMAL,
            mask=None if mask is None else PixelMask(mask),
            defect_type=defect,
            category="c",
        )
        for i, (image, mask, defect) in enumerate(zip(images, masks, defects))
    ]
    return test, Dataset(["c"], {}, {"c": test}, {"c": dict(SATURATIONS)})


def _cell_inputs(maps, masks, defects, pro_limit, spro_limit):
    """``_cell_metrics``'s arguments for one category of these maps."""
    test, dataset = _cell_test([np.zeros(m.shape, np.uint8) for m in maps], masks, defects)
    pool = _cell_pool(test, maps)
    config = _config(pro_limit, spro_limit)
    return config, dataset, "c", test, [0.0] * len(test), pool, _not_continual


def _cell(*args):
    values, reasons = _cell_metrics(*_cell_inputs(*args))
    return {name: reasons.get(name, values[name]) for name in PIXEL_METRICS}


# N = 10 normal pixels: the operating point FPR = 3/10 is exactly the limit 0.3
_ON_POINT = (
    [np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0],
    [np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]], bool)],
    ["small"],
    0.3,
    0.3,
)
# limit 1: nothing is past it, so thresholds below every normal pixel
# count too; here they add zero-width segments that regroup np.sum
_BELOW_NORMALS = (
    [np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0],
    [np.array([[1, 1, 0, 0, 0, 0]] + [[0] * 6] * 2 + [[0, 0, 0, 0, 1, 1]], bool)],
    ["whole"],
    1.0,
    1.0,
)


@settings(max_examples=300, deadline=None)
@given(cells())
@example(_ON_POINT)
@example(_BELOW_NORMALS)
def test_cell_pixel_metrics_match_reference(cell):
    maps, masks, defects, pro_limit, spro_limit = cell
    saturations = [SATURATIONS.get(d) for d in defects]
    expected = pixel_metrics_reference(maps, masks, pro_limit, spro_limit, saturations)
    assert _cell(maps, masks, defects, pro_limit, spro_limit) == expected


@settings(max_examples=100, deadline=None)
@given(wide_cells(), st.sampled_from([128, 129]))
def test_small_leaf_pixel_metrics_match_reference(cell, leaf):
    """``==`` the original code with blocks and summation leaves of
    ``leaf`` elements, so the sums of AP and of the curves span leaves."""
    maps, masks, defects, pro_limit, spro_limit = cell
    saturations = [SATURATIONS.get(d) for d in defects]
    expected = pixel_metrics_reference(maps, masks, pro_limit, spro_limit, saturations)
    saved = metrics._SEGMENT_BLOCK
    metrics._SEGMENT_BLOCK = leaf
    try:
        got = _cell(maps, masks, defects, pro_limit, spro_limit)
    finally:
        metrics._SEGMENT_BLOCK = saved
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(cells())
@example(_ON_POINT)
@example(_BELOW_NORMALS)
def test_cli_pixel_metrics_match_reference(cell):
    """The CLI's calls: one pool fed map by map, and mean_spro as plain
    overlap at the sPRO limit."""
    maps, masks, _defects, pro_limit, spro_limit = cell
    expected = pixel_metrics_reference(maps, masks, pro_limit, spro_limit)
    if any(isinstance(v, str) for v in expected.values()):
        return  # the CLI stops at the first error; the runner test covers codes
    pixel_masks = [None if m is None else PixelMask(m) for m in masks]
    pool = PixelPool(mask_regions(pixel_masks, [m.shape for m in maps]))
    for smap in maps:
        pool.add(smap)
    assert {
        "pixel_auroc": auroc(pool.ranked()),
        "pixel_ap": average_precision(pool.ranked()),
        "aupro": aupro(pool, pro_limit),
        "mean_spro": aupro(pool, spro_limit),
    } == expected


@pytest.mark.parametrize(
    "pro_limit, spro_limit, bytes_per_pixel",
    [(0.3, 0.05, 28), (1.0, 1.0, 44)],  # the runner's defaults; a sweep of every threshold
)
def test_cell_pixel_metrics_peak_memory(pro_limit, spro_limit, bytes_per_pixel):
    """Traced peak of the pass on 16 maps of 256 x 256 (1,048,576 distinct scores).

    The maps are made inside the trace and fed to the pool one at a time,
    as a cell renders them, so they count. The pool is 8 bytes a pixel;
    the rest is the pass's own transients. The pass peaks at 9.7 bytes a
    pixel at both limit pairs, while the pool is filled; with the region
    sweeps' kept thresholds in one array it peaked at 11.3 and 17.2, with
    a zero-padded AP array and whole-curve xs and ys too at 16.7 and
    32.9, and holding the maps and pooling them at once at 32.4 and 56.2.
    """
    rng = np.random.default_rng(0)
    masks = []
    for i in range(16):
        mask = np.zeros((256, 256), bool)
        for y, x in rng.integers(0, 236, (3 * (i % 4 > 0), 2)):
            mask[y : y + 12, x : x + 15] = True
        masks.append(mask)
    images = [np.zeros(m.shape, np.uint8) for m in masks]
    test, dataset = _cell_test(images, masks, ["small"] * len(masks))
    tracemalloc.start()
    try:
        pool = _cell_pool(test, (rng.random((256, 256)) + 0.3 * mask for mask in masks))
        values, reasons = _cell_metrics(
            _config(pro_limit, spro_limit), dataset, "c", test, [0.0] * len(test), pool,
            _not_continual,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not reasons and all(values[name] is not None for name in PIXEL_METRICS)
    assert peak <= bytes_per_pixel * sum(m.size for m in masks)


def _large_pool():
    """16 maps of 256 x 256 with three 12 x 15 defects in most: 1,048,576
    distinct scores, of them 1,042,096 normal."""
    rng = np.random.default_rng(0)
    masks = []
    for i in range(16):
        mask = np.zeros((256, 256), bool)
        for y, x in rng.integers(0, 236, (3 * (i % 4 > 0), 2)):
            mask[y : y + 12, x : x + 15] = True
        masks.append(mask)
    pool = PixelPool(mask_regions([PixelMask(m) for m in masks], [m.shape for m in masks]))
    for mask in masks:
        pool.add(rng.random(mask.shape) + 0.3 * mask)
    return pool


@pytest.mark.parametrize(
    "metric, share",
    [("pixel_ap", 0.15), ("aupro_0.05", 0.15), ("aupro_0.3", 0.2), ("aupro_1", 0.25)],
)
def test_pixel_metric_peak_memory(metric, share):
    """Traced peak of one metric over a pool it is given, as a share of
    the pool's normal side. Average precision holds its per-positive
    arrays and one leaf; AUPRO, at any limit, a few arrays per anomalous
    pixel, one block of thresholds and one leaf. It read 0.150, 0.401 and
    1.139 at limits 0.05, 0.3 and 1 while it held every kept threshold
    in one array (about 0.05, 0.3 and 1 of the normal pixels). A
    zero-padded array of every distinct score's term, or whole-curve xs
    and ys, would cost more than the normal side itself. What the metric
    leaves held once it returns, with the cycle collector off, is near
    nothing: no temporary waits for it (a self-referencing closure would
    keep the thresholds)."""
    pool = _large_pool()
    run = {
        "pixel_ap": lambda: average_precision(pool.ranked()),
        "aupro_0.05": lambda: aupro(pool, 0.05),
        "aupro_0.3": lambda: aupro(pool, 0.3),
        "aupro_1": lambda: aupro(pool, 1.0),
    }[metric]
    gc.disable()
    tracemalloc.start()
    try:
        run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= share * pool.negatives.nbytes
    assert held <= 0.01 * pool.negatives.nbytes


def test_cell_render_peak_memory():
    """Traced peak of one 256 px cell's 16 maps, from rendering to its metrics.

    ``evaluate`` sizes the pool first, then feeds each map into it as it
    is rendered and drops it, so rendering peaks at the pool plus one
    map's scratch (seven maps here; one map more if the last map were
    kept while the next renders) and the metrics start with
    only the pool and its region scores alive. A list of maps alongside
    the pool would add sixteen.
    """
    rng = np.random.default_rng(0)
    bank = MemoryBank(rng.integers(0, 256, (32, 64), dtype=np.uint8))
    state = DetectorState(bank, FeatureProviderConfig(8, 8), 2, 2.0)
    masks = [None] * 16
    for i in range(1, 16, 2):
        masks[i] = np.zeros((256, 256), bool)
        masks[i][40 + 5 * i : 70 + 5 * i, 100:140] = True
    images = [rng.integers(0, 256, (256, 256), dtype=np.uint8) for _ in masks]
    test, dataset = _cell_test(images, masks, ["small"] * 16)
    map_bytes = 256 * 256 * 8
    tracemalloc.start()
    try:
        image_scores, pool, _ = evaluate(state, test)
        held, render_peak = tracemalloc.get_traced_memory()
        values, reasons = _cell_metrics(
            _config(0.3, 0.05), dataset, "c", test, image_scores, pool, _not_continual
        )
    finally:
        tracemalloc.stop()
    assert not reasons and all(values[name] is not None for name in PIXEL_METRICS)
    pool_bytes = pool.negatives.nbytes + pool.positives.nbytes
    assert pool_bytes == 16 * map_bytes
    assert render_peak <= pool_bytes + 7.5 * map_bytes
    assert held <= pool_bytes + map_bytes


def _code(fn):
    try:
        return fn()
    except MetricError as exc:
        return exc.code


def _non_finite(value):
    """Two maps and masks, the second map holding ``value`` in one pixel."""
    maps = [np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0 for _ in range(2)]
    maps[1][1, 2] = value
    masks = [np.eye(3, 4, dtype=bool), np.zeros((3, 4), bool)]
    return maps, masks, ["small", "small"], 0.3, 0.3


@settings(max_examples=200, deadline=None)
@given(cells(), st.integers(0, 2), st.integers(0, 3))
@example(_non_finite(np.nan), 1, 0)
@example(_non_finite(np.inf), 1, 0)
@example(_non_finite(-np.inf), 1, 0)
@example(_non_finite(1.0), 0, 0)
def test_streamed_pool_equals_pooled_list(cell, transpose, which):
    """A pool fed map by map holds what the original code pooled from the list.

    It holds the bytes the original concatenation sorted and the same
    per-region scores, and pixel AUROC, AP and AUPRO read from it give
    the original code's values or reason codes. One draw in three feeds
    the ``which``-th masked map transposed: unless it is square, ``add``
    raises ``dim-mismatch`` at that map.
    """
    maps, masks, _defects, pro_limit, _spro_limit = cell
    pixel_masks = [None if m is None else PixelMask(m) for m in masks]
    shapes = [m.shape for m in maps]
    masked = [i for i, m in enumerate(masks) if m is not None]
    fed = list(maps)
    streamed = PixelPool(mask_regions(pixel_masks, shapes))
    if masked and transpose == 0:
        i = masked[which % len(masked)]
        fed[i] = np.ascontiguousarray(maps[i].T)
        if fed[i].shape != shapes[i]:
            for smap in fed[:i]:
                streamed.add(smap)
            with pytest.raises(MetricError) as exc:
                streamed.add(fed[i])
            assert exc.value.code == "dim-mismatch"
            assert exc.value.message == f"score map {fed[i].shape} vs ground truth {shapes[i]}"
            return
    for smap in fed:
        streamed.add(smap)
    got = {
        "pixel_auroc": _code(lambda: auroc(streamed.ranked())),
        "pixel_ap": _code(lambda: average_precision(streamed.ranked())),
        "aupro": _code(lambda: aupro(streamed, pro_limit)),
    }
    expected = pixel_metrics_reference(fed, masks, pro_limit, pro_limit)
    assert got == {name: expected[name] for name in got}
    # the original pooling: every pixel concatenated, split by label, sorted
    scores = np.concatenate([m.ravel() for m in fed])
    labels = np.concatenate(
        [np.zeros(m.size, bool) if k is None else k.ravel() for m, k in zip(fed, masks)]
    )
    assert streamed.negatives.tobytes() == np.sort(scores[~labels]).tobytes()
    assert streamed.positives.tobytes() == np.sort(scores[labels]).tobytes()
    assert [r.tobytes() for r in streamed.region_scores] == [
        np.sort(m.ravel()[region.pixels]).tobytes()
        for m, rset in zip(fed, streamed.regions)
        for region in rset.regions
    ]
