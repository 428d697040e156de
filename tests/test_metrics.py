from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iadbench import metrics
from iadbench.data import PixelMask
from iadbench.errors import MetricError
from iadbench.metrics import (
    LabeledScores,
    PixelPool,
    RegionSet,
    TaskMatrix,
    aupro,
    auroc,
    average_precision,
    connected_regions,
    forgetting_measure,
    mask_regions,
    mean_spro,
)
from oracles import (
    ap_stepsum,
    auroc_pairwise,
    average_precision_reference,
    flood_fill_regions,
    forgetting_direct,
    integrate_to_limit_reference,
    label_scipy,
    region_curve_area,
    thresholds_to_limit_reference,
)


@contextmanager
def _leaves(size):
    """Metrics' block-at-a-time passes and summation leaves of ``size`` elements."""
    saved = metrics._SEGMENT_BLOCK
    metrics._SEGMENT_BLOCK = size
    try:
        yield
    finally:
        metrics._SEGMENT_BLOCK = saved


def _random_labeled(rng, max_n=60, levels=12):
    n = int(rng.integers(2, max_n))
    # quantized scores make ties common
    scores = rng.integers(0, levels, size=n) / (levels - 1.0)
    labels = rng.random(n) < 0.4
    if not labels.any():
        labels[int(rng.integers(0, n))] = True
    if labels.all():
        labels[int(rng.integers(0, n))] = False
    return scores, labels


# --- auroc --------------------------------------------------------------------


def test_auroc_examples():
    assert auroc(LabeledScores([0.2, 0.8], [False, True])) == 1.0
    assert auroc(LabeledScores([0.5, 0.5], [False, True])) == 0.5
    assert auroc(LabeledScores([0.7, 0.6, 0.1, 0.9], [False, True, False, True])) == 0.75


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(80):
        scores, labels = _random_labeled(rng)
        assert auroc(LabeledScores(scores, labels)) == pytest.approx(
            auroc_pairwise(scores.tolist(), labels.tolist()), abs=1e-12
        )


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(1)
    for transform in (lambda x: 0.5 * x + 0.25, np.exp, lambda x: x**3 + x):
        scores, labels = _random_labeled(rng)
        base = auroc(LabeledScores(scores, labels))
        assert auroc(LabeledScores(transform(scores), labels)) == pytest.approx(base, abs=1e-12)


def test_auroc_complement_law():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        scores = rng.permutation(n) / n  # tie-free
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        a = auroc(LabeledScores(scores, labels))
        b = auroc(LabeledScores(scores, ~labels))
        assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auroc_degenerate_labels():
    with pytest.raises(MetricError) as exc:
        auroc(LabeledScores([0.1, 0.2], [True, True]))
    assert exc.value.code == "degenerate-labels"


# --- average precision ----------------------------------------------------------


def test_ap_examples():
    assert average_precision(LabeledScores([0.9, 0.1], [True, False])) == 1.0
    assert average_precision(LabeledScores([0.1, 0.9], [True, False])) == 0.5
    assert average_precision(LabeledScores([0.3, 0.7, 0.5], [True, True, True])) == 1.0


def test_ap_matches_stepsum_oracle():
    """On leaves of 128 terms; the long draws have hundreds of distinct
    scores, so the summation tree has several levels."""
    rng = np.random.default_rng(3)
    draws = [(60, 12)] * 80 + [(500, 1000)] * 8
    with _leaves(128):
        for max_n, levels in draws:
            scores, labels = _random_labeled(rng, max_n, levels)
            assert average_precision(LabeledScores(scores, labels)) == pytest.approx(
                ap_stepsum(scores.tolist(), labels.tolist()), abs=1e-12
            )


def test_ap_no_positives():
    with pytest.raises(MetricError) as exc:
        average_precision(LabeledScores([0.1], [False]))
    assert exc.value.code == "no-positives"


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)


@st.composite
def _ap_inputs(draw):
    """Scores and labels with at least one positive: heavy ties, all
    distinct, every value held by both classes, or up to 3,000 scores
    on up to 4,000 levels (hundreds of distinct ones)."""
    kind = draw(st.sampled_from(["ties", "distinct", "shared", "many"]))
    if kind == "ties":
        n = draw(st.integers(1, 300))
        levels = draw(st.integers(1, 6))
        scores = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
        scores = scores / levels
    elif kind == "many":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        levels = draw(st.integers(2, 4000))
        scores = rng.integers(0, levels, draw(st.integers(1, 3000))) / levels
        labels = rng.random(scores.size) < draw(st.floats(0.0, 1.0))
    else:
        values = np.array(draw(st.lists(_FINITE, min_size=1, max_size=150, unique=True)))
        scores = values if kind == "distinct" else np.concatenate([values, values[::-1]])
    if kind != "many":
        labels = np.array(
            draw(st.lists(st.booleans(), min_size=scores.size, max_size=scores.size))
        )
    if kind == "shared":
        labels[: values.size] = True
        labels[values.size :] = False
    labels[draw(st.integers(0, scores.size - 1))] = True
    return scores, labels


@settings(max_examples=300, deadline=None)
@given(_ap_inputs(), st.sampled_from([128, 129]))
@example((np.array([0.0, -0.0, 0.5, 0.5]), np.array([True, False, True, False])), 128)
@example((np.array([0.3, 0.3, 0.3]), np.array([True, True, True])), 128)
def test_ap_equals_original_code(inputs, leaf):
    """``==`` the original function, which copied the distinct negatives
    and summed one zero-padded array, on leaves and blocks of ``leaf``."""
    data = LabeledScores(*inputs)
    with _leaves(leaf):
        got = average_precision(data)
    assert got == average_precision_reference(data.negatives, data.positives)


# --- clipped trapezoid integral --------------------------------------------------


def _integrate(xs, ys, limit):
    inside = int(np.count_nonzero(xs <= limit))
    return metrics._integrate_to_limit(inside, xs.size, lambda a, b: (xs[a:b], ys[a:b]), limit)


@st.composite
def _curves(draw):
    """A curve from (0, y0) with nondecreasing xs in [0, 1] (ties kept,
    or made common), and a limit at an operating point or anywhere in
    (0, 1]. Up to 1,500 points: several levels of 128-term leaves."""
    k = draw(st.integers(0, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.sort(rng.random(k))
    if draw(st.booleans()):
        steps = draw(st.integers(1, 64))
        xs = np.round(xs * steps) / steps
    xs = np.concatenate([[0.0], xs])
    ys = rng.random(k + 1)
    points = [x for x in xs if x > 0.0]
    if points and draw(st.booleans()):
        limit = draw(st.sampled_from(points))
    else:
        limit = draw(st.floats(0.0, 1.0, exclude_min=True))
    return xs, ys, limit


@settings(max_examples=300, deadline=None)
@given(_curves(), st.sampled_from([128, 129, 1 << 16]))
def test_integrate_to_limit_equals_original_code(curve, leaf):
    """``==`` the original whole-array expression for any leaf size."""
    with _leaves(leaf):
        got = _integrate(*curve)
    assert got == integrate_to_limit_reference(*curve)


@pytest.mark.parametrize(
    "blocks, offset", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1)]
)
def test_integrate_to_limit_at_block_boundaries(blocks, offset):
    """n segments inside the limit for n at, below and above a multiple of
    the leaf (n = 0 and n = 1 among them), the limit on the n-th operating
    point and between it and the next; leaves of 128 and of the default."""
    for leaf in (128, metrics._SEGMENT_BLOCK):
        n = blocks * leaf + offset
        rng = np.random.default_rng(n)
        xs = np.concatenate([[0.0], np.sort(rng.random(2 * leaf + 3))])
        ys = rng.random(xs.size)
        for limit in (xs[n], 0.5 * (xs[n] + xs[n + 1])):
            if limit <= 0.0:
                continue
            assert int(np.count_nonzero(xs[1:] <= limit)) == n
            with _leaves(leaf):
                got = _integrate(xs, ys, limit)
            assert got == integrate_to_limit_reference(xs, ys, limit)


# --- the region sweep's threshold walk ----------------------------------------------


@st.composite
def _walk_inputs(draw):
    """Two sorted sides on few levels, so ties within and across them are
    common (one level: every score equal), an anomalous side that may be
    empty, a limit (1 among them: nothing is cut) and a leaf of 2 to 9,
    so the walk's blocks of half a leaf per side split small inputs
    many times."""
    levels = draw(st.sampled_from([1, 2, 3, 5, 40, 1000]))
    sides = [
        np.sort(np.array(draw(st.lists(st.integers(0, levels - 1), min_size=low, max_size=120))))
        / 7.0
        for low in (1, 0)
    ]
    limit = draw(st.sampled_from([1.0, 0.3, 0.05]) | st.floats(0.001, 1.0))
    return sides[0], sides[1], limit, draw(st.integers(2, 9))


# one value repeated across a pivot, on both sides, and the cut on a run of
# repeats: the 0.3 cut is the 4th largest of 10 normal scores, one of five 2s
_REPEATS = (np.array([0, 1, 2, 2, 2, 2, 2, 3, 3, 4.0]), np.array([2, 2, 2, 3, 5.0]), 0.3, 4)


@settings(max_examples=300, deadline=None)
@given(_walk_inputs(), st.data())
@example(_REPEATS, None)
@example((np.full(9, 0.5), np.full(4, 0.5), 0.3, 2), None)  # all scores equal
@example((np.arange(9.0), np.zeros(0), 1.0, 2), None)  # no anomalous side, nothing cut
def test_threshold_walk_equals_merged_thresholds(inputs, data):
    """The walk's blocks are the former merged array cut in pieces: the
    same ``k`` and thresholds, each block nonempty and at most a leaf
    long, and for any run of thresholds, read in any order, the same
    false-positive counts. Each kept anomalous score (a region score) has
    as many thresholds above it as in the merged array."""
    normal, anomalous, limit, leaf = inputs
    thresholds = thresholds_to_limit_reference(normal, anomalous, limit)
    with _leaves(leaf):
        walk = metrics._ThresholdWalk(normal, anomalous, limit)
        blocks = [walk.block(i) for i in range(walk.firsts.size - 1)]
        k = thresholds.size
        assert walk.k == k
        assert np.concatenate(blocks).tobytes() == thresholds.tobytes()
        assert walk.firsts.tolist() == np.cumsum([0] + [b.size for b in blocks]).tolist()
        assert all(0 < b.size <= 2 * (leaf // 2) for b in blocks)
        false_pos = normal.size - np.searchsorted(normal, thresholds, side="left")
        assert walk.false_positives(0, k).tolist() == false_pos.tolist()
        if data is not None:
            for _ in range(3):
                lo = data.draw(st.integers(0, k))
                hi = data.draw(st.integers(lo, k))
                assert walk.false_positives(lo, hi).tolist() == false_pos[lo:hi].tolist()
    kept = anomalous[anomalous >= thresholds[0]]
    assert walk.anomalous[walk.tail :].tobytes() == kept.tobytes()
    above = k - np.searchsorted(thresholds, kept, side="right")
    assert walk.entries.tolist() == above.tolist()


# --- numpy's summation tree ------------------------------------------------------


@st.composite
def _sum_inputs(draw):
    """A leaf size and a float64 array: lengths around numpy's 8-wide
    unroll, its 128-element loop, the leaf, and past 2**18; values sparse
    (mostly exact zeros), dense over 16 decades of both signs, or signed
    zeros alone."""
    leaf = draw(st.sampled_from([128, 129, 1 << 16]))
    near = [0, 1, 7, 8, 127, 128, 129, leaf - 1, leaf, leaf + 1, 2 * leaf + 1]
    n = draw(
        st.sampled_from(near)
        | st.tuples(st.integers(1, leaf // 2), st.sampled_from([-1, 0, 1])).map(
            lambda t: 8 * t[0] + t[1]
        )
        | st.integers(1 << 18, (1 << 18) + 3 * leaf)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "dense", "zeros"]))
    if kind == "zeros":
        return leaf, np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), -0.0, 0.0)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    if kind == "sparse":
        values[rng.random(n) >= draw(st.floats(0.0, 0.1))] = 0.0
    return leaf, values


@settings(max_examples=200, deadline=None)
@given(_sum_inputs())
@example((128, np.full(1 << 18, -0.0)))
def test_pairwise_sum_is_numpy_sum(inputs):
    """``_pairwise_sum`` equals ``np.sum`` bit for bit: this pins numpy's
    summation tree (halves split at a multiple of 8 below half the
    length, stretches of at most 128 added in one loop, the total added
    to 0.0), which average precision and the region curves rely on. The
    leaves tile the array in order, none longer than the larger of the
    leaf and 128, and an array of one leaf or less is built in one call."""
    leaf, values = inputs
    built = []

    def block(a, b):
        built.append((a, b))
        return values[a:b]

    with _leaves(leaf):
        got = metrics._pairwise_sum(values.size, block)
    want = np.sum(values)
    assert np.float64(got).tobytes() == want.tobytes()
    assert [a for a, _ in built] == [0] + [b for _, b in built[:-1]]
    assert built[-1][1] == values.size
    assert all(b - a <= max(leaf, 128) for a, b in built)
    if values.size <= max(leaf, 128):
        assert len(built) == 1


# --- connected regions -----------------------------------------------------------


def test_regions_empty_mask():
    assert connected_regions(PixelMask(np.zeros((4, 4), bool))).regions == []


def test_regions_single_pixel():
    mask = np.zeros((4, 4), bool)
    mask[1, 2] = True
    rset = connected_regions(PixelMask(mask))
    assert len(rset.regions) == 1
    assert rset.regions[0].area == 1
    assert rset.regions[0].saturation == 1


def test_regions_diagonal_touch_is_one_region():
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = mask[1, 1] = True
    assert len(connected_regions(PixelMask(mask)).regions) == 1


_CORNER_RUNS = np.array(
    [[1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 0]], bool
)


def _dense_mask(height, width, density, seed):
    return np.random.default_rng(seed).random((height, width)) < density


_MASKS = st.one_of(
    hnp.arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 24)), elements=st.booleans()),
    st.builds(
        _dense_mask,
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.02, 0.9),
        st.integers(0, 2**32 - 1),
    ),
)


@settings(max_examples=600, deadline=None)
@given(_MASKS)
@example(np.zeros((1, 1), bool))
@example(np.ones((1, 1), bool))
@example(np.zeros((5, 7), bool))
@example(np.ones((6, 4), bool))
@example(np.eye(6, dtype=bool))
@example(np.eye(6, dtype=bool)[::-1])
@example(np.eye(3, 8, k=2, dtype=bool) | np.eye(3, 8, k=-1, dtype=bool))
@example(np.indices((7, 7)).sum(axis=0) % 2 == 0)  # checkerboard: one region
@example(np.array([[1, 0, 1, 1, 0, 1, 0, 1]], bool))
@example(np.array([[1, 0, 1, 1, 0, 1, 0, 1]], bool).T)
@example(_CORNER_RUNS)
@example(_CORNER_RUNS[::-1])
@example(_CORNER_RUNS[:, ::-1])
def test_regions_match_scipy_label(bits):
    """Same regions, same order, same pixels as ``ndimage.label`` (8-connected)."""
    got = [r.pixels.tolist() for r in connected_regions(PixelMask(bits)).regions]
    assert got == [pixels.tolist() for pixels in label_scipy(bits)]


def test_regions_match_flood_fill_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        mask = rng.random((10, 10)) < 0.3
        ours = connected_regions(PixelMask(mask))
        reference = flood_fill_regions(mask.tolist())
        assert len(ours.regions) == len(reference)
        ours_sets = {frozenset(r.pixels.tolist()) for r in ours.regions}
        ref_sets = {
            frozenset(y * 10 + x for (y, x) in pixels) for pixels in reference
        }
        assert ours_sets == ref_sets


def test_region_saturation_modes():
    mask = np.zeros((10, 10), bool)
    mask[0:2, 0:4] = True  # area 8
    by_count = connected_regions(PixelMask(mask), saturation=4)
    assert by_count.regions[0].saturation == 4
    by_rel = connected_regions(PixelMask(mask), saturation=0.05)  # 5 px of 100
    assert by_rel.regions[0].saturation == 5
    clamped = connected_regions(PixelMask(mask), saturation=0.5)  # 50 px > area
    assert clamped.regions[0].saturation == 8
    floor = connected_regions(PixelMask(mask), saturation=0.001)
    assert floor.regions[0].saturation == 1
    # 0.05 of 210 px is 10.5, rounded half to even; 0.05 * 14 * 15 is just above it
    whole = connected_regions(PixelMask(np.ones((14, 15), bool)), saturation=0.05)
    assert whole.regions[0].saturation == 10


# --- aupro / mean_spro -------------------------------------------------------------


def _pool(maps, masks):
    """The pixel pool of ``maps``, fed one at a time, labelled by ``masks``."""
    pool = PixelPool(mask_regions(masks, [m.shape for m in maps]))
    for smap in maps:
        pool.add(smap)
    return pool


def _aupro(maps, masks, fpr_limit):
    return aupro(_pool(maps, masks), fpr_limit)


def _one_region_mask(h=8, w=8):
    mask = np.zeros((h, w), bool)
    mask[2:4, 2:6] = True  # area 8
    return mask


def test_aupro_perfect_and_anti():
    mask = _one_region_mask()
    perfect = mask.astype(float)
    assert _aupro([perfect], [PixelMask(mask)], 0.3) == pytest.approx(1.0, abs=1e-12)
    assert _aupro([perfect], [PixelMask(mask)], 0.07) == pytest.approx(1.0, abs=1e-12)
    assert _aupro([1.0 - perfect], [PixelMask(mask)], 0.3) == pytest.approx(0.0, abs=1e-12)


def test_aupro_constant_map():
    mask = _one_region_mask()
    constant = np.full(mask.shape, 0.42)
    assert _aupro([constant], [PixelMask(mask)], 0.3) == pytest.approx(0.15, abs=1e-9)


def test_spro_saturated_half_coverage():
    """Covering s of |A| pixels at zero FPR already saturates the region."""
    mask = _one_region_mask()  # area 8
    smap = np.zeros(mask.shape)
    covered = np.argwhere(mask)[:4]
    smap[covered[:, 0], covered[:, 1]] = 1.0
    rset = connected_regions(PixelMask(mask), saturation=4)
    assert mean_spro([smap], [rset], 0.3) == pytest.approx(1.0, abs=1e-12)


def test_spro_reduces_to_aupro():
    rng = np.random.default_rng(5)
    for _ in range(25):
        mask = rng.random((12, 12)) < 0.2
        if not mask.any():
            mask[3, 3] = True
        smap = rng.random((12, 12))
        rset = connected_regions(PixelMask(mask))  # saturations = region areas
        for limit in (0.05, 0.3, 1.0):
            assert mean_spro([smap], [rset], limit) == _aupro(
                [smap], [PixelMask(mask)], limit
            )


def test_region_curve_matches_bruteforce_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n_images = int(rng.integers(1, 3))
        maps, masks = [], []
        for _ in range(n_images):
            mask = rng.random((9, 9)) < 0.25
            maps.append(rng.integers(0, 20, size=(9, 9)) / 19.0)
            masks.append(mask)
        if not any(m.any() for m in masks):
            masks[0][4, 4] = True
        ours = _aupro([m for m in maps], [PixelMask(m) for m in masks], 0.3)
        reference = region_curve_area(
            [m.tolist() for m in maps], [m.tolist() for m in masks], 0.3
        )
        assert ours == pytest.approx(reference, abs=1e-9)


def test_curve_requires_regions_and_normals():
    smap = np.random.default_rng(0).random((4, 4))
    with pytest.raises(MetricError) as exc:
        _aupro([smap], [PixelMask(np.zeros((4, 4), bool))], 0.3)
    assert exc.value.code == "no-regions"
    with pytest.raises(MetricError) as exc:
        _aupro([smap], [PixelMask(np.ones((4, 4), bool))], 0.3)
    assert exc.value.code == "no-normal-pixels"


def test_curve_monotonicity():
    """PRO and FPR are nonincreasing in the threshold."""
    rng = np.random.default_rng(7)
    mask = rng.random((10, 10)) < 0.3
    if not mask.any():
        mask[0, 0] = True
    smap = rng.random((10, 10))
    flat = np.sort(np.unique(smap))[::-1]
    normal = ~mask
    prev_fpr, prev_pro = -1.0, -1.0
    regions = flood_fill_regions(mask.tolist())
    for t in flat:
        predicted = smap >= t
        fpr = float((predicted & normal).sum() / normal.sum())
        pro = float(
            np.mean(
                [
                    sum(1 for (y, x) in px if predicted[y, x]) / len(px)
                    for px in regions
                ]
            )
        )
        assert fpr >= prev_fpr and pro >= prev_pro
        prev_fpr, prev_pro = fpr, pro


def test_mask_regions_refuses_unequal_counts():
    mask = PixelMask(_one_region_mask())
    for masks, shapes in (([mask, None], [(8, 8)]), ([mask], [(8, 8), (8, 8)])):
        with pytest.raises(MetricError) as exc:
            mask_regions(masks, shapes)
        assert exc.value.code == "dim-mismatch"
        assert exc.value.message == "score maps and ground truth counts differ"


def test_pixel_pooling_permutation_invariance():
    rng = np.random.default_rng(8)
    maps = [rng.random((6, 6)) for _ in range(4)]
    masks = [PixelMask(rng.random((6, 6)) < 0.3) for _ in range(3)] + [None]
    if not any(m is not None and m.any() for m in masks):
        masks[0] = PixelMask(np.eye(6, dtype=bool))
    base = auroc(_pool(maps, masks).ranked())
    order = [2, 0, 3, 1]
    shuffled = auroc(_pool([maps[i] for i in order], [masks[i] for i in order]).ranked())
    assert base == shuffled


@pytest.mark.parametrize(
    "mask_shapes, message",
    [
        ([(6, 4)], "score map (4, 6) vs ground truth (6, 4)"),
        ([(4, 6), (4, 6)], "score maps and ground truth counts differ"),
        ([], "score maps and ground truth counts differ"),
    ],
)
def test_pixel_pooling_checks_pairs(mask_shapes, message):
    """A surplus or wrong-shaped map raises as it is added, a missing one as the pool is read."""
    smap = np.random.default_rng(3).random((4, 6))
    pool = PixelPool([connected_regions(PixelMask(np.eye(*shape))) for shape in mask_shapes])
    with pytest.raises(MetricError) as exc:
        pool.add(smap)
        pool.ranked()
    assert exc.value.code == "dim-mismatch"
    assert exc.value.message == message


# --- forgetting measure -------------------------------------------------------------


def test_fm_direct_substitution():
    result = forgetting_measure(TaskMatrix(2, {(1, 1): 0.9, (2, 1): 0.7, (2, 2): 0.8}))
    assert result.per_task[1] == pytest.approx(0.2)


def test_fm_negative_on_improvement():
    result = forgetting_measure(TaskMatrix(2, {(1, 1): 0.5, (2, 1): 0.6, (2, 2): 0.8}))
    assert result.per_task[1] == pytest.approx(-0.1)


def test_fm_three_step_example():
    entries = {(1, 1): 0.8, (2, 1): 0.6, (2, 2): 0.9, (3, 1): 0.7, (3, 2): 0.85, (3, 3): 0.5}
    result = forgetting_measure(TaskMatrix(3, entries))
    assert result.per_task[1] == pytest.approx(0.1)
    assert result.per_task[2] == pytest.approx(0.05)
    assert result.mean == pytest.approx(0.075)


def test_fm_matches_direct_oracle_and_range():
    rng = np.random.default_rng(9)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        entries = {
            (l, j): float(rng.random()) for l in range(1, k + 1) for j in range(1, l + 1)
        }
        result = forgetting_measure(TaskMatrix(k, entries))
        per_task, mean = forgetting_direct(entries, k)
        assert result.per_task == pytest.approx(per_task)
        assert result.mean == pytest.approx(mean)
        assert all(-1.0 <= v <= 1.0 for v in result.per_task.values())


def test_fm_errors():
    with pytest.raises(MetricError) as exc:
        forgetting_measure(TaskMatrix(1, {(1, 1): 0.5}))
    assert exc.value.code == "single-task"
    with pytest.raises(MetricError) as exc:
        forgetting_measure(TaskMatrix(2, {(1, 1): 0.5, (2, 2): 0.5}))
    assert exc.value.code == "incomplete-matrix"
    with pytest.raises(MetricError):
        TaskMatrix(2, {(1, 2): 0.5})  # upper triangle
