from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadbench import detector
from iadbench.detector import (
    _SCORE_CHUNK,
    CoresetParams,
    MemoryBank,
    SearchIndex,
    SingleThreadBlas,
    _farthest_first,
    _gaussian_blur,
    _nearest_distances,
    build_bank,
    coreset_select,
    extend_bank_for_task,
    make_projection,
    render_anomaly_map,
    reweight,
    score_image,
    score_patches,
    search,
    single_thread_blas,
    write_bank_file,
)
from iadbench.data import ImageGrid
from iadbench.errors import DetectorError, FormatError
from iadbench.features import (
    FeatureProviderConfig,
    PatchFeatureGrid,
    extract_features,
    intensities,
)
from oracles import (
    bank_from_grids,
    coreset_reference,
    covering_radius,
    gaussian_filter_scipy,
    greedy_kcenter,
    nearest_bruteforce,
    optimal_kcenter_radius,
    projection_matrix_reference,
    projection_reference,
    read_bank_file,
    render_reference,
    reweight_reference,
)


def _bank(codes) -> MemoryBank:
    """A single-task bank of these code rows."""
    arr = np.asarray(codes, dtype=np.uint8)
    return MemoryBank(arr.shape[1], arr, np.zeros(arr.shape[0], np.uint32))


def _index(bank: MemoryBank) -> SearchIndex:
    """The bank's search index, as a detector state builds it."""
    return SearchIndex.of(bank.rows(slice(None)))


def _grid(codes) -> PatchFeatureGrid:
    """A one-column patch grid of these code rows."""
    arr = np.asarray(codes, dtype=np.uint8)
    return PatchFeatureGrid(arr.shape[0], 1, arr.shape[1], arr)


# --- bank construction ------------------------------------------------------------


def test_build_bank_union_order():
    cfg = FeatureProviderConfig(2, 2, "raw-patch")
    images = [ImageGrid(np.arange(16, dtype=np.uint8).reshape(4, 4) + 16 * i) for i in range(2)]
    bank = build_bank(images, cfg)
    assert bank.count == 8
    want = bank_from_grids([extract_features(image, cfg) for image in images])
    assert bank.rows(slice(None)).tobytes() == want.tobytes()
    assert np.all(bank.task_tags == 0)


def test_build_bank_errors():
    with pytest.raises(DetectorError) as exc:
        build_bank([], FeatureProviderConfig(4, 4, "raw-patch"))
    assert exc.value.code == "empty-input"
    with pytest.raises(DetectorError) as exc:
        MemoryBank(16, np.zeros((1, 32), np.uint8), np.zeros(1, np.uint32))
    assert exc.value.code == "dim-mismatch"


def test_build_bank_single_patch():
    cfg = FeatureProviderConfig(2, 1, "raw-patch")
    assert build_bank([ImageGrid(np.full((2, 2), 255, np.uint8))], cfg).count == 1


def test_memory_bank_rejects_float_rows():
    """A bank holds 8-bit codes, so it cannot hold NaN or inf: a float
    array, finite or not, is refused rather than cast."""
    dim, count = 16, 5
    codes = np.random.default_rng(20).integers(0, 256, (count, dim), dtype=np.uint8)
    assert MemoryBank(dim, codes, np.zeros(count, np.uint32)).count == count
    for rows in (intensities(codes), codes.astype(np.float64), np.full((count, dim), np.nan),
                 codes.astype(np.int64)):
        with pytest.raises(DetectorError) as exc:
            MemoryBank(dim, rows, np.zeros(count, np.uint32))
        assert (exc.value.code, exc.value.message) == (
            "dim-mismatch", "bank rows must be uint8 codes"
        )


def test_every_code_reads_as_the_float32_quotient():
    """Each of the 256 codes gives, through a bank and its search index,
    the value the float32 bank held: the float64 intensity k / 255 of an
    image pixel, rounded to float32."""
    codes = np.arange(256, dtype=np.uint8).reshape(256, 1)
    old = np.array([np.float32(k / 255.0) for k in range(256)], np.float32)
    bank = _bank(codes)
    rows = bank.rows(slice(None))
    assert rows.dtype == np.float32 and rows.ravel().tobytes() == old.tobytes()
    index = _index(bank)
    assert index.vectors.ravel().tobytes() == old.astype(np.float64).tobytes()
    extended = _index(_bank(codes[:100])).extended(bank.rows(slice(100, None)))
    assert extended.vectors.tobytes() == index.vectors.tobytes()
    assert extended.sq.tobytes() == index.sq.tobytes()


def test_bank_file_holds_the_intensities_of_the_codes(tmp_path):
    rng = np.random.default_rng(21)
    codes = rng.integers(0, 256, (300, 9), dtype=np.uint8)
    codes[:256, 0] = np.arange(256)
    tags = rng.integers(0, 4, 300).astype(np.uint32)
    path = tmp_path / "bank.iadb"
    write_bank_file(MemoryBank(9, codes, tags), str(path))
    data = path.read_bytes()
    header = 4 + 2 + 4 + 8
    assert data[header + 300 * 4 :] == intensities(codes).astype("<f4").tobytes()
    assert len(data) - header - 300 * 4 == 300 * 9 * 4  # the bank_bytes formula


# --- projection --------------------------------------------------------------------


def test_projector_forced_matrix():
    points = detector._BankPoints(_bank([[51, 102]]), np.array([[1.0, 0.0]]))
    assert points.shape == (1, 1)
    assert points[:].tolist() == [[float(intensities(np.uint8(51)))]]


def test_projector_deterministic():
    """The matrix is the original Gaussian draw and scaling, bit for bit,
    as a plain float64 array of (out_dim, in_dim)."""
    for seed in (0, 1, 7, 2**32 - 1):
        for in_dim, out_dim in ((64, 16), (36, 9), (9, 2)):
            matrix = make_projection(in_dim, out_dim, seed)
            assert type(matrix) is np.ndarray and matrix.dtype == np.float64
            assert matrix.shape == (out_dim, in_dim)
            want = projection_matrix_reference(in_dim, out_dim, seed)
            assert matrix.tobytes() == want.tobytes()
    assert not np.array_equal(make_projection(16, 4, seed=7), make_projection(16, 4, seed=8))


@pytest.mark.parametrize("in_dim, out_dim", [(64, 16), (9, 2)])
def test_projector_blocks_match_whole_bank_projection(in_dim, out_dim):
    """Reads of a code bank about the coreset's block size give the
    whole bank's projection."""
    step = detector._block_rows(out_dim)
    rng = np.random.default_rng(in_dim)
    matrix = make_projection(in_dim, out_dim, seed=5)
    bank = _bank(rng.integers(0, 256, (2 * step + 3, in_dim), dtype=np.uint8))
    points = detector._BankPoints(bank, matrix)
    assert points.shape == (bank.count, out_dim)
    whole = projection_reference(bank.rows(slice(None)), matrix)
    for n in (1, step - 1, step, step + 1, 2 * step + 3):
        got = points[:n]
        assert got.dtype == np.float64
        assert got.tobytes() == whole[:n].tobytes()
        assert points[bank.count - n :].tobytes() == whole[bank.count - n :].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    in_dim=st.sampled_from([2, 4, 9, 16, 36, 64]),
    count=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_projector_gives_a_row_the_same_bits_in_any_block(in_dim, count, seed, data):
    """A row's projection does not depend on the rows it is read with,
    their order or their number: ``coreset_select`` must equal
    ``coreset_reference`` over a projection made all at once, and it
    projects a bank a block at a time as it reads it."""
    rng = np.random.default_rng(seed)
    matrix = make_projection(in_dim, data.draw(st.integers(1, in_dim - 1)), seed)
    bank = _bank(rng.integers(0, 256, (count, in_dim), dtype=np.uint8))
    points = detector._BankPoints(bank, matrix)
    whole = projection_reference(bank.rows(slice(None)), matrix)
    assert points[:].tobytes() == whole.tobytes()
    order = rng.permutation(count)
    assert points[order].tobytes() == whole[order].tobytes()
    cuts = np.unique(rng.integers(0, count + 1, data.draw(st.integers(0, 6))))
    for block in np.split(order, cuts):
        assert points[block].tobytes() == whole[block].tobytes()
    for start, stop in zip([0, *cuts], [*cuts, count]):
        assert points[start:stop].tobytes() == whole[start:stop].tobytes()
    row = int(rng.integers(0, count))
    assert points[row : row + 1].tobytes() == whole[row : row + 1].tobytes()


def test_projector_bad_dims():
    with pytest.raises(DetectorError) as exc:
        make_projection(4, 5, seed=0)
    assert exc.value.code == "bad-dims"


# --- coreset ------------------------------------------------------------------------


def test_coreset_1d_example():
    bank = _bank([[0], [1], [10]])
    assert coreset_select(bank, CoresetParams(l=2)) == [0, 2]


def test_coreset_exhaustion_and_singleton():
    bank = _bank([[0], [5], [1], [9]])
    full = coreset_select(bank, CoresetParams(l=4))
    assert sorted(full) == [0, 1, 2, 3]
    assert full == coreset_select(bank, CoresetParams(l=4))
    assert coreset_select(bank, CoresetParams(l=1)) == [0]


def test_coreset_fraction_resolution():
    bank = _bank([[i] for i in range(10)])
    assert len(coreset_select(bank, CoresetParams(target_fraction=0.25))) == 3  # round half up
    assert len(coreset_select(bank, CoresetParams(target_fraction=1.0))) == 10
    assert len(coreset_select(bank, CoresetParams(target_fraction=0.01))) == 1


def test_coreset_l_out_of_range():
    bank = _bank([[0], [1]])
    with pytest.raises(DetectorError) as exc:
        coreset_select(bank, CoresetParams(l=3))
    assert exc.value.code == "l-out-of-range"
    with pytest.raises(DetectorError):
        coreset_select(bank, CoresetParams())  # neither fraction nor l


def test_coreset_l_out_of_range_from_codes():
    cfg = FeatureProviderConfig(2, 1, "raw-patch")
    bank = build_bank([ImageGrid(np.zeros((3, 4), np.uint8))], cfg)  # 2 x 3 patches
    for params in (CoresetParams(l=7), CoresetParams(l=7, projection_dim=2)):
        with pytest.raises(DetectorError) as got:
            coreset_select(bank, params)
        assert (got.value.code, got.value.message) == ("l-out-of-range", "l=7 for bank of 6")


def test_coreset_params_check_their_own_rules():
    for kwargs in ({}, {"target_fraction": 0.5, "l": 2}, {"target_fraction": 0.0},
                   {"target_fraction": 1.5}, {"l": 0}):
        with pytest.raises(DetectorError) as exc:
            CoresetParams(**kwargs)
        assert exc.value.code == "l-out-of-range"
    with pytest.raises(DetectorError) as exc:
        CoresetParams(l=1, projection_dim=0)
    assert exc.value.code == "bad-dims"


def test_coreset_matches_bruteforce_oracle():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 5))
        bank = _bank(rng.integers(0, 8, size=(n, dim)))  # 8 levels: many ties
        l = int(rng.integers(1, n + 1))
        ours = coreset_select(bank, CoresetParams(l=l))
        reference = greedy_kcenter(
            [tuple(map(float, row)) for row in bank.rows(slice(None)).astype(np.float64)], l
        )
        assert ours == reference


def test_coreset_two_approximation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        bank = _bank(rng.integers(0, 256, (n, 2)))
        for l in (1, 2, 3):
            selected = coreset_select(bank, CoresetParams(l=l))
            points64 = [tuple(map(float, r)) for r in bank.rows(slice(None)).astype(np.float64)]
            ours = covering_radius(points64, selected)
            best = optimal_kcenter_radius(points64, l)
            assert ours <= 2.0 * best + 1e-12


def test_coreset_with_projection_deterministic():
    rng = np.random.default_rng(12)
    bank = _bank(rng.integers(0, 256, (20, 8)))
    params = CoresetParams(l=5, projection_dim=2, seed=3)
    assert coreset_select(bank, params) == coreset_select(bank, params)


@pytest.mark.parametrize("projection_dim", [16, None])
def test_coreset_select_peak_memory(projection_dim):
    count, dim = 36000, 64
    bank = _bank(np.random.default_rng(13).integers(0, 256, (count, dim)))
    params = CoresetParams(l=20, projection_dim=projection_dim, seed=1)
    tracemalloc.start()
    try:
        picks = coreset_select(bank, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(picks)) == 20
    # float64 points: the projection and its sorted copy, or the sorted
    # copy alone; then ten length-n vectors and four row blocks
    points_bytes = count * (2 * projection_dim if projection_dim else dim) * 8
    assert peak < points_bytes + 10 * count * 8 + 4 * detector._BLOCK_ELEMENTS * 8
    if projection_dim:
        assert peak < count * dim * 8  # no float64 copy of the whole bank


@pytest.mark.parametrize("projection_dim", [16, None])
def test_selection_from_images_peak_memory(projection_dim):
    """Bank, selection and the picked bank of 36,000 patches of 64."""
    cfg = FeatureProviderConfig(8, 4, "raw-patch")
    rng = np.random.default_rng(14)
    # 160 images of 64 px give 160 x 15 x 15 = 36,000 patches
    images = [ImageGrid(rng.integers(0, 256, (64, 64), dtype=np.uint8)) for _ in range(160)]
    params = CoresetParams(l=20, projection_dim=projection_dim, seed=1)
    tracemalloc.start()
    try:
        bank = build_bank(images, cfg)
        picked = bank.take(coreset_select(bank, params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count, dim = 36000, 64
    assert bank.count == count and picked.codes.shape == (20, dim)
    # the bank's codes, one sorted float64 copy of the points, ten length-n
    # vectors and four row blocks
    ranked_bytes = count * (projection_dim or dim) * 8
    assert peak < count * dim + ranked_bytes + 10 * count * 8 + 4 * detector._BLOCK_ELEMENTS * 8
    if projection_dim:
        assert peak < count * dim * 4  # less than the float32 bank alone


@st.composite
def _coreset_images(draw):
    """A feature config and 1-3 images: random codes, few distinct codes
    (many tied distances) or one constant code (every distance ties)."""
    p = draw(st.integers(1, 4))
    s = draw(st.integers(1, p))
    sizes = draw(
        st.lists(st.tuples(st.integers(p, p + 9), st.integers(p, p + 9)), min_size=1, max_size=3)
    )
    kind = draw(st.sampled_from(["random", "levels", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = {"random": np.arange(256), "levels": np.array([0, 128, 255]), "constant": [77]}[kind]
    images = [ImageGrid(rng.choice(levels, (h, w)).astype(np.uint8)) for h, w in sizes]
    return FeatureProviderConfig(p, s, "raw-patch"), images


@settings(max_examples=120, deadline=None)
@given(
    case=_coreset_images(),
    l_kind=st.sampled_from(["one", "some", "all"]),
    projection=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    case=(FeatureProviderConfig(3, 1, "raw-patch"), [ImageGrid(np.full((7, 9), 77, np.uint8))]),
    l_kind="all", projection=True, seed=0,
)
def test_selection_from_codes_equals_float_bank(case, l_kind, projection, seed):
    """Picks from a built bank equal the reference loop's picks over the
    float32 bank of the same images' features, and the picked bank's row
    values equal that bank's rows."""
    cfg, images = case
    bank = build_bank(images, cfg)
    vectors = bank_from_grids([extract_features(image, cfg) for image in images])
    l = {"one": 1, "some": max(1, bank.count // 3), "all": bank.count}[l_kind]
    projection_dim = max(1, cfg.dim // 4) if projection else None
    params = CoresetParams(l=l, projection_dim=projection_dim, seed=seed)
    picks = coreset_select(bank, params)
    assert bank.take(picks).rows(slice(None)).tobytes() == vectors[picks].tobytes()
    points = vectors.astype(np.float64)
    if params.effective(cfg.dim).projection_dim is not None:
        points = projection_reference(vectors, make_projection(cfg.dim, projection_dim, seed))
    assert picks == coreset_reference(points, l)[0]


def _coreset_points(kind, dim, bank_size, seed):
    """(code rows, None) or (None, float32 or float64 points) built to
    stress the farthest-first screen.

    Only code rows make a bank; the float kinds are points alone. The
    float32 ones are projected as a bank's rows would be. The float64
    kinds: "offset64" puts a spread of 1e-3 on
    an offset of 1e6, so the screen's rounding error is many times every
    distance, and "tiny" puts points near 1e-161, where squares and
    products are subnormal.

    The rest stress the norm shell. On a ray through the origin ("ray",
    real multiples, and "ray_int", integer multiples with many ties) a
    distance equals the difference of the norms, so the shell's bound is
    met with equality. "sphere" rows are signed permutations of one
    vector, all of one norm, so every row is always in the shell.
    "far_ray" is a ray whose points all lie about 1e4 from the origin.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 256, (bank_size, dim), dtype=np.uint8), None
    elif kind == "duplicates":
        base = rng.integers(0, 256, (max(1, bank_size // 4), dim), dtype=np.uint8)
        return base[rng.integers(0, base.shape[0], bank_size)], None
    elif kind == "grid":
        # five levels: many rows tie exactly for the farthest one
        return rng.integers(0, 5, (bank_size, dim), dtype=np.uint8), None
    elif kind == "offset":
        # a common offset of 1e3 over a spread of 1e-3 makes the screen
        # cancel badly
        rows = 1e3 + rng.random((bank_size, dim)) * 1e-3
    elif kind == "offset64":
        return None, 1e6 + rng.random((bank_size, dim)) * 1e-3
    elif kind == "ray":
        return None, rng.random((bank_size, 1)) * rng.standard_normal(dim)
    elif kind == "ray_int":
        direction = rng.integers(1, 4, dim) * rng.choice([-1, 1], dim)
        rows = rng.integers(-20, 21, (bank_size, 1)) * direction
    elif kind == "sphere":
        base = rng.random(dim)
        signs = rng.choice([-1, 1], (bank_size, dim))
        rows = np.array([rng.permutation(base) for _ in range(bank_size)]) * signs
    elif kind == "far_ray":
        start = rng.standard_normal(dim) * 1e4
        return None, start + rng.random((bank_size, 1)) * rng.standard_normal(dim)
    else:  # "tiny"
        return None, rng.random((bank_size, dim)) * 1e-161
    return None, rows.astype(np.float32)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(
        ["random", "duplicates", "grid", "offset", "offset64", "tiny",
         "ray", "ray_int", "sphere", "far_ray"]
    ),
    dim=st.sampled_from([1, 2, 3, 9, 16, 36, 64]),
    bank_size=st.integers(1, 120),
    l_kind=st.sampled_from(["one", "some", "all"]),
    projection=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    pinned=st.booleans(),
)
@example(kind="grid", dim=1, bank_size=1, l_kind="all", projection=False, seed=0, pinned=True)
@example(kind="grid", dim=2, bank_size=60, l_kind="all", projection=False, seed=1, pinned=True)
@example(kind="duplicates", dim=9, bank_size=80, l_kind="all", projection=True, seed=2, pinned=True)
@example(kind="offset", dim=64, bank_size=120, l_kind="some", projection=True, seed=3, pinned=True)
@example(kind="offset", dim=16, bank_size=120, l_kind="all", projection=False, seed=4, pinned=True)
@example(kind="offset64", dim=64, bank_size=120, l_kind="all", projection=False, seed=5, pinned=True)
@example(kind="tiny", dim=3, bank_size=80, l_kind="all", projection=False, seed=6, pinned=True)
@example(kind="ray", dim=16, bank_size=120, l_kind="all", projection=False, seed=8, pinned=True)
@example(kind="ray_int", dim=3, bank_size=120, l_kind="all", projection=False, seed=9, pinned=True)
@example(kind="sphere", dim=9, bank_size=120, l_kind="some", projection=False, seed=10, pinned=True)
@example(kind="far_ray", dim=16, bank_size=120, l_kind="all", projection=False, seed=11, pinned=True)
# subnormal squares: a shell without _shell_slack's absolute term picks wrongly here
@example(kind="tiny", dim=2, bank_size=40, l_kind="all", projection=False, seed=164, pinned=True)
# large enough for OpenBLAS to split the screen's gemv over its threads when not pinned
@example(kind="offset", dim=16, bank_size=2000, l_kind="some", projection=False, seed=7, pinned=False)
@example(kind="offset", dim=16, bank_size=2000, l_kind="some", projection=False, seed=7, pinned=True)
def test_coreset_matches_reference_bitwise(kind, dim, bank_size, l_kind, projection, seed, pinned):
    codes, points = _coreset_points(kind, dim, bank_size, seed)
    l = {"one": 1, "some": max(1, bank_size // 3), "all": bank_size}[l_kind]
    projection_dim = max(1, dim // 4) if projection else None
    params = CoresetParams(l=l, projection_dim=projection_dim, seed=seed)
    if codes is not None:
        points = intensities(codes)
    if points.dtype == np.float32:  # a bank's rows, as the coreset reads them
        if params.effective(dim).projection_dim is not None:
            points = projection_reference(points, make_projection(dim, projection_dim, seed))
        else:
            points = points.astype(np.float64)
    want_selected, want_d2 = coreset_reference(points, l)
    before = points.tobytes()
    with single_thread_blas if pinned else nullcontext():
        selected, min_d2 = _farthest_first(points, l)
    assert points.tobytes() == before
    assert selected == want_selected
    assert min_d2.tobytes() == want_d2.tobytes()
    if codes is not None:
        before = codes.tobytes()
        assert coreset_select(_bank(codes), params) == want_selected
        assert codes.tobytes() == before


# --- BLAS threads ---------------------------------------------------------------------


def test_single_thread_blas_pins_and_restores(blas_counts):
    with single_thread_blas:
        assert blas_counts() == {1}
        with single_thread_blas:
            assert blas_counts() == {1}
        assert blas_counts() == {1}  # the outer user is still inside
    assert blas_counts() == {2}
    with pytest.raises(RuntimeError):
        with single_thread_blas:
            raise RuntimeError("boom")
    assert blas_counts() == {2}


def test_single_thread_blas_without_symbols_warns_once(blas_counts, monkeypatch, capsys):
    monkeypatch.setattr(detector, "_OPENBLAS_THREAD_SYMBOLS", (("no_get", "no_set"),))
    pin = SingleThreadBlas()
    capsys.readouterr()
    for _ in range(2):
        with pin:
            assert blas_counts() == {2}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("iadbench: blas-threads-unpinned: ")


def test_single_thread_blas_overlapping_users(monkeypatch):
    count = [3]
    inside_wrong = []
    monkeypatch.setattr(
        detector,
        "_openblas_thread_controls",
        lambda: [(lambda: count[0], lambda n: count.__setitem__(0, n))],
    )
    pin = SingleThreadBlas()

    def user():
        for _ in range(300):
            with pin:
                if count[0] != 1:
                    inside_wrong.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=user) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert inside_wrong == []
    assert count[0] == 3


def test_runtime_imports_neither_scipy_nor_lose_the_blas_pin():
    """A fresh interpreter loading the CLI and runner imports no scipy, and
    the BLAS pin still finds numpy's own OpenBLAS. In this suite scipy is
    already loaded by the oracles, so only a new process can see this."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy is built against {blas.get('name')!r}, not OpenBLAS")
    probe = (
        "import json, sys\n"
        "import iadbench.cli, iadbench.runner\n"
        "from iadbench import detector\n"
        "print(json.dumps({'scipy': 'scipy' in sys.modules,"
        " 'controls': len(detector._openblas_thread_controls())}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["scipy"] is False
    assert seen["controls"] >= 1


# --- scoring -------------------------------------------------------------------------


def test_score_patches_hand_example():
    bank = _bank([[0, 0]])
    grid = _grid([[0, 0], [255, 0]])  # code 255 is 1.0
    nearest, s_star, patch_index, neighbor = score_patches(bank, grid, _index(bank))
    assert (nearest.rows, nearest.d2.tolist(), nearest.index.tolist()) == (1, [0.0, 1.0], [0, 0])
    assert (s_star, patch_index, neighbor) == (1.0, 1, 0)


def test_score_patches_nearest_choice():
    bank = _bank([[0, 0], [255, 0]])  # code 255 is 1.0
    grid = _grid([[0, 255]])
    _, s_star, patch_index, neighbor = score_patches(bank, grid, _index(bank))
    assert s_star == pytest.approx(1.0)
    assert neighbor == 0  # 1 < sqrt(2)


def _search_case(kind, dim, bank_size, test_count, seed):
    """Bank (float32) and test vectors (float64) built to stress the screen:
    finite rows whose squared norms lie far below 2**1000, the searches'
    domain."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        bank = rng.random((bank_size, dim))
        tests = rng.random((test_count, dim))
    elif kind == "duplicates":
        base = rng.random((max(1, bank_size // 3), dim))
        bank = base[rng.integers(0, base.shape[0], bank_size)]
        tests = bank[rng.integers(0, bank_size, test_count)] + rng.normal(0, 1e-6, (test_count, dim))
    elif kind == "equidistant":
        # integer grid: midpoints of two bank vectors tie exactly
        bank = rng.integers(-3, 4, (bank_size, dim)).astype(np.float64)
        a = bank[rng.integers(0, bank_size, test_count)]
        b = bank[rng.integers(0, bank_size, test_count)]
        tests = (a + b) / 2.0
    elif kind == "offset":
        # a common offset of 1e3 over a spread of 1e-3 makes
        # ||t||^2 + ||b||^2 - 2 t.b cancel badly: its rounding error is
        # several u * ||t||^2, larger than many of the distance gaps
        bank = 1e3 + rng.random((bank_size, dim)) * 1e-3
        tests = bank[rng.integers(0, bank_size, test_count)] + rng.normal(0, 1e-3, (test_count, dim))
    return bank.astype(np.float32), tests


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "duplicates", "equidistant", "offset"]),
    dim=st.sampled_from([1, 2, 3, 9, 36, 64]),
    bank_size=st.integers(1, 24),
    test_count=st.sampled_from([1, 255, 256, 257, 513]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="duplicates", dim=36, bank_size=24, test_count=513, seed=0)
@example(kind="equidistant", dim=1, bank_size=1, test_count=255, seed=1)
@example(kind="equidistant", dim=3, bank_size=20, test_count=256, seed=2)
@example(kind="offset", dim=9, bank_size=5, test_count=257, seed=3)
@example(kind="offset", dim=64, bank_size=24, test_count=513, seed=4)
def test_nearest_distances_match_bruteforce_bitwise(kind, dim, bank_size, test_count, seed):
    bank_v, tests = _search_case(kind, dim, bank_size, test_count, seed)
    d2, indices = _nearest_distances(SearchIndex.of(bank_v), tests)
    want_d, want_i = nearest_bruteforce(bank_v, tests)
    assert indices.tolist() == want_i
    assert np.sqrt(d2).tobytes() == np.asarray(want_d, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "duplicates", "equidistant", "offset", "cross-slice-tie"]),
    dim=st.sampled_from([1, 2, 3, 9, 36, 64]),
    slice_sizes=st.lists(st.integers(1, 10), min_size=2, max_size=5),
    test_count=st.sampled_from([1, 255, 257]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="cross-slice-tie", dim=3, slice_sizes=[4, 4, 4], test_count=257, seed=0)
@example(kind="cross-slice-tie", dim=1, slice_sizes=[1, 1, 1, 1, 1], test_count=255, seed=1)
@example(kind="offset", dim=64, slice_sizes=[6, 10, 8], test_count=257, seed=2)
def test_search_of_appended_slices_matches_whole_bank_bitwise(
    kind, dim, slice_sizes, test_count, seed
):
    bounds = np.cumsum(slice_sizes)
    if kind == "cross-slice-tie":
        # every later vector repeats one of the first slice, so a test
        # vector's nearest distance recurs at a higher index: the lower wins
        first, tests = _search_case("equidistant", dim, slice_sizes[0], test_count, seed)
        repeats = np.random.default_rng(seed).integers(0, slice_sizes[0], bounds[-1] - bounds[0])
        bank_v = np.concatenate([first, first[repeats]])
    else:
        bank_v, tests = _search_case(kind, dim, int(bounds[-1]), test_count, seed)
    index = SearchIndex.of(bank_v[: bounds[0]])
    nearest = search(index, tests)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        index = index.extended(bank_v[lo:hi])
        nearest = search(index, tests, nearest)
    want_d2, want_i = _nearest_distances(SearchIndex.of(bank_v), tests)
    assert index.vectors.tobytes() == bank_v.astype(np.float64).tobytes()
    assert nearest.rows == bank_v.shape[0]
    assert nearest.index.tolist() == want_i.tolist()
    assert nearest.d2.tobytes() == want_d2.tobytes()


def test_nearest_distances_all_duplicate_bank_memory():
    count, dim = 2000, 64
    index = SearchIndex.of(np.full((count, dim), 0.5, np.float32))
    tests = np.random.default_rng(3).random((_SCORE_CHUNK, dim))
    tracemalloc.start()
    try:
        d2, indices = _nearest_distances(index, tests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert indices.tolist() == [0] * _SCORE_CHUNK  # every index ties; lowest wins
    assert d2.tolist() == [float(((t - 0.5) ** 2).sum()) for t in tests]
    broadcast = _SCORE_CHUNK * count * dim * 8  # the chunk x bank x dim float64 array
    assert peak < broadcast / 8


def test_score_patches_errors():
    bank = _bank([[0, 0]])
    empty = MemoryBank.empty(2)
    with pytest.raises(DetectorError) as exc:
        score_patches(empty, _grid([[0, 0]]), _index(empty))
    assert exc.value.code == "empty-bank"
    with pytest.raises(DetectorError) as exc:
        score_patches(bank, _grid([[0, 0, 0]]), _index(bank))
    assert exc.value.code == "dim-mismatch"


def test_reweight_b1_no_reweighting():
    index = SearchIndex.of([[0.0], [3.0]])
    assert reweight(index, np.array([1.0]), 1.0, 0, 1) == 1.0


def test_reweight_worked_example():
    index = SearchIndex.of([[0.0], [3.0]])
    s = reweight(index, np.array([1.0]), 1.0, 0, 2)
    assert s == pytest.approx(np.e / (1 + np.e), abs=1e-9)


def test_reweight_equidistant_neighbors():
    index = SearchIndex.of([[1.0, 0.0], [-1.0, 0.0]])
    s = reweight(index, np.array([0.0, 0.0]), 1.0, 0, 2)
    assert s == pytest.approx(0.5, abs=1e-12)


def test_reweight_bounds_and_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        dim = int(rng.integers(1, 4))
        index = SearchIndex.of(rng.standard_normal((n, dim)).astype(np.float32))
        test = rng.standard_normal(dim)
        d = np.sqrt(((index.vectors - test) ** 2).sum(axis=1))
        neighbor = int(np.argmin(d))
        s_star = float(d[neighbor])
        b = int(rng.integers(1, n + 1))
        s = reweight(index, test, s_star, neighbor, b)
        assert 0.0 <= s <= s_star
    # a second neighbor moving closer strictly lowers the score
    test = np.array([0.0])
    previous = None
    for second in (10.0, 5.0, 2.0, 1.0):
        index = SearchIndex.of([[0.5], [second]])
        s = reweight(index, test, 0.5, 0, 2)
        if previous is not None:
            assert s < previous
        previous = s


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(2, 60),
    dim=st.integers(1, 4),
    levels=st.sampled_from([1, 2, 3, 5, 1000]),
    b_kind=st.sampled_from(["two", "some", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=2, dim=1, levels=1, b_kind="all", seed=0)
@example(count=40, dim=2, levels=2, b_kind="all", seed=1)
@example(count=40, dim=3, levels=3, b_kind="some", seed=2)
def test_reweight_matches_lexsort_reference(count, dim, levels, b_kind, seed):
    """Bit for bit, on banks quantized to a few levels, so most distances tie.

    Coordinates lie in [0, 1), so distances differ by less than 2 and
    every neighbour's softmax term reaches the score.
    """
    rng = np.random.default_rng(seed)
    scale = max(levels, 4)
    vectors = (rng.integers(0, levels, (count, dim)) / scale).astype(np.float32)
    test = (rng.integers(0, levels, dim) + rng.choice([0.0, 0.5])) / scale
    d = np.sqrt(((vectors.astype(np.float64) - test) ** 2).sum(axis=1))
    neighbor = int(np.argmin(d))
    b = {"two": 2, "some": int(rng.integers(2, count + 1)), "all": count}[b_kind]
    expected = reweight_reference(vectors, test, float(d[neighbor]), neighbor, b)
    assert reweight(SearchIndex.of(vectors), test, float(d[neighbor]), neighbor, b) == expected


def test_reweight_b_out_of_range():
    index = SearchIndex.of([[0.0]])
    with pytest.raises(DetectorError) as exc:
        reweight(index, np.array([1.0]), 1.0, 0, 2)
    assert exc.value.code == "b-out-of-range"


def test_score_image_replay_zero():
    codes = np.arange(8, dtype=np.uint8).reshape(4, 2)
    grid = PatchFeatureGrid(2, 2, 2, codes)
    bank = _bank(codes)
    result, patch_map = score_image(bank, grid, 2, _index(bank))
    assert result.s_star == 0.0
    assert result.s == 0.0
    assert np.all(patch_map == 0.0)


def test_score_image_max_aggregation():
    bank = _bank([[0, 0]])
    grid = PatchFeatureGrid(2, 1, 2, np.array([[51, 0], [204, 0]], np.uint8))  # 0.2 and 0.8
    result, patch_map = score_image(bank, grid, 1, _index(bank))
    assert result.s == pytest.approx(0.8, abs=1e-6)
    assert patch_map.shape == (2, 1)


def test_score_image_single_patch():
    bank = _bank([[0], [2]])
    grid = PatchFeatureGrid(1, 1, 1, np.array([[1]], np.uint8))
    result, _ = score_image(bank, grid, 2, _index(bank))
    assert result.s == pytest.approx(
        reweight(_index(bank), grid.rows(0), result.s_star, result.neighbor_index, 2)
    )


def test_permutation_invariance_of_scores():
    rng = np.random.default_rng(14)
    codes = rng.integers(0, 256, (10, 3), dtype=np.uint8)
    grid = PatchFeatureGrid(2, 2, 3, rng.integers(0, 256, (4, 3), dtype=np.uint8))
    bank = _bank(codes)
    result, _ = score_image(bank, grid, 3, _index(bank))
    order = rng.permutation(10)
    shuffled = _bank(codes[order])
    result2, _ = score_image(shuffled, grid, 3, _index(shuffled))
    assert result2.s_star == pytest.approx(result.s_star, abs=1e-12)
    assert result2.s == pytest.approx(result.s, abs=1e-12)


def test_monotone_coreset_degradation():
    rng = np.random.default_rng(15)
    codes = rng.integers(0, 256, (30, 4), dtype=np.uint8)
    bank = _bank(codes)
    grid = PatchFeatureGrid(1, 3, 4, rng.integers(0, 256, (3, 4), dtype=np.uint8))
    _, full_s_star, _, _ = score_patches(bank, grid, _index(bank))
    for l in (1, 5, 10, 20, 30):
        picked = coreset_select(_bank(codes), CoresetParams(l=l))
        sub = _bank(codes[picked])
        _, s_star, _, _ = score_patches(sub, grid, _index(sub))
        assert s_star >= full_s_star - 1e-12


# --- rendering ------------------------------------------------------------------------


def test_render_constant_map():
    patch_map = np.full((3, 3), 0.7)
    for sigma in (0.0, 2.0):
        out = render_anomaly_map(patch_map, 12, 12, patch_size=4, stride=4, smoothing_sigma=sigma)
        assert out.shape == (12, 12)
        assert np.allclose(out, 0.7)


def test_render_single_cell():
    out = render_anomaly_map(np.array([[0.3]]), 8, 8, 8, 8, smoothing_sigma=0.0)
    assert np.allclose(out, 0.3)


def test_render_bilinear_gradient():
    out = render_anomaly_map(
        np.array([[0.0, 1.0]]), 2, 4, patch_size=2, stride=2, smoothing_sigma=0.0
    )
    row = out[0]
    assert np.all(np.diff(row) >= 0)
    # hand bilinear: centers at x=0.5 and 2.5, pixel x mapped to (x-0.5)/2
    assert row.tolist() == [0.0, 0.25, 0.75, 1.0]


def test_render_order_preserving_at_centers():
    # patch 3 stride 2 on a 5px image: centers land on integer pixels 1 and 3
    patch_map = np.array([[0.1, 0.9], [0.5, 0.3]])
    out = render_anomaly_map(patch_map, 5, 5, patch_size=3, stride=2, smoothing_sigma=0.0)
    centers = out[np.ix_([1, 3], [1, 3])]
    assert np.allclose(centers, patch_map)


def test_render_bad_dims():
    with pytest.raises(DetectorError) as exc:
        render_anomaly_map(np.zeros((0, 2)), 8, 8, 4, 4, 4.0)
    assert exc.value.code == "bad-dims"
    with pytest.raises(DetectorError) as exc:
        render_anomaly_map(np.zeros((3, 3)), 8, 8, 4, 4, 4.0)  # 8px/patch4/stride4 -> 2x2
    assert exc.value.code == "bad-dims"


@settings(max_examples=300, deadline=None)
@given(
    height=st.integers(1, 48),
    width=st.integers(1, 48),
    sigma=st.floats(0.5, 8.0),
    magnitude=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(height=1, width=1, sigma=8.0, magnitude=0, seed=0)
@example(height=1, width=40, sigma=2.0, magnitude=0, seed=1)
@example(height=40, width=1, sigma=4.0, magnitude=0, seed=2)
@example(height=3, width=5, sigma=0.5, magnitude=3, seed=3)
@example(height=48, width=48, sigma=2.0, magnitude=0, seed=4)
def test_gaussian_blur_matches_scipy_bitwise(height, width, sigma, magnitude, seed):
    """Bit for bit, including images narrower than the kernel's radius."""
    image = np.random.default_rng(seed).random((height, width)) * 10.0**magnitude
    before = image.tobytes()
    got = _gaussian_blur(image, sigma)
    assert image.tobytes() == before
    assert got.shape == image.shape and got.flags.c_contiguous
    assert np.array_equal(got, gaussian_filter_scipy(image, sigma))


@settings(max_examples=300, deadline=None)
@given(
    grid_h=st.integers(1, 12),
    grid_w=st.integers(1, 12),
    stride=st.integers(1, 6),
    overlap=st.just(0) | st.integers(1, 4),
    margins=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    sigma=st.just(0.0) | st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(grid_h=1, grid_w=1, stride=8, overlap=0, margins=(0, 0), sigma=0.0, seed=0)
@example(grid_h=1, grid_w=1, stride=3, overlap=1, margins=(2, 1), sigma=2.0, seed=1)
@example(grid_h=3, grid_w=7, stride=2, overlap=4, margins=(1, 0), sigma=0.0, seed=2)
@example(grid_h=9, grid_w=2, stride=6, overlap=0, margins=(5, 3), sigma=1.5, seed=3)
def test_render_matches_reference_bitwise(grid_h, grid_w, stride, overlap, margins, sigma, seed):
    """Bit for bit against the four-gather expression and scipy's blur.

    Patches overlap (stride < patch) or tile (``overlap`` 0); margins
    shorter than the stride leave the grid size unchanged.
    """
    rng = np.random.default_rng(seed)
    patch_size = stride + overlap
    image_h = (grid_h - 1) * stride + patch_size + margins[0] % stride
    image_w = (grid_w - 1) * stride + patch_size + margins[1] % stride
    patch_map = rng.random((grid_h, grid_w)) * 10.0 ** int(rng.integers(-3, 4))
    got = render_anomaly_map(patch_map, image_h, image_w, patch_size, stride, sigma)
    expected = render_reference(patch_map, image_h, image_w, patch_size, stride, sigma)
    assert got.shape == (image_h, image_w)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("sigma, bound", [(0.0, 3.2), (2.0, 6.2)])
def test_render_peak_memory(sigma, bound):
    """Traced peak of one 256 px map from a 32 x 32 grid, in map sizes.

    The result and one scratch term are full-size during upsampling; the
    blur adds its padded copy, accumulator and pair buffer. The
    four-gather expression this replaced peaked at 3.16 and 6.09 maps.
    """
    patch_map = np.random.default_rng(0).random((32, 32))
    tracemalloc.start()
    try:
        out = render_anomaly_map(patch_map, 256, 256, 8, 8, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.nbytes


# --- continual extension -----------------------------------------------------------------


def _selected(codes, params) -> MemoryBank:
    """A task's coreset in pick order, as the runner passes it."""
    task = _bank(codes)
    return task.take(coreset_select(task, params))


def test_extend_from_empty():
    codes = np.arange(8, dtype=np.uint8).reshape(4, 2)
    bank = extend_bank_for_task(MemoryBank.empty(2), _selected(codes, CoresetParams(l=4)), 1)
    assert bank.count == 4
    assert np.all(bank.task_tags == 1)


def test_extend_budgets_and_tags():
    rng = np.random.default_rng(16)
    codes1 = rng.integers(0, 128, (20, 3))
    codes2 = rng.integers(128, 256, (20, 3))
    bank = extend_bank_for_task(MemoryBank.empty(3), _selected(codes1, CoresetParams(l=10)), 1)
    bank = extend_bank_for_task(bank, _selected(codes2, CoresetParams(l=10)), 2)
    assert bank.count == 20
    assert (bank.task_tags == 1).sum() == 10
    assert (bank.task_tags == 2).sum() == 10


def test_extend_union_search():
    bank = extend_bank_for_task(MemoryBank.empty(1), _selected([[0]], CoresetParams(l=1)), 1)
    bank = extend_bank_for_task(bank, _selected([[250]], CoresetParams(l=1)), 2)
    _, _, _, neighbor = score_patches(bank, _grid([[102]]), _index(bank))  # 0.4
    assert bank.task_tags[neighbor] == 1  # task-1 memory still reachable


def test_extend_task_order_violation():
    bank = extend_bank_for_task(MemoryBank.empty(1), _selected([[0]], CoresetParams(l=1)), 2)
    with pytest.raises(DetectorError) as exc:
        extend_bank_for_task(bank, _selected([[0]], CoresetParams(l=1)), 2)
    assert exc.value.code == "task-order-violation"


def test_extend_checks_dim_before_coreset(monkeypatch):
    def no_coreset(bank, params):
        raise AssertionError("coreset_select ran while extending a bank")

    # the caller selects the task's coreset; extending checks dims and selects nothing
    monkeypatch.setattr(detector, "coreset_select", no_coreset)
    bank = MemoryBank(2, np.zeros((1, 2), np.uint8), np.ones(1, np.uint32))
    with pytest.raises(DetectorError) as exc:
        extend_bank_for_task(bank, _bank(np.zeros((1, 3))), 2)
    assert (exc.value.code, exc.value.message) == ("dim-mismatch", "task dim 3 != 2")


def test_extend_never_increases_earlier_distances():
    rng = np.random.default_rng(17)
    codes1 = rng.integers(0, 256, (16, 3))
    codes2 = rng.integers(0, 256, (16, 3))
    probe = PatchFeatureGrid(3, 3, 3, rng.integers(0, 256, (9, 3), dtype=np.uint8))
    bank1 = extend_bank_for_task(MemoryBank.empty(3), _selected(codes1, CoresetParams(l=8)), 1)
    bank2 = extend_bank_for_task(bank1, _selected(codes2, CoresetParams(l=8)), 2)
    before, _, _, _ = score_patches(bank1, probe, _index(bank1))
    after, _, _, _ = score_patches(bank2, probe, _index(bank2))
    assert np.all(after.d2 <= before.d2)  # the search is exact: no slack


# --- bank snapshots ------------------------------------------------------------------------


def test_bank_file_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    codes = rng.integers(0, 256, (7, 5), dtype=np.uint8)
    tags = np.array([0, 0, 1, 1, 2, 2, 2], np.uint32)
    bank = MemoryBank(5, codes, tags)
    path = str(tmp_path / "bank.iadb")
    write_bank_file(bank, path)
    dim, back_tags, vectors = read_bank_file(path)
    assert dim == 5
    assert np.array_equal(vectors, bank.rows(slice(None)))
    assert np.array_equal(back_tags, tags)


def test_bank_file_errors(tmp_path):
    bad = tmp_path / "bad.iadb"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError) as exc:
        read_bank_file(str(bad))
    assert exc.value.code == "bad-magic"

    import struct

    headless = tmp_path / "headless.iadb"
    headless.write_bytes(struct.pack("<4sHIQ", b"IADB", 1, 4, 2)[:17])
    with pytest.raises(FormatError) as exc:
        read_bank_file(str(headless))
    assert exc.value.code == "truncated-file"
    assert "header incomplete" in exc.value.message

    short = tmp_path / "short.iadb"
    short.write_bytes(struct.pack("<4sHIQ", b"IADB", 1, 4, 2) + b"\x00" * 10)
    with pytest.raises(FormatError) as exc:
        read_bank_file(str(short))
    assert exc.value.code == "truncated-file"

    wrong = tmp_path / "wrong.iadb"
    wrong.write_bytes(struct.pack("<4sHIQ", b"IADB", 3, 1, 0))
    with pytest.raises(FormatError) as exc:
        read_bank_file(str(wrong))
    assert exc.value.code == "version-unsupported"
