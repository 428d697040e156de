"""Acceptance suite.

One test per numbered criterion, each enforcing its stated tolerance
and printing a PASS line on success (run with ``pytest -s`` to see
them). Criteria 8-10 exercise the bundled synthetic benchmark config at
seed 42; the rest are oracle and formula checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from iadbench.data import PixelMask
from iadbench.detector import (
    CoresetParams,
    MemoryBank,
    SearchIndex,
    build_bank,
    coreset_select,
    extend_bank_for_task,
    reweight,
    score_patches,
)
from iadbench.features import extract_features, intensities
from iadbench.metrics import (
    LabeledScores,
    PixelPool,
    TaskMatrix,
    aupro,
    auroc,
    average_precision,
    connected_regions,
    forgetting_measure,
    mean_spro,
)
from iadbench.protocols import inject_noise, make_continual
from iadbench.rng import derive_seed
from iadbench.runner import load_config, run_experiment, _resolve_dataset
from iadbench.synth import SynthSpec, synth_dataset
from oracles import (
    ap_stepsum,
    auroc_pairwise,
    covering_radius,
    forgetting_direct,
    greedy_kcenter,
    optimal_kcenter_radius,
    region_curve_area,
)

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "synth_benchmark.json"


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def _bank(codes: np.ndarray) -> MemoryBank:
    """A single-task bank of these code rows."""
    return MemoryBank(codes)


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """The bundled benchmark, run on 1 thread and on 8 threads."""
    config = load_config(str(CONFIG_PATH))
    runs = {}
    for threads in (1, 8):
        out = tmp_path_factory.mktemp(f"bench_t{threads}")
        result = run_experiment(config, threads=threads, output_dir=str(out))
        assert result.failures == [], f"benchmark cells failed: {result.failures}"
        runs[threads] = (result.document, (out / "results.json").read_bytes())
    return config, runs


def test_criterion_1_ranking_metric_oracle():
    rng = np.random.default_rng(1001)
    checked = 0
    for i in range(500):
        n = int(rng.integers(2, 201))
        if i % 2 == 0:  # tie-heavy half
            scores = rng.integers(0, max(2, n // 8), size=n) / max(2, n // 8)
        else:
            scores = rng.random(n)
        labels = rng.random(n) < float(rng.uniform(0.15, 0.85))
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        if labels.all():
            labels[int(rng.integers(0, n))] = False
        data = LabeledScores(scores, labels)
        assert abs(auroc(data) - auroc_pairwise(scores.tolist(), labels.tolist())) <= 1e-9
        assert abs(
            average_precision(data) - ap_stepsum(scores.tolist(), labels.tolist())
        ) <= 1e-9
        checked += 1
    assert checked == 500
    _report(1, "auroc and average_precision match pairwise/step-sum oracles "
               "on 500 instances within 1e-9")


def _random_region_instance(rng, size=16):
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 5))):
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        y = int(rng.integers(0, size - h))
        x = int(rng.integers(0, size - w))
        mask[y : y + h, x : x + w] = True
    smap = rng.integers(0, 40, size=(size, size)) / 39.0
    return smap, mask


def _aupro(smap, mask, limit):
    """``aupro`` of one map, pooled against its mask's regions."""
    pool = PixelPool([connected_regions(PixelMask(mask))])
    pool.add(smap)
    return aupro(pool, limit)


def test_criterion_2_region_metric_oracle():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        smap, mask = _random_region_instance(rng)
        ours_pro = _aupro(smap, mask, 0.3)
        ref_pro = region_curve_area([smap.tolist()], [mask.tolist()], 0.3)
        assert abs(ours_pro - ref_pro) <= 1e-6
        rel = float(rng.uniform(0.002, 0.1))
        rset = connected_regions(PixelMask(mask), rel)
        ours_spro = mean_spro([smap], [rset], 0.05)
        ref_spro = region_curve_area(
            [smap.tolist()], [mask.tolist()], 0.05, relative_saturation=rel
        )
        assert abs(ours_spro - ref_spro) <= 1e-6
    mask = np.zeros((16, 16), dtype=bool)
    mask[4:7, 4:7] = True
    constant = np.full((16, 16), 0.5)
    assert abs(_aupro(constant, mask, 0.3) - 0.15) <= 1e-9
    _report(2, "aupro and mean_spro match the exhaustive-threshold oracle on "
               "100 16x16 instances within 1e-6; constant map integrates to 0.15")


def test_criterion_3_spro_reduction_law():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        smap, mask = _random_region_instance(rng, size=12)
        limit = float(rng.choice([0.05, 0.1, 0.3, 1.0]))
        rset = connected_regions(PixelMask(mask))  # s_i = |A_i|
        gap = mean_spro([smap], [rset], limit) - _aupro(smap, mask, limit)
        assert abs(gap) <= 1e-12
    _report(3, "with s_i = |A_i|, mean_spro equals aupro at equal limits on "
               "100 instances to 1e-12")


def test_criterion_4_coreset_oracle():
    rng = np.random.default_rng(1004)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 5))
        # ten code levels: ties as dense as on a grid of ten values
        bank = _bank(rng.integers(0, 10, size=(n, dim), dtype=np.uint8))
        l = int(rng.integers(1, n + 1))
        points = [tuple(map(float, row)) for row in intensities(bank.codes).astype(np.float64)]
        assert coreset_select(bank, CoresetParams(l=l)) == greedy_kcenter(points, l)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        bank = _bank(rng.integers(0, 256, (n, 2), dtype=np.uint8))
        points = [tuple(map(float, row)) for row in intensities(bank.codes).astype(np.float64)]
        for l in (1, 2, 3):
            if l > n:
                continue
            selected = coreset_select(bank, CoresetParams(l=l))
            assert covering_radius(points, selected) <= 2.0 * optimal_kcenter_radius(
                points, l
            ) + 1e-12
    _report(4, "coreset_select equals brute-force greedy k-center on 200 banks "
               "exactly; covering radius <= 2x optimal on enumerable instances")


def test_criterion_5_reweighting_formula():
    # code 255 reads as 1.0: the test row is 0 and 1 from the two rows
    index = SearchIndex.of(np.array([[0], [255]], np.uint8))
    assert reweight(index, np.array([0], np.uint8), 0.73, 1) == 0.73
    worked = reweight(index, np.array([0], np.uint8), 1.0, 2)
    assert abs(worked - np.e / (1.0 + np.e)) <= 1e-9
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        dim = int(rng.integers(1, 5))
        index = SearchIndex.of(rng.integers(0, 256, (n, dim), dtype=np.uint8))
        test = rng.integers(0, 256, dim, dtype=np.uint8)
        rows = intensities(index.codes).astype(np.float64)
        d = np.sqrt(((rows - intensities(test)) ** 2).sum(axis=1))
        neighbor = int(np.argmin(d))
        s_star = float(d[neighbor])
        b = int(rng.integers(1, n + 1))
        s = reweight(index, test, s_star, b)
        assert 0.0 <= s <= s_star
    _report(5, "b=1 passes s_star through; 1-D worked example gives e/(1+e) "
               "within 1e-9; 0 <= s <= s_star on 1000 random queries")


def test_criterion_6_forgetting_measure():
    assert forgetting_measure(
        TaskMatrix(2, {(1, 1): 0.9, (2, 1): 0.7, (2, 2): 0.8})
    ).per_task[1] == pytest.approx(0.2, abs=1e-15)
    assert forgetting_measure(
        TaskMatrix(2, {(1, 1): 0.5, (2, 1): 0.6, (2, 2): 0.8})
    ).per_task[1] == pytest.approx(-0.1, abs=1e-15)
    entries = {(1, 1): 0.8, (2, 1): 0.6, (2, 2): 0.9, (3, 1): 0.7, (3, 2): 0.85, (3, 3): 0.4}
    result = forgetting_measure(TaskMatrix(3, entries))
    assert result.per_task[1] == pytest.approx(0.1, abs=1e-15)
    assert result.per_task[2] == pytest.approx(0.05, abs=1e-15)
    assert result.mean == pytest.approx(0.075, abs=1e-15)
    rng = np.random.default_rng(1006)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        entries = {
            (l, j): float(rng.random()) for l in range(1, k + 1) for j in range(1, l + 1)
        }
        result = forgetting_measure(TaskMatrix(k, entries))
        reference, mean = forgetting_direct(entries, k)
        assert result.per_task == pytest.approx(reference, abs=1e-15)
        assert all(-1.0 <= v <= 1.0 for v in result.per_task.values())
        assert -1.0 <= result.mean <= 1.0 and abs(result.mean - mean) <= 1e-15
    _report(6, "forgetting measure reproduces the three hand-computed cases "
               "exactly and stays in [-1, 1] on random matrices")


def test_criterion_7_protocol_conservation_and_noise():
    from collections import Counter

    from iadbench.protocols import (
        augment_rotations,
        make_fewshot,
        make_supervised,
        make_unsupervised,
    )

    dataset16 = synth_dataset(
        SynthSpec(1, normals_train=16, normals_test=4, abnormals_test=20,
                  image_size=24, defect_kinds=("blob",)),
        seed=77,
    )
    cat = dataset16.categories[0]
    original = Counter(
        (s.id, s.label) for s in dataset16.train[cat] + dataset16.test[cat]
    )

    def observed(split, keep_derived=False):
        items = [(i.sample.id, i.sample.label) for i in split.train]
        items += [(s.id, s.label) for s in split.test]
        if not keep_derived:
            items = [(sid, lab) for sid, lab in items if "#rot" not in sid]
        return Counter(items)

    assert observed(make_unsupervised(dataset16, cat)) == original
    assert observed(make_supervised(dataset16, cat, 10, seed=3)) == original
    noisy = inject_noise(dataset16, cat, 0.2, seed=3)
    assert observed(noisy) == original
    fewshot = make_fewshot(dataset16, cat, 4, seed=3)
    few_counts = observed(fewshot)
    assert all(few_counts[key] <= original[key] for key in few_counts)
    rotated = augment_rotations(fewshot, 4)
    assert observed(rotated) == few_counts  # derived copies are extras only

    # noise accounting: m=16, r=0.2 -> n=4 exactly
    assert noisy.info["injected"] == 4
    assert noisy.info["achieved_ratio"] == pytest.approx(4 / 20, abs=1e-12)

    # cap case: m=100, r=0.2, 20 test abnormals -> n=15 exactly
    dataset100 = synth_dataset(
        SynthSpec(1, normals_train=100, normals_test=4, abnormals_test=20,
                  image_size=24, defect_kinds=("blob",)),
        seed=78,
    )
    capped = inject_noise(dataset100, dataset100.categories[0], 0.2, seed=3)
    assert capped.info["injected"] == 15
    assert capped.info["uncapped"] == 25
    assert capped.info["achieved_ratio"] == pytest.approx(15 / 115, abs=1e-12)
    _report(7, "conservation holds per setting; noise injection reproduces "
               "n=4 (m=16) and the capped n=15 (m=100, 20 abnormals) exactly")


def _without_timings(raw: bytes) -> bytes:
    document = json.loads(raw.decode("utf-8"))
    document.pop("timings")
    return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False).encode()


def test_criterion_8_end_to_end_determinism(bench_runs):
    _, runs = bench_runs
    doc1, raw1 = runs[1]
    doc8, raw8 = runs[8]
    assert raw1 != b"" and raw8 != b""
    assert _without_timings(raw1) == _without_timings(raw8)
    assert doc1["config_hash"] == doc8["config_hash"]
    _report(8, "two runs of the bundled benchmark (1 vs 8 threads) produce "
               "byte-identical results.json outside the timings subtree")


def test_criterion_9_self_benchmark_floor(bench_runs):
    _, runs = bench_runs
    document, _ = runs[1]
    cells = document["cells"]
    unsup = {c["category"]: c for c in cells if c["setting"] == "unsupervised"}
    fewshot = {c["category"]: c for c in cells if c["setting"] == "fewshot_m1_rot4"}
    assert unsup and fewshot
    for category, cell in unsup.items():
        assert cell["metrics"]["image_auroc"] >= 0.90, category
        assert cell["metrics"]["pixel_auroc"] >= 0.90, category
    unsup_mean = np.mean([c["metrics"]["image_auroc"] for c in unsup.values()])
    few_mean = np.mean([c["metrics"]["image_auroc"] for c in fewshot.values()])
    assert few_mean >= 0.95 * unsup_mean
    _report(9, f"unsupervised image/pixel AUROC >= 0.90 per category; "
               f"fewshot m=1 rot4 reaches {few_mean / unsup_mean:.1%} of the "
               f"unsupervised image AUROC (floor 95%)")


def test_criterion_10_continual_memory_bank(bench_runs):
    config, runs = bench_runs
    document, _ = runs[1]
    matrix = document["task_matrices"]["continual"]
    assert matrix["fm_mean"] <= 0.05

    # exact no-interference: extending the bank never increases any
    # earlier-task nearest-neighbor distance
    dataset = _resolve_dataset(config)
    order = dataset.categories
    sequence = make_continual(dataset, order)
    params = lambda step: config.coreset_params(  # noqa: E731
        derive_seed(42, "acceptance-continual", step)
    )
    bank = MemoryBank.empty(config.feature.patch_size**2)
    previous_d2: dict[int, np.ndarray] = {}
    for step, task in enumerate(sequence, start=1):
        task_bank = build_bank([i.sample.image for i in task.train], config.feature)
        picked = coreset_select(task_bank, params(step))
        bank = extend_bank_for_task(bank, task_bank.take(picked))
        index = SearchIndex.of(bank.codes)
        for prev in sequence[:step]:
            d2 = np.concatenate(
                [
                    score_patches(bank, extract_features(s.image, config.feature), index)[0].d2
                    for s in prev.test
                ]
            )
            if prev.index in previous_d2:
                assert np.all(d2 <= previous_d2[prev.index])
            previous_d2[prev.index] = d2
    _report(10, f"continual mean FM = {matrix['fm_mean']:.4f} <= 0.05; "
                f"append-only banks never increase earlier-task distances")
