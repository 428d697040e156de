from __future__ import annotations

import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadbench import detector, runner
from iadbench.data import Sample
from iadbench.errors import BenchError, ConfigError, DataError, DetectorError, ReportError
from iadbench.report import load_results, render_csv
from iadbench.features import extract_features, intensities
from iadbench.runner import (
    DetectorState,
    _build_split,
    _run_plain_cell,
    _scored_cell,
    efficiency_stats,
    evaluate,
    parse_config,
    run_experiment,
)
from iadbench.synth import SynthSpec, synth_dataset, write_dataset_tree
from oracles import bank_from_grids, read_bank_file


def _base_config(**overrides):
    cfg = {
        "schema": 1,
        "dataset": {
            "synthetic": {
                "categories": 2,
                "normals_train": 6,
                "normals_test": 4,
                "abnormals_test": 6,
                "image_size": 24,
                "defect_kinds": ["blob", "scratch"],
            }
        },
        "setting": [{"type": "unsupervised"}],
        "detector": {
            "feature": {"patch_size": 6, "stride": 3},
            "coreset": {"target_fraction": 0.5},
            "b": 2,
            "smoothing_sigma": 1.0,
        },
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


# --- config validation -----------------------------------------------------------


def test_unknown_key_names_path():
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(bogus=1))
    assert "bogus" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(detector={"b": 1, "extra": 2}))
    assert "detector" in str(exc.value) and "extra" in str(exc.value)


def test_invalid_b_names_path():
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(detector={"b": 0}))
    assert "detector.b" in str(exc.value)


def test_dataset_source_is_exclusive():
    cfg = _base_config()
    cfg["dataset"]["path"] = "/tmp/x"
    with pytest.raises(ConfigError):
        parse_config(cfg)
    with pytest.raises(ConfigError):
        parse_config(_base_config(dataset={}))


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(metrics=["image_auroc", "f1"]))
    assert "f1" in str(exc.value)


def test_schema_version_checked():
    with pytest.raises(ConfigError):
        parse_config(_base_config(schema=2))


def test_noise_sweep_expansion():
    cfg = parse_config(
        _base_config(setting=[{"type": "noisy", "noise_ratio": [0.05, 0.1, 0.15, 0.2]}])
    )
    labels = [s["label"] for s in cfg.settings]
    assert labels == ["noisy_r0.05", "noisy_r0.1", "noisy_r0.15", "noisy_r0.2"]


def test_duplicate_settings_rejected():
    with pytest.raises(ConfigError):
        parse_config(_base_config(setting=[{"type": "unsupervised"}, {"type": "unsupervised"}]))


def test_setting_grid_violations_are_config_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(setting={"type": "fewshot", "m": 3}))
    assert "setting[0]" in str(exc.value)
    parse_config(_base_config(setting={"type": "fewshot", "m": 3, "allow_custom_m": True}))
    with pytest.raises(ConfigError):
        parse_config(_base_config(setting={"type": "fewshot", "m": 1, "rotation_k": 3}))
    with pytest.raises(ConfigError):
        parse_config(_base_config(setting={"type": "noisy", "noise_ratio": 0.12}))
    parse_config(
        _base_config(setting={"type": "noisy", "noise_ratio": 0.12, "allow_custom_ratio": True})
    )


@pytest.mark.parametrize(
    "setting, path",
    [
        ({"type": "fewshot", "m": []}, "setting[0].m"),
        ({"type": "noisy", "noise_ratio": []}, "setting[0].noise_ratio"),
        ([], "setting"),
    ],
)
def test_empty_sweep_rejected(setting, path):
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(setting=setting))
    assert exc.value.code == "invalid-config"
    assert f"{path}: must not be empty" in str(exc.value)


def _continual_order(order):
    return {"setting": [{"type": "continual", "category_order": order}]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"categories": []}, "categories: must not be empty"),
        ({"categories": ["cat00", "cat00"]}, "categories: repeats a name"),
        ({"categories": [0]}, "categories[]: must be a string"),
        ({"categories": "cat00"}, "categories: must be a list"),
        (_continual_order([]), "setting[0].category_order: must not be empty"),
        (_continual_order(["cat00", "cat00"]), "setting[0].category_order: repeats a name"),
        (_continual_order([1, 2]), "setting[0].category_order[]: must be a string"),
        (_continual_order("cat00"), "setting[0].category_order: must be a list"),
        (_continual_order(["cat00"]), "setting[0].category_order: needs at least 2 categories"),
        ({"metrics": []}, "metrics.names: must not be empty"),
        ({"metrics": ["aupro", "aupro"]}, "metrics.names: repeats a name"),
        ({"metrics": {"names": []}}, "metrics.names: must not be empty"),
        ({"metrics": {"names": ["fm", "fm"]}}, "metrics.names: repeats a name"),
        ({"metrics": [1]}, "metrics.names[]: must be a string"),
    ],
)
def test_category_lists_are_distinct_names(overrides, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(**overrides))
    assert exc.value.code == "invalid-config"
    assert message in str(exc.value)


def test_category_lists_accepted():
    cfg = parse_config(_base_config(categories=["cat01"], **_continual_order(["cat01", "cat00"])))
    assert cfg.categories == ["cat01"]
    assert cfg.settings[0]["category_order"] == ["cat01", "cat00"]
    assert parse_config(_base_config(**_continual_order(None))).settings[0]["category_order"] is None


def test_category_lists_exit_code(tmp_path):
    from iadbench.cli import main

    path = tmp_path / "config.json"
    config = _base_config(output_dir=str(tmp_path / "out"), **_continual_order([1, 2]))
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"metrics": []}, {"metrics": ["aupro", "aupro"]}, _continual_order(["cat00"])],
)
def test_name_list_rules_exit_code(tmp_path, overrides):
    from iadbench.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(output_dir=str(tmp_path / "out"), **overrides)))
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_unknown_continual_category_exit_code(tmp_path):
    from iadbench.cli import main

    config = _base_config(**_continual_order(["cat00", "nope"]))
    with pytest.raises(DataError) as exc:
        run_experiment(parse_config(config))
    assert exc.value.code == "unknown-category"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "out"))))
    assert main(["run", "--config", str(path)]) == 3
    assert not (tmp_path / "out").exists()


_CUSTOM_M = {"type": "fewshot", "m": -1, "allow_custom_m": True}
_CUSTOM_RATIO = {"type": "noisy", "noise_ratio": 1.5, "allow_custom_ratio": True}
_WIDE_PROJECTION = {"feature": {"patch_size": 6, "stride": 3}, "coreset": {"projection_dim": 100}}
_ONE_SYNTH_CATEGORY = {"synthetic": dict(_base_config()["dataset"]["synthetic"], categories=1)}
_CONTINUAL_ON_ONE = {"categories": ["cat00"], "setting": {"type": "continual"}}
_CONTINUAL_ON_SYNTH_ONE = {
    "dataset": _ONE_SYNTH_CATEGORY,
    "setting": [{"type": "unsupervised"}, {"type": "continual"}],
}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"setting": _CUSTOM_M}, "setting[0].m: must be >= 1"),
        ({"setting": dict(_CUSTOM_M, m=[1, 0])}, "setting[0].m: must be >= 1"),
        ({"setting": _CUSTOM_RATIO}, "setting[0]: noise_ratio=1.5 not in (0, 1)"),
        ({"setting": dict(_CUSTOM_RATIO, noise_ratio=0)}, "noise_ratio=0.0 not in (0, 1)"),
        ({"detector": _WIDE_PROJECTION}, "projection_dim: must be <= patch_size**2 = 36"),
        ({"detector": {"coreset": {"target_fraction": 0.5, "l": 4}}}, "exactly one of"),
        ({"detector": {"coreset": {"target_fraction": 1.5}}}, "1.5 not in (0, 1]"),
        ({"detector": {"coreset": {"l": 0}}}, "detector.coreset: l=0 must be >= 1"),
        ({"detector": {"coreset": {"projection_dim": 0}}}, "projection_dim=0 must be >= 1"),
        ({"detector": {"smoothing_sigma": float("nan")}}, "smoothing_sigma: must be a number"),
        ({"metrics": {"pro_limit": float("inf")}}, "metrics.pro_limit: must be a number"),
        ({"setting": dict(_CUSTOM_RATIO, noise_ratio=10**400)}, "noise_ratio: must be a number"),
        ({"dataset": {"path": None}}, "dataset.path: must be a string"),
        (_CONTINUAL_ON_ONE, "setting[0]: continual needs at least 2 categories, the run has 1"),
        (_CONTINUAL_ON_SYNTH_ONE, "setting[1]: continual needs at least 2 categories, the run has 1"),
    ],
)
def test_value_rules_checked_at_parse_time(overrides, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(**overrides))
    assert exc.value.code == "invalid-config"
    assert message in str(exc.value)


def test_value_rules_accept_their_bounds():
    parse_config(_base_config(setting=dict(_CUSTOM_M, m=[1, 3])))
    parse_config(_base_config(setting=dict(_CUSTOM_RATIO, noise_ratio=0.99)))
    detector = {"feature": {"patch_size": 6, "stride": 3}, "coreset": {"projection_dim": 36}}
    assert parse_config(_base_config(detector=detector)).coreset_params(5).projection_dim == 36
    # the continual category count is a run-time rule when the disk decides it
    parse_config(_base_config(dataset={"path": "data"}, setting={"type": "continual"}))
    parse_config(_base_config(dataset=_ONE_SYNTH_CATEGORY))


@pytest.mark.parametrize(
    "overrides",
    [
        {"setting": _CUSTOM_M},
        {"setting": _CUSTOM_RATIO},
        {"detector": _WIDE_PROJECTION},
        {"dataset": {"path": None}},
        _CONTINUAL_ON_ONE,
        _CONTINUAL_ON_SYNTH_ONE,
    ],
)
def test_value_rules_exit_code(tmp_path, overrides):
    from iadbench.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(output_dir=str(tmp_path / "out"), **overrides)))
    assert main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


_SPLIT_SETTINGS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("fewshot"), "m": st.integers(-2, 12), "allow_custom_m": st.booleans()},
        optional={"rotation_k": st.integers(0, 5)},
    ),
    st.fixed_dictionaries(
        {
            "type": st.just("noisy"),
            "noise_ratio": st.one_of(st.floats(0, 1), st.floats(), st.integers(-1, 2)),
            "allow_custom_ratio": st.booleans(),
        }
    ),
    st.fixed_dictionaries({"type": st.just("supervised")}, optional={"n": st.integers(-2, 12)}),
)


@settings(max_examples=50, deadline=None)
@given(setting=_SPLIT_SETTINGS, seed=st.integers(0, 2**64 - 1))
@example(setting=_CUSTOM_M, seed=0)
def test_accepted_settings_build_or_raise_bench_errors(small_dataset, setting, seed):
    try:
        config = parse_config(_base_config(setting=setting))
    except ConfigError:
        return
    for expanded in config.settings:
        try:
            _build_split(small_dataset, "cat00", expanded, seed)
        except BenchError:
            pass


@pytest.mark.parametrize("value", ["false", 1, None])
def test_allow_custom_m_must_be_boolean(value):
    with pytest.raises(ConfigError) as exc:
        parse_config(_base_config(setting={"type": "fewshot", "m": 3, "allow_custom_m": value}))
    assert exc.value.code == "invalid-config"
    assert "allow_custom_m" in str(exc.value)


@pytest.mark.parametrize("value", ["false", 1, None])
def test_allow_custom_ratio_must_be_boolean(value):
    with pytest.raises(ConfigError) as exc:
        parse_config(
            _base_config(
                setting={"type": "noisy", "noise_ratio": 0.12, "allow_custom_ratio": value}
            )
        )
    assert exc.value.code == "invalid-config"
    assert "allow_custom_ratio" in str(exc.value)


def test_output_dir_excluded_from_hash():
    a = parse_config(_base_config(output_dir="one"))
    b = parse_config(_base_config(output_dir="two"))
    assert a.config_hash == b.config_hash
    c = parse_config(_base_config(seed=12))
    assert a.config_hash != c.config_hash


def test_config_hash_is_location_free(tmp_path):
    spec = SynthSpec(
        categories=1,
        normals_train=4,
        normals_test=2,
        abnormals_test=2,
        image_size=24,
        defect_kinds=("blob",),
    )
    first = str(tmp_path / "first")
    second = str(tmp_path / "elsewhere" / "second")
    write_dataset_tree(synth_dataset(spec, seed=1), first)
    shutil.copytree(first, second)
    results = []
    for root in (first, second):
        config = parse_config(_base_config(dataset={"path": root}))
        result = run_experiment(config, output_dir=str(tmp_path / "out" / os.path.basename(root)))
        assert result.failures == []
        assert load_results(os.path.join(result.output_dir, "results.json")) == result.document
        results.append((config, result.document))
    (config_a, doc_a), (config_b, doc_b) = results
    assert config_a.config_hash == config_b.config_hash
    assert doc_a["config"] == {**config_a.canonical, "dataset": {"sha256": config_a.dataset_sha256}}
    assert doc_a["dataset_source"] == {"path": first, "sha256": config_a.dataset_sha256}
    assert doc_b["dataset_source"] == {"path": second, "sha256": config_a.dataset_sha256}
    skip = ("dataset_source", "timings")
    assert {k: v for k, v in doc_a.items() if k not in skip} == {
        k: v for k, v in doc_b.items() if k not in skip
    }
    # changing one byte of the data changes the hash
    image = next(Path(second, "cat00", "train", "good").iterdir())
    payload = bytearray(image.read_bytes())
    payload[-1] ^= 1
    image.write_bytes(bytes(payload))
    changed = parse_config(_base_config(dataset={"path": second}))
    assert changed.config_hash != config_a.config_hash


# --- execution ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    dataset = {
        "synthetic": {
            "categories": 2,
            "normals_train": 16,
            "normals_test": 4,
            "abnormals_test": 6,
            "image_size": 24,
            "defect_kinds": ["blob", "scratch"],
        }
    }
    cfg = parse_config(
        _base_config(
            dataset=dataset,
            setting=[
                {"type": "unsupervised"},
                {"type": "noisy", "noise_ratio": [0.05, 0.1, 0.15, 0.2]},
                {"type": "continual"},
            ],
        )
    )
    out = tmp_path_factory.mktemp("sweep")
    return run_experiment(cfg, threads=2, save_banks=True, output_dir=str(out)), cfg


def test_cell_contract(sweep_run):
    result, cfg = sweep_run
    assert result.failures == []
    unsup = [c for c in result.document["cells"] if c["setting"] == "unsupervised"]
    assert len(unsup) == 2
    for cell in unsup:
        for name in ("image_auroc", "image_ap", "pixel_auroc", "pixel_ap", "aupro"):
            assert isinstance(cell["metrics"][name], float)
        assert cell["metrics"]["fm"] is None
        assert cell["na_reasons"]["fm"] == "not-continual"


def test_noise_sweep_cells_with_provenance(sweep_run):
    result, _ = sweep_run
    noisy = [c for c in result.document["cells"] if c["setting"].startswith("noisy")]
    assert len(noisy) == 8  # 4 ratios x 2 categories
    for cell in noisy:
        info = cell["info"]
        injected = [p for p in cell["provenance"] if p["transform"] == "injected-as-normal"]
        assert len(injected) == info["injected"]
        m = 16  # normals_train
        assert info["achieved_ratio"] == pytest.approx(
            info["injected"] / (m + info["injected"])
        )
    # the m=16, r=0.2 case injects exactly 4
    r02 = next(c for c in noisy if c["setting"] == "noisy_r0.2")
    assert r02["info"]["injected"] == 4


def test_continual_task_matrix(sweep_run):
    result, _ = sweep_run
    matrix = result.document["task_matrices"]["continual"]
    assert matrix["k"] == 2
    assert len(matrix["entries"]) == 3  # lower-triangular occupancy
    cells = [c for c in result.document["cells"] if c["setting"] == "continual"]
    assert len(cells) == 2
    by_cat = {c["category"]: c for c in cells}
    first = matrix["order"][0]
    last = matrix["order"][-1]
    assert isinstance(by_cat[first]["metrics"]["fm"], float)
    assert by_cat[last]["metrics"]["fm"] is None
    assert by_cat[last]["na_reasons"]["fm"] == "fm-undefined-for-final-task"


def _without_timings(document: dict) -> str:
    return json.dumps({k: v for k, v in document.items() if k != "timings"}, sort_keys=True)


def test_continual_incremental_matches_full_rescoring(monkeypatch):
    k, test_images = 4, 4 + 6  # categories; normal + abnormal test images per category
    dataset = {
        "synthetic": {
            "categories": k,
            "normals_train": 6,
            "normals_test": 4,
            "abnormals_test": 6,
            "image_size": 24,
            "defect_kinds": ["blob", "scratch"],
        }
    }
    config = parse_config(_base_config(dataset=dataset, setting={"type": "continual"}))

    # the work counters: bank rows each search starts and stops at, and maps rendered
    searches, renders = [], []
    nearest_distances = detector._nearest_distances
    render_anomaly_map = runner.render_anomaly_map

    def searching(index, vectors, start=0):
        searches.append((start, index.count))
        return nearest_distances(index, vectors, start)

    def rendering(*args):
        renders.append(args[0].shape)
        return render_anomaly_map(*args)

    monkeypatch.setattr(detector, "_nearest_distances", searching)
    monkeypatch.setattr(runner, "render_anomaly_map", rendering)
    incremental = run_experiment(config, threads=1).document
    monkeypatch.undo()

    # the reference: after each step every seen task is rescored against
    # the whole bank, with maps, as if nothing were known from the step before
    full = runner.evaluate
    monkeypatch.setattr(
        runner, "evaluate", lambda state, samples, known=None, render=True: full(state, samples)
    )
    reference = run_experiment(config, threads=1).document

    assert incremental["task_matrices"]["continual"]["k"] == k
    assert json.dumps(incremental["task_matrices"]) == json.dumps(reference["task_matrices"])
    assert _without_timings(incremental) == _without_timings(reference)

    # each search covers whole slices: from a step's first row to its last
    steps = sorted({stop for _, stop in searches})
    assert len(steps) == k
    assert {start for start, _ in searches} <= {0, *steps[:-1]}
    slices = sum(sum(start < stop_l <= stop for stop_l in steps) for start, stop in searches)
    # the k tasks' test sets each meet each of the k slices once: k^2
    # slice searches per test image position, where rescoring every seen
    # task against the whole bank takes sum(l^2) = 30
    assert len(searches) == test_images * k * (k + 1) // 2
    assert slices == test_images * k**2
    assert len(renders) == test_images * k


def test_efficiency_sanity(sweep_run):
    result, _ = sweep_run
    timings = result.document["timings"]
    assert timings
    for cell_id, timing in timings.items():
        assert 0 < timing["latency_ms_p50"] <= timing["latency_ms_p95"]
    for cell in result.document["cells"]:
        assert cell["bank_bytes"] == cell["bank_vectors"] * 36 * 4  # dim = 6*6


def test_bank_snapshots(sweep_run):
    result, _ = sweep_run
    banks_dir = os.path.join(result.output_dir, "banks")
    unsup = [c for c in result.document["cells"] if c["setting"] == "unsupervised"]
    for cell in unsup:
        path = os.path.join(banks_dir, f"{cell['category']}.iadb")
        assert os.path.isfile(path)
        _, task_tags, _ = read_bank_file(path)
        assert task_tags.size == cell["bank_vectors"]
        # vector payload size equals the recorded bank_bytes
        header, tags = 18, 4 * task_tags.size
        assert os.path.getsize(path) - header - tags == cell["bank_bytes"]


def test_results_hash_integrity(sweep_run):
    result, _ = sweep_run
    path = os.path.join(result.output_dir, "results.json")
    document = load_results(path)
    assert document["config_hash"] == result.document["config_hash"]
    corrupted = dict(document, config_hash="0" * 64)
    bad_path = os.path.join(result.output_dir, "corrupt.json")
    with open(bad_path, "w") as fh:
        json.dump(corrupted, fh)
    with pytest.raises(ReportError):
        load_results(bad_path)


def test_failing_cell_is_partial(tmp_path):
    cfg = parse_config(
        _base_config(setting=[{"type": "unsupervised"}, {"type": "supervised", "n": 50}])
    )
    result = run_experiment(cfg, output_dir=str(tmp_path))
    failed = [c for c in result.document["cells"] if c["status"] == "failed"]
    ok = [c for c in result.document["cells"] if c["status"] == "ok"]
    assert len(failed) == 2 and len(ok) == 2
    assert all(c["error"]["code"] == "insufficient-abnormals" for c in failed)
    assert sorted(result.failures) == sorted(c["cell_id"] for c in failed)
    # failed rows render blank, run is still reported
    csv = render_csv(result.document)
    assert len(csv.splitlines()) == 5


def test_thread_determinism_small(tmp_path):
    cfg = parse_config(_base_config(setting=[{"type": "fewshot", "m": 2, "rotation_k": 2}]))
    r1 = run_experiment(cfg, threads=1, output_dir=str(tmp_path / "a"))
    r2 = run_experiment(cfg, threads=4, output_dir=str(tmp_path / "b"))
    d1 = dict(r1.document)
    d2 = dict(r2.document)
    d1.pop("timings")
    d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


# --- efficiency op ---------------------------------------------------------------------


def _tiny_state(bank_vectors=1000, dim=16):
    from iadbench.detector import MemoryBank
    from iadbench.features import FeatureProviderConfig

    bank = MemoryBank(
        dim,
        np.zeros((bank_vectors, dim), np.uint8),
        np.zeros(bank_vectors, np.uint32),
    )
    return DetectorState(bank, FeatureProviderConfig(4, 4, "raw-patch"), 1, 0.0)


def _samples(count):
    from iadbench.data import ImageGrid

    rng = np.random.default_rng(0)
    return [
        Sample(
            f"good/{i}",
            ImageGrid(rng.integers(0, 256, (8, 8), dtype=np.uint8)),
            "normal",
            None,
            "good",
            "c",
        )
        for i in range(count)
    ]


def test_efficiency_stats_counts():
    state = _tiny_state()
    samples = _samples(10)
    scored = evaluate(state, samples)
    stats = efficiency_stats(scored[2])
    assert stats.latency_ms_p50 <= stats.latency_ms_p95
    assert stats.latency_ms_mean > 0
    config = parse_config(_base_config())
    dataset = synth_dataset(config.synth_spec, 0)
    cell = _scored_cell(config, dataset, "c", "unsupervised", 0, samples, scored, state.bank, False)
    assert cell.bank_bytes == 64_000


def test_efficiency_stats_too_few():
    state = _tiny_state()
    _, _, latencies_ms = evaluate(state, _samples(4))
    assert efficiency_stats(latencies_ms) is None


def test_evaluate_pools_non_square_images():
    """Each 8 x 12 map fills the pool slot its mask sized: (height, width)."""
    from iadbench.data import ImageGrid, PixelMask

    rng = np.random.default_rng(1)
    mask = np.zeros((8, 12), bool)
    mask[2:5, 3:9] = True
    samples = [
        Sample(sid, ImageGrid(rng.integers(0, 256, (8, 12), np.uint8)), label, bits, kind, "c")
        for sid, label, bits, kind in [
            ("good/0", "normal", None, "good"),
            ("dent/0", "abnormal", PixelMask(mask), "dent"),
        ]
    ]
    _, pool, _ = evaluate(_tiny_state(), samples, render=True)
    assert pool.ranked() is pool
    assert (pool.negatives.size, pool.positives.size) == (2 * 96 - 18, 18)


def test_plain_cell_scores_each_test_image_once(monkeypatch):
    scored = []
    score_sample = DetectorState.score_sample

    def counting(self, sample, *args):
        scored.append((sample.category, sample.id))
        return score_sample(self, sample, *args)

    monkeypatch.setattr(DetectorState, "score_sample", counting)
    result = run_experiment(parse_config(_base_config()), threads=1)
    assert len(scored) == 2 * (4 + 6)  # categories x (normal + abnormal test images)
    assert len(set(scored)) == len(scored)
    # latencies come from that single pass
    assert sorted(result.document["timings"]) == [c["cell_id"] for c in result.document["cells"]]


def test_full_fraction_cell_keeps_bank_without_coreset(monkeypatch):
    cfg = _base_config()
    del cfg["detector"]["coreset"]  # target_fraction defaults to 1.0
    config = parse_config(cfg)
    dataset = runner._resolve_dataset(config)
    split = _build_split(dataset, "cat00", config.settings[0], 0)
    grids = [extract_features(i.sample.image, config.feature) for i in split.train]
    expected = bank_from_grids(grids)

    def no_coreset(bank, params):
        raise AssertionError("coreset_select called for a full-fraction bank")

    cells = []

    def recording(*args):
        cells.append(_run_plain_cell(*args))
        return cells[-1]

    monkeypatch.setattr(runner, "coreset_select", no_coreset)
    monkeypatch.setattr(runner, "_run_plain_cell", recording)
    run_experiment(config, threads=1, save_banks=True)  # the cells keep their banks
    cell = next(c for c in cells if c.category == "cat00")
    assert cell.status == "ok"
    assert np.array_equal(cell.bank.rows(slice(None)), expected)


# --- shared coresets -------------------------------------------------------------------------

BUNDLED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "synth_benchmark.json"


def _counting_coreset(monkeypatch) -> list:
    """Record the (bank size, params) of every runner.coreset_select call."""
    calls = []
    select = runner.coreset_select

    def counting(bank, params):
        calls.append((bank.count, params))
        return select(bank, params)

    monkeypatch.setattr(runner, "coreset_select", counting)
    return calls


def test_bundled_config_selects_each_coreset_once(monkeypatch, tmp_path):
    config = runner.load_config(str(BUNDLED_CONFIG))
    calls = _counting_coreset(monkeypatch)
    built = []
    build_bank = runner.build_bank
    monkeypatch.setattr(
        runner, "build_bank", lambda images, cfg: built.append(1) or build_bank(images, cfg)
    )
    result = run_experiment(config, threads=2, output_dir=str(tmp_path))
    assert result.failures == [] and len(result.document["cells"]) == 15
    # per category: one for unsupervised, supervised and the continual
    # task (the same normal images), one for fewshot, one for noisy
    assert len(calls) == 9
    # only a selection builds its training set's bank: no cell that reads
    # its picks builds a bank again
    assert len(built) == 9


def test_projected_cells_select_their_own_coresets(monkeypatch):
    cfg = _base_config(
        setting=[{"type": "unsupervised"}, {"type": "supervised", "n": 2}, {"type": "continual"}]
    )
    cfg["detector"]["coreset"]["projection_dim"] = 8
    calls = _counting_coreset(monkeypatch)
    result = run_experiment(parse_config(cfg), threads=2)
    assert result.failures == []
    # each cell projects with its own seed, so none can share its picks
    assert len(calls) == len(result.document["cells"]) == 6
    assert len({params.seed for _, params in calls}) == 6


def test_full_bank_cells_select_nothing(monkeypatch):
    cfg = _base_config(
        setting=[{"type": "unsupervised"}, {"type": "supervised", "n": 2}, {"type": "continual"}]
    )
    del cfg["detector"]["coreset"]
    calls = _counting_coreset(monkeypatch)
    result = run_experiment(parse_config(cfg), threads=2)
    assert result.failures == []
    # no training set whose l is its whole bank selects: cells and tasks keep theirs
    assert calls == []


def test_whole_bank_continual_tasks_extend_in_natural_order(monkeypatch):
    cfg = _base_config(setting=[{"type": "continual"}])
    del cfg["detector"]["coreset"]
    config = parse_config(cfg)
    dataset = runner._resolve_dataset(config)
    extended = []
    extend = runner.extend_bank_for_task

    def recording(bank, task, task_index):
        extended.append((task_index, task.codes.copy()))
        return extend(bank, task, task_index)

    monkeypatch.setattr(runner, "extend_bank_for_task", recording)
    assert run_experiment(config, threads=1).failures == []
    tasks = runner.make_continual(dataset, dataset.categories)
    assert [index for index, _ in extended] == [t.index for t in tasks] == [1, 2]
    for (_, codes), task in zip(extended, tasks):
        normals = runner._normals(task.train)
        whole = bank_from_grids([extract_features(s.image, config.feature) for s in normals])
        assert codes.dtype == np.uint8
        assert np.array_equal(intensities(codes), whole)  # every row, unreordered


def test_continual_l_above_a_task_bank_fails_its_cells():
    cfg = _base_config(setting=[{"type": "continual"}])
    cfg["detector"]["coreset"] = {"l": 300}  # each task's bank has 6 x 49 = 294 rows
    config = parse_config(cfg)
    error = {"code": "l-out-of-range", "message": "l=300 for bank of 294"}
    for threads in (1, 2):
        result = run_experiment(config, threads=threads)
        cells = [(c["cell_id"], c["status"], c["error"]) for c in result.document["cells"]]
        assert cells == [(f"{c}/continual", "failed", error) for c in ("cat00", "cat01")]
        assert result.document["task_matrices"] == {}


def test_failed_shared_coreset_fails_every_job_that_needs_it(monkeypatch):
    cfg = _base_config(
        setting=[
            {"type": "unsupervised"},
            {"type": "supervised", "n": 2},
            {"type": "fewshot", "m": 2},
            {"type": "continual"},
        ]
    )
    config = parse_config(cfg)
    dataset = runner._resolve_dataset(config)
    doomed = detector.build_bank([s.image for s in dataset.train["cat00"]], config.feature)
    select = runner.coreset_select
    raised = []

    def failing(bank, params):
        if np.array_equal(bank.codes, doomed.codes):  # cat00's set, by its patch codes
            raised.append(params)
            time.sleep(0.2)  # long enough for a second selection of the same set to start
            raise DetectorError("no-coreset", "cat00's normal set")
        return select(bank, params)

    monkeypatch.setattr(runner, "coreset_select", failing)
    for threads in (1, 2):
        raised.clear()
        runs = ThreadPoolExecutor(max_workers=1)
        try:
            result = runs.submit(run_experiment, config, threads).result(timeout=60)
        finally:
            runs.shutdown(wait=False)
        failed = {c["cell_id"]: c["error"] for c in result.document["cells"] if c["error"]}
        assert sorted(failed) == [
            "cat00/continual", "cat00/supervised_n2", "cat00/unsupervised", "cat01/continual",
        ], threads
        assert list(failed.values()) == [{"code": "no-coreset", "message": "cat00's normal set"}] * 4
        assert len(raised) == 1  # selected once per run, and again by the next run


def test_plan_errors_fail_only_their_job():
    cfg = _base_config(
        setting=[
            {"type": "unsupervised"},
            {"type": "supervised", "n": 2},
            {"type": "fewshot", "m": 1},
            {"type": "continual"},
        ]
    )
    # l = 100 fits a category's 6 x 49-vector bank, not a one-shot 49-vector one
    cfg["detector"]["coreset"] = {"l": 100}
    config = parse_config(cfg)
    for threads in (1, 2):
        cells = run_experiment(config, threads=threads).document["cells"]
        failed = {c["cell_id"]: c["error"]["code"] for c in cells if c["status"] == "failed"}
        assert failed == dict.fromkeys(["cat00/fewshot_m1", "cat01/fewshot_m1"], "l-out-of-range")
        assert len(cells) == 8
        assert all(c["status"] == "ok" for c in cells if c["cell_id"] not in failed), threads


# --- scheduling and BLAS threads -----------------------------------------------------------


@pytest.mark.parametrize("threads", [0, -1, True, 1.0])
def test_run_refuses_bad_threads_before_any_work(threads, monkeypatch):
    def resolved(config):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(runner, "_resolve_dataset", resolved)
    with pytest.raises(ConfigError) as exc:
        run_experiment(parse_config(_base_config()), threads=threads)
    assert exc.value.code == "invalid-config"
    assert "threads" in str(exc.value)


def test_continual_job_starts_first(monkeypatch):
    started = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            started.append(name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(runner, "_run_plain_cell", recording("plain", runner._run_plain_cell))
    monkeypatch.setattr(
        runner, "_run_continual_job", recording("continual", runner._run_continual_job)
    )
    cfg = _base_config(setting=[{"type": "unsupervised"}, {"type": "continual"}])
    result = run_experiment(parse_config(cfg), threads=1)
    assert started == ["continual", "plain", "plain"]
    assert [c["cell_id"] for c in result.document["cells"]] == [
        "cat00/continual", "cat00/unsupervised", "cat01/continual", "cat01/unsupervised",
    ]


def test_run_restores_blas_threads(blas_counts, monkeypatch):
    inside = []
    score_sample = DetectorState.score_sample

    def recording(self, sample, *args):
        inside.append(blas_counts())
        return score_sample(self, sample, *args)

    monkeypatch.setattr(DetectorState, "score_sample", recording)
    run_experiment(parse_config(_base_config()), threads=2)
    assert inside and all(counts == {1} for counts in inside)
    assert blas_counts() == {2}


def test_failed_run_restores_blas_threads(blas_counts, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("not a package error")

    monkeypatch.setattr(runner, "_run_plain_cell", crash)
    with pytest.raises(RuntimeError):
        run_experiment(parse_config(_base_config()), threads=2)
    assert blas_counts() == {2}
