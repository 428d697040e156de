"""Experiment orchestration over (category x setting) cells.

A JSON config pins the dataset source, the settings to run, the
detector parameters, and the requested metrics. Cells are independent
jobs with seeds derived from the config hash and the cell coordinates,
so results are identical no matter how many worker threads execute
them; wall-clock timings are the only schedule-dependent output and are
quarantined in their own subtree of the results document.

Only images observed as normal enter a bank, so a category's
unsupervised cell, its supervised cells and its continual task train on
the same images and select the same coreset. A run plans every job's
training sets, selects each distinct coreset once, then scores the jobs
on the picked rows. Every bank is a ``detector.MemoryBank``. A selection
builds its training set's bank and returns the bank of its picks. No
training set whose ``l`` is its whole bank is selected: its job builds
that bank, in natural order. No job waits on another.

A config enters through ``errors.read_json`` and ``parse_config``. Reports
go out through ``report.write_reports``, looked up on the module at each
call, so a wrapper installed there (perfbench's tracer) sees it.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial

import numpy as np

from . import report
from .data import ABNORMAL, NORMAL, Dataset, Sample, dataset_digest, load_dataset
from .detector import (
    CoresetParams,
    MemoryBank,
    Nearest,
    ScoreResult,
    SearchIndex,
    build_bank,
    code_points,
    coreset_select,
    extend_bank_for_task,
    render_anomaly_map,
    score_image,
    single_thread_blas,
    write_bank_file,
)
from .errors import (
    BenchError, ConfigError, DetectorError, MetricError, expect_keys, expect_type, read_json,
)
from .features import FeatureProviderConfig, extract_features
from .metrics import (
    DEFAULT_PRO_LIMIT,
    DEFAULT_SPRO_LIMIT,
    METRIC_NAMES,
    LabeledScores,
    PixelPool,
    RegionSet,
    TaskMatrix,
    aupro,
    auroc,
    average_precision,
    forgetting_measure,
    mask_regions,
    mean_spro,
)
from .protocols import (
    ROTATION_ANGLES,
    Split,
    Task,
    TrainItem,
    augment_rotations,
    inject_noise,
    make_continual,
    make_fewshot,
    make_supervised,
    make_unsupervised,
)
from .report import config_digest
from .rng import derive_seed
from .synth import SynthSpec, synth_dataset

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str | None
    synth_spec: SynthSpec | None
    categories: list[str] | None
    settings: list[dict]
    feature: FeatureProviderConfig
    coreset: CoresetParams  # seed 0; cells take their own via coreset_params
    b: int
    smoothing_sigma: float
    metric_names: tuple[str, ...]
    pro_limit: float
    spro_limit: float
    seed: int
    output_dir: str | None
    canonical: dict  # the config as given, without output_dir

    @cached_property
    def dataset_sha256(self) -> str | None:
        """Content digest of the dataset directory; None for synthetic data."""
        return None if self.dataset_path is None else dataset_digest(self.dataset_path)

    @property
    def hashed(self) -> dict:
        """The config as hashed and embedded in results.json.

        It is location-free: a dataset path is replaced by the digest of
        the dataset's files, so the same data at another path gives the
        same hash, cell seeds and metrics.
        """
        if self.dataset_path is None:
            return self.canonical
        return {**self.canonical, "dataset": {"sha256": self.dataset_sha256}}

    @property
    def config_hash(self) -> str:
        return config_digest(self.hashed)

    def coreset_params(self, seed: int) -> CoresetParams:
        return replace(self.coreset, seed=seed)


def _expect_number(
    value, path: str, kind, minimum=None, maximum=None, unit_interval: bool = False
):
    """A typed number, within ``minimum`` and ``maximum`` or in (0, 1] when asked."""
    expect_type(value, path, kind, "an integer" if kind is int else "a number")
    if minimum is not None and value < minimum:
        raise ConfigError("invalid-config", f"{path}: must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError("invalid-config", f"{path}: must be <= {maximum}")
    if unit_interval and not 0.0 < float(value) <= 1.0:
        raise ConfigError("invalid-config", f"{path}: must be in (0, 1]")
    return value


def _expect_names(value, path: str) -> list[str]:
    """A non-empty list of distinct strings (categories, a continual order, metrics)."""
    expect_type(value, path, list, "a list")
    if not value:
        raise ConfigError("invalid-config", f"{path}: must not be empty")
    for name in value:
        expect_type(name, f"{path}[]", str, "a string")
    if len(set(value)) != len(value):
        raise ConfigError("invalid-config", f"{path}: repeats a name")
    return value


def _sweep(value, path: str) -> list:
    """A scalar, or a non-empty list of values to expand into instances."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError("invalid-config", f"{path}: must not be empty")
    return values


# the benchmark's grids; allow_custom_m / allow_custom_ratio leave them
FEWSHOT_SHOTS = (1, 2, 4, 8)
NOISE_RATIO_GRID = (0.05, 0.10, 0.15, 0.20)


def _parse_setting(raw: dict, path: str, run_categories: int | None) -> list[dict]:
    """Expand one setting object into concrete cells (lists sweep).

    ``run_categories`` counts the run's categories; None if only the disk knows.
    """
    expect_type(raw, path, dict, "an object")
    stype = raw.get("type")
    if stype == "unsupervised":
        expect_keys(raw, path, {"type"}, set())
        return [{"type": stype, "label": "unsupervised"}]
    if stype == "supervised":
        expect_keys(raw, path, {"type"}, {"n"})
        n = _expect_number(raw.get("n", 10), f"{path}.n", int, minimum=0)
        return [{"type": stype, "n": n, "label": f"supervised_n{n}"}]
    if stype == "fewshot":
        expect_keys(raw, path, {"type", "m"}, {"rotation_k", "allow_custom_m"})
        rotation_k = _expect_number(raw.get("rotation_k", 1), f"{path}.rotation_k", int)
        allow = expect_type(
            raw.get("allow_custom_m", False), f"{path}.allow_custom_m", bool, "a boolean"
        )
        if rotation_k not in ROTATION_ANGLES:
            raise ConfigError("invalid-config", f"{path}: rotation_k={rotation_k} not in (1, 2, 4)")
        out = []
        for m in _sweep(raw["m"], f"{path}.m"):
            _expect_number(m, f"{path}.m", int, minimum=1)
            if not allow and m not in FEWSHOT_SHOTS:
                raise ConfigError("invalid-config", f"{path}: m={m} not in {FEWSHOT_SHOTS}")
            label = f"fewshot_m{m}" + (f"_rot{rotation_k}" if rotation_k > 1 else "")
            out.append({"type": stype, "m": m, "rotation_k": rotation_k, "label": label})
        return out
    if stype == "noisy":
        expect_keys(raw, path, {"type", "noise_ratio"}, {"allow_custom_ratio"})
        allow = expect_type(
            raw.get("allow_custom_ratio", False), f"{path}.allow_custom_ratio", bool, "a boolean"
        )
        out = []
        for ratio in _sweep(raw["noise_ratio"], f"{path}.noise_ratio"):
            ratio = float(expect_type(ratio, f"{path}.noise_ratio", float, "a number"))
            if allow and not 0.0 < ratio < 1.0:
                raise ConfigError("invalid-config", f"{path}: noise_ratio={ratio} not in (0, 1)")
            if not allow and not any(math.isclose(ratio, r) for r in NOISE_RATIO_GRID):
                raise ConfigError("invalid-config", f"{path}: noise_ratio={ratio} not in grid")
            out.append({"type": stype, "noise_ratio": ratio, "label": f"noisy_r{ratio:g}"})
        return out
    if stype == "continual":
        expect_keys(raw, path, {"type"}, {"category_order"})
        order = raw.get("category_order")
        if order is not None:
            _expect_names(order, f"{path}.category_order")
            if len(order) < 2:  # make_continual's rule, known from the config alone
                raise ConfigError(
                    "invalid-config", f"{path}.category_order: needs at least 2 categories"
                )
        elif run_categories is not None and run_categories < 2:  # the order is every category
            raise ConfigError(
                "invalid-config",
                f"{path}: continual needs at least 2 categories, the run has {run_categories}",
            )
        return [{"type": stype, "category_order": order, "label": "continual"}]
    raise ConfigError("invalid-config", f"{path}.type: unknown setting {stype!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys anywhere are errors."""
    expect_type(raw, "config", dict, "an object")
    expect_keys(
        raw,
        "config",
        {"dataset", "setting", "seed"},
        {"schema", "categories", "detector", "metrics", "output_dir"},
    )
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("invalid-config", f"schema: unsupported version {schema!r}")

    dataset = expect_type(raw["dataset"], "dataset", dict, "an object")
    expect_keys(dataset, "dataset", set(), {"path", "synthetic"})
    if "path" in dataset and "synthetic" in dataset:
        raise ConfigError("invalid-config", "dataset: path and synthetic are exclusive")
    if "path" not in dataset and "synthetic" not in dataset:
        raise ConfigError(
            "invalid-config",
            "dataset: needs path or synthetic (or set IADBENCH_DATA_ROOT)",
        )
    dataset_path = dataset.get("path")
    if "path" in dataset:
        expect_type(dataset_path, "dataset.path", str, "a string")
    synth_spec = None
    if "synthetic" in dataset:
        synth_spec = SynthSpec.from_dict(dataset["synthetic"], "dataset.synthetic")

    categories = raw.get("categories")
    run_categories = synth_spec.categories if synth_spec is not None else None
    if categories is not None:
        run_categories = len(_expect_names(categories, "categories"))

    settings = []
    for i, entry in enumerate(_sweep(raw["setting"], "setting")):
        settings.extend(_parse_setting(entry, f"setting[{i}]", run_categories))
    labels = [s["label"] for s in settings]
    if len(labels) != len(set(labels)):
        raise ConfigError("invalid-config", "setting: duplicate setting instances")

    detector = raw.get("detector", {})
    expect_type(detector, "detector", dict, "an object")
    expect_keys(detector, "detector", set(), {"feature", "coreset", "b", "smoothing_sigma"})
    feature_raw = expect_type(
        detector.get("feature", {}), "detector.feature", dict, "an object"
    )
    expect_keys(feature_raw, "detector.feature", set(), {"patch_size", "stride", "descriptor"})
    patch_size = _expect_number(
        feature_raw.get("patch_size", 8), "detector.feature.patch_size", int
    )
    stride = _expect_number(feature_raw.get("stride", 4), "detector.feature.stride", int)
    try:
        feature = FeatureProviderConfig(patch_size=patch_size, stride=stride)
    except ConfigError as exc:
        raise ConfigError("invalid-config", f"detector.feature: {exc.message}") from exc
    descriptor = feature_raw.get("descriptor", "raw-patch")
    if descriptor != "raw-patch":
        raise ConfigError("invalid-config", f"detector.feature: unknown descriptor {descriptor!r}")

    coreset_raw = expect_type(
        detector.get("coreset", {}), "detector.coreset", dict, "an object"
    )
    expect_keys(coreset_raw, "detector.coreset", set(), {"target_fraction", "l", "projection_dim"})
    fraction = coreset_raw.get("target_fraction")
    l = coreset_raw.get("l")
    if fraction is None and l is None:
        fraction = 1.0  # keep the full bank by default
    if fraction is not None:
        fraction = float(_expect_number(fraction, "detector.coreset.target_fraction", float))
    if l is not None:
        _expect_number(l, "detector.coreset.l", int)
    projection_dim = coreset_raw.get("projection_dim")
    if projection_dim == "none":
        projection_dim = None
    if projection_dim is not None:
        _expect_number(projection_dim, "detector.coreset.projection_dim", int)
        if projection_dim > feature.dim:
            raise ConfigError(
                "invalid-config",
                f"detector.coreset.projection_dim: must be <= patch_size**2 = {feature.dim}",
            )
    try:
        coreset = CoresetParams(target_fraction=fraction, l=l, projection_dim=projection_dim)
    except DetectorError as exc:
        raise ConfigError("invalid-config", f"detector.coreset: {exc.message}") from exc

    b = _expect_number(detector.get("b", 1), "detector.b", int, minimum=1)
    # the blur's kernel radius is 4 sigma: at most 4,096 px
    sigma = _expect_number(
        detector.get("smoothing_sigma", 4.0), "detector.smoothing_sigma", float,
        minimum=0, maximum=1024,
    )

    metrics_raw = raw.get("metrics", list(METRIC_NAMES))
    limits = {}
    if isinstance(metrics_raw, dict):
        expect_keys(metrics_raw, "metrics", set(), {"names", "pro_limit", "spro_limit"})
        names = metrics_raw.get("names", list(METRIC_NAMES))
        limits = metrics_raw
    else:
        names = metrics_raw
    _expect_names(names, "metrics.names")
    for name in names:
        if name not in METRIC_NAMES:
            raise ConfigError("invalid-config", f"metrics.names: unknown metric {name!r}")
    pro_limit, spro_limit = (
        _expect_number(limits.get(key, default), f"metrics.{key}", float, unit_interval=True)
        for key, default in (("pro_limit", DEFAULT_PRO_LIMIT), ("spro_limit", DEFAULT_SPRO_LIMIT))
    )

    seed = expect_type(raw["seed"], "seed", int, "an integer")
    output_dir = raw.get("output_dir")
    if output_dir is not None:
        expect_type(output_dir, "output_dir", str, "a string")

    canonical = {k: v for k, v in raw.items() if k != "output_dir"}
    canonical["schema"] = SCHEMA_VERSION

    return ExperimentConfig(
        dataset_path=dataset_path,
        synth_spec=synth_spec,
        categories=categories,
        settings=settings,
        feature=feature,
        coreset=coreset,
        b=b,
        smoothing_sigma=float(sigma),
        metric_names=tuple(names),
        pro_limit=float(pro_limit),
        spro_limit=float(spro_limit),
        seed=seed,
        output_dir=output_dir,
        canonical=canonical,
    )


def load_config(path: str, data_root_env: str | None = None) -> ExperimentConfig:
    raw = read_json(path, ConfigError, "invalid-config")
    if (
        isinstance(raw, dict)
        and isinstance(raw.get("dataset"), dict)
        and not raw["dataset"]
        and data_root_env
    ):
        raw["dataset"] = {"path": data_root_env}
    return parse_config(raw)


# ---------------------------------------------------------------------------
# detector state and efficiency


@dataclass
class DetectorState:
    """A frozen bank, its search index and the knobs needed to run inference.

    The index is always the bank's own, built from it here: no caller
    passes one, so no index can disagree with its bank.
    """

    bank: MemoryBank
    feature: FeatureProviderConfig
    b: int
    smoothing_sigma: float
    index: SearchIndex = field(init=False)

    def __post_init__(self):
        self.index = SearchIndex.of(code_points(self.bank.codes))

    def score_sample(
        self, sample: Sample, known: Nearest | None = None
    ) -> tuple[ScoreResult, np.ndarray]:
        """The sample's score and its (grid_h, grid_w) patch-score grid.

        ``known`` is the sample's ``ScoreResult.nearest`` from an earlier
        state whose bank this one extends; only the appended rows are
        then searched. ``evaluate`` renders the grids to pixel maps.
        """
        grid = extract_features(sample.image, self.feature)
        return score_image(self.bank, grid, self.b, self.index, known)


@dataclass
class EfficiencyStats:
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float


WARMUP_IMAGES = 3  # leading per-image latencies that efficiency_stats drops
# Pixels ``evaluate`` renders in one stack: one 256 px map, so a 256 px
# or larger map is rendered alone, and 28 maps of 48 px share a stack.
_STACK_PIXELS = 1 << 16


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    rank = max(1, int(np.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def evaluate(
    state: DetectorState,
    samples: list[Sample],
    known: list[Nearest | None] | None = None,
    render: bool = True,
) -> tuple[list[float], PixelPool | None, list[float]]:
    """Score each sample once: image scores, the pixel pool, wall-clock ms per image.

    ``known``, when given, holds each sample's last search
    (``ScoreResult.nearest``; None before the first) against an earlier
    state whose bank this one extends: only the appended rows are
    searched, and each entry is replaced by the new search.

    When ``render``, the samples' ``PixelPool`` is sized from their masks
    and image shapes before any map exists. Consecutive samples of one
    image shape are rendered as one stack of at most ``_STACK_PIXELS``
    pixels (at least one map), as soon as its last patch grid is
    scored, so the numpy calls of rendering are made once per stack,
    not per map; each map is bit-identical to its own 2-D render. The
    stack's maps are fed into the pool in sample order and dropped with
    it, so no map outlives its stack. An image's latency is its own
    scoring time plus an equal share of its stack's render time;
    pooling runs outside both. The pool is None unless ``render``.
    """
    scores = []
    latencies_ms = []
    pool = None
    if render:
        shapes = [(s.image.height, s.image.width) for s in samples]
        pool = PixelPool(mask_regions([s.mask for s in samples], shapes))
    stack = []  # the patch grids scored since the last render
    for i, sample in enumerate(samples):
        start = time.perf_counter()
        result, patch_map = state.score_sample(sample, None if known is None else known[i])
        latencies_ms.append((time.perf_counter() - start) * 1000.0)
        if known is not None:
            known[i] = result.nearest
        scores.append(result.s)
        if pool is None:
            continue
        stack.append(patch_map)
        height, width = shapes[i]
        if (
            i + 1 < len(samples)
            and shapes[i + 1] == shapes[i]
            and (len(stack) + 1) * height * width <= _STACK_PIXELS
        ):
            continue
        start = time.perf_counter()
        pixel_maps = render_anomaly_map(
            np.stack(stack),
            height,
            width,
            state.feature.patch_size,
            state.feature.stride,
            state.smoothing_sigma,
        )
        share_ms = (time.perf_counter() - start) * 1000.0 / len(stack)
        for j in range(i + 1 - len(stack), i + 1):
            latencies_ms[j] += share_ms
        for pixel_map in pixel_maps:
            pool.add(pixel_map)
        stack = []
        del pixel_maps, pixel_map  # before the next stack is rendered
    return scores, pool, latencies_ms


def efficiency_stats(latencies_ms: list[float]) -> EfficiencyStats | None:
    """Per-image inference latency after the first WARMUP_IMAGES are discarded.

    None when fewer than WARMUP_IMAGES + 5 latencies were timed.
    """
    if len(latencies_ms) < WARMUP_IMAGES + 5:
        return None
    kept = sorted(latencies_ms[WARMUP_IMAGES:])
    return EfficiencyStats(
        latency_ms_mean=float(np.mean(kept)),
        latency_ms_p50=_nearest_rank(kept, 0.50),
        latency_ms_p95=_nearest_rank(kept, 0.95),
    )


# ---------------------------------------------------------------------------
# cells


@dataclass
class CellResult:
    cell_id: str
    category: str
    setting: str
    status: str = "ok"
    error: dict | None = None
    metrics: dict = field(default_factory=dict)
    na_reasons: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    bank_vectors: int = 0
    bank_bytes: int = 0  # count x dim x 4: the bank's IADB float32 payload, not memory held
    cell_seed: int = 0
    efficiency: EfficiencyStats | None = None
    bank: MemoryBank | None = None  # retained only when snapshots are requested


def _build_split(dataset: Dataset, category: str, setting: dict, seed: int) -> Split:
    stype = setting["type"]
    if stype == "unsupervised":
        return make_unsupervised(dataset, category)
    if stype == "supervised":
        return make_supervised(dataset, category, setting["n"], seed)
    if stype == "fewshot":
        split = make_fewshot(dataset, category, setting["m"], seed)
        return augment_rotations(split, setting["rotation_k"])
    return inject_noise(dataset, category, setting["noise_ratio"], seed)  # "noisy"


def _normals(train: list[TrainItem]) -> list[Sample]:
    """The training samples observed as normal: only they enter a bank."""
    return [item.sample for item in train if item.observed_label == NORMAL]


def _unfailed(outcome):
    """A plan's or a selection's outcome; its ``BenchError`` is raised in the job reading it."""
    if isinstance(outcome, BenchError):
        raise outcome
    return outcome


def _category_region_sets(
    dataset: Dataset, category: str, test: list[Sample], pool: PixelPool
) -> list[RegionSet]:
    """sPRO's regions: the pool's, saturating at their defect type's table entry."""
    table = dataset.saturation_table.get(category)
    if not table:
        raise MetricError("no-saturation-table", f"category {category!r} has no saturation table")
    return [rset.saturated(table.get(s.defect_type)) for s, rset in zip(test, pool.regions)]


def _not_continual() -> float:
    raise MetricError("not-continual", "fm needs a continual setting")


def _cell_metrics(
    config: ExperimentConfig,
    dataset: Dataset,
    category: str,
    test: list[Sample],
    image_scores: list[float],
    pool: PixelPool,
    forgetting: Callable[[], float],
) -> tuple[dict, dict]:
    """The cell's metric values and N/A reasons; pixel metrics read only ``pool``.

    ``forgetting`` returns the cell's fm or raises its ``MetricError``.
    """
    values: dict = {}
    reasons: dict = {}
    labels = [s.label == ABNORMAL for s in test]

    def attempt(name, fn):
        if name not in config.metric_names:
            return
        try:
            values[name] = fn()
        except MetricError as exc:
            values[name] = None
            reasons[name] = exc.code

    # the pool's checks give the codes each metric gives alone: a map
    # that is not finite is degenerate-labels for the ranking metrics and
    # dim-mismatch for the region metrics
    attempt("image_auroc", lambda: auroc(LabeledScores(image_scores, labels)))
    attempt("image_ap", lambda: average_precision(LabeledScores(image_scores, labels)))
    attempt("pixel_auroc", lambda: auroc(pool.ranked()))
    attempt("pixel_ap", lambda: average_precision(pool.ranked()))
    attempt("aupro", lambda: aupro(pool, config.pro_limit))
    attempt(
        "mean_spro",
        lambda: mean_spro(
            None, _category_region_sets(dataset, category, test, pool), config.spro_limit, pool=pool
        ),
    )
    attempt("fm", forgetting)
    return values, reasons


def _scored_cell(
    config: ExperimentConfig,
    dataset: Dataset,
    category: str,
    label: str,
    seed: int,
    test: list[Sample],
    scored: tuple[list[float], PixelPool, list[float]],
    bank: MemoryBank,
    keep_bank: bool,
    forgetting: Callable[[], float] = _not_continual,
) -> CellResult:
    """The ok cell of a test set scored against ``bank`` by ``evaluate``."""
    image_scores, pool, latencies_ms = scored
    metrics, na_reasons = _cell_metrics(
        config, dataset, category, test, image_scores, pool, forgetting
    )
    return CellResult(
        cell_id=f"{category}/{label}",
        category=category,
        setting=label,
        metrics=metrics,
        na_reasons=na_reasons,
        bank_vectors=bank.count,
        bank_bytes=bank.count * bank.dim * 4,
        cell_seed=seed,
        efficiency=efficiency_stats(latencies_ms),
        bank=bank if keep_bank else None,
    )


def _failed_cells(
    categories: list[str], label: str, exc: BenchError, seed: int
) -> list[CellResult]:
    """One failed cell per category of a job, all with the job's error."""
    return [
        CellResult(
            cell_id=f"{c}/{label}",
            category=c,
            setting=label,
            status="failed",
            error={"code": exc.code, "message": exc.message},
            cell_seed=seed,
        )
        for c in categories
    ]


def _run_plain_cell(
    config: ExperimentConfig,
    dataset: Dataset,
    category: str,
    label: str,
    cell_seed: int,
    split: Split,
    bank: MemoryBank,
    keep_bank: bool,
) -> CellResult:
    """Score ``split`` against its bank: its coreset or its whole bank."""
    # the state, and with it the bank's search index, is freed before the metrics run
    scored = evaluate(
        DetectorState(bank, config.feature, config.b, config.smoothing_sigma), split.test
    )
    cell = _scored_cell(
        config, dataset, category, label, cell_seed, split.test, scored, bank, keep_bank
    )
    cell.provenance = [asdict(p) for p in split.provenance]
    cell.info = split.info
    return cell


def _run_continual_job(
    config: ExperimentConfig,
    dataset: Dataset,
    tasks: list[Task],
    label: str,
    job_seed: int,
    task_banks: Iterable[MemoryBank],
) -> tuple[list[CellResult], dict]:
    """Train on the tasks in order; score every task seen so far after each.

    ``task_banks`` yields each task's coreset, or whole bank, as its
    step starts.

    Banks are append-only and search ties go to the lowest index, so
    after step l a test patch's nearest vector changes only if one
    appended at step l is strictly closer (``detector.search``). Each
    step therefore searches every earlier task's test set against only
    the step's new slice, merging into that task's per-patch (d^2,
    index) from the step before; only the new task is searched against
    the whole bank. Over k steps each task's test set meets each of the
    k slices once: k^2 slice searches, where rescoring every seen task
    against the whole bank takes sum(l^2). Image scores, the task matrix
    and the final cells are bit-identical to that rescoring. Test
    features are re-extracted each step, not cached: a cache grows with
    k x test set x patches x dim, though at only 1 byte per element, as
    a grid holds codes. Re-weighting ranks the whole bank; maps are
    rendered at step k only, in ``evaluate``'s stacks, each pooled into
    its task's cell as its stack is rendered, and the cells' latencies
    time that final pass per image.

    Each step's scoring state builds its search index from the whole
    grown bank, once: O(bank) per step, where re-weighting already
    reads the whole bank once per re-scored image. A step's state is
    dropped before the next is built, so one index is alive at a time.
    """
    k = len(tasks)
    bank = MemoryBank.empty(config.feature.dim)
    known = {task.index: [None] * len(task.test) for task in tasks}  # each image's last search
    entries: dict[tuple[int, int], float] = {}
    final_scores: dict[int, tuple[list[float], PixelPool, list[float]]] = {}
    for step, task_bank in enumerate(task_banks, start=1):
        bank = extend_bank_for_task(bank, task_bank)
        state = DetectorState(bank, config.feature, config.b, config.smoothing_sigma)
        for prev in tasks[:step]:
            scored = evaluate(state, prev.test, known[prev.index], render=step == k)
            labels = [s.label == ABNORMAL for s in prev.test]
            entries[(step, prev.index)] = auroc(LabeledScores(scored[0], labels))
            if step == k:
                final_scores[prev.index] = scored
        del state  # its search index, before the next step's bank and index are built
    del known  # the cached searches, before the metrics run

    fm = forgetting_measure(TaskMatrix(k=k, values=entries))

    def forgetting(task_index: int) -> float:
        if task_index not in fm.per_task:
            raise MetricError("fm-undefined-for-final-task", f"task {task_index} is trained last")
        return fm.per_task[task_index]

    cells = []
    for task in tasks:
        cell = _scored_cell(
            config, dataset, task.category, label, job_seed,
            task.test, final_scores[task.index], bank, keep_bank=False,
            forgetting=partial(forgetting, task.index),
        )
        cell.info = {"task_index": task.index, "steps": k}
        cells.append(cell)
    matrix_doc = {
        "k": k,
        "order": [t.category for t in tasks],
        "entries": {f"{l},{j}": v for (l, j), v in sorted(entries.items())},
        "fm_per_task": {str(j): v for j, v in sorted(fm.per_task.items())},
        "fm_mean": fm.mean,
    }
    return cells, matrix_doc


# ---------------------------------------------------------------------------
# run orchestration


@dataclass
class RunResult:
    document: dict
    output_dir: str | None
    failures: list[str]


def _resolve_dataset(config: ExperimentConfig) -> Dataset:
    if config.synth_spec is not None:
        return synth_dataset(config.synth_spec, derive_seed(config.seed, "synth-dataset"))
    return load_dataset(config.dataset_path)


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
    save_banks: bool = False,
    output_dir: str | None = None,
) -> RunResult:
    """Execute the full cell matrix and persist results.

    Returns the in-memory results document; cells that fail with a
    package error are recorded (status "failed") without aborting the
    run. Output files land in ``output_dir`` (falling back to the
    config's) unless both are None.
    """
    _expect_number(threads, "threads", int, minimum=1)
    dataset = _resolve_dataset(config)
    categories = config.categories or dataset.categories
    config_hash = config.config_hash
    hash_seed = int(config_hash[:16], 16)

    # a job is a setting, the categories whose cells it yields, and its seed
    jobs = []
    for setting in config.settings:
        if setting["type"] == "continual":
            order = setting["category_order"] or list(categories)
            jobs.append((setting, order, derive_seed(hash_seed, setting["label"])))
        else:
            for category in categories:
                cell_seed = derive_seed(hash_seed, category, setting["label"])
                jobs.append((setting, [category], cell_seed))
    # every listed category and every one a job names exists before any cell runs
    for category in [*categories, *(c for _, names, _ in jobs for c in names)]:
        dataset.require_category(category)
    # longest first, so it does not set the tail: a continual job runs its
    # tasks in series. Stable, so task_matrices keep their order; the
    # cells are sorted below.
    jobs.sort(key=lambda job: job[0]["type"] != "continual")

    # plan: each job's training sets as (normals, coreset key). A set whose l is its whole
    # bank has no key; others key by normals (by identity, held for the run) and params
    wanted: dict[tuple, list[Sample]] = {}

    def training_set(normals: list[Sample], seed: int) -> tuple[list[Sample], tuple | None]:
        count = sum(math.prod(config.feature.grid_shape(s.image)) for s in normals)
        if config.coreset.resolve_l(count) == count:  # the bank is its own coreset
            return normals, None
        key = (tuple(map(id, normals)), config.coreset_params(seed).effective(config.feature.dim))
        wanted.setdefault(key, normals)
        return normals, key

    def plan(job) -> tuple[Split | list[Task], list[tuple]] | BenchError:
        setting, job_categories, seed = job
        try:
            if setting["type"] == "continual":
                tasks = make_continual(dataset, job_categories)
                seeds = (derive_seed(seed, "coreset", t.index) for t in tasks)
                return tasks, [training_set(_normals(t.train), s) for t, s in zip(tasks, seeds)]
            split = _build_split(dataset, job_categories[0], setting, derive_seed(seed, "protocol"))
            return split, [training_set(_normals(split.train), derive_seed(seed, "coreset"))]
        except BenchError as exc:
            return exc

    plans = [plan(job) for job in jobs]

    def whole(normals: list[Sample]) -> MemoryBank:
        return build_bank([s.image for s in normals], config.feature)

    def select(key: tuple) -> MemoryBank | BenchError:
        try:
            full = whole(wanted[key])
            return full.take(coreset_select(full, key[1]))  # in pick order
        except BenchError as exc:
            return exc

    def bank(normals: list[Sample], key: tuple | None) -> MemoryBank:
        """A training set's bank: its whole bank in natural order, or its picks."""
        return whole(normals) if key is None else _unfailed(selected[key])

    def execute(job, planned) -> tuple[list[CellResult], dict | None]:
        setting, job_categories, seed = job
        try:
            sets, training = _unfailed(planned)
            if setting["type"] == "continual":
                task_banks = (bank(*t) for t in training)  # each made as its step starts
                return _run_continual_job(config, dataset, sets, setting["label"], seed, task_banks)
            cell = _run_plain_cell(
                config, dataset, job_categories[0], setting["label"], seed, sets,
                bank(*training[0]), save_banks,
            )
            return [cell], None
        except BenchError as exc:
            return _failed_cells(job_categories, setting["label"], exc, seed), None

    # cells are the parallelism; BLAS threads would only contend with them
    with single_thread_blas, ThreadPoolExecutor(max_workers=threads) as pool:
        selected = dict(zip(wanted, pool.map(select, wanted)))
        outcomes = list(pool.map(execute, jobs, plans))

    cells: list[CellResult] = []
    task_matrices: dict[str, dict] = {}
    for (setting, _, _), (job_cells, matrix) in zip(jobs, outcomes):
        cells.extend(job_cells)
        if matrix is not None:
            task_matrices[setting["label"]] = matrix
    cells.sort(key=lambda c: c.cell_id)

    document = _results_document(config, config_hash, cells, task_matrices)
    failures = [c.cell_id for c in cells if c.status == "failed"]

    out_dir = output_dir or config.output_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.write_reports(document, out_dir)
        if save_banks:
            _save_banks(cells, config.settings, out_dir)
    return RunResult(document=document, output_dir=out_dir, failures=failures)


def _save_banks(cells: list[CellResult], settings: list[dict], out_dir: str) -> None:
    """One snapshot per category, from its first-listed non-continual setting."""
    banks_dir = os.path.join(out_dir, "banks")
    os.makedirs(banks_dir, exist_ok=True)
    setting_rank = {
        s["label"]: i for i, s in enumerate(settings) if s["type"] != "continual"
    }
    best: dict[str, CellResult] = {}
    for cell in cells:
        if cell.bank is None or cell.setting not in setting_rank:
            continue
        current = best.get(cell.category)
        if current is None or setting_rank[cell.setting] < setting_rank[current.setting]:
            best[cell.category] = cell
    for category, cell in sorted(best.items()):
        write_bank_file(cell.bank, os.path.join(banks_dir, f"{category}.iadb"))


def _results_document(
    config: ExperimentConfig,
    config_hash: str,
    cells: list[CellResult],
    task_matrices: dict,
) -> dict:
    cell_docs = []
    timings = {}
    for cell in cells:
        # every field but the wall-clock stats and the in-memory bank
        doc = {f.name: getattr(cell, f.name) for f in fields(cell)}
        del doc["efficiency"], doc["bank"]
        cell_docs.append(doc)
        if cell.efficiency is not None:
            timings[cell.cell_id] = asdict(cell.efficiency)
    document = {
        "schema": SCHEMA_VERSION,
        "config": config.hashed,
        "config_hash": config_hash,
        "seed": config.seed,
        "metrics_requested": list(config.metric_names),
        "cells": cell_docs,
        "task_matrices": task_matrices,
        "timings": timings,
    }
    if config.dataset_path is not None:
        # where the data was read from, outside the hash
        document["dataset_source"] = {
            "path": config.dataset_path,
            "sha256": config.dataset_sha256,
        }
    return document
