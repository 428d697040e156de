"""Command-line entry point: synth, run, metrics, report.

Exit codes: 0 success, 1 partial cell failures, 2 configuration or flag
errors, 3 data or I/O errors. Subcommands raise; ``main`` alone maps an
error's class to its exit code and prints it as one stderr line,
``iadbench: <code>: <message>``. Diagnostics go to stderr; stdout carries
only the machine-readable payload of the metrics subcommand.
"""

from __future__ import annotations

import argparse
import os
import sys

from .data import ImageGrid, PixelMask, grid_from_pgm, mask_from_pgm
from .errors import BenchError, ConfigError, DataError, read_json
from .metrics import (
    DEFAULT_PRO_LIMIT, DEFAULT_SPRO_LIMIT, LabeledScores, PixelPool, aupro, auroc,
    average_precision, mask_regions,
)
from .report import emit_report, load_results
from .runner import SCHEMA_VERSION, load_config, run_experiment
from .synth import SynthSpec, synth_dataset, write_dataset_tree

_POSITIVE = {"1", "abnormal", "anomalous", "pos", "positive", "true", "defect"}
_NEGATIVE = {"0", "normal", "neg", "negative", "false", "good"}


def _err(message: str) -> None:
    print(f"iadbench: {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iadbench",
        description="Benchmark engine for industrial image anomaly detection.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"iadbench 0.1.0 (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="materialize a synthetic dataset tree")
    p_synth.add_argument("--spec", required=True, help="JSON file path or inline JSON object")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True, help="output dataset root")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run the experiment matrix of a config")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--save-banks", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_metrics = sub.add_parser("metrics", help="compute metrics on standalone inputs")
    p_metrics.add_argument("--scores", help="CSV of id,score,label for ranking metrics")
    p_metrics.add_argument("--maps", help="directory of PGM score maps")
    p_metrics.add_argument("--masks", help="directory of PGM ground-truth masks")
    p_metrics.add_argument("--pro-limit", type=float, default=DEFAULT_PRO_LIMIT)
    p_metrics.add_argument("--spro-limit", type=float, default=DEFAULT_SPRO_LIMIT)
    p_metrics.set_defaults(func=cmd_metrics)

    p_report = sub.add_parser("report", help="regenerate a report from results.json")
    p_report.add_argument("--in", dest="results", required=True, help="path to results.json")
    p_report.add_argument("--format", required=True, choices=["csv", "markdown"])
    p_report.set_defaults(func=cmd_report)
    return parser


def cmd_synth(args) -> int:
    if args.spec.lstrip().startswith("{"):  # inline JSON text
        spec_doc = read_json("spec", ConfigError, "invalid-spec", text=args.spec)
    else:
        spec_doc = read_json(args.spec, ConfigError, "invalid-spec")
    dataset = synth_dataset(SynthSpec.from_dict(spec_doc), args.seed)
    write_dataset_tree(dataset, args.out)
    n_train = sum(len(v) for v in dataset.train.values())
    n_test = sum(len(v) for v in dataset.test.values())
    _err(
        f"wrote {len(dataset.categories)} categories "
        f"({n_train} train, {n_test} test samples) to {args.out}"
    )
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config, os.environ.get("IADBENCH_DATA_ROOT"))
    if config.output_dir is None:
        raise ConfigError("invalid-config", "output_dir: required to run experiments")
    result = run_experiment(config, threads=args.threads, save_banks=args.save_banks)
    if result.failures:
        for cell_id in result.failures:
            cell = next(c for c in result.document["cells"] if c["cell_id"] == cell_id)
            _err(f"cell {cell_id} failed: {cell['error']['code']}: {cell['error']['message']}")
        _err(f"{len(result.failures)} of {len(result.document['cells'])} cells failed")
        return 1
    _err(f"{len(result.document['cells'])} cells ok, results in {result.output_dir}")
    return 0


def _read_scores_csv(path: str) -> LabeledScores:
    scores = []
    labels = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except ValueError as exc:
        raise DataError("malformed-csv", f"{path}: not UTF-8 text: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise DataError("malformed-csv", f"{path}:{line_no}: need id,score,label")
        try:
            score = float(parts[1])
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise DataError("malformed-csv", f"{path}:{line_no}: bad score {parts[1]!r}")
        label = parts[2].lower()
        if label in _POSITIVE:
            labels.append(True)
        elif label in _NEGATIVE:
            labels.append(False)
        else:
            raise DataError("malformed-csv", f"{path}:{line_no}: bad label {parts[2]!r}")
        scores.append(score)
    if not scores:
        raise DataError("malformed-csv", f"{path}: no data rows")
    return LabeledScores(scores, labels)


def _read_map_pairs(maps_dir: str, masks_dir: str) -> tuple[list[ImageGrid], list[PixelMask]]:
    try:
        names = sorted(f for f in os.listdir(maps_dir) if f.endswith(".pgm"))
    except OSError as exc:
        raise DataError("malformed-pgm", f"cannot list {maps_dir}: {exc}") from exc
    if not names:
        raise DataError("malformed-pgm", f"no PGM score maps in {maps_dir}")
    grids = []
    masks = []
    for name in names:
        stem = os.path.splitext(name)[0]
        candidates = [name, f"{stem}_mask.pgm"]
        mask_path = next(
            (
                os.path.join(masks_dir, c)
                for c in candidates
                if os.path.isfile(os.path.join(masks_dir, c))
            ),
            None,
        )
        if mask_path is None:
            raise DataError("missing-mask", f"no mask for score map {name} in {masks_dir}")
        grid = grid_from_pgm(os.path.join(maps_dir, name))
        mask = mask_from_pgm(mask_path)
        if mask.bits.shape != grid.codes.shape:
            raise DataError(
                "dim-mismatch", f"{name}: map {grid.codes.shape} vs mask {mask.bits.shape}"
            )
        grids.append(grid)
        masks.append(mask)
    return grids, masks


def _print_metric_json(values: dict[str, float]) -> None:
    body = ", ".join(f'"{k}": {v:.4f}' for k, v in values.items())
    print("{" + body + "}")


def cmd_metrics(args) -> int:
    scores_mode = args.scores is not None
    maps_mode = args.maps is not None or args.masks is not None
    if scores_mode == maps_mode:
        _err("exactly one of --scores or --maps/--masks is required")
        return 2
    if maps_mode and (args.maps is None or args.masks is None):
        _err("--maps and --masks must be given together")
        return 2
    for flag, limit in (("--pro-limit", args.pro_limit), ("--spro-limit", args.spro_limit)):
        if maps_mode and not 0.0 < limit <= 1.0:
            _err(f"{flag} must be in (0, 1]")
            return 2
    if scores_mode:
        data = _read_scores_csv(args.scores)
        values = {"auroc": auroc(data), "ap": average_precision(data)}
    else:
        grids, masks = _read_map_pairs(args.maps, args.masks)
        # fed one map at a time, as a cell feeds each map it renders
        pool = PixelPool(mask_regions(masks, [grid.codes.shape for grid in grids]))
        for grid in grids:
            pool.add(grid.values)
        # no saturation table here: mean_spro is the plain per-region
        # overlap at the sPRO limit
        values = {
            "pixel_auroc": auroc(pool.ranked()),
            "pixel_ap": average_precision(pool.ranked()),
            "aupro": aupro(pool, args.pro_limit),
            "mean_spro": aupro(pool, args.spro_limit),
        }
    _print_metric_json(values)
    return 0


def cmd_report(args) -> int:
    document = load_results(args.results)
    path = emit_report(document, args.format, os.path.dirname(os.path.abspath(args.results)))
    _err(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _err(str(exc))
        return 2
    except BenchError as exc:
        _err(str(exc))
        return 3
    except OSError as exc:
        _err(f"io-failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
