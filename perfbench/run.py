"""Benchmark of iadbench, measured from outside the program.

    python3 perfbench/run.py --workload bundled [--seed 42] [--seconds 40] [--trace 0|1]

Closed loop with one client: repetitions run one after another, each in
a fresh Python process (perfbench/worker.py) that imports iadbench from
the checkout's ``src``, parses the workload config with the given seed
written into its ``seed`` field, and times one run_experiment call at
``nproc`` threads with output in a temporary directory under
``.perfbench_tmp``. Repetitions start while the next one is expected to
end within ``--seconds``; there is always at least one.

Untraced (``--trace 0``) the end-to-end metrics are medians over the
repetitions: ``run_s`` (wall time of run_experiment), ``cpu_s`` (process
CPU time during it), ``peak_rss_mb`` (the process's ru_maxrss) and
``setup_s`` (spawn to just before run_experiment, also sampled by a few
set-up-only processes). The three times are scaled to a reference host
speed by the median of host-speed probe readings taken before the first
sample and after each repetition (see hostspeed.py); the raw medians are printed
beside them. Traced
(``--trace 1``) one untraced repetition is followed by traced ones, and
the per-layer metrics come from the spans those record (see spans.py).

Every repetition's results.json is checked: per cell and for the task
matrices, its sha256 digests must equal perfbench/reference.json for
the seed, or, for a seed with no stored reference, the first
repetition's. A failed, missing, extra or differing cell counts as
failed. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "bundled": ROOT / "configs" / "synth_benchmark.json",
    "hires_regions": HERE / "workloads" / "hires_regions.json",
    "bank_build": HERE / "workloads" / "bank_build.json",
}
DEFAULT_SEED = 42
SETUP_SPAWNS = 4
DEADLINE_S = 170.0  # a whole benchmark run ends within this
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the program's sources and bundled configs, for checkouts without git."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.json"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "threads": threads,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A temporary directory under the git-ignored .perfbench_tmp, removed afterwards."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=prefix, dir=base)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def spawn(config: Path, seed: int, out_dir: str, threads: int, mode: str, deadline: float):
    """Run one worker process; returns its result dict, or None if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), str(config), str(seed), out_dir,
           str(threads), mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        print(f"perfbench: {mode} worker exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    if mode == "trace":
        result["spans"] = spans.load_spans(os.path.join(out_dir, "spans.json"))
    return result


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "iadbench" / "runner.py", config):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2
    with open(HERE / "reference.json", "r", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    expected_ids = set(reference[str(DEFAULT_SEED)]["cells"])
    threads = nproc()
    print("provenance " + json.dumps(provenance(args.workload, args.seed, threads)))

    deadline = time.monotonic() + DEADLINE_S
    with scratch_dir(f"{args.workload}-") as work:
        setups, reps, readings = _measure(args, config, threads, work, deadline)

    done = [r for r in reps if r is not None]
    if not done:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    expected = reference.get(str(args.seed)) or done[0]["digests"]
    print(
        "digests "
        + json.dumps(
            {
                "seed": args.seed,
                "against": "stored reference" if str(args.seed) in reference
                else "first repetition",
                "digests": done[0]["digests"],
            },
            sort_keys=True,
        )
    )
    attempted = failed = 0
    for rep in reps:
        if rep is None:
            attempted += len(expected_ids)
            failed += len(expected_ids)
            continue
        produced = set(rep["digests"]["cells"])
        bad = checks.failed_cells(rep["statuses"], rep["digests"], expected)
        bad |= expected_ids ^ produced
        attempted += len(expected_ids | produced)
        failed += len(bad)

    untraced = [r for r in done if "spans" not in r]
    traced = [r for r in done if "spans" in r]
    cpu = [p.cpu_s for p in readings]
    factor = hostspeed.factor(readings)
    print(f"host-speed probe: {len(readings)} readings, cpu median {_median(cpu):.4f} s "
          f"(min {min(cpu):.4f}, max {max(cpu):.4f}), wall median "
          f"{_median([p.wall_s for p in readings]):.4f} s; times scaled by {factor:.4f}")
    if args.trace:
        metrics = _layer_metrics(untraced, traced, threads, factor)
    else:
        samples = {
            "run_s": ([r["run_s"] for r in untraced], factor, "s"),
            "cpu_s": ([r["cpu_s"] for r in untraced], factor, "s"),
            "setup_s": (setups + [r["setup_s"] for r in untraced], factor, "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], 1.0, "MiB"),
        }
        metrics = {
            name: (_median(vals) * scale, unit) for name, (vals, scale, unit) in samples.items()
        }
        print(f"{'metric':<16}{'scaled':>12}  {'unit':<6}{'n':>3}{'raw median':>12}"
              f"{'raw min':>12}{'raw max':>12}")
        for name, (vals, _, unit) in samples.items():
            print(f"{name:<16}{metrics[name][0]:>12.4f}  {unit:<6}{len(vals):>3}"
                  f"{_median(vals):>12.4f}{min(vals):>12.4f}{max(vals):>12.4f}")
    print(f"{'cells_attempted':<16}{attempted:>12}  count")
    print(f"{'cells_failed':<16}{failed:>12}  count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _measure(args, config: Path, threads: int, work: str, deadline: float):
    """Set-up samples and repetitions, with host-speed readings between them.

    Returns (set-up seconds, repetitions, probe readings).
    """
    def probe() -> hostspeed.Reading:
        return hostspeed.read(threads, timeout=max(1.0, deadline - time.monotonic()))

    start = time.monotonic()
    readings = [probe()]
    reading_s = time.monotonic() - start
    setups = []
    if not args.trace:
        for i in range(SETUP_SPAWNS):
            result = spawn(config, args.seed, os.path.join(work, f"setup{i}"), threads,
                           "setup", deadline)
            if result is not None:
                setups.append(result["setup_s"])
    reps = []
    longest = 0.0
    while True:
        # traced: one untraced repetition first, for the overhead and utilisation
        mode = "trace" if args.trace and reps else "run"
        t0 = time.monotonic()
        rep = spawn(config, args.seed, os.path.join(work, f"rep{len(reps)}"),
                    threads, mode, deadline)
        readings.append(probe())
        reps.append(rep)
        now = time.monotonic()
        longest = max(longest, now - t0)
        if now + longest > deadline:
            break
        if now - start + longest > args.seconds and (mode == "trace" or not args.trace):
            break
    # the time left in --seconds, too short for another repetition, goes to
    # more readings: they sharpen the run's host-speed median
    while True:
        t0 = time.monotonic()
        if t0 - start + reading_s > args.seconds or t0 + reading_s > deadline:
            break
        readings.append(probe())
        reading_s = max(reading_s, time.monotonic() - t0)
    return setups, reps, readings


def _layer_metrics(untraced: list[dict], traced: list[dict], threads: int,
                   factor: float) -> dict:
    if not untraced or not traced:
        raise SystemExit("perfbench: a traced run needs one untraced and one traced repetition")
    per_rep = [spans.layer_metrics(*r["spans"]) for r in traced]
    metrics = {
        name: (_median([m[name][0] for m in per_rep]), unit)
        for name, (_, unit) in per_rep[0].items()
    }
    run_untraced = _median([r["run_s"] for r in untraced])
    metrics["runner.thread_utilisation"] = (
        _median([r["cpu_s"] / (threads * r["run_s"]) for r in untraced]), "ratio")
    metrics["trace.overhead_s"] = (
        (_median([r["run_s"] for r in traced]) - run_untraced) * factor, "s")

    if traced[-1]["missing_wraps"]:
        print(f"perfbench: not traced: {traced[-1]['missing_wraps']}", file=sys.stderr)
    table = spans.layer_table(traced[-1]["spans"][0])
    print(f"layers of the last traced repetition (untraced run_s {run_untraced:.3f} s, "
          f"traced run_s {traced[-1]['run_s']:.3f} s, both raw)")
    print(f"{'span':<34}{'calls':>7}{'total_s':>10}{'self_s':>10}")
    for name, layer in sorted(table.items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:<34}{layer.calls:>7}{layer.total_s:>10.3f}{layer.self_s:>10.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<38}{value:>14.4f}  {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
