"""One benchmark repetition in a fresh Python process.

    python3 perfbench/worker.py CONFIG SEED OUT_DIR THREADS MODE

MODE is ``setup`` (import and parse the config, then exit), ``run``
(also time one run_experiment call) or ``trace`` (the same with spans
recorded around iadbench's public calls, written to OUT_DIR/spans.json).
``iadbench`` must be importable, so the caller puts the checkout's
``src`` on PYTHONPATH. The last stdout line is one JSON object; its
``ready`` is time.monotonic() just before run_experiment, which the
caller subtracts from its own clock reading taken before the spawn.
"""

import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main(argv: list[str]) -> int:
    config_path, seed, out_dir, threads, mode = argv
    from iadbench.runner import parse_config, run_experiment

    with open(config_path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["seed"] = int(seed)
    raw["output_dir"] = out_dir
    config = parse_config(raw)

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    if tracer is not None:
        root = tracer.open("runner.run_experiment")
    run_experiment(config, threads=int(threads), output_dir=out_dir)
    if tracer is not None:
        tracer.close(root)
    run_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0

    from checks import result_digests

    with open(os.path.join(out_dir, "results.json"), "r", encoding="utf-8") as fh:
        document = json.load(fh)
    out = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "statuses": {c["cell_id"]: c["status"] for c in document["cells"]},
        "digests": result_digests(document),
    }
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.json"))
        out["missing_wraps"] = missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
