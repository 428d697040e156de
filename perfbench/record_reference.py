"""Record the correctness reference: result digests per workload and seed.

    python3 perfbench/record_reference.py [SEED ...]

Runs each workload once per seed (default: 42) at ``nproc`` threads and
writes perfbench/reference.json. It first checks the thread-independence
contract: ``bundled`` at 1 thread must give the same digests as at
``nproc``. Only a change that is declared to move results re-records.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main(argv: list[str]) -> int:
    seeds = sorted({int(s) for s in argv} | {run.DEFAULT_SEED})
    threads = run.nproc()
    reference: dict = {}
    with run.scratch_dir("reference-") as work:
        for name, config in run.WORKLOADS.items():
            reference[name] = {}
            for seed in seeds:
                out = f"{work}/{name}-{seed}"
                result = run.spawn(config, seed, out, threads, "run", time.monotonic() + 600)
                if result is None or "failed" in result["statuses"].values():
                    print(f"{name} seed {seed}: run failed", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = result["digests"]
                print(f"{name} seed {seed}: {len(result['statuses'])} cells, "
                      f"run_s {result['run_s']:.2f}", flush=True)
        single = run.spawn(run.WORKLOADS["bundled"], run.DEFAULT_SEED, f"{work}/single",
                           1, "run", time.monotonic() + 600)
    if single is None or single["digests"] != reference["bundled"][str(run.DEFAULT_SEED)]:
        print(f"bundled at 1 thread differs from {threads} threads", file=sys.stderr)
        return 1
    print(f"bundled: 1 thread and {threads} threads give the same digests")
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
