"""Host-speed probe: fixed numpy and Python kernels timed between repetitions.

On a shared host the same program runs up to a third slower for minutes
at a time, when other tenants load the cores and the memory system the
vCPUs share; its CPU time grows with its wall time, because the work
itself executes slower. The probe times three fixed kernels, each on
``threads`` threads at once as run_experiment runs its jobs, that load
what iadbench's hot paths load:

- ``stream``: a 49 MB float64 block per thread through
  ``sqrt(((x - 0.5) ** 2).sum(-1))``, like the broadcast distances of the
  nearest-neighbour search (DRAM bandwidth);
- ``greedy``: farthest-point steps over 30000 x 16 points, like the
  coreset loop (cache-resident arrays, many small numpy calls);
- ``interp``: a pure-Python loop (the interpreter, under the GIL).

A reading is the process CPU time of the three; its wall time is kept for
the record. CPU time measures how fast the host executes fixed work
without the probe's own thread hand-offs, and tracked the repetitions at
least as well as wall time did. The probe does not use iadbench, so no
change to the program moves it. A run scales its times to the reference
host speed by the median of its readings:

    scaled = raw * factor,  factor = REFERENCE_CPU_S / median(reading CPU times)

``REFERENCE_CPU_S`` is close to the median reading on the machine of
perfbench/BASELINE.md, so a scaled value reads as seconds on that
machine. ``python3 perfbench/hostspeed.py THREADS`` prints one reading
as ``[wall_s, cpu_s]``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

STREAM_SHAPE = (256, 1500, 16)  # 49 MB per thread
STREAM_ROUNDS = 6
GREEDY_POINTS = (30000, 16)
GREEDY_STEPS = 80
INTERP_STEPS = 1_600_000


class Reading(NamedTuple):
    wall_s: float
    cpu_s: float


REFERENCE_CPU_S = 1.40


def _stream(i: int) -> None:
    block = np.full(STREAM_SHAPE, 0.25 * (i + 1))
    for _ in range(STREAM_ROUNDS):
        np.sqrt(((block - 0.5) ** 2).sum(axis=2)).argmin(axis=1)


def _greedy(i: int) -> None:
    points = np.random.default_rng(i).random(GREEDY_POINTS)
    min_d2 = ((points - points[0]) ** 2).sum(axis=1)
    idx = 0
    for _ in range(GREEDY_STEPS):
        np.minimum(min_d2, ((points - points[idx]) ** 2).sum(axis=1), out=min_d2)
        min_d2[idx] = -1.0
        idx = int(np.argmax(min_d2))


def _interp(i: int) -> None:
    total = i
    for k in range(INTERP_STEPS):
        total += k * k


def measure_here(threads: int) -> Reading:
    wall = cpu = 0.0
    for kernel in (_stream, _greedy, _interp):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(kernel, range(threads)))
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
    return Reading(wall, cpu)


def read(threads: int, timeout: float) -> Reading:
    """One reading, taken in a child process.

    The child holds the working set, so the process that spawns the
    repetitions stays small: a repetition's ru_maxrss starts from its
    parent's peak when the parent spawns it with vfork.
    """
    proc = subprocess.run(
        [sys.executable, __file__, str(threads)],
        capture_output=True, text=True, check=True, timeout=timeout,
    )
    return Reading(*json.loads(proc.stdout))


def factor(readings: list[Reading], reference_cpu_s: float = REFERENCE_CPU_S) -> float:
    """What turns a run's times into times at the reference host speed."""
    return reference_cpu_s / statistics.median(r.cpu_s for r in readings)


if __name__ == "__main__":
    print(json.dumps(measure_here(int(sys.argv[1]))))
