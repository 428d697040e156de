from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from iadbench.synth import SynthSpec, synth_dataset


@pytest.fixture(scope="session")
def small_dataset():
    """3 categories, enough samples for every protocol."""
    spec = SynthSpec(
        categories=3,
        normals_train=10,
        normals_test=4,
        abnormals_test=8,
        image_size=24,
        defect_kinds=("scratch", "blob", "missing-patch"),
    )
    return synth_dataset(spec, seed=7)


@pytest.fixture
def blas_counts():
    """Sets every loaded OpenBLAS to 2 threads for the test.

    Yields a function returning the set of their current thread counts;
    the counts from before the test come back after it.
    """
    from iadbench.detector import _openblas_thread_controls

    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    saved = [get() for get, _put in controls]

    def counts() -> set[int]:
        return {get() for get, _put in controls}

    for _get, put in controls:
        put(2)
    try:
        if counts() != {2}:
            pytest.skip("this OpenBLAS cannot run 2 threads")
        yield counts
    finally:
        for (_get, put), count in zip(controls, saved):
            put(count)
