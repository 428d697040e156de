"""Random small configs drawn over ``parse_config``'s bounds.

Each config is a synthetic dataset of 16-24 px images with every
setting type, coresets by fraction, by ``l`` and projected, b, the blur's
sigma from 0 to 1024 (tiny positive values included) and PRO limits
down to 1e-6. Every run must end in cells or a ``BenchError``, give the
same results and score-level digest (``test_golden._recorded_scores``)
at 1 and 2 threads, and fail a cell or null a metric only with a code
that README documents.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from iadbench.errors import BenchError
from iadbench.runner import parse_config, run_experiment
from test_golden import _recorded_scores

README = Path(__file__).resolve().parents[1] / "README.md"
_DEFECT_KINDS = ["scratch", "blob", "missing-patch"]


def _readme_codes(lead: str) -> set[str]:
    """The backticked kebab-case codes of README's paragraph that starts with ``lead``."""
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    paragraph = next(p for p in paragraphs if p.startswith(lead))
    return set(re.findall(r"`([a-z]+(?:-[a-z]+)+)`", paragraph))


FAILURE_CODES = _readme_codes("A cell that fails at run time")
NA_CODES = _readme_codes("A metric that an ok cell cannot compute")

_SIGMAS = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=0.125),  # tiny: no blur below 0.125
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=1024.0),
)
_LIMITS = st.one_of(st.just(1e-6), st.floats(min_value=1e-6, max_value=1.0))


@st.composite
def _setting(draw, kind: str, categories: int) -> dict:
    if kind == "supervised":
        return {"type": kind, "n": draw(st.integers(0, 4))}
    if kind == "fewshot":
        setting = {"type": kind, "rotation_k": draw(st.sampled_from([1, 2, 4]))}
        if draw(st.booleans()):
            setting.update(m=draw(st.integers(1, 5)), allow_custom_m=True)
        else:
            setting["m"] = draw(st.sampled_from([1, 2, 4, 8]))
        return setting
    if kind == "noisy":
        if draw(st.booleans()):
            ratio = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                   exclude_max=True))
            return {"type": kind, "noise_ratio": ratio, "allow_custom_ratio": True}
        return {"type": kind, "noise_ratio": draw(st.sampled_from([0.05, 0.1, 0.15, 0.2]))}
    if kind == "continual" and draw(st.booleans()):
        names = [f"cat{i:02d}" for i in range(categories)]
        order = draw(st.permutations(names))[: draw(st.integers(2, categories))]
        return {"type": kind, "category_order": order}
    return {"type": kind}


@st.composite
def _configs(draw) -> dict:
    categories = draw(st.integers(1, 3))
    abnormals = draw(st.integers(0, 3))
    synthetic = {
        "categories": categories,
        "normals_train": draw(st.integers(1, 3)),
        "normals_test": draw(st.integers(0, 2)),
        "abnormals_test": abnormals,
        "image_size": draw(st.integers(16, 24)),
        "defect_kinds": draw(
            st.lists(st.sampled_from(_DEFECT_KINDS), min_size=1 if abnormals else 0,
                     max_size=3, unique=True)
        ),
    }
    kinds = ["unsupervised", "supervised", "fewshot", "noisy"]
    if categories >= 2:
        kinds.append("continual")
    chosen = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2, unique=True))
    patch_size = draw(st.integers(2, 8))
    coreset = draw(
        st.one_of(
            st.just({}),
            st.builds(dict, target_fraction=st.floats(min_value=0.0, max_value=1.0,
                                                      exclude_min=True)),
            st.builds(dict, l=st.integers(1, 300)),
        )
    )
    if draw(st.booleans()):
        coreset["projection_dim"] = draw(
            st.one_of(st.integers(1, patch_size**2), st.just("none"), st.none())
        )
    metrics = {"pro_limit": draw(_LIMITS), "spro_limit": draw(_LIMITS)}
    return {
        "dataset": {"synthetic": synthetic},
        "setting": [draw(_setting(kind, categories)) for kind in chosen],
        "detector": {
            "feature": {"patch_size": patch_size, "stride": draw(st.integers(1, patch_size))},
            "coreset": coreset,
            "b": draw(st.integers(1, 6)),
            "smoothing_sigma": draw(_SIGMAS),
        },
        "metrics": metrics,
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _outcome(raw: dict, threads: int) -> tuple[dict | None, str]:
    """The results document without timings and the score-level digest,
    or None and the ``BenchError`` that ended the run."""
    with _recorded_scores() as records:
        try:
            document = run_experiment(parse_config(raw), threads=threads).document
        except BenchError as exc:
            return None, f"{type(exc).__name__}: {exc}"
    document.pop("timings")
    return document, hashlib.sha256("\n".join(sorted(records)).encode("ascii")).hexdigest()


def test_readme_lists_the_codes():
    assert {"l-out-of-range", "b-out-of-range", "zero-injection", "insufficient-abnormals",
            "insufficient-normals", "no-abnormals", "degenerate-labels"} <= FAILURE_CODES
    assert {"degenerate-labels", "no-positives", "not-continual"} <= NA_CODES


@settings(max_examples=15, deadline=None)
@given(raw=_configs())
def test_random_configs_end_in_cells_or_a_bench_error(raw):
    document, digest = _outcome(raw, 1)
    assert _outcome(raw, 2) == (document, digest)
    if document is None:  # a BenchError: no cells to check
        return
    cells = document["cells"]
    assert cells and {c["status"] for c in cells} <= {"ok", "failed"}
    for cell in cells:
        if cell["status"] == "failed":
            assert cell["error"]["code"] in FAILURE_CODES, cell["error"]
        assert set(cell["na_reasons"].values()) <= NA_CODES, cell["na_reasons"]
