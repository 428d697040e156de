from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from iadbench.data import ABNORMAL, NORMAL
from iadbench.errors import ConfigError, ProtocolError
from iadbench.protocols import (
    augment_rotations,
    inject_noise,
    make_continual,
    make_fewshot,
    make_supervised,
    make_unsupervised,
)
from iadbench.runner import parse_config

CAT = "cat00"


def _label_multiset(dataset, category):
    return Counter(
        (s.id, s.label)
        for split in (dataset.train[category], dataset.test[category])
        for s in split
    )


def _split_multiset(split, include_derived=False):
    items = [(i.sample.id, i.sample.label) for i in split.train]
    items += [(s.id, s.label) for s in split.test]
    if not include_derived:
        items = [(sid, label) for sid, label in items if "#rot" not in sid]
    return Counter(items)


# --- unsupervised ----------------------------------------------------------


def test_unsupervised_pass_through(small_dataset):
    split = make_unsupervised(small_dataset, CAT)
    assert len(split.train) == 10
    assert len(split.test) == 12
    assert split.provenance == []
    assert all(i.observed_label == NORMAL for i in split.train)


def test_unknown_category(small_dataset):
    from iadbench.errors import DataError

    with pytest.raises(DataError) as exc:
        make_unsupervised(small_dataset, "bolt")
    assert exc.value.code == "unknown-category"


def test_empty_train(small_dataset):
    import copy

    dataset = copy.copy(small_dataset)
    dataset.train = dict(dataset.train, **{CAT: []})
    with pytest.raises(ProtocolError) as exc:
        make_unsupervised(dataset, CAT)
    assert exc.value.code == "empty-train"


# --- supervised -------------------------------------------------------------


def test_supervised_moves_n_abnormals(small_dataset):
    split = make_supervised(small_dataset, CAT, n=5, seed=3)
    moved = [i for i in split.train if i.observed_label == ABNORMAL]
    assert len(moved) == 5
    assert all(i.sample.mask is not None for i in moved)
    assert sum(s.label == ABNORMAL for s in split.test) == 3
    assert sum(s.label == NORMAL for s in split.test) == 4
    assert len(split.provenance) == 5
    # conservation
    assert _split_multiset(split) == _label_multiset(small_dataset, CAT)
    # determinism
    again = make_supervised(small_dataset, CAT, n=5, seed=3)
    assert [i.sample.id for i in again.train] == [i.sample.id for i in split.train]


def test_supervised_degenerate_n(small_dataset):
    split = make_supervised(small_dataset, CAT, n=0, seed=1)
    base = make_unsupervised(small_dataset, CAT)
    assert [i.sample.id for i in split.train] == [i.sample.id for i in base.train]
    assert [s.id for s in split.test] == [s.id for s in base.test]


def test_supervised_insufficient(small_dataset):
    with pytest.raises(ProtocolError) as exc:
        make_supervised(small_dataset, CAT, n=9, seed=1)
    assert exc.value.code == "insufficient-abnormals"


# --- fewshot ----------------------------------------------------------------


def test_fewshot_counts_and_stability(small_dataset):
    split = make_fewshot(small_dataset, CAT, m=4, seed=1)
    assert len(split.train) == 4
    assert all(i.sample.label == NORMAL for i in split.train)
    assert len(split.test) == 12
    again = make_fewshot(small_dataset, CAT, m=4, seed=1)
    assert [i.sample.id for i in again.train] == [i.sample.id for i in split.train]


def test_fewshot_single_shot(small_dataset):
    assert len(make_fewshot(small_dataset, CAT, m=1, seed=0).train) == 1


def test_fewshot_insufficient(small_dataset):
    import copy

    dataset = copy.copy(small_dataset)
    dataset.train = dict(dataset.train, **{CAT: dataset.train[CAT][:5]})
    with pytest.raises(ProtocolError) as exc:
        make_fewshot(dataset, CAT, m=8, seed=0)
    assert exc.value.code == "insufficient-normals"


def test_fewshot_invalid_m(small_dataset):
    # the grid belongs to the config: parse_config rejects m=3 unless
    # allow_custom_m, and make_fewshot draws any m the pool can supply
    with pytest.raises(ConfigError) as exc:
        _settings({"type": "fewshot", "m": 3})
    assert exc.value.code == "invalid-config"
    split = make_fewshot(small_dataset, CAT, m=3, seed=0)
    assert len(split.train) == 3


# --- rotations ---------------------------------------------------------------


def test_rotation_multiplies_train(small_dataset):
    split = make_fewshot(small_dataset, CAT, m=1, seed=2)
    rotated = augment_rotations(split, 4)
    assert len(rotated.train) == 4
    angles = [p.transform for p in rotated.provenance if p.transform.startswith("rot")]
    assert angles == ["rot0", "rot90", "rot180", "rot270"]
    assert len(rotated.test) == len(split.test)
    # original id survives; derived ids are tagged
    ids = [i.sample.id for i in rotated.train]
    assert ids[0] == split.train[0].sample.id
    assert all("#rot" in sid for sid in ids[1:])


def test_rotation_identity(small_dataset):
    split = make_fewshot(small_dataset, CAT, m=2, seed=2)
    assert augment_rotations(split, 1) is split


def test_rotation_of_constant_image(small_dataset):
    from iadbench.data import ImageGrid, Sample
    from iadbench.protocols import Split, TrainItem

    sample = Sample("c", ImageGrid(np.full((8, 8), 64, dtype=np.uint8)), NORMAL, None, "good", CAT)
    split = Split([TrainItem(sample, NORMAL)], [])
    rotated = augment_rotations(split, 4)
    for item in rotated.train:
        assert np.array_equal(item.sample.image.values, sample.image.values)


def test_rotation_rejects_non_square(small_dataset):
    from iadbench.data import ImageGrid, Sample
    from iadbench.protocols import Split, TrainItem

    sample = Sample("r", ImageGrid(np.zeros((4, 6), np.uint8)), NORMAL, None, "good", CAT)
    split = Split([TrainItem(sample, NORMAL)], [])
    with pytest.raises(ProtocolError) as exc:
        augment_rotations(split, 2)
    assert exc.value.code == "non-square-image"


def test_rotation_invalid_k(small_dataset):
    split = make_fewshot(small_dataset, CAT, m=1, seed=0)
    with pytest.raises(ProtocolError) as exc:
        augment_rotations(split, 3)
    assert exc.value.code == "invalid-k"


def test_rotated_masks_follow_images(small_dataset):
    split = make_supervised(small_dataset, CAT, n=2, seed=0)
    rotated = augment_rotations(split, 2)
    flipped = [i for i in rotated.train if i.sample.id.endswith("#rot180")]
    for item in flipped:
        original = next(
            i.sample
            for i in split.train
            if i.sample.id == item.sample.id.removesuffix("#rot180")
        )
        assert np.array_equal(
            item.sample.image.values, np.rot90(original.image.values, 2)
        )
        if original.mask is not None:
            assert np.array_equal(
                item.sample.mask.bits, np.rot90(original.mask.bits, 2)
            )


# --- noise -------------------------------------------------------------------


def test_noise_target_formula(small_dataset):
    # m=10 train normals, ratio 0.2 -> round(10*0.2/0.8) = round(2.5) = 3
    split = inject_noise(small_dataset, CAT, 0.2, seed=5)
    assert split.info["injected"] == 3
    assert split.info["achieved_ratio"] == pytest.approx(3 / 13)
    injected = [i for i in split.train if i.sample.label == ABNORMAL]
    assert len(injected) == 3
    assert all(i.observed_label == NORMAL for i in injected)
    # injected samples left the test set
    injected_ids = {i.sample.id for i in injected}
    assert not injected_ids & {s.id for s in split.test}
    assert {p.sample_id for p in split.provenance} == injected_ids
    assert _split_multiset(split) == _label_multiset(small_dataset, CAT)


def test_noise_worked_examples(small_dataset):
    """n = round(r*m/(1-r)) capped at floor(0.75 * |test abnormals|)."""
    from iadbench.protocols import NOISE_CAP_FRACTION, _round_half_up

    def target(m, ratio, abnormals):
        uncapped = _round_half_up(ratio * m / (1.0 - ratio))
        return min(uncapped, int(np.floor(NOISE_CAP_FRACTION * abnormals)))

    assert target(16, 0.20, 20) == 4
    assert target(100, 0.20, 20) == 15
    assert 15 / 115 == pytest.approx(0.1304, abs=1e-4)
    assert target(19, 0.05, 20) == 1


def test_noise_zero_injection(small_dataset):
    with pytest.raises(ProtocolError) as exc:
        inject_noise(small_dataset, CAT, 0.004, seed=0)
    assert exc.value.code == "zero-injection"


def test_noise_requires_abnormals(small_dataset):
    import copy

    dataset = copy.copy(small_dataset)
    dataset.test = dict(
        dataset.test, **{CAT: [s for s in dataset.test[CAT] if s.label == NORMAL]}
    )
    with pytest.raises(ProtocolError) as exc:
        inject_noise(dataset, CAT, 0.1, seed=0)
    assert exc.value.code == "no-abnormals"


def test_noise_ratio_accuracy(small_dataset):
    """Achieved ratio within 1/(m+n) of the request when the cap is inactive."""
    for ratio in (0.05, 0.10, 0.15, 0.20):
        try:
            split = inject_noise(small_dataset, CAT, ratio, seed=1)
        except ProtocolError:
            continue
        n = split.info["injected"]
        m = len(split.train) - n
        if split.info["uncapped"] == n:
            assert abs(split.info["achieved_ratio"] - ratio) <= 1.0 / (m + n)


# --- continual ---------------------------------------------------------------


def test_continual_sequence(small_dataset):
    seq = make_continual(small_dataset, ["cat00", "cat01"])
    assert [t.category for t in seq] == ["cat00", "cat01"]
    step2 = seq[:2]
    assert [t.category for t in step2] == ["cat00", "cat01"]
    assert all(t.test for t in step2)


def test_continual_three_categories(small_dataset):
    seq = make_continual(small_dataset, ["cat00", "cat01", "cat02"])
    assert len(seq[:3]) == 3


def test_continual_rejects_duplicates(small_dataset):
    with pytest.raises(ProtocolError) as exc:
        make_continual(small_dataset, ["cat00", "cat00"])
    assert exc.value.code == "duplicate-category"


def test_continual_too_few(small_dataset):
    with pytest.raises(ProtocolError) as exc:
        make_continual(small_dataset, ["cat00"])
    assert exc.value.code == "too-few-categories"


def _settings(setting):
    return parse_config({"dataset": {"path": "data"}, "setting": setting, "seed": 0}).settings


def test_setting_config_grids():
    assert _settings({"type": "fewshot", "m": 8})[0]["m"] == 8
    with pytest.raises(ConfigError):
        _settings({"type": "fewshot", "m": 3})
    assert _settings({"type": "fewshot", "m": 3, "allow_custom_m": True})[0]["m"] == 3
    assert _settings({"type": "noisy", "noise_ratio": 0.15})[0]["noise_ratio"] == 0.15
    with pytest.raises(ConfigError):
        _settings({"type": "noisy", "noise_ratio": 0.12})
    ratio = _settings({"type": "noisy", "noise_ratio": 0.12, "allow_custom_ratio": True})
    assert ratio[0]["noise_ratio"] == 0.12


# --- cross-protocol properties -------------------------------------------------


def test_label_purity(small_dataset):
    for maker in (
        lambda: make_unsupervised(small_dataset, CAT),
        lambda: make_fewshot(small_dataset, CAT, 4, seed=9),
    ):
        split = maker()
        assert all(i.sample.label == NORMAL for i in split.train)
    noisy = inject_noise(small_dataset, CAT, 0.1, seed=9)
    injected = {p.sample_id for p in noisy.provenance}
    true_abnormal = {i.sample.id for i in noisy.train if i.sample.label == ABNORMAL}
    assert injected == true_abnormal


def test_conservation_all_settings(small_dataset):
    original = _label_multiset(small_dataset, CAT)
    splits = [
        make_unsupervised(small_dataset, CAT),
        make_supervised(small_dataset, CAT, 4, seed=2),
        make_fewshot(small_dataset, CAT, 2, seed=2),
        inject_noise(small_dataset, CAT, 0.1, seed=2),
    ]
    for position, split in enumerate(splits):
        observed = _split_multiset(split)
        if position == 2:  # make_fewshot
            # fewshot drops train normals by design; everything kept must
            # still come from the original multiset
            assert all(observed[key] <= original[key] for key in observed)
        else:
            assert observed == original
    rotated = augment_rotations(make_fewshot(small_dataset, CAT, 2, seed=2), 4)
    derived = [i.sample.id for i in rotated.train if "#rot" in i.sample.id]
    assert len(derived) == 6  # 2 originals x 3 derived copies each
    assert _split_multiset(rotated) == _split_multiset(make_fewshot(small_dataset, CAT, 2, seed=2))
