"""Synthetic benchmark generator: exact counts, densities, reproducibility."""

import math

import numpy as np
import pytest

from binclust.datagen import SyntheticSpec, generate


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_objects": 0, "n_features": 5, "info_pct": 10, "noise_pct": 0},
            {"n_objects": 5, "n_features": 0, "info_pct": 10, "noise_pct": 0},
            {"n_objects": 5, "n_features": 5, "info_pct": 101, "noise_pct": 0},
            {"n_objects": 5, "n_features": 5, "info_pct": 10, "noise_pct": -1},
            {"n_objects": 5, "n_features": 5, "info_pct": 10, "noise_pct": 0, "k_true": 6},
            {"n_objects": 5, "n_features": 5, "info_pct": 10, "noise_pct": 0, "k_true": 0},
            {"n_objects": 5.0, "n_features": 5, "info_pct": 10, "noise_pct": 0},
            {"n_objects": 5, "n_features": 2.5, "info_pct": 10, "noise_pct": 0},
            {"n_objects": 5, "n_features": 5, "info_pct": 10, "noise_pct": 1, "k_true": 2.5},
            {"n_objects": 5, "n_features": 5, "info_pct": 10, "noise_pct": 1, "k_true": True},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestGenerate:
    def test_no_noise_makes_cluster_rows_identical(self):
        spec = SyntheticSpec(n_objects=40, n_features=25, info_pct=20, noise_pct=0, k_true=4, seed=2)
        data, labels = generate(spec)
        for k in range(4):
            rows = data.values[labels == k]
            assert (rows == rows[0]).all()

    def test_signal_column_count(self):
        # Dataset1-style configuration: 10% of 500 features per cluster
        spec = SyntheticSpec(n_objects=200, n_features=500, info_pct=10, noise_pct=0, k_true=5, seed=3)
        data, labels = generate(spec)
        for k in range(5):
            row = data.values[labels == k][0]
            assert row.sum() == 50

    def test_pre_noise_row_density_exact(self):
        spec = SyntheticSpec(n_objects=30, n_features=37, info_pct=13, noise_pct=0, k_true=3, seed=5)
        data, labels = generate(spec)
        expected = math.ceil(13 * 37 / 100)
        assert (data.values.sum(axis=1) == expected).all()

    def test_noise_flip_count_exact(self):
        base = dict(n_objects=20, n_features=30, info_pct=20, k_true=4, seed=9)
        clean, labels_clean = generate(SyntheticSpec(noise_pct=0, **base))
        noisy, labels_noisy = generate(SyntheticSpec(noise_pct=20, **base))
        # same seed: identical labels and signal placement, so the diff is the noise
        assert np.array_equal(labels_clean, labels_noisy)
        n_diff = int((clean.values != noisy.values).sum())
        assert n_diff == math.floor(0.2 * 20 * 30)

    def test_reproducible_bit_for_bit(self):
        spec = SyntheticSpec(n_objects=25, n_features=18, info_pct=15, noise_pct=10, k_true=3, seed=77)
        first, labels_first = generate(spec)
        second, labels_second = generate(spec)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(labels_first, labels_second)

    def test_labels_cover_every_cluster(self):
        for seed in range(30):
            spec = SyntheticSpec(n_objects=12, n_features=6, info_pct=30, noise_pct=5, k_true=5, seed=seed)
            _, labels = generate(spec)
            assert set(labels.tolist()) == set(range(5))

    def test_as_many_clusters_as_objects(self):
        # One uniform draw covers all 30 clusters with probability 30!/30**30,
        # so this takes the seat-one-row-per-cluster fallback.
        spec = SyntheticSpec(n_objects=30, n_features=5, info_pct=10, noise_pct=1, k_true=30, seed=0)
        data, labels = generate(spec)
        assert sorted(labels.tolist()) == list(range(30))
        assert data.n_objects == 30

    def test_single_cluster(self):
        spec = SyntheticSpec(n_objects=6, n_features=10, info_pct=50, noise_pct=0, k_true=1, seed=0)
        data, labels = generate(spec)
        assert set(labels.tolist()) == {0}
        assert (data.values == data.values[0]).all()

    @pytest.mark.parametrize(
        "shape",
        [(1, 4, 50, 0, 1), (40, 25, 20, 10, 4), (30, 5, 10, 1, 30), (200, 60, 10, 20, 5), (500, 3, 34, 5, 500)],
    )
    def test_planting_equals_one_mask_per_cluster(self, shape):
        n, d, info, noise, k_true = shape
        for seed in range(3):
            spec = SyntheticSpec(n, d, info, noise, k_true=k_true, seed=seed)
            data, labels = generate(spec)
            want_data, want_labels = _generate_by_masks(spec)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(data.values, want_data)


def _generate_by_masks(spec):
    """The generator with each cluster's rows found by a mask over all N rows."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_objects, spec.n_features
    for _ in range(100):
        labels = rng.integers(0, spec.k_true, size=n)
        if np.bincount(labels, minlength=spec.k_true).all():
            break
    else:
        labels[rng.permutation(n)[: spec.k_true]] = np.arange(spec.k_true)
    x = np.zeros((n, d), dtype=np.uint8)
    n_signal = math.ceil(spec.info_pct * d / 100.0)
    for k in range(spec.k_true):
        cols = rng.choice(d, size=n_signal, replace=False)
        x[np.ix_(labels == k, cols)] = 1
    flips = rng.choice(n * d, size=math.floor(spec.noise_pct * n * d / 100.0), replace=False)
    x.reshape(-1)[flips] ^= 1
    return x, labels
