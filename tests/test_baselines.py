"""K-means on binary rows and the gap statistic."""

import copy

import numpy as np
import pytest

from binclust import baselines
from binclust.baselines import _lloyd, _plusplus_seeds, _squared_distances, _wcss, gap_statistic, kmeans_binary
from binclust.datagen import SyntheticSpec, generate
from binclust.evaluate import matched_accuracy
from binclust.model import BinaryMatrix


def _blocks(sizes, d, patterns):
    rows = []
    for size, pattern in zip(sizes, patterns):
        block = np.zeros((size, d), dtype=np.uint8)
        block[:, pattern] = 1
        rows.append(block)
    return BinaryMatrix(np.vstack(rows))


def _plusplus_by_direct_distances(points, k, rng):
    """k-means++ seeding with each squared distance written out as a difference."""
    centroids = [points[rng.integers(points.shape[0])]]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        idx = rng.choice(points.shape[0], p=d2 / total) if total > 0 else rng.integers(points.shape[0])
        centroids.append(points[idx])
        d2 = np.minimum(d2, ((points - centroids[-1]) ** 2).sum(axis=1))
    return np.array(centroids)


def _gap_by_per_k_fits(data, k_max, n_refs, rng):
    """The gap statistic through ``kmeans_binary``, then ``_wcss``, then a scalar log with 0 mapped to -inf."""

    def log_dispersion(matrix, k):
        labels, centroids = kmeans_binary(matrix, k, rng)
        wcss = _wcss(matrix.values.astype(np.float64), labels, centroids)
        return -np.inf if wcss == 0.0 else float(np.log(wcss))

    k_values = range(1, k_max + 1)
    data_logs = np.array([log_dispersion(data, k) for k in k_values])
    col_means = data.values.mean(axis=0)
    ref_logs = np.empty((n_refs, k_max))
    for b in range(n_refs):
        ref = BinaryMatrix((rng.random(data.values.shape) < col_means).astype(np.uint8))
        ref_logs[b] = [log_dispersion(ref, k) for k in k_values]
    with np.errstate(invalid="ignore"):
        gap_curve = ref_logs.mean(axis=0) - data_logs
        sk_curve = ref_logs.std(axis=0) * np.sqrt(1.0 + 1.0 / n_refs)
    degenerate = np.flatnonzero(np.isneginf(data_logs))
    passing = [
        k for k in range(1, k_max)
        if np.isfinite(gap_curve[k - 1 : k + 1]).all() and gap_curve[k - 1] >= gap_curve[k] - sk_curve[k]
    ]
    chosen_k = degenerate[0] + 1 if degenerate.size else (passing + [k_max])[0]
    return chosen_k, gap_curve, sk_curve, data_logs


class TestKmeansBinary:
    def test_k1_centroid_is_column_means(self):
        rng = np.random.default_rng(0)
        data = BinaryMatrix(rng.integers(0, 2, size=(15, 6)).astype(np.uint8))
        labels, centroids = kmeans_binary(data, 1, rng=rng)
        assert np.all(labels == 0)
        np.testing.assert_allclose(centroids[0], data.values.mean(axis=0))

    def test_two_separated_blocks(self):
        data = _blocks([7, 7], 10, [range(0, 5), range(5, 10)])
        labels, _ = kmeans_binary(data, 2, rng=np.random.default_rng(1))
        truth = np.repeat([0, 1], 7)
        assert matched_accuracy(labels, truth) == 100.0

    def test_objective_non_increasing(self):
        # A run capped at m iterations draws the same seeds as an uncapped one
        # and returns the WCSS after iteration m (or after convergence, if
        # sooner), so the caps 1..50 trace the objective iteration by iteration.
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            d = int(rng.integers(2, 12))
            data = rng.integers(0, 2, size=(n, d)).astype(np.float64)
            norms = (data * data).sum(axis=1)
            k = int(rng.integers(2, min(6, n)))
            trace = []
            for max_iters in range(1, 51):
                run_rng = copy.deepcopy(rng)
                trace.append(_lloyd(data, norms, k, max_iters=max_iters, rng=run_rng)[2])
            rng = run_rng
            assert (np.diff(trace) <= 1e-9).all()

    def test_seeding_distances_equal_the_direct_formula(self):
        rng = np.random.default_rng(11)
        points = rng.integers(0, 2, size=(40, 9)).astype(np.float64)
        norms = (points * points).sum(axis=1)
        for c in points:
            direct = ((points - c) ** 2).sum(axis=1)
            assert np.array_equal(_squared_distances(points, norms, c[None, :])[:, 0], direct)
        for seed in range(10):
            k = 1 + seed % 6
            seeds = _plusplus_seeds(points, norms, k, np.random.default_rng(seed))
            assert np.array_equal(seeds, _plusplus_by_direct_distances(points, k, np.random.default_rng(seed)))

    def test_centroids_stay_in_unit_box(self):
        rng = np.random.default_rng(3)
        data = BinaryMatrix(rng.integers(0, 2, size=(20, 5)).astype(np.uint8))
        _, centroids = kmeans_binary(data, 4, rng=rng)
        assert np.all(centroids >= 0.0) and np.all(centroids <= 1.0)

    @pytest.mark.parametrize("k", [0, 21])
    def test_rejects_out_of_range_k(self, k):
        data = BinaryMatrix(np.zeros((20, 3), dtype=np.uint8) + np.eye(20, 3, dtype=np.uint8))
        with pytest.raises(ValueError):
            kmeans_binary(data, k, rng=np.random.default_rng(0))

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            data = BinaryMatrix(rng.integers(0, 2, size=(12, 4)).astype(np.uint8))
            labels, _ = kmeans_binary(data, 5, rng=rng)
            assert len(np.unique(labels)) == 5


class TestGapStatistic:
    def test_identical_rows_choose_one_cluster(self):
        data = BinaryMatrix(np.tile([1, 0, 1, 0, 1, 1], (10, 1)))
        result = gap_statistic(data, k_max=5, n_refs=4, rng=np.random.default_rng(0))
        assert result.chosen_k == 1

    def test_noiseless_planted_clusters_recovered(self):
        for seed in range(5):
            spec = SyntheticSpec(n_objects=60, n_features=40, info_pct=25, noise_pct=0, k_true=4, seed=seed)
            data, _ = generate(spec)
            result = gap_statistic(data, k_max=8, n_refs=4, rng=np.random.default_rng(seed))
            assert result.chosen_k == 4

    def test_mild_noise_still_recovered(self):
        spec = SyntheticSpec(n_objects=80, n_features=60, info_pct=20, noise_pct=5, k_true=5, seed=1)
        data, _ = generate(spec)
        result = gap_statistic(data, k_max=9, n_refs=8, rng=np.random.default_rng(2))
        assert result.chosen_k == 5

    def test_curves_have_length_k_max_and_finite_for_noisy_data(self):
        spec = SyntheticSpec(n_objects=40, n_features=30, info_pct=20, noise_pct=15, k_true=3, seed=3)
        data, _ = generate(spec)
        result = gap_statistic(data, k_max=6, n_refs=4, rng=np.random.default_rng(4))
        assert result.gap_curve.shape == (6,)
        assert result.sk_curve.shape == (6,)
        assert result.dispersion_curve.shape == (6,)
        assert np.isfinite(result.gap_curve).all()
        assert result.chosen_k <= 6

    def test_reproducible_with_seeded_rng(self):
        spec = SyntheticSpec(n_objects=30, n_features=20, info_pct=20, noise_pct=10, k_true=3, seed=5)
        data, _ = generate(spec)
        first = gap_statistic(data, k_max=5, n_refs=4, rng=np.random.default_rng(6))
        second = gap_statistic(data, k_max=5, n_refs=4, rng=np.random.default_rng(6))
        assert first.chosen_k == second.chosen_k
        assert np.array_equal(first.gap_curve, second.gap_curve)
        assert np.array_equal(first.sk_curve, second.sk_curve)

    def test_rejects_bad_arguments(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(baselines, "_lloyd", no_fit)
        data = BinaryMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            gap_statistic(data, k_max=0)
        with pytest.raises(ValueError):
            gap_statistic(data, k_max=2, n_refs=0)
        with pytest.raises(ValueError, match="k_max"):
            gap_statistic(data, k_max=3)

    def test_equals_the_per_k_fits(self):
        # Identical rows (zero WCSS at every k) and three distinct rows, each
        # repeated (zero WCSS from k = 3), then random instances.
        rng = np.random.default_rng(21)
        instances = [np.tile([1, 0, 1, 1], (6, 1)), np.repeat(np.eye(3, 5, dtype=np.uint8), 3, axis=0)]
        instances += [rng.integers(0, 2, size=(rng.integers(3, 16), rng.integers(2, 10))) for _ in range(8)]
        for i, values in enumerate(instances):
            data = BinaryMatrix(values.astype(np.uint8))
            k_max, n_refs = min(data.n_objects, 2 + i % 5), 1 + i % 4
            result = gap_statistic(data, k_max=k_max, n_refs=n_refs, rng=np.random.default_rng(i))
            chosen_k, *curves = _gap_by_per_k_fits(data, k_max, n_refs, np.random.default_rng(i))
            assert result.chosen_k == chosen_k
            for got, want in zip((result.gap_curve, result.sk_curve, result.dispersion_curve), curves):
                assert np.array_equal(got, want, equal_nan=True)
