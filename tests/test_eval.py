"""Matched accuracy, contingency tables, per-cluster feature frequencies."""

import numpy as np
import pytest

from binclust.evaluate import cluster_feature_frequencies, contingency, matched_accuracy
from binclust.model import BinaryMatrix

from _oracles import matched_accuracy_brute_force


class TestMatchedAccuracy:
    def test_identity_scores_100(self):
        labels = [0, 1, 2, 1, 0, 2]
        assert matched_accuracy(labels, labels) == 100.0

    def test_relabeling_scores_100(self):
        truth = np.array([0, 0, 1, 1, 2, 2, 2])
        perm = np.array([2, 0, 1])
        assert matched_accuracy(perm[truth], truth) == 100.0

    def test_worked_example(self):
        truth = [0, 0, 0, 1, 1, 1]
        pred = [0, 0, 1, 1, 1, 1]
        assert matched_accuracy(pred, truth) == pytest.approx(100.0 * 5 / 6)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            pred = rng.integers(0, 5, size=n)
            truth = rng.integers(0, 4, size=n)
            assert matched_accuracy(pred, truth) == pytest.approx(matched_accuracy(truth, pred))

    def test_relabel_invariance_both_sides(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            kp, kt = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            pred = rng.integers(0, kp, size=n)
            truth = rng.integers(0, kt, size=n)
            base = matched_accuracy(pred, truth)
            pred_perm = rng.permutation(kp)[pred]
            truth_perm = rng.permutation(kt)[truth]
            assert matched_accuracy(pred_perm, truth_perm) == pytest.approx(base)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
            truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
            assert matched_accuracy(pred, truth) == matched_accuracy_brute_force(pred, truth)

    def test_constant_prediction_hits_largest_cluster(self):
        truth = np.array([0, 0, 0, 0, 1, 1, 2])
        pred = np.zeros(7, dtype=int)
        assert matched_accuracy(pred, truth) == pytest.approx(100.0 * 4 / 7)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            matched_accuracy([0, 1], [0, 1, 1])


class TestContingency:
    def test_identity_is_diagonal(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        table = contingency(labels, labels)
        assert np.array_equal(table, np.diag([2, 1, 3]))

    def test_single_predicted_cluster_row_equals_true_sizes(self):
        truth = np.array([0, 1, 1, 2, 2, 2])
        table = contingency(np.zeros(6, dtype=int), truth)
        assert table.shape == (1, 3)
        assert np.array_equal(table[0], [1, 2, 3])

    @pytest.mark.parametrize("n, n_pred, n_true", [(1, 1, 1), (25, 4, 6), (25, 25, 3), (40, 7, 40)])
    def test_matches_brute_force_table(self, n, n_pred, n_true):
        rng = np.random.default_rng(n * 1000 + n_pred * 10 + n_true)
        pred = rng.choice(rng.choice(100, n_pred, replace=False) - 50, size=n)
        truth = rng.choice(rng.choice(100, n_true, replace=False) * 3, size=n)
        pred_values, true_values = sorted(set(pred.tolist())), sorted(set(truth.tolist()))
        want = np.zeros((len(pred_values), len(true_values)), dtype=np.int64)
        for p, t in zip(pred.tolist(), truth.tolist()):
            want[pred_values.index(p), true_values.index(t)] += 1
        table = contingency(pred, truth)
        assert table.dtype == np.int64
        assert np.array_equal(table, want)

    def test_rejects_empty_labels(self):
        with pytest.raises(ValueError, match="empty"):
            contingency([], [])

    def test_rejects_labels_that_are_not_1d(self):
        with pytest.raises(ValueError, match=r"labels must be 1-d vectors, got ndim 2 \(predicted\) and 1 \(true\)"):
            contingency([[0, 1], [1, 0]], [0, 1, 1, 0])

    def test_a_length_mismatch_names_both_sides(self):
        with pytest.raises(ValueError, match=r"differ in length: 2 \(predicted\) vs 3 \(true\)"):
            contingency([0, 1], [0, 1, 1])


class TestClusterFeatureFrequencies:
    def test_identical_rows_reproduce_the_row(self):
        data = BinaryMatrix([[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        freq = cluster_feature_frequencies([0, 0, 1], data)
        assert np.array_equal(freq[0], [1.0, 0.0, 1.0])
        assert np.array_equal(freq[1], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("labels", [[0.9, 0.2, 1.7], [1.0, 0.0, 1.0], [True, False, True], ["0", "1", "1"]])
    def test_refuses_labels_that_are_not_integers(self, labels):
        data = BinaryMatrix([[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError, match="labels must be integers"):
            cluster_feature_frequencies(labels, data)

    def test_all_ones_data(self):
        data = BinaryMatrix(np.ones((5, 4), dtype=np.uint8))
        freq = cluster_feature_frequencies([0, 0, 1, 1, 1], data)
        assert np.array_equal(freq, np.ones((2, 4)))

    def test_matches_per_cluster_column_means(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            d = int(rng.integers(1, 8))
            data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
            labels = rng.integers(0, max(1, n // 3), size=n)
            freq = cluster_feature_frequencies(labels, data)
            for pos, k in enumerate(np.unique(labels)):
                np.testing.assert_allclose(freq[pos], data.values[labels == k].mean(axis=0))
