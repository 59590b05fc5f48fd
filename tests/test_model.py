"""Core model: predictive likelihoods, priors, assignment distributions, partition score."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binclust.model import (
    NEW_CLUSTER,
    UNASSIGNED,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    _count_table,
    _log_predictives,
    assignment_distribution,
    crp_log_prior,
    default_hyperparams,
    joint_log_score,
    log_predictive,
)
from binclust.sampler import insert_object, remove_object

from _oracles import (
    log_ratio_by_betaln,
    predictive_by_quadrature,
    seating_weights_by_raw_beta,
)
from _paths import PATHS, visit_path


def _uniform_hyper(d, alpha=1.0):
    return Hyperparams(a=np.ones(d), b=np.ones(d), alpha=alpha)


class TestBinaryMatrix:
    def test_valid_matrix(self):
        m = BinaryMatrix([[0, 1], [1, 0]])
        assert m.n_objects == 2
        assert m.n_features == 2
        assert np.array_equal(m.column_sums(), [1, 1])

    def test_rejects_non_binary(self):
        for dtype, shown in [(np.uint8, "2"), (np.int64, "2"), (np.float64, "2.0")]:
            with pytest.raises(ValueError, match=rf"^non-binary entry {shown} at row 1, column 0$"):
                BinaryMatrix(np.array([[0, 1], [2, 0]], dtype=dtype))

    def test_validation_holds_one_boolean_temporary(self):
        values = (np.random.default_rng(0).random((1000, 1000)) < 0.3).astype(np.uint8)
        tracemalloc.start()
        try:
            BinaryMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * values.size

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinaryMatrix(np.zeros((0, 3)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            BinaryMatrix([0, 1, 1])

    def test_values_read_only(self):
        m = BinaryMatrix([[0, 1]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 1


class TestHyperparams:
    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ValueError):
            Hyperparams(a=np.array([1.0, 0.0]), b=np.ones(2), alpha=1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            Hyperparams(a=np.ones(2), b=np.ones(2), alpha=0.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Hyperparams(a=np.ones(2), b=np.ones(3), alpha=1.0)

    def test_rejects_infinite_alpha(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            Hyperparams(a=np.ones(2), b=np.ones(2), alpha=np.inf)

    def test_rejects_alpha_whose_log_gamma_overflows(self):
        # log Gamma(1e307) overflows, and the partition score would be inf - inf.
        with pytest.raises(ValueError, match="alpha must be finite"):
            Hyperparams(a=np.ones(2), b=np.ones(2), alpha=1e307)

    def test_largest_alpha_scores_finite(self):
        data = BinaryMatrix(np.eye(4, dtype=np.uint8))
        hyper = default_hyperparams(data, alpha=2.5e305)
        state = ClusterState.from_assignments(data, np.array([0, 0, 1, 2]))
        assert np.isfinite(joint_log_score(state, data, hyper))

    def test_is_immutable_and_leaves_the_callers_arrays_writable(self):
        a = np.ones(3)
        hyper = Hyperparams(a=a, b=np.ones(3), alpha=1.0)
        with pytest.raises(ValueError, match="read-only"):
            hyper.a[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            hyper.b = np.full(3, 2.0)
        a[0] = 2.0
        assert hyper.a[0] == 1.0
        assert hyper == hyper
        assert hyper != Hyperparams(a=np.ones(3), b=np.ones(3), alpha=1.0)

    def test_rejects_infinite_shapes(self):
        with pytest.raises(ValueError, match="must be finite"):
            Hyperparams(a=np.array([1.0, np.inf]), b=np.ones(2), alpha=1.0)


class TestDefaultHyperparams:
    def test_always_present_feature_gets_b_one(self):
        data = BinaryMatrix(np.ones((7, 1), dtype=np.uint8))
        hyper = default_hyperparams(data)
        assert hyper.b[0] == 1.0

    def test_sparse_column_arithmetic(self):
        values = np.zeros((200, 1), dtype=np.uint8)
        values[:20, 0] = 1
        hyper = default_hyperparams(BinaryMatrix(values))
        assert hyper.b[0] == 10.0

    def test_all_zero_column_clamped(self):
        n = 31
        data = BinaryMatrix(np.zeros((n, 2), dtype=np.uint8))
        hyper = default_hyperparams(data)
        assert np.all(hyper.b == n)
        # the clamp keeps the sparse-feature intent: tiny prior mean
        assert np.allclose(hyper.a / (hyper.a + hyper.b), 1.0 / (1.0 + n))

    def test_a_is_all_ones_and_alpha_passes_through(self):
        data = BinaryMatrix([[0, 1, 1]])
        hyper = default_hyperparams(data, alpha=2.5)
        assert np.all(hyper.a == 1.0)
        assert hyper.alpha == 2.5

    def test_b_within_clamp_range_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 30))
            data = BinaryMatrix((rng.random((n, d)) < rng.random()).astype(np.uint8))
            hyper = default_hyperparams(data)
            assert np.all(hyper.b >= 1.0) and np.all(hyper.b <= n)


class TestLogPredictive:
    def test_new_cluster_single_feature(self):
        hyper = _uniform_hyper(1)
        assert log_predictive(np.array([1]), None, hyper) == pytest.approx(np.log(0.5), abs=1e-12)

    def test_existing_cluster_single_feature(self):
        hyper = Hyperparams(a=np.array([1.0]), b=np.array([3.0]), alpha=1.0)
        got = log_predictive(np.array([1]), (4, np.array([2])), hyper)
        assert got == pytest.approx(np.log(0.375), abs=1e-12)

    def test_features_contribute_independently(self):
        hyper = Hyperparams(a=np.array([1.0, 2.0]), b=np.array([3.0, 0.5]), alpha=1.0)
        counts = (5, np.array([2, 4]))
        joint = log_predictive(np.array([1, 0]), counts, hyper)
        first = log_predictive(
            np.array([1]), (5, np.array([2])), Hyperparams(a=[1.0], b=[3.0], alpha=1.0)
        )
        second = log_predictive(
            np.array([0]), (5, np.array([4])), Hyperparams(a=[2.0], b=[0.5], alpha=1.0)
        )
        assert joint == pytest.approx(first + second, abs=1e-12)

    def test_closed_form_matches_log_gamma(self):
        shapes = [0.5, 1.0, 2.0, 10.0]
        for a in shapes:
            for b in shapes:
                hyper = Hyperparams(a=np.array([a]), b=np.array([b]), alpha=1.0)
                for size in range(0, 51, 7):
                    for fcount in range(0, size + 1, 3):
                        for x in (0, 1):
                            got = log_predictive(np.array([x]), (size, np.array([fcount])), hyper)
                            want = log_ratio_by_betaln(a, b, size, fcount, x)
                            assert abs(got - want) < 1e-10

    def test_matches_quadrature(self):
        for a, b in [(1.0, 1.0), (0.5, 2.0), (1.0, 7.5)]:
            hyper = Hyperparams(a=np.array([a]), b=np.array([b]), alpha=1.0)
            for size in range(0, 11):
                for fcount in range(0, size + 1):
                    for x in (0, 1):
                        got = np.exp(log_predictive(np.array([x]), (size, np.array([fcount])), hyper))
                        want = predictive_by_quadrature(a, b, size, fcount, x)
                        assert abs(got - want) < 1e-6

    def test_rejects_inconsistent_counts(self):
        hyper = _uniform_hyper(1)
        with pytest.raises(ValueError, match="inconsistent"):
            log_predictive(np.array([1]), (2, np.array([3])), hyper)

    def test_rejects_wrong_row_length(self):
        with pytest.raises(ValueError):
            log_predictive(np.array([1, 0]), None, _uniform_hyper(3))


class TestCrpLogPrior:
    def test_two_objects_symmetric(self):
        assert crp_log_prior(0, [1], 2, 1.0) == pytest.approx(np.log(0.5))
        assert crp_log_prior(NEW_CLUSTER, [1], 2, 1.0) == pytest.approx(np.log(0.5))

    def test_three_objects(self):
        assert crp_log_prior(0, [2], 3, 1.0) == pytest.approx(np.log(2.0 / 3.0))
        assert crp_log_prior(NEW_CLUSTER, [2], 3, 1.0) == pytest.approx(np.log(1.0 / 3.0))

    def test_options_normalize(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            sizes = rng.integers(1, 9, size=k)
            n_total = int(sizes.sum()) + 1
            alpha = float(rng.uniform(0.1, 5.0))
            logs = [crp_log_prior(j, sizes, n_total, alpha) for j in range(k)]
            logs.append(crp_log_prior(NEW_CLUSTER, sizes, n_total, alpha))
            assert abs(np.exp(logs).sum() - 1.0) < 1e-12

    def test_rejects_bad_size_sum(self):
        with pytest.raises(ValueError):
            crp_log_prior(0, [2], 2, 1.0)

    def test_rejects_empty_existing_cluster(self):
        with pytest.raises(ValueError, match="empty cluster"):
            crp_log_prior(1, [2, 0], 3, 1.0)

    @pytest.mark.parametrize("option", ["brand-new", True, 0.7, np.float64(0.0), 1, -1, None])
    def test_rejects_unknown_option(self, option):
        with pytest.raises(ValueError, match=r"cluster option other than 'new' must be an integer in \[0, 1\)"):
            crp_log_prior(option, [2], 3, 1.0)


def _detached_state(data, labels, i):
    """State over all objects except ``i`` (labels[i] ignored)."""
    keep = np.arange(data.n_objects) != i
    sub = BinaryMatrix(np.asarray(data.values[keep]))
    partial = ClusterState.from_assignments(sub, np.asarray(labels)[keep])
    assignments = np.full(data.n_objects, UNASSIGNED, dtype=np.int64)
    assignments[keep] = partial.assignments
    return ClusterState(assignments, partial.sizes, partial.feature_counts)


class TestAssignmentDistribution:
    def test_unit_temperature_matches_raw_beta_oracle(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        hyper = _uniform_hyper(2)
        state = _detached_state(data, [0, 1, 0], 2)
        got = assignment_distribution(2, state, data, hyper, temperature=1.0)
        want = seating_weights_by_raw_beta(
            data.values[2], state.sizes, state.feature_counts, hyper.a, hyper.b, hyper.alpha
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unit_temperature_equals_prior_times_predictive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(1, 6))
            data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
            labels = rng.integers(0, max(1, n // 2), size=n)
            i = int(rng.integers(n))
            state = _detached_state(data, labels, i)
            hyper = Hyperparams(
                a=rng.uniform(0.3, 3.0, size=d), b=rng.uniform(0.3, 3.0, size=d), alpha=float(rng.uniform(0.2, 4.0))
            )
            got = assignment_distribution(i, state, data, hyper, temperature=1.0)
            logs = [
                crp_log_prior(k, state.sizes, n, hyper.alpha)
                + log_predictive(data.values[i], (state.sizes[k], state.feature_counts[k]), hyper)
                for k in range(state.n_clusters)
            ]
            logs.append(
                crp_log_prior(NEW_CLUSTER, state.sizes, n, hyper.alpha)
                + log_predictive(data.values[i], None, hyper)
            )
            want = np.exp(logs)
            want /= want.sum()
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_identical_clusters_get_equal_probability(self):
        data = BinaryMatrix([[1, 0], [1, 0], [1, 0], [1, 0], [0, 1]])
        state = _detached_state(data, [0, 0, 1, 1, 2], 4)
        probs = assignment_distribution(4, state, data, _uniform_hyper(2), temperature=0.7)
        assert probs[0] == pytest.approx(probs[1], abs=1e-15)

    def test_probabilities_form_distribution(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, 5))
            data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
            labels = rng.integers(0, n, size=n)
            i = int(rng.integers(n))
            state = _detached_state(data, labels, i)
            temperature = float(rng.uniform(0.05, 3.0))
            probs = assignment_distribution(i, state, data, _uniform_hyper(d), temperature)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_cold_limit_concentrates_on_best_likelihood(self):
        data = BinaryMatrix([[1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1], [1, 1, 1, 0]])
        hyper = _uniform_hyper(4)
        state = _detached_state(data, [0, 0, 1, 0], 3)
        probs = assignment_distribution(3, state, data, hyper, temperature=1e-6)
        logliks = [
            log_predictive(data.values[3], (state.sizes[k], state.feature_counts[k]), hyper)
            for k in range(state.n_clusters)
        ]
        logliks.append(log_predictive(data.values[3], None, hyper))
        best = int(np.argmax(logliks))
        gap = np.sort(logliks)[-1] - np.sort(logliks)[-2]
        assert gap > 0.01
        assert probs[best] > 1.0 - 1e-6

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_finite_distribution_at_any_temperature(self, example):
        n = example.draw(st.integers(1, 12))
        d = example.draw(st.integers(1, 6))
        # Small value sets make constant columns and duplicate rows common.
        values = example.draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=n, max_size=n))
        labels = example.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        i = example.draw(st.integers(0, n - 1))
        alpha = example.draw(st.floats(1e-3, 10.0))
        temperature = max(math.exp(example.draw(st.floats(math.log(5e-324), math.log(1e3)))), 5e-324)
        data = BinaryMatrix(values)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState.from_assignments(data, labels)
                remove_object(state, i, data)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    probs = assignment_distribution(i, state, data, default_hyperparams(data, alpha), temperature)
            assert np.isfinite(probs).all()
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_rejects_nonpositive_temperature(self):
        data = BinaryMatrix([[1], [0]])
        state = _detached_state(data, [0, 0], 1)
        with pytest.raises(ValueError):
            assignment_distribution(1, state, data, _uniform_hyper(1), temperature=0.0)

    def test_rejects_attached_object(self):
        data = BinaryMatrix([[1], [0]])
        state = ClusterState.from_assignments(data, [0, 0])
        with pytest.raises(ValueError):
            assignment_distribution(0, state, data, _uniform_hyper(1), temperature=1.0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_hyperparams_of_another_width(self, width):
        data = BinaryMatrix([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]])
        state = _detached_state(data, [0, 1, 1], 2)
        with pytest.raises(ValueError, match=f"hyperparameters cover {width} features, the data has 4"):
            assignment_distribution(2, state, data, _uniform_hyper(width), temperature=1.0)

    @pytest.mark.parametrize("i", [-1, 3, 2**63, 1.0, np.float64(2), True, "0", None])
    def test_rejects_an_object_index_that_is_not_an_integer_in_range(self, i):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = _detached_state(data, [0, 1, 0], 2)
                with pytest.raises(ValueError, match=r"object index must be an integer in \[0, 3\)"):
                    assignment_distribution(i, state, data, _uniform_hyper(2), temperature=1.0)
                assert assignment_distribution(np.int64(2), state, data, _uniform_hyper(2), 1.0).shape == (3,)


class TestJointLogScore:
    def test_single_object(self):
        data = BinaryMatrix([[1]])
        state = ClusterState.from_assignments(data, [0])
        got = joint_log_score(state, data, _uniform_hyper(1))
        assert got == pytest.approx(np.log(0.5), abs=1e-12)

    def test_identical_pair_prefers_one_cluster(self):
        data = BinaryMatrix([[1, 0], [1, 0]])
        hyper = _uniform_hyper(2)
        together = joint_log_score(ClusterState.from_assignments(data, [0, 0]), data, hyper)
        apart = joint_log_score(ClusterState.from_assignments(data, [0, 1]), data, hyper)
        assert together > apart

    def test_relabeling_is_exactly_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 6))
            data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
            labels = rng.integers(0, n, size=n)
            hyper = Hyperparams(
                a=rng.uniform(0.3, 3.0, size=d), b=rng.uniform(0.3, 3.0, size=d), alpha=1.3
            )
            base = ClusterState.from_assignments(data, labels)
            score = joint_log_score(base, data, hyper)
            perm = rng.permutation(base.n_clusters)
            relabeled = ClusterState.from_assignments(data, perm[base.assignments])
            assert joint_log_score(relabeled, data, hyper) == score

    def test_rejects_incomplete_state(self):
        data = BinaryMatrix([[1], [0]])
        state = _detached_state(data, [0, 0], 1)
        with pytest.raises(ValueError):
            joint_log_score(state, data, _uniform_hyper(1))

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_hyperparams_of_another_width(self, width):
        data = BinaryMatrix([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]])
        state = ClusterState.from_assignments(data, [0, 1, 1])
        with pytest.raises(ValueError, match=f"hyperparameters cover {width} features, the data has 4"):
            joint_log_score(state, data, _uniform_hyper(width))


class TestClusterState:
    def test_from_assignments_compacts_labels(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        state = ClusterState.from_assignments(data, [5, 9, 5])
        assert state.n_clusters == 2
        assert np.array_equal(state.assignments, [0, 1, 0])
        assert np.array_equal(state.sizes, [2, 1])
        assert np.array_equal(state.feature_counts, [[2, 1], [0, 1]])

    def test_check_consistency_passes_on_recount(self):
        rng = np.random.default_rng(1)
        data = BinaryMatrix(rng.integers(0, 2, size=(20, 5)).astype(np.uint8))
        state = ClusterState.from_assignments(data, rng.integers(0, 4, size=20))
        state.check_consistency(data)

    def test_check_consistency_detects_corruption(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState.from_assignments(data, [0, 1])
        state.feature_counts[0, 0] += 1
        with pytest.raises(ValueError):
            state.check_consistency(data)

    def test_check_consistency_detects_a_corrupted_log_term_cache(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        with visit_path("compiled"):
            state = ClusterState.from_assignments(data, [0, 1, 0])
            remove_object(state, 2, data)
            assignment_distribution(2, state, data, _uniform_hyper(2), temperature=1.0)
            insert_object(state, 2, 0, data)
        state.check_consistency(data)
        state._log_present[1, 0] += 1e-9
        with pytest.raises(ValueError, match="cached log terms"):
            state.check_consistency(data)

    def test_the_numpy_path_reads_no_log_term_cache(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        hyper = _uniform_hyper(2)
        with visit_path("numpy"):
            state = ClusterState.from_assignments(data, [0, 1, 0])
            remove_object(state, 2, data)
            assignment_distribution(2, state, data, hyper, temperature=1.0)
            insert_object(state, 2, 0, data)
            state._log_present[:] = 5.0
            state.check_consistency(data)
            remove_object(state, 2, data)
            got = assignment_distribution(2, state, data, hyper, temperature=0.5)
        assert np.array_equal(got, _distribution_by_plain_formula(2, state, data, hyper, 0.5))

    @pytest.mark.parametrize(
        "assignments, sizes, counts, message",
        [
            ([0, 0, 1, 1], [2, 2], [[5, 5], [1, 1]], r"feature counts must lie in \[0, cluster size\]"),
            ([0, 0, 1, 1], [2, 2], [[-1, 0], [1, 1]], r"feature counts must lie in \[0, cluster size\]"),
            ([0, 0, -1, -1], [2, 0], [[1, 1], [0, 0]], "every cluster size must be at least 1"),
            ([0, 0, 2, -1], [2, 1], [[1, 1], [0, 1]], r"each -1 \(detached\) or in \[0, 2\)"),
            ([0, 0, -2, -1], [2, 1], [[1, 1], [0, 1]], r"each -1 \(detached\) or in \[0, 2\)"),
            ([0, 0, 0, -1], [2, 1], [[1, 1], [0, 1]], "disagree with the labels' tallies"),
            ([0, 0, 1, -1], [2, 2], [[1, 1], [0, 1]], "disagree with the labels' tallies"),
        ],
        ids=["count-above-size", "negative-count", "empty-cluster", "label-past-k", "label-below-detached",
             "tally-short", "tally-long"],
    )
    def test_constructor_refuses_inconsistent_statistics(self, assignments, sizes, counts, message):
        for path in PATHS:
            with visit_path(path):
                with pytest.raises(ValueError, match=message):
                    ClusterState(assignments, sizes, counts)

    def test_check_consistency_detects_counts_beyond_the_last_cluster(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState.from_assignments(data, [0, 1])
        state._counts[state.n_clusters, 0] = 1
        with pytest.raises(ValueError, match="must be zero"):
            state.check_consistency(data)

    def test_from_assignments_makes_no_int64_copy_of_the_matrix(self):
        rng = np.random.default_rng(2)
        data = BinaryMatrix((rng.random((1000, 1000)) < 0.3).astype(np.uint8))
        labels = rng.integers(0, 10, size=1000)
        tracemalloc.start()
        try:
            ClusterState.from_assignments(data, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * data.values.size


def _count_table_by_loop(labels, rows):
    """Compact labels, sizes and feature counts, one cluster and one row at a time."""
    distinct = sorted(set(labels.tolist()))
    compact = [distinct.index(v) for v in labels.tolist()]
    sizes = [compact.count(k) for k in range(len(distinct))]
    counts = np.zeros((len(distinct), rows.shape[1]), dtype=np.int64)
    for i, k in enumerate(compact):
        for j in range(rows.shape[1]):
            counts[k, j] += int(rows[i, j])
    return compact, sizes, counts


class TestCountTable:
    @pytest.mark.parametrize(
        "shape, n_labels",
        [((1, 7), 1), ((9, 1), 3), ((9, 1), 9), ((12, 6), 1), ((12, 6), 4), ((12, 6), 12), ((30, 11), 7)],
    )
    def test_matches_per_cluster_loop(self, shape, n_labels):
        rng = np.random.default_rng(shape[0] * 100 + n_labels)
        rows = rng.integers(0, 2, size=shape).astype(np.uint8)
        rows[:, 0] = 0  # constant columns
        rows[:, -1] = 1
        # Sparse, unsorted label values, each used at least once.
        values = rng.choice(1000, size=n_labels, replace=False) - 500
        labels = rng.permutation(np.concatenate([values, rng.choice(values, shape[0] - n_labels)]))
        compact, sizes, counts = _count_table(labels, rows)
        want_compact, want_sizes, want_counts = _count_table_by_loop(labels, rows)
        assert compact.tolist() == want_compact
        assert sizes.tolist() == want_sizes
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want_counts)


def _distribution_by_plain_formula(i, state, data, hyper, temperature):
    """The assignment distribution with every log taken afresh: a zero row
    stacked under the count table for the new cluster, then the same shifts."""
    sizes_ext = np.append(state.sizes, 0)
    counts_ext = np.concatenate([state.feature_counts, np.zeros((1, data.n_features), dtype=np.int64)], axis=0)
    loglik = _log_predictives(data.values[i], sizes_ext, counts_ext, hyper)
    loglik -= loglik.max()
    with np.errstate(over="ignore"):
        log_weights = np.log(np.append(state.sizes, hyper.alpha)) + loglik / temperature
    log_weights -= log_weights.max()
    probs = np.exp(log_weights)
    probs /= probs.sum()
    return probs


def _walk_the_cache(shape, n_labels, built_by, n_steps, check):
    """Random detach/score/attach steps under two alternating hyperparameter
    objects; ``check(fast, i, state, data, hyper, temperature)`` judges each
    distribution the state's cache scores."""
    rng = np.random.default_rng([*shape, n_labels])
    data = BinaryMatrix(rng.integers(0, 2, size=shape).astype(np.uint8))
    labels = rng.integers(0, n_labels, size=shape[0])
    if built_by == "constructor":
        counted = ClusterState.from_assignments(data, labels)
        state = ClusterState(counted.assignments.copy(), counted.sizes.copy(), counted.feature_counts.copy())
    else:
        state = ClusterState.from_assignments(data, labels)
    # Two objects of one width, switched every few steps on the same state.
    hypers = (
        default_hyperparams(data, alpha=0.7),
        Hyperparams(a=rng.random(shape[1]) + 0.1, b=np.full(shape[1], 2.5), alpha=3.0),
    )
    capacity = state._sizes.shape[0]
    births = deaths = 0
    for step in range(n_steps):
        hyper = hypers[(step // 4) % 2]
        i = int(rng.integers(shape[0]))
        k_before = state.n_clusters
        remove_object(state, i, data)
        deaths += state.n_clusters < k_before
        for temperature in (1.0, 0.3, 1e-300):
            check(assignment_distribution(i, state, data, hyper, temperature), i, state, data, hyper, temperature)
        state.check_consistency(data)
        # Births often enough to outgrow the initial capacity.
        if state.n_clusters == 0 or rng.random() < 0.35:
            insert_object(state, i, NEW_CLUSTER, data)
            births += 1
        else:
            insert_object(state, i, int(rng.integers(state.n_clusters)), data)
        state.check_consistency(data)
    assert births > 0
    assert deaths > 0
    if shape[0] > 1:  # one object never needs a second cluster
        assert state._sizes.shape[0] > capacity


_WALKS = pytest.mark.parametrize(
    "shape, n_labels, built_by, n_steps",
    [
        ((14, 5), 3, "from_assignments", 60),
        ((14, 5), 2, "constructor", 60),
        ((9, 1), 3, "from_assignments", 40),
        ((1, 6), 1, "constructor", 40),
    ],
)


class TestLogTermCache:
    @_WALKS
    def test_cached_distribution_equals_the_plain_formula(self, shape, n_labels, built_by, n_steps):
        def check(fast, i, state, data, hyper, temperature):
            assert np.array_equal(fast, _distribution_by_plain_formula(i, state, data, hyper, temperature))

        with visit_path("numpy"):
            _walk_the_cache(shape, n_labels, built_by, n_steps, check)

    @_WALKS
    def test_compiled_cache_equals_its_own_recomputation(self, shape, n_labels, built_by, n_steps):
        # Exact against the kernel's own from-scratch rows; against numpy only
        # up to libm's log and exp, which can differ from numpy's in the last bit.
        def check(fast, i, state, data, hyper, temperature):
            top = np.arange(state.n_clusters + 1)
            cached = (state._log_present[top], state._log_absent[top], state._log_denom[top])
            assert all(np.array_equal(c, e) for c, e in zip(cached, state._visit.row_terms(top)))
            plain = _distribution_by_plain_formula(i, state, data, hyper, temperature)
            np.testing.assert_allclose(fast, plain, rtol=1e-12, atol=0)

        with visit_path("compiled"):
            _walk_the_cache(shape, n_labels, built_by, n_steps, check)
