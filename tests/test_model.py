"""Core model: predictive likelihoods, priors, assignment distributions, partition score."""

import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binclust.datagen import SyntheticSpec, generate
from binclust.model import (
    NEW_CLUSTER,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    _STIRLING_FROM,
    _count_table,
    _lgamma,
    _log_predictives,
    _log_rising,
    assignment_distribution,
    crp_log_prior,
    default_hyperparams,
    joint_log_score,
    log_predictive,
)
from binclust.sampler import AnnealingSchedule, gibbs_sweep, insert_object, remove_object, run

from _oracles import (
    joint_log_score_by_betaln,
    joint_log_score_by_fsum,
    log_ratio_by_betaln,
    log_rising_by_fsum,
    predictive_by_quadrature,
    seating_weights_by_raw_beta,
)
from _paths import PATHS, visit_path


def _uniform_hyper(d, alpha=1.0):
    return Hyperparams(a=np.ones(d), b=np.ones(d), alpha=alpha)


def _rising_bound(x, m):
    """``(s, t)`` of the error bound ``2**-48 s + t`` in ``_log_rising``'s docstring."""
    if x < _STIRLING_FROM:
        return abs(math.lgamma(x)) + abs(math.lgamma(x + m)) + 2, 0.0
    return m * (math.log(x + m) + 1), x**-5 / 1260


def _score_bound(state, hyper):
    """The error bound ``2**-45 S + T`` in ``joint_log_score``'s docstring."""
    brackets = [(hyper.alpha, int(state.sizes.sum()))]
    for size, row in zip(state.sizes.tolist(), state.feature_counts.tolist()):
        for a, b, count in zip(hyper.a.tolist(), hyper.b.tolist(), row):
            brackets += [(a, count), (b, size - count), (a + b, size)]
    s, t = np.array([_rising_bound(x, m) for x, m in brackets]).sum(axis=0)
    s += state.n_clusters * abs(math.log(hyper.alpha)) + sum(abs(math.lgamma(n)) + 1 for n in state.sizes.tolist())
    return 2**-45 * s + t


def _assert_exact_score(state, data, hyper):
    """The score is at most 0, within its docstring's bound of the fsum oracle, and within
    1e-14 of it relative, which two cancelling log-gammas miss by far (2.3e-6 at a = 1e12)."""
    score = joint_log_score(state, data, hyper)
    expected = joint_log_score_by_fsum(state.sizes, state.feature_counts, hyper)
    assert score <= 0
    assert abs(score - expected) <= _score_bound(state, hyper)
    assert score == pytest.approx(expected, rel=1e-14, abs=0)


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

    def test_accepts_alpha_whose_log_gamma_overflows(self):
        # math.lgamma(1e307) overflows; the score forms no log-gamma of alpha.
        data = BinaryMatrix(np.eye(4, dtype=np.uint8))
        hyper = default_hyperparams(data, alpha=1e307)
        _assert_exact_score(ClusterState(data, np.array([0, 0, 1, 2])), data, hyper)

    def test_largest_alpha_scores_finite(self):
        data = BinaryMatrix(np.eye(4, dtype=np.uint8))
        hyper = default_hyperparams(data, alpha=1.7e308)
        state = ClusterState(data, np.array([0, 0, 1, 2]))
        assert np.isfinite(joint_log_score(state, data, hyper))

    @pytest.mark.parametrize("a, b", [([1e307, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, 2.6e305])])
    def test_accepts_shapes_whose_log_gamma_overflows(self, a, b):
        # math.lgamma raises OverflowError at 1e307; the score forms no log-gamma of a shape.
        data = BinaryMatrix([[1, 0], [1, 1], [0, 1]])
        _assert_exact_score(ClusterState(data, [0, 0, 1]), data, Hyperparams(a=a, b=b, alpha=1.0))

    def test_rejects_shapes_whose_sum_overflows(self):
        with pytest.raises(ValueError, match=r"^a_j \+ b_j must be finite, got 1e\+308 \+ 1e\+308 for feature 1$"):
            Hyperparams(a=[1.0, 1e308], b=[1.0, 1e308], alpha=1.0)

    def test_largest_shapes_score_finite(self):
        data = BinaryMatrix(np.eye(4, dtype=np.uint8))
        hyper = Hyperparams(a=[1.7e308, 1.0, 1.0, 1.0], b=[1.0, 1.0, 1.0, 1.7e308], alpha=1.0)
        state = ClusterState(data, np.array([0, 0, 1, 2]))
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

    @pytest.mark.parametrize("entry", [2, 0.5, -1, np.nan])
    def test_rejects_a_row_entry_other_than_0_or_1(self, entry):
        with pytest.raises(ValueError, match=f"non-binary entry {entry} at row 0, column 1$"):
            log_predictive(np.array([1, entry]), None, _uniform_hyper(2))

    @pytest.mark.parametrize(
        "size, fcounts, name, value",
        [(2.5, [1], "the cluster size", "2.5"), (True, [1], "the cluster size", "True"),
         (-1, [0], "the cluster size", "-1"), (3, [1.5], "feature counts", r"\[1.5\]"),
         (3, [-1], "feature counts", r"\[-1\]")],
        ids=["size-2.5", "size-True", "size--1", "count-1.5", "count--1"],
    )
    def test_rejects_a_size_or_count_that_is_not_an_integer_of_at_least_0(self, size, fcounts, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be of an integer type and at least 0, got {value}$"):
            log_predictive(np.array([1]), (size, np.array(fcounts)), _uniform_hyper(1))


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

    # Each sums to n_total - 1: [2.5, 3.5] would pass as [2, 3] under a cast.
    @pytest.mark.parametrize(
        "sizes, n_total, value",
        [([2.5, 3.5], 6, r"\[2.5 3.5\]"), ([-1, 6], 6, r"\[-1  6\]"), ([True], 2, r"\[ True\]")],
        ids=["fractional", "negative", "bool"],
    )
    def test_rejects_sizes_that_are_not_integers_of_at_least_0(self, sizes, n_total, value):
        with pytest.raises(ValueError, match=f"^leave-one-out sizes must be of an integer type and at least 0, got {value}$"):
            crp_log_prior(NEW_CLUSTER, sizes, n_total, 1.0)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, np.inf, np.nan])
    def test_rejects_alpha_outside_zero_to_infinity(self, alpha):
        with pytest.raises(ValueError, match=f"^alpha must be finite and strictly positive, got {alpha}$"):
            crp_log_prior(0, [2], 3, alpha)


def _detached_state(data, labels, i):
    """State over all objects except ``i`` (labels[i] ignored)."""
    labels = np.array(labels)
    labels[i] = labels.max() + 1  # a cluster of its own, deleted by the removal
    state = ClusterState(data, labels)
    remove_object(state, i, data)
    return state


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
                state = ClusterState(data, labels)
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
        state = ClusterState(data, [0, 0])
        with pytest.raises(ValueError):
            assignment_distribution(0, state, data, _uniform_hyper(1), temperature=1.0)

    def test_rejects_a_state_with_a_second_object_detached(self):
        data = BinaryMatrix([[1], [0], [1]])
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 0, 1])
                remove_object(state, 0, data)
                remove_object(state, 2, data)
                with pytest.raises(ValueError, match="must cover exactly the other n - 1 objects"):
                    assignment_distribution(0, state, data, _uniform_hyper(1), temperature=1.0)

    def test_refusing_a_second_detached_object_leaves_the_kernels_memo_as_it_was(self):
        data, _ = generate(SyntheticSpec(20, 30, 20, 5, k_true=3, seed=2))
        hyper = default_hyperparams(data)
        with visit_path("compiled"):
            state = ClusterState(data, np.arange(20) % 3)
            gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))  # binds the kernel and scores every object
            k = state.n_clusters
            first, second = remove_object(state, 0, data), remove_object(state, 5, data)
            assert state.n_clusters == k  # no death: both can go back
            visit = state._visit
            memo = visit._ctx.clock, visit._scored_at.tobytes(), visit._scores.tobytes(), visit.probs.tobytes()
            with pytest.raises(ValueError, match="must cover exactly the other n - 1 objects"):
                assignment_distribution(0, state, data, hyper, 1.0)
            assert (visit._ctx.clock, visit._scored_at.tobytes(), visit._scores.tobytes(), visit.probs.tobytes()) == memo
            insert_object(state, 5, second, data)
            insert_object(state, 0, first, data)
            state.check_consistency(data)

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
        state = ClusterState(data, [0])
        got = joint_log_score(state, data, _uniform_hyper(1))
        assert got == pytest.approx(np.log(0.5), abs=1e-12)

    def test_identical_pair_prefers_one_cluster(self):
        data = BinaryMatrix([[1, 0], [1, 0]])
        hyper = _uniform_hyper(2)
        together = joint_log_score(ClusterState(data, [0, 0]), data, hyper)
        apart = joint_log_score(ClusterState(data, [0, 1]), data, hyper)
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
            base = ClusterState(data, labels)
            score = joint_log_score(base, data, hyper)
            perm = rng.permutation(base.n_clusters)
            relabeled = ClusterState(data, perm[base.assignments])
            assert joint_log_score(relabeled, data, hyper) == score

    def test_agrees_with_scipy_betaln_on_random_small_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 6))
            data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
            hyper = Hyperparams(
                a=rng.uniform(0.3, 3.0, size=d), b=rng.uniform(0.3, 3.0, size=d), alpha=rng.uniform(0.3, 3.0)
            )
            state = ClusterState(data, rng.integers(0, n, size=n))
            expected = joint_log_score_by_betaln(state.sizes, state.feature_counts, hyper)
            assert joint_log_score(state, data, hyper) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "spec",
        [SyntheticSpec(200, 500, 10, 20, k_true=5), SyntheticSpec(2000, 2000, 5, 5, k_true=10)],
        ids=["200x500", "2000x2000"],
    )
    def test_agrees_with_scipy_betaln_at_the_true_labels(self, spec):
        data, truth = generate(spec)
        hyper = default_hyperparams(data)
        state = ClusterState(data, truth)
        expected = joint_log_score_by_betaln(state.sizes, state.feature_counts, hyper)
        assert joint_log_score(state, data, hyper) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a", [1.0, 10.0, 1e3, 1e6, 1e9, 1e12, 1e15])
    @pytest.mark.parametrize(
        "spec",
        [SyntheticSpec(200, 50, 20, 10, k_true=5), SyntheticSpec(60, 20, 20, 10, k_true=4)],
        ids=["200x50", "60x20"],
    )
    def test_error_at_large_shapes_stays_within_three_ulps_per_term(self, spec, a):
        # The bound of the docstring: three ulps of lgamma(a_j + b_j + size_k)
        # for each of the K x D evidence cells, and of lgamma(a_j + b_j) for
        # each of the K x D prior terms.
        data, truth = generate(spec)
        state = ClusterState(data, truth)
        d = data.n_features
        for b in (np.ones(d), np.linspace(0.5, 50.0, d)):
            hyper = Hyperparams(a=np.full(d, a), b=b, alpha=1.0)
            ab = hyper.a + hyper.b
            cells, prior = (
                np.spacing([math.lgamma(x) for x in terms.ravel()]).sum() for terms in (ab + state.sizes[:, None], ab)
            )
            bound = 3 * (cells + state.n_clusters * prior)
            expected = joint_log_score_by_betaln(state.sizes, state.feature_counts, hyper)
            assert abs(joint_log_score(state, data, hyper) - expected) <= bound

    @pytest.mark.parametrize("a", [1.0, 10.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e100, 1e300])
    def test_stays_within_its_bound_of_the_fsum_oracle_at_any_shapes(self, a):
        data, truth = generate(SyntheticSpec(200, 50, 20, 10, k_true=5))
        state = ClusterState(data, truth)
        for b in (np.ones(50), np.linspace(0.5, 50.0, 50)):
            _assert_exact_score(state, data, Hyperparams(a=np.full(50, a), b=b, alpha=1.0))

    @pytest.mark.parametrize("alpha", [1.0, 1e15, 1e300, 1.7e308])
    def test_stays_within_its_bound_of_the_fsum_oracle_at_any_alpha(self, alpha):
        data, truth = generate(SyntheticSpec(200, 50, 20, 10, k_true=5))
        _assert_exact_score(ClusterState(data, truth), data, default_hyperparams(data, alpha=alpha))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_log_rising_stays_within_its_bound_of_the_sum_of_its_logs(self, data):
        # x on both sides of the switch point, and near it on either side.
        shape = hnp.array_shapes(min_dims=2, max_dims=2, max_side=4)
        counts = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2000)))
        x_values = st.one_of(st.floats(1e-300, 1e308), st.floats(_STIRLING_FROM / 4, 4 * _STIRLING_FROM))
        x = data.draw(hnp.arrays(np.float64, counts.shape[1], elements=x_values))
        rise = _log_rising(x, counts)
        assert rise.shape == counts.shape
        for (k, j), m in np.ndenumerate(counts):
            s, t = _rising_bound(x[j], m)
            want = log_rising_by_fsum(x[j], m)
            assert abs(rise[k, j] - want) <= 2**-48 * s + t
            scalar = _log_rising(x[j], m)
            assert np.shape(scalar) == () and abs(scalar - want) <= 2**-48 * s + t

    @pytest.mark.parametrize("alpha", [1.0, 1e15, 1e300])
    @pytest.mark.parametrize("n", [1, 200, 2000])
    def test_seating_prior_agrees_with_the_sum_of_its_logs(self, alpha, n):
        assert _log_rising(alpha, n) == pytest.approx(log_rising_by_fsum(alpha, n), rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [1.0, 1e15, 1e300])
    def test_agrees_with_scipy_betaln_at_any_alpha(self, alpha):
        data, truth = generate(SyntheticSpec(200, 50, 20, 10, k_true=5))
        state = ClusterState(data, truth)
        hyper = default_hyperparams(data, alpha=alpha)
        expected = joint_log_score_by_betaln(state.sizes, state.feature_counts, hyper)
        assert joint_log_score(state, data, hyper) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_a_run_at_the_largest_alpha_scores_at_most_zero(self):
        # At alpha = 1e300 every object takes a cluster of its own.  The score is
        # the log of a probability; cancelling log-gammas read +81710.6 here.
        data, _ = generate(SyntheticSpec(200, 500, 10, 20, k_true=5, seed=1000))
        hyper = default_hyperparams(data, alpha=1e300)
        report = run(data, hyper=hyper, schedule=AnnealingSchedule(n_sweeps=2), seed=0)
        assert report.n_clusters == 200
        assert (report.score_trace <= 0).all()

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[2.5, 1.0, 2.5], [7.0, 1.0, 1e-300], [2.5, 3.0, 7.0]]),
            np.array([1.5, 1.5 + 2**-52, 1e300, 0.5, 1e300, 1.5]).reshape(2, 3),
            np.array([4, 1, 4, 4, 2**53 + 1, 1, 30], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array(10.5),
        ],
        ids=["KxD", "KxD-near-repeats", "1d-int", "empty", "0d"],
    )
    def test_lgamma_scores_each_distinct_value_once(self, x, monkeypatch):
        expected = np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda v: calls.append(v) or lgamma(v))
        got = _lgamma(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == expected.tobytes()
        assert sorted(calls) == sorted(set(x.ravel().tolist()))

    def test_rejects_incomplete_state(self):
        data = BinaryMatrix([[1], [0]])
        state = _detached_state(data, [0, 0], 1)
        with pytest.raises(ValueError):
            joint_log_score(state, data, _uniform_hyper(1))

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_hyperparams_of_another_width(self, width):
        data = BinaryMatrix([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]])
        state = ClusterState(data, [0, 1, 1])
        with pytest.raises(ValueError, match=f"hyperparameters cover {width} features, the data has 4"):
            joint_log_score(state, data, _uniform_hyper(width))


class TestClusterState:
    def test_constructor_compacts_labels(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        state = ClusterState(data, [5, 9, 5])
        assert state.n_clusters == 2
        assert np.array_equal(state.assignments, [0, 1, 0])
        assert np.array_equal(state.sizes, [2, 1])
        assert np.array_equal(state.feature_counts, [[2, 1], [0, 1]])

    @pytest.mark.parametrize(
        "labels",
        [[0.9, 0.2, 1.7], [0.0, 1.0, 1.0], [True, False, True], ["0", "1", "1"], [0, 1, None]],
        ids=["fractional", "whole-floats", "bools", "digit-strings", "objects"],
    )
    def test_constructor_refuses_labels_that_are_not_integers(self, labels):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ValueError, match="labels must be integers, got dtype"):
            ClusterState(data, labels)

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0, 1], r"expected 3 labels, got shape \(2,\)"),
            ([[0, 1, 0]], r"expected 3 labels, got shape \(1, 3\)"),
            ([0, -1, 0], r"all objects must be assigned \(labels >= 0\)"),
        ],
        ids=["too-few", "2-d", "negative"],
    )
    def test_constructor_refuses_labels_of_another_shape_or_a_negative_label(self, labels, message):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ValueError, match=message):
            ClusterState(data, labels)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64),
            np.asfortranarray([[1, 0], [0, 1], [1, 1]], dtype=np.uint8),
        ],
        ids=["int64", "fortran-order"],
    )
    def test_constructor_refuses_a_matrix_the_kernel_cannot_read(self, values):
        # BinaryMatrix stores C-contiguous uint8; a matrix swapped in afterwards is refused.
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        data.values = values
        with pytest.raises(ValueError, match="expected a C-contiguous uint8 matrix"):
            ClusterState(data, [0, 1, 0])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_constructor_takes_labels_of_any_integer_dtype(self, dtype):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        state = ClusterState(data, np.array([7, 2, 7], dtype=dtype))
        assert np.array_equal(state.assignments, [1, 0, 1])

    def test_check_consistency_passes_on_recount(self):
        rng = np.random.default_rng(1)
        data = BinaryMatrix(rng.integers(0, 2, size=(20, 5)).astype(np.uint8))
        state = ClusterState(data, rng.integers(0, 4, size=20))
        state.check_consistency(data)

    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            ("feature_counts", (0, 1), 0, "feature counts disagree with a recount"),
            ("assignments", 2, 2, "assignment label out of range"),
            ("sizes", 0, 3, "do not sum to the number of assigned objects"),
            ("sizes", slice(None), [0, 3], "empty cluster present"),
            ("sizes", slice(None), [1, 2], "sizes disagree with a recount"),
            ("feature_counts", (1, 0), -1, r"feature counts outside \[0, cluster size\]"),
            ("feature_counts", (0, 0), 3, r"feature counts outside \[0, cluster size\]"),
        ],
        ids=["counts-recount", "label-range", "size-sum", "empty-cluster", "sizes-recount", "count-negative",
             "count-above-size"],
    )
    def test_check_consistency_detects_corruption(self, name, index, value, message):
        data = BinaryMatrix([[1, 0], [1, 1], [0, 1]])
        state = ClusterState(data, [0, 0, 1])
        state.check_consistency(data)
        getattr(state, name)[index] = value
        with pytest.raises(ValueError, match=message):
            state.check_consistency(data)

    @pytest.mark.parametrize("plane", [0, 1, 2, 3])
    def test_check_consistency_detects_a_corrupted_log_term_cache(self, plane):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        with visit_path("compiled"):
            state = ClusterState(data, [0, 1, 0])
            remove_object(state, 2, data)
            assignment_distribution(2, state, data, _uniform_hyper(2), temperature=1.0)
            insert_object(state, 2, 0, data)
        state.check_consistency(data)
        state._visit._terms[1, plane, 0] += 1e-9
        with pytest.raises(ValueError, match="cached log terms"):
            state.check_consistency(data)

    def test_check_consistency_detects_a_corrupted_denominator_memo(self):
        # The kernel reads each row's denominator from the memo by the row's
        # size, so a wrong entry there is a wrong distribution.
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0]])
        with visit_path("compiled"):
            state = ClusterState(data, [0, 1, 0, 1, 1])
            remove_object(state, 2, data)
            assignment_distribution(2, state, data, _uniform_hyper(2), temperature=1.0)
        state.check_consistency(data)
        memo = state._visit._memo
        assert np.isnan(memo[4])  # a size no row holds: never computed, never checked
        memo[state.sizes[1]] += 1e-9
        with pytest.raises(ValueError, match="cached log terms"):
            state.check_consistency(data)

    def test_the_numpy_path_reads_no_log_term_cache(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        hyper = _uniform_hyper(2)
        with visit_path("numpy"):
            state = ClusterState(data, [0, 1, 0])
            remove_object(state, 2, data)
            assignment_distribution(2, state, data, hyper, temperature=1.0)
            insert_object(state, 2, 0, data)
            assert state._visit is None  # no kernel, so no cache to read
            state.check_consistency(data)
            remove_object(state, 2, data)
            got = assignment_distribution(2, state, data, hyper, temperature=0.5)
        assert np.array_equal(got, _distribution_by_plain_formula(2, state, data, hyper, 0.5))

    def test_a_state_holds_only_statistics_on_either_path(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 1, 0])
                remove_object(state, 2, data)
                assignment_distribution(2, state, data, _uniform_hyper(2), temperature=1.0)
                insert_object(state, 2, NEW_CLUSTER, data)
            assert set(vars(state)) == {"assignments", "_values", "_k", "_sizes", "_counts", "_visit"}
            assert (state._visit is None) == (path == "numpy")

    @pytest.mark.parametrize("event", ["growth", "death"])
    def test_check_consistency_detects_a_corrupted_spare_row_of_the_cache(self, event):
        data = BinaryMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]])
        hyper = Hyperparams(a=[0.5, 1.0, 2.0], b=[1.5, 1.0, 3.0], alpha=1.0)
        with visit_path("compiled"):
            state = ClusterState(data, [0, 0, 0, 1, 1, 2])  # K = 3 in 5 rows
            remove_object(state, 0, data)
            assignment_distribution(0, state, data, hyper, temperature=1.0)
            if event == "growth":  # two births need a sixth row
                insert_object(state, 0, NEW_CLUSTER, data)
                remove_object(state, 1, data)
                insert_object(state, 1, NEW_CLUSTER, data)
                # Growth drops the kernel; the next scoring binds a fresh one to the new buffers.
                assert state._visit is None
                state.check_consistency(data)
                remove_object(state, 3, data)
                assignment_distribution(3, state, data, hyper, temperature=1.0)
                assert state._visit.hyper is hyper
                insert_object(state, 3, 1, data)
            else:  # the singleton's death leaves K = 2 in 5 rows
                insert_object(state, 0, 0, data)
                remove_object(state, 5, data)
                insert_object(state, 5, 0, data)
        spare = state.n_clusters + 2
        assert spare < state._sizes.shape[0]
        state.check_consistency(data)
        state._visit._terms[spare, 1, 1] += 1e-9
        with pytest.raises(ValueError, match="cached log terms"):
            state.check_consistency(data)

    def test_check_consistency_detects_counts_beyond_the_last_cluster(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState(data, [0, 1])
        state._counts[state.n_clusters, 0] = 1
        with pytest.raises(ValueError, match="must be zero"):
            state.check_consistency(data)

    def test_constructor_makes_no_int64_copy_of_the_matrix(self):
        rng = np.random.default_rng(2)
        data = BinaryMatrix((rng.random((1000, 1000)) < 0.3).astype(np.uint8))
        labels = rng.integers(0, 10, size=1000)
        tracemalloc.start()
        try:
            ClusterState(data, labels)
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


def _walk_the_cache(shape, n_labels, n_steps, check):
    """Random detach/score/attach steps under two alternating hyperparameter
    objects; ``check(fast, i, state, data, hyper, temperature)`` judges each
    distribution the state's cache scores."""
    rng = np.random.default_rng([*shape, n_labels])
    data = BinaryMatrix(rng.integers(0, 2, size=shape).astype(np.uint8))
    state = ClusterState(data, rng.integers(0, n_labels, size=shape[0]))
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
    "shape, n_labels, n_steps",
    [((14, 5), 3, 60), ((14, 5), 2, 60), ((9, 1), 3, 40), ((1, 6), 1, 40), ((12, 300), 3, 40)],
)


class TestLogTermCache:
    @_WALKS
    def test_cached_distribution_equals_the_plain_formula(self, shape, n_labels, n_steps):
        def check(fast, i, state, data, hyper, temperature):
            assert np.array_equal(fast, _distribution_by_plain_formula(i, state, data, hyper, temperature))

        with visit_path("numpy"):
            _walk_the_cache(shape, n_labels, n_steps, check)

    @_WALKS
    def test_compiled_cache_equals_its_own_recomputation(self, shape, n_labels, n_steps):
        # Exact against the kernel's own from-scratch rows; against numpy only
        # up to libm's log and exp, which can differ from numpy's in the last bit.
        def check(fast, i, state, data, hyper, temperature):
            state._visit.check()
            plain = _distribution_by_plain_formula(i, state, data, hyper, temperature)
            np.testing.assert_allclose(fast, plain, rtol=1e-12, atol=0)

        with visit_path("compiled"):
            _walk_the_cache(shape, n_labels, n_steps, check)

    def test_a_pending_row_keeps_the_compiled_cache_exact(self):
        # Detach/attach orders around the kernel's pending row: a plain return,
        # a return after a hyperparameter switch, two objects out at once and
        # re-attached in both orders, and another object attached into the
        # row the first left.  The cache is checked after every step, the
        # pending row as the row with its object still in it.
        rng = np.random.default_rng(17)
        data = BinaryMatrix(rng.integers(0, 2, size=(12, 7)).astype(np.uint8))
        hypers = (
            default_hyperparams(data),
            Hyperparams(a=rng.random(7) + 0.1, b=np.full(7, 2.5), alpha=3.0),
        )
        with visit_path("compiled"):
            state = ClusterState(data, np.arange(12) % 3)
            stayed = []  # whether each attach went back into its object's pending row

            def pending():
                return state._visit._ctx.pending_object, state._visit._ctx.pending_row

            def out(i, hyper=None):
                k = remove_object(state, i, data)
                assert pending() == (i, k)  # a second detach settles the row pending before
                if hyper is not None:  # scored only while it is the one object out
                    probs = assignment_distribution(i, state, data, hyper, 0.5)
                    plain = _distribution_by_plain_formula(i, state, data, hyper, 0.5)
                    np.testing.assert_allclose(probs, plain, rtol=1e-12, atol=0)
                state.check_consistency(data)
                return k

            def back(i, k):
                stayed.append(pending() == (i, k))
                insert_object(state, i, k, data)
                assert pending() == (-1, -1)
                state.check_consistency(data)

            # The first visit detaches before its scoring binds the kernel, so no row is pending.
            remove_object(state, 0, data)
            assignment_distribution(0, state, data, hypers[0], 0.5)
            assert pending() == (-1, -1)
            back(0, 0)
            k = out(0, hypers[0])
            back(0, k)  # a stay
            k = out(1, hypers[0])
            assert pending() == (1, k)  # the distribution left the row pending
            # A new hyperparameter object arrives between detach and attach: a fresh kernel.
            assignment_distribution(1, state, data, hypers[1], 0.5)
            assert pending() == (-1, -1)
            back(1, k)
            for first, second in ((3, 6), (6, 3), (4, 5), (5, 4)):  # same cluster, then different ones
                k_first = out(first, hypers[1])
                k_second = out(second)
                back(second, k_second)
                back(first, k_first)
            # Detach j, then i; attach j into i's row, then i into j's old row.
            k_j = out(2, hypers[1])
            k_i = out(7)
            back(2, k_i)
            back(7, k_j)
            assert stayed == [False, True, False] + [True, False] * 4 + [False, False]
            np.testing.assert_array_equal(state.assignments[[2, 7]], [k_i, k_j])

    def test_new_hyperparameters_between_detach_and_attach_leave_no_row_pending(self):
        rng = np.random.default_rng(8)
        data = BinaryMatrix(rng.integers(0, 2, size=(9, 6)).astype(np.uint8))
        first = default_hyperparams(data)
        second = Hyperparams(a=rng.random(6) + 0.1, b=np.full(6, 2.5), alpha=3.0)
        with visit_path("compiled"):
            state = ClusterState(data, np.arange(9) % 3)
            remove_object(state, 0, data)
            assignment_distribution(0, state, data, first, 1.0)
            insert_object(state, 0, 0, data)
            k = remove_object(state, 4, data)
            assert (state._visit._ctx.pending_object, state._visit._ctx.pending_row) == (4, k)
            assignment_distribution(4, state, data, second, 1.0)
            assert (state._visit._ctx.pending_object, state._visit._ctx.pending_row) == (-1, -1)
            insert_object(state, 4, k, data)
        # A return into a pending row would have kept terms taken under ``first``.
        state.check_consistency(data)

    def test_a_visit_that_stays_writes_no_log_term(self):
        rng = np.random.default_rng(23)
        data = BinaryMatrix(rng.integers(0, 2, size=(15, 40)).astype(np.uint8))
        hyper = default_hyperparams(data)
        with visit_path("compiled"):
            state = ClusterState(data, np.arange(15) % 3)
            remove_object(state, 0, data)
            assignment_distribution(0, state, data, hyper, 0.5)  # binds the kernel
            insert_object(state, 0, 0, data)
            terms = state._visit._terms
            for i in range(15):
                before = terms.tobytes()
                k = remove_object(state, i, data)
                assert terms.tobytes() == before
                assignment_distribution(i, state, data, hyper, 0.5)
                insert_object(state, i, k, data)
                assert terms.tobytes() == before
                state.check_consistency(data)
            assert state._visit._terms is terms

    def test_a_deep_copy_leaves_the_cache_of_the_original_current(self):
        rng = np.random.default_rng(5)
        data = BinaryMatrix(rng.integers(0, 2, size=(12, 5)).astype(np.uint8))
        hyper = default_hyperparams(data)
        with visit_path("compiled"):
            state = ClusterState(data, np.arange(12) % 2)
            gibbs_sweep(state, data, hyper, 1.0, rng)
            visit = state._visit
            buffers = (visit._terms, visit._memo, visit._changed, visit._scores, visit._scored_at)
            cached = [buf.copy() for buf in buffers]
            twin = copy.deepcopy(state)
            for i in range(12):  # every object into a cluster of its own: deaths, births and growth
                remove_object(twin, i, data)
                assignment_distribution(i, twin, data, hyper, 1.0)
                insert_object(twin, i, NEW_CLUSTER, data)
            twin.check_consistency(data)
        assert twin._visit is not visit and twin.n_clusters == 12
        state.check_consistency(data)
        assert all(np.array_equal(c, b, equal_nan=True) for c, b in zip(cached, buffers))


class TestScoreMemo:
    """The compiled kernel's memo of each object's scores, held to a freshly bound kernel."""

    def test_every_memoised_distribution_equals_a_fresh_kernels(self):
        # Births, growth, deaths of a middle and of the top row, a hyperparameter
        # switch, and a move followed by a move back, each followed by a sweep in
        # which every object stays, reading its memo.  A deep copy binds a kernel
        # of its own, whose memo is empty.
        rng = np.random.default_rng(31)
        data = BinaryMatrix(rng.integers(0, 2, size=(10, 6)).astype(np.uint8))
        hypers = (default_hyperparams(data), Hyperparams(a=rng.random(6) + 0.1, b=np.full(6, 2.5), alpha=3.0))
        events = []
        with visit_path("compiled"):
            state = ClusterState(data, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3])

            def visit(i, where, hyper=hypers[0]):
                k_before, capacity = state.n_clusters, state._sizes.shape[0]
                k = remove_object(state, i, data)
                died = state.n_clusters < k_before
                if died:
                    events.append("top death" if k == k_before - 1 else "middle death")
                twin = copy.deepcopy(state)
                memo = state._visit
                if memo and memo.hyper is hyper:
                    top = state.n_clusters + 1
                    events.extend(["read"] * int((memo._changed[:top] <= memo._scored_at[i]).sum()))
                for temperature in (1.0, 0.3):
                    probs = assignment_distribution(i, state, data, hyper, temperature)
                    assert np.array_equal(probs, assignment_distribution(i, twin, data, hyper, temperature))
                insert_object(state, i, where(k, died), data)
                if state._sizes.shape[0] > capacity:
                    events.append("growth")
                state.check_consistency(data)

            def stays(hyper=hypers[0]):
                for i in range(10):
                    visit(i, lambda k, died: NEW_CLUSTER if died else k, hyper)

            stays()
            visit(0, lambda k, died: 1)  # a move
            visit(0, lambda k, died: 0)  # and a move back
            stays()
            visit(0, lambda k, died: NEW_CLUSTER)  # a birth
            stays()  # object 0 dies at the top row and is born again
            visit(1, lambda k, died: NEW_CLUSTER)  # a birth that grows the buffers
            stays()  # object 0 dies in the middle
            visit(8, lambda k, died: 2)
            visit(9, lambda k, died: 2)  # row 3 dies in the middle
            stays(hypers[1])  # a fresh kernel
            stays(hypers[1])
        assert {"top death", "middle death", "growth"} <= set(events)
        assert events.count("read") >= 100  # rows scored from the memo

    def test_a_sweep_that_moves_nothing_ticks_nothing_and_leaves_every_score_covered(self):
        data, truth = generate(SyntheticSpec(40, 60, 30, 5, k_true=3, seed=2))
        hyper = default_hyperparams(data)
        rng = np.random.default_rng(0)
        with visit_path("compiled"):
            state = ClusterState(data, truth)
            gibbs_sweep(state, data, hyper, 0.1, rng)  # binds the kernel and scores every object
            labels, clock = state.assignments.copy(), state._visit._ctx.clock
            gibbs_sweep(state, data, hyper, 0.1, rng)
        visit = state._visit
        assert np.array_equal(state.assignments, labels)
        assert visit._ctx.clock == clock
        assert (visit._changed[: state.n_clusters + 1].max() <= visit._scored_at).all()
        state.check_consistency(data)

    @pytest.mark.parametrize("fault", ["score", "new-cluster score", "tick moved back"])
    def test_check_consistency_detects_a_wrong_memo(self, fault):
        data = BinaryMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]])
        hyper = Hyperparams(a=[0.5, 1.0, 2.0], b=[1.5, 1.0, 3.0], alpha=1.0)
        with visit_path("compiled"):
            state = ClusterState(data, [0, 0, 1, 1, 2, 2])
            for i, where in [*((i, i // 2) for i in range(6)), (0, 1)]:  # every object scores, then 0 moves to row 1
                remove_object(state, i, data)
                assignment_distribution(i, state, data, hyper, 1.0)
                insert_object(state, i, where, data)
        visit = state._visit
        # Object 3's scores at row 2 and at the new-cluster row 3 are covered, at row 1 not.
        assert max(visit._changed[2:4]) <= visit._scored_at[3] < visit._changed[1]
        state.check_consistency(data)
        if fault in ("score", "new-cluster score"):
            visit._scores[3, 2 if fault == "score" else 3] += 1e-9
        else:  # object 3's score at row 1 predates object 0's arrival there
            visit._changed[1] = visit._scored_at[3]
        with pytest.raises(ValueError, match="memoised score of object"):
            state.check_consistency(data)
