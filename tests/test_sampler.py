"""Annealed Gibbs sampler: state bookkeeping, sweeps, cooling, determinism."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import binclust
from binclust import model, sampler
from binclust.datagen import SyntheticSpec, generate
from binclust.evaluate import matched_accuracy
from binclust.model import (
    NEW_CLUSTER,
    UNASSIGNED,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    assignment_distribution,
    default_hyperparams,
    joint_log_score,
)
from binclust.sampler import (
    AnnealingSchedule,
    _categorical,
    gibbs_sweep,
    init_state,
    insert_object,
    remove_object,
    run,
)

from _oracles import CATEGORICAL_EDGES, canonical_labels, categorical_by_searchsorted
from _paths import PATHS, visit_path


def _two_block_data(block=6, d=8):
    top = np.zeros((block, d), dtype=np.uint8)
    top[:, : d // 2] = 1
    bottom = np.zeros((block, d), dtype=np.uint8)
    bottom[:, d // 2 :] = 1
    return BinaryMatrix(np.vstack([top, bottom]))


class TestAnnealingSchedule:
    def test_defaults(self):
        sched = AnnealingSchedule()
        assert (sched.t_init, sched.lam, sched.block, sched.n_sweeps) == (1.0, 0.9, 20, 200)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": 1.0},
            {"t_init": 0.0},
            {"block": 0},
            {"n_sweeps": 0},
            # cools to t_init * lam**200 == 0.0 before the last sweep
            {"t_init": 1.0, "lam": 0.01, "block": 1, "n_sweeps": 200},
            # t_init * lam**2 rounds to the least subnormal, but cooling one
            # step at a time, as the run does, reaches 0 after the fourth sweep
            {"t_init": 1.5e-323, "lam": 0.45, "block": 2, "n_sweeps": 5},
            {"t_init": np.inf},
            {"block": 2.7},
            {"block": 2.0},
            {"block": True},
            {"n_sweeps": 1.5},
            {"n_sweeps": "3"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AnnealingSchedule(**kwargs)

    def test_a_schedule_that_cools_to_0_is_refused_at_its_first_0(self, monkeypatch):
        # T = 0.5**s reaches 0 at about sweep 1075 of the 20 million.
        temperatures = AnnealingSchedule._temperatures
        seen = {"yields": 0, "last": None}

        def counted(schedule):
            for t in temperatures(schedule):
                seen["yields"] += 1
                seen["last"] = t
                yield t

        monkeypatch.setattr(AnnealingSchedule, "_temperatures", counted)
        with pytest.raises(ValueError, match="the schedule cools to a temperature of 0"):
            AnnealingSchedule(lam=0.5, block=1, n_sweeps=20_000_000)
        assert seen["last"] == 0.0
        assert seen["yields"] < 1100

    @pytest.mark.parametrize("field, value", [("block", 0), ("lam", 0.0), ("lam", 1.5), ("n_sweeps", 0)])
    def test_a_validated_schedule_cannot_be_changed(self, field, value):
        # Each of these would break a run: a division by zero, a mid-run
        # refusal, heating instead of cooling, or empty traces.
        sched = AnnealingSchedule(n_sweeps=40, block=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sched, field, value)
        assert (sched.lam, sched.block, sched.n_sweeps) == (0.9, 5, 40)


class TestInitState:
    def test_single_cluster(self):
        data = _two_block_data()
        state = init_state(data, 1, np.random.default_rng(0))
        assert state.n_clusters == 1
        assert state.sizes[0] == data.n_objects

    def test_singletons_when_k_equals_n(self):
        data = BinaryMatrix(np.eye(4, dtype=np.uint8))
        state = init_state(data, 4, np.random.default_rng(1))
        assert state.n_clusters <= 4
        for k in range(state.n_clusters):
            members = state.assignments == k
            assert np.array_equal(
                state.feature_counts[k], data.values[members].astype(np.int64).sum(axis=0)
            )

    def test_statistics_match_recount(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            data = BinaryMatrix(rng.integers(0, 2, size=(15, 6)).astype(np.uint8))
            state = init_state(data, 5, np.random.default_rng(seed))
            state.check_consistency(data)

    @pytest.mark.parametrize("k_init", [0, -1, 2.5, 2.0, float("inf"), True, np.float64(3)])
    def test_rejects_out_of_range(self, k_init):
        data = _two_block_data()  # 12 objects
        with pytest.raises(ValueError):
            init_state(data, k_init, np.random.default_rng(0))

    def test_more_labels_than_objects_give_a_compact_state(self):
        data = _two_block_data()  # 12 objects
        state = init_state(data, 13, np.random.default_rng(0))
        state.check_consistency(data)
        assert 1 <= state.n_clusters <= data.n_objects
        assert sorted(set(state.assignments.tolist())) == list(range(state.n_clusters))


def _scored_on(path, data, labels):
    """A state of ``labels`` over ``data``.  On the compiled path it is scored once,
    which binds its kernel: object 0, which must not be alone in its cluster, is
    detached, scored and put back where it was."""
    state = ClusterState(data, labels)
    if path == "compiled":
        k = remove_object(state, 0, data)
        assignment_distribution(0, state, data, default_hyperparams(data), 1.0)
        insert_object(state, 0, k, data)
        assert state._visit and np.array_equal(state.assignments, ClusterState(data, labels).assignments)
    return state


def _snapshot(state):
    """The bytes of the state's labels and row buffers and, where a kernel is bound,
    of its log terms, its denominators, its score memo, its clock and its pending row."""
    arrays = [state.assignments, state._sizes, state._counts]
    visit = state._visit
    if visit:
        ctx = visit._ctx
        arrays += [visit._terms, visit._memo, visit._scores, visit._scored_at, visit._changed]
        arrays.append(np.array([ctx.clock, ctx.pending_object, ctx.pending_row]))
    return [array.tobytes() for array in arrays]


def _refuses(state, step, message):
    """Run ``step``, which must raise a ``ValueError`` matching ``message`` and change nothing."""
    before = _snapshot(state)
    with pytest.raises(ValueError, match=message):
        step()
    assert _snapshot(state) == before


class TestRemoveInsert:
    def test_removing_singleton_deletes_cluster(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        state = ClusterState(data, [0, 1, 2])
        removed_from = remove_object(state, 1, data)
        assert removed_from == 1
        assert state.n_clusters == 2
        assert state.assignments[1] == UNASSIGNED
        # labels above the deleted cluster shift down
        assert np.array_equal(np.delete(state.assignments, 1), [0, 1])
        assert state.sizes.sum() == 2

    def test_remove_then_reinsert_is_identity(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])
        state = ClusterState(data, [0, 1, 1, 0])
        before = copy.deepcopy(state)
        k = remove_object(state, 2, data)
        insert_object(state, 2, k, data)
        assert np.array_equal(state.assignments, before.assignments)
        assert np.array_equal(state.sizes, before.sizes)
        assert np.array_equal(state.feature_counts, before.feature_counts)

    def test_removal_matches_recount_without_object(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            d = int(rng.integers(1, 7))
            data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
            labels = rng.integers(0, max(1, n // 2), size=n)
            state = ClusterState(data, labels)
            i = int(rng.integers(n))
            remove_object(state, i, data)
            keep = np.arange(n) != i
            rest = ClusterState(
                BinaryMatrix(np.asarray(data.values[keep])), state.assignments[keep]
            )
            assert np.array_equal(state.sizes, rest.sizes)
            assert np.array_equal(state.feature_counts, rest.feature_counts)

    def test_insert_new_cluster(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState(data, [0, 0])
        remove_object(state, 1, data)
        insert_object(state, 1, NEW_CLUSTER, data)
        assert state.n_clusters == 2
        assert state.assignments[1] == 1
        assert np.array_equal(state.feature_counts[1], data.values[1])

    def test_insert_existing_increments(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState(data, [0, 0])
        remove_object(state, 0, data)
        insert_object(state, 0, 0, data)
        assert state.sizes[0] == 2

    def test_rejects_double_remove_and_bad_option(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        for path in PATHS:
            with visit_path(path):
                state = _scored_on(path, data, [0, 0])
                remove_object(state, 0, data)
                option = r"cluster option other than 'new' must be an integer in \[0, 1\)"
                _refuses(state, lambda: remove_object(state, 0, data), "object 0 is already detached")
                _refuses(state, lambda: insert_object(state, 1, 0, data), "object 1 is already assigned")
                _refuses(state, lambda: insert_object(state, 0, 5, data), option)
                _refuses(state, lambda: insert_object(state, 0, "fresh", data), option)
                state.check_consistency(data)

    @pytest.mark.parametrize("i", [-1, 3, -4, 2**63, 1.0, True, "1", None])
    def test_rejects_an_object_index_that_is_not_an_integer_in_range(self, i):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = _scored_on(path, data, [0, 1, 0])
                message = r"object index must be an integer in \[0, 3\)"
                _refuses(state, lambda: remove_object(state, i, data), message)
                assert np.array_equal(state.assignments, [0, 1, 0])
                state.check_consistency(data)
                remove_object(state, np.int64(2), data)
                _refuses(state, lambda: insert_object(state, i, 0, data), message)
                _refuses(state, lambda: assignment_distribution(i, state, data, hyper, 1.0), message)
                state.check_consistency(data)
                assignment_distribution(np.int64(2), state, data, hyper, 1.0)
                insert_object(state, np.int64(2), 0, data)
                state.check_consistency(data)

    @pytest.mark.parametrize("option", [True, False, 0.7, np.float64(1), 2, -1, "fresh", None])
    def test_rejects_an_option_that_is_not_new_or_a_cluster_index(self, option):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = _scored_on(path, data, [0, 1, 0])
                remove_object(state, 2, data)
                message = r"cluster option other than 'new' must be an integer in \[0, 2\)"
                _refuses(state, lambda: insert_object(state, 2, option, data), message)
                assert np.array_equal(state.assignments, [0, 1, UNASSIGNED])
                assert np.array_equal(state._sizes, [1, 1, 0, 0])
                state.check_consistency(data)
                insert_object(state, 2, np.int64(1), data)
                state.check_consistency(data)

    def test_rejects_a_label_beyond_the_last_cluster_before_touching_a_row(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = _scored_on(path, data, [0, 1, 0])
                state.assignments[2] = 2
                _refuses(state, lambda: remove_object(state, 2, data), r"object 2 carries label 2, outside 0\.\.1")
                assert np.array_equal(state._sizes, [2, 1, 0, 0])
                assert not state._counts[2:].any()
                state.assignments[2] = 0
                state.check_consistency(data)

    def test_the_visit_steps_are_the_models_functions(self):
        for name in ("remove_object", "insert_object"):
            assert getattr(binclust, name) is getattr(sampler, name) is getattr(model, name)

    def test_a_deep_copy_visits_its_own_arrays(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 1, 1, 0])
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
                twin = copy.deepcopy(state)
                before = copy.deepcopy(state)
                remove_object(twin, 3, data)
                insert_object(twin, 3, NEW_CLUSTER, data)
                gibbs_sweep(twin, data, hyper, 1.0, np.random.default_rng(1))
            for name in ("assignments", "_sizes", "_counts"):
                assert np.array_equal(getattr(state, name), getattr(before, name))
            state.check_consistency(data)
            twin.check_consistency(data)

    def test_a_deep_copy_shares_the_read_only_matrix(self):
        data, _ = generate(SyntheticSpec(40, 30, 20, 10, k_true=3, seed=4))
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, np.arange(40) % 4)
                twin = copy.deepcopy(state)
                assert twin._values is state._values and not twin._values.flags.writeable
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(3))
                gibbs_sweep(twin, data, hyper, 1.0, np.random.default_rng(3))
            assert np.array_equal(twin.assignments, state.assignments)

    def test_a_matrix_deep_copied_with_its_state_stays_bound_to_it(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        state = ClusterState(data, [0, 1, 1])
        data_twin, twin = copy.deepcopy((data, state))
        assert twin._values is data_twin.values and twin._values is not data.values
        assert not data_twin.values.flags.writeable

    def test_an_unpickled_state_holds_a_read_only_matrix(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        twin = pickle.loads(pickle.dumps(ClusterState(data, [0, 1, 1])))
        assert np.array_equal(twin._values, data.values) and not twin._values.flags.writeable
        remove_object(twin, 2, data)
        insert_object(twin, 2, 0, data)
        twin.check_consistency(data)

    @pytest.mark.parametrize(
        "other, message",
        [
            (np.ones((3, 2)), r"the data matrix has shape \(3, 2\), the state covers \(objects, features\) \(4, 2\)"),
            (np.ones((4, 3)), r"the data matrix has shape \(4, 3\), the state covers \(objects, features\) \(4, 2\)"),
            ([[1, 0], [0, 1], [1, 1], [0, 0]], "the data matrix differs from the one the state was counted from"),
        ],
        ids=["a-row-short", "a-column-wide", "other-contents"],
    )
    @pytest.mark.parametrize("scored", [False, True], ids=["before-scoring", "after-scoring"])
    def test_another_matrix_is_refused_before_any_statistic_changes(self, other, message, scored):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])
        other = BinaryMatrix(other)
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 1, 1, 0])
                if scored:
                    gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
                labels = state.assignments.copy()
                attached = (
                    lambda: remove_object(state, 3, other),
                    lambda: gibbs_sweep(state, other, hyper, 1.0, np.random.default_rng(0)),
                    lambda: joint_log_score(state, other, hyper),
                    lambda: state.check_consistency(other),
                )
                detached = (
                    lambda: insert_object(state, 3, 0, other),
                    lambda: insert_object(state, 3, NEW_CLUSTER, other),
                    lambda: assignment_distribution(3, state, other, hyper, 1.0),
                )
                for refused in attached:
                    statistics = state._sizes.copy(), state._counts.copy()
                    with pytest.raises(ValueError, match=message):
                        refused()
                    state.check_consistency(data)
                    assert np.array_equal(state.assignments, labels)
                    assert all(map(np.array_equal, statistics, (state._sizes, state._counts)))
                k = remove_object(state, 3, data)
                for refused in detached:
                    statistics = state._sizes.copy(), state._counts.copy()
                    with pytest.raises(ValueError, match=message):
                        refused()
                    state.check_consistency(data)
                    assert all(map(np.array_equal, statistics, (state._sizes, state._counts)))
                insert_object(state, 3, k, data)
                assert np.array_equal(state.assignments, labels)

    def test_an_equal_matrix_is_accepted_and_scores_the_same(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])
        twin = BinaryMatrix(data.values.copy())
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 1, 1, 0])
                other = ClusterState(data, [0, 1, 1, 0])
                for matrix, each in ((data, state), (twin, other)):
                    gibbs_sweep(each, matrix, hyper, 1.0, np.random.default_rng(3))
                    remove_object(each, 3, matrix)
                probs = assignment_distribution(3, state, data, hyper, 0.5)
                assert np.array_equal(assignment_distribution(3, other, twin, hyper, 0.5), probs)
                insert_object(state, 3, NEW_CLUSTER, data)
                insert_object(other, 3, NEW_CLUSTER, twin)
                assert np.array_equal(state.assignments, other.assignments)
                assert joint_log_score(state, data, hyper) == joint_log_score(other, twin, hyper)
                other.check_consistency(twin)
                other.check_consistency(data)

    def test_random_remove_insert_sequences_keep_invariants(self):
        rng = np.random.default_rng(21)
        data = BinaryMatrix(rng.integers(0, 2, size=(12, 4)).astype(np.uint8))
        state = ClusterState(data, rng.integers(0, 4, size=12))
        for _ in range(300):
            i = int(rng.integers(12))
            remove_object(state, i, data)
            if state.n_clusters == 0 or rng.random() < 0.3:
                insert_object(state, i, NEW_CLUSTER, data)
            else:
                insert_object(state, i, int(rng.integers(state.n_clusters)), data)
            assert state.sizes.sum() == 12
        state.check_consistency(data)


class TestGibbsSweep:
    def test_separates_two_blocks(self):
        data = _two_block_data()
        hyper = Hyperparams(a=np.ones(8), b=np.ones(8), alpha=1.0)
        rng = np.random.default_rng(4)
        state = init_state(data, 4, rng)
        for _ in range(10):
            gibbs_sweep(state, data, hyper, 1.0, rng)
        truth = np.repeat([0, 1], 6)
        from binclust.evaluate import matched_accuracy

        assert matched_accuracy(state.assignments, truth) == 100.0

    @pytest.mark.parametrize("path", PATHS)
    def test_a_sweep_given_an_equal_copy_compares_it_with_the_states_matrix_once(self, path, monkeypatch):
        # The sweep checks the copy once, then visits with the state's own
        # array: the cell-by-cell comparisons do not grow with N, and the
        # labels and generator state are those of the sweep given the
        # state's own matrix.
        compared = []
        check = ClusterState._check_values

        def counted(state, values):
            if values is not state._values:
                compared.append(values.shape)
            return check(state, values)

        monkeypatch.setattr(ClusterState, "_check_values", counted)
        for n in (7, 60):
            data, _ = generate(SyntheticSpec(n, 12, 25, 5, k_true=3, seed=n))
            twin = BinaryMatrix(data.values.copy())
            hyper = default_hyperparams(data)
            with visit_path(path):
                state, other = ClusterState(data, np.arange(n) % 4), ClusterState(data, np.arange(n) % 4)
                rng, other_rng = np.random.default_rng(n), np.random.default_rng(n)
                for sweep in range(1, 4):
                    gibbs_sweep(state, data, hyper, 1.0, rng)
                    gibbs_sweep(other, twin, hyper, 1.0, other_rng)
                    assert np.array_equal(other.assignments, state.assignments)
                    assert len(compared) == sweep
            assert rng.random() == other_rng.random()
            other.check_consistency(twin)
            compared.clear()

    def test_single_object_lands_in_own_cluster(self):
        data = BinaryMatrix([[1, 0, 1]])
        state = ClusterState(data, [0])
        gibbs_sweep(state, data, default_hyperparams(data), 1.0, np.random.default_rng(0))
        assert state.n_clusters == 1
        assert state.sizes[0] == 1

    @pytest.mark.parametrize("width", [1, 7])
    def test_rejects_hyperparams_of_another_width_before_moving_anything(self, width):
        data = _two_block_data(d=8)
        state = ClusterState(data, [0, 1] * 6)
        hyper = Hyperparams(a=np.ones(width), b=np.ones(width), alpha=1.0)
        with pytest.raises(ValueError, match=f"hyperparameters cover {width} features, the data has 8"):
            gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
        assert np.array_equal(state.assignments, [0, 1] * 6)

    @pytest.mark.parametrize(
        "temperature, rng, message",
        [
            (0.0, np.random.default_rng(0), "temperature must be strictly positive"),
            (-1.0, np.random.default_rng(0), "temperature must be strictly positive"),
            (float("nan"), np.random.default_rng(0), "temperature must be strictly positive"),
            (1.0, None, "rng must be a numpy.random.Generator, got NoneType"),
            (1.0, np.random.RandomState(0), "rng must be a numpy.random.Generator, got RandomState"),
        ],
        ids=["zero", "negative", "nan", "none", "legacy-generator"],
    )
    def test_refuses_bad_arguments_before_detaching_anything(self, temperature, rng, message):
        data = _two_block_data(d=8)
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 1] * 6)
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
                before = copy.deepcopy(state)
                with pytest.raises(ValueError, match=message):
                    gibbs_sweep(state, data, hyper, temperature, rng)
                for name in ("assignments", "_sizes", "_counts"):
                    assert np.array_equal(getattr(state, name), getattr(before, name))
                state.check_consistency(data)
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(1))
                joint_log_score(state, data, hyper)

    @pytest.mark.parametrize("case", ["detached", "beyond-the-last-cluster"])
    def test_refuses_a_label_outside_the_clusters_before_moving_anything(self, case):
        data = _two_block_data(d=6)
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState(data, [0, 1] * 6)
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
                if case == "detached":
                    i, label = 5, remove_object(state, 5, data)
                    message = r"object 5 carries label -1, outside 0\.\.1"
                else:
                    i, label = 7, state.assignments[7]
                    state.assignments[7] = 2
                    message = r"object 7 carries label 2, outside 0\.\.1"
                before = copy.deepcopy(state)
                with pytest.raises(ValueError, match=message):
                    gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(1))
                for name in ("assignments", "_sizes", "_counts"):
                    assert np.array_equal(getattr(state, name), getattr(before, name))
                if case == "detached":
                    insert_object(state, i, label, data)
                else:
                    state.assignments[i] = label
                state.check_consistency(data)
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(1))

    def test_preserves_invariants_on_random_data(self):
        rng = np.random.default_rng(13)
        data = BinaryMatrix(rng.integers(0, 2, size=(20, 6)).astype(np.uint8))
        hyper = default_hyperparams(data)
        state = init_state(data, 6, rng)
        for temperature in (1.0, 0.5, 0.1):
            gibbs_sweep(state, data, hyper, temperature, rng)
            state.check_consistency(data)
            assert (state.sizes >= 1).all()


class TestRun:
    def test_temperature_trace_example(self):
        data = _two_block_data()
        report = run(data, schedule=AnnealingSchedule(n_sweeps=40), k_init=3, seed=0)
        assert report.temp_trace[39] == pytest.approx(0.81)

    def test_cooling_law_all_sweeps(self):
        data = _two_block_data()
        sched = AnnealingSchedule(t_init=2.0, lam=0.7, block=3, n_sweeps=25)
        report = run(data, schedule=sched, k_init=3, seed=1)
        temperature = sched.t_init
        for n in range(sched.n_sweeps):
            if (n + 1) % sched.block == 0:
                temperature *= sched.lam
            assert report.temp_trace[n] == temperature
            assert report.temp_trace[n] == pytest.approx(
                sched.t_init * sched.lam ** ((n + 1) // sched.block)
            )

    def test_traces_have_length_m(self):
        data = _two_block_data()
        report = run(data, schedule=AnnealingSchedule(n_sweeps=17), k_init=2, seed=5)
        assert len(report.score_trace) == 17
        assert len(report.k_trace) == 17
        assert len(report.temp_trace) == 17

    def test_identical_seeds_identical_reports(self):
        data = _two_block_data()
        first = run(data, k_init=4, seed=123, schedule=AnnealingSchedule(n_sweeps=30))
        second = run(data, k_init=4, seed=123, schedule=AnnealingSchedule(n_sweeps=30))
        assert np.array_equal(first.assignments, second.assignments)
        assert np.array_equal(first.score_trace, second.score_trace)
        assert np.array_equal(first.k_trace, second.k_trace)
        assert np.array_equal(first.temp_trace, second.temp_trace)
        assert first.config_echo == second.config_echo

    def test_labels_compact(self):
        data = _two_block_data()
        report = run(data, k_init=6, seed=9, schedule=AnnealingSchedule(n_sweeps=25))
        assert set(report.assignments.tolist()) == set(range(report.n_clusters))

    def test_annealing_beats_random_init(self):
        data = _two_block_data(block=8, d=10)
        hyper = default_hyperparams(data)
        sched = AnnealingSchedule(n_sweeps=60)
        for seed in range(20):
            state0 = init_state(data, 6, np.random.default_rng(seed))
            score0 = joint_log_score(state0, data, hyper)
            report = run(data, hyper=hyper, schedule=sched, k_init=6, seed=seed)
            assert report.score_trace[-1] >= score0

    def test_config_echo_policies(self):
        data = _two_block_data()
        report = run(data, k_init=2, seed=0, schedule=AnnealingSchedule(n_sweeps=5))
        assert report.config_echo["hyperparams"]["a_policy"] == "constant:1"
        assert report.config_echo["hyperparams"]["b_policy"] == "empirical:n/colsum"
        custom = Hyperparams(a=np.full(10, 2.0), b=np.ones(10), alpha=1.0)
        data10 = _two_block_data(block=6, d=10)
        report = run(data10, hyper=custom, k_init=2, seed=0, schedule=AnnealingSchedule(n_sweeps=5))
        assert report.config_echo["hyperparams"]["a_policy"] == "custom"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t_init", [1e-306, 1e-310, 5e-324])
    def test_very_cold_start_still_recovers_the_clusters(self, t_init):
        data, truth = generate(SyntheticSpec(40, 300, 20, 5, k_true=3, seed=1))
        report = run(data, schedule=AnnealingSchedule(t_init=t_init, n_sweeps=20), seed=0)
        assert report.n_clusters == 3
        assert matched_accuracy(report.assignments, truth) == 100.0

    def test_rejects_hyperparams_of_another_width(self):
        data = _two_block_data(d=8)
        hyper = Hyperparams(a=np.ones(9), b=np.ones(9), alpha=1.0)
        with pytest.raises(ValueError, match="hyperparameters cover 9 features, the data has 8"):
            run(data, hyper=hyper, k_init=2, seed=0, schedule=AnnealingSchedule(n_sweeps=5))

    def test_refuses_shapes_whose_sum_overflows_before_any_sweep(self, monkeypatch):
        swept = []
        monkeypatch.setattr(sampler, "gibbs_sweep", lambda *args: swept.append(args))
        with pytest.raises(ValueError, match="a_j \\+ b_j must be finite"):
            run(_two_block_data(d=2), hyper=Hyperparams(a=[1e308, 1], b=[1e308, 1], alpha=1), k_init=2, seed=0)
        assert swept == []

    def test_score_trace_equals_the_score_recomputed_after_every_sweep(self, monkeypatch):
        # Thin data freezes within a few sweeps, so most scores are reused;
        # the noisy 30 x 20 instance keeps moving labels at T = 1.
        instances = ((SyntheticSpec(40, 60, 20, 5, k_true=3, seed=2), 0), (SyntheticSpec(30, 20, 20, 40, k_true=3, seed=9), 7))
        for spec, seed in instances:
            data, _ = generate(spec)
            hyper = default_hyperparams(data)
            schedule = AnnealingSchedule(t_init=1.0, lam=0.5, block=5, n_sweeps=30)
            rng = np.random.default_rng(seed)
            state = init_state(data, 10, rng)
            expected = []
            for temperature in (schedule.t_init, *list(schedule._temperatures())[:-1]):
                gibbs_sweep(state, data, hyper, temperature, rng)
                expected.append(joint_log_score(state, data, hyper))
            calls = []

            def counted(*args):
                calls.append(args)
                return joint_log_score(*args)

            monkeypatch.setattr(sampler, "joint_log_score", counted)
            report = run(data, hyper=hyper, schedule=schedule, k_init=10, seed=seed)
            monkeypatch.undo()
            assert np.array_equal(report.assignments, state.assignments)
            assert np.array_equal(report.score_trace, np.array(expected))
            assert 1 <= len(calls) < schedule.n_sweeps  # some sweeps reused the score

    @pytest.mark.parametrize("seed", [2.5, True, False, None, "0", -1, np.float64(3.0)])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer_before_any_work(self, seed, monkeypatch):
        def no_work(*args):
            raise AssertionError("worked before the seed was checked")

        monkeypatch.setattr(sampler, "default_hyperparams", no_work)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run(_two_block_data(), seed=seed)

    def test_accepts_a_numpy_integer_seed(self):
        data = _two_block_data()
        schedule = AnnealingSchedule(n_sweeps=5)
        report = run(data, schedule=schedule, k_init=3, seed=np.int64(4))
        assert report.seed == 4
        assert np.array_equal(report.assignments, run(data, schedule=schedule, k_init=3, seed=4).assignments)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
def test_a_block_of_uniforms_equals_as_many_single_draws(n):
    # Drawing a sweep's N uniforms at once keeps every report byte-identical
    # only if the generator yields the same doubles, and leaves the same
    # state, as N calls of rng.random().
    for seed in range(12):
        block_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = block_rng.random(n)
        assert block.tolist() == [single_rng.random() for _ in range(n)]
        assert block_rng.random() == single_rng.random()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [1, 7, 200])
def test_a_sweep_draws_exactly_one_uniform_per_object(path, n):
    # Each sweep takes exactly its N draws, so the next sweep's uniforms
    # start where a sweep of one draw per visit would have left them.
    data, _ = generate(SyntheticSpec(n, 12, 25, 5, k_true=min(n, 3), seed=n))
    hyper = default_hyperparams(data)
    for seed in range(3):
        with visit_path(path):
            state = ClusterState(data, np.arange(n) % 4)
            rng = np.random.default_rng(seed)
            gibbs_sweep(state, data, hyper, 1.0, rng)
        reference = np.random.default_rng(seed)
        reference.random(n)
        assert rng.random() == reference.random()


class TestCategorical:
    def _check(self, probs, u):
        probs = np.asarray(probs, dtype=np.float64)
        got = _categorical(probs, u)
        assert type(got) is int
        assert got == categorical_by_searchsorted(probs, u), (probs.tolist(), u)

    def test_equals_searchsorted_over_the_cumulative_sum_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            probs = rng.random(int(rng.integers(1, 12))) ** rng.choice([1, 8, 40])
            probs /= probs.sum()
            self._check(probs, rng.random())

    def test_edge_vectors_and_draws(self):
        for probs, u in CATEGORICAL_EDGES:
            self._check(probs, u)

    def test_a_total_just_under_one_clamps_to_the_last_index(self):
        probs = np.full(10, 0.1)  # the running sum ends at 0.9999999999999999
        total = np.cumsum(probs)[-1]
        assert total < 1.0
        for u in (total, np.nextafter(1.0, 0.0), np.nextafter(total, 0.0)):
            self._check(probs, u)
        assert _categorical(probs, np.nextafter(1.0, 0.0)) == 9
        assert _categorical(np.array([0.5, 0.5 - 2**-53, 0.0]), np.nextafter(1.0, 0.0)) == 2
