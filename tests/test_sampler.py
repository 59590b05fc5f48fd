"""Annealed Gibbs sampler: state bookkeeping, sweeps, cooling, determinism."""

import copy

import numpy as np
import pytest

from binclust.datagen import SyntheticSpec, generate
from binclust.evaluate import matched_accuracy
from binclust.model import (
    NEW_CLUSTER,
    UNASSIGNED,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    default_hyperparams,
    joint_log_score,
)
from binclust.sampler import (
    AnnealingSchedule,
    gibbs_sweep,
    init_state,
    insert_object,
    remove_object,
    run,
)

from _oracles import canonical_labels
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


class TestRemoveInsert:
    def test_removing_singleton_deletes_cluster(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        state = ClusterState.from_assignments(data, [0, 1, 2])
        removed_from = remove_object(state, 1, data)
        assert removed_from == 1
        assert state.n_clusters == 2
        assert state.assignments[1] == UNASSIGNED
        # labels above the deleted cluster shift down
        assert np.array_equal(np.delete(state.assignments, 1), [0, 1])
        assert state.sizes.sum() == 2

    def test_remove_then_reinsert_is_identity(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])
        state = ClusterState.from_assignments(data, [0, 1, 1, 0])
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
            state = ClusterState.from_assignments(data, labels)
            i = int(rng.integers(n))
            remove_object(state, i, data)
            keep = np.arange(n) != i
            rest = ClusterState.from_assignments(
                BinaryMatrix(np.asarray(data.values[keep])), state.assignments[keep]
            )
            assert np.array_equal(state.sizes, rest.sizes)
            assert np.array_equal(state.feature_counts, rest.feature_counts)

    def test_insert_new_cluster(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState.from_assignments(data, [0, 0])
        remove_object(state, 1, data)
        insert_object(state, 1, NEW_CLUSTER, data)
        assert state.n_clusters == 2
        assert state.assignments[1] == 1
        assert np.array_equal(state.feature_counts[1], data.values[1])

    def test_insert_existing_increments(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState.from_assignments(data, [0, 0])
        remove_object(state, 0, data)
        insert_object(state, 0, 0, data)
        assert state.sizes[0] == 2

    def test_rejects_double_remove_and_bad_option(self):
        data = BinaryMatrix([[1, 0], [0, 1]])
        state = ClusterState.from_assignments(data, [0, 0])
        remove_object(state, 0, data)
        with pytest.raises(ValueError):
            remove_object(state, 0, data)
        with pytest.raises(ValueError):
            insert_object(state, 0, 5, data)
        with pytest.raises(ValueError):
            insert_object(state, 0, "fresh", data)

    @pytest.mark.parametrize("i", [-1, 3, -4, 2**63, 1.0, True, "1", None])
    def test_rejects_an_object_index_that_is_not_an_integer_in_range(self, i):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = ClusterState.from_assignments(data, [0, 1, 0])
                message = r"object index must be an integer in \[0, 3\)"
                with pytest.raises(ValueError, match=message):
                    remove_object(state, i, data)
                assert np.array_equal(state.assignments, [0, 1, 0])
                remove_object(state, np.int64(2), data)
                with pytest.raises(ValueError, match=message):
                    insert_object(state, i, 0, data)
                insert_object(state, np.int64(2), 0, data)
                state.check_consistency(data)

    @pytest.mark.parametrize("option", [True, False, 0.7, np.float64(1), 2, -1, "fresh", None])
    def test_rejects_an_option_that_is_not_new_or_a_cluster_index(self, option):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = ClusterState.from_assignments(data, [0, 1, 0])
                remove_object(state, 2, data)
                with pytest.raises(ValueError, match=r"cluster option other than 'new' must be an integer in \[0, 2\)"):
                    insert_object(state, 2, option, data)
                assert np.array_equal(state.assignments, [0, 1, UNASSIGNED])
                assert np.array_equal(state._sizes, [1, 1, 0, 0])
                insert_object(state, 2, np.int64(1), data)
                state.check_consistency(data)

    def test_rejects_a_label_beyond_the_last_cluster_before_touching_a_row(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
        for path in PATHS:
            with visit_path(path):
                state = ClusterState.from_assignments(data, [0, 1, 0])
                state.assignments[2] = 2
                with pytest.raises(ValueError, match=r"object 2 carries label 2, outside 0\.\.1"):
                    remove_object(state, 2, data)
                assert np.array_equal(state._sizes, [2, 1, 0, 0])
                assert not state._counts[2:].any()

    def test_a_deep_copy_visits_its_own_arrays(self):
        data = BinaryMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])
        hyper = default_hyperparams(data)
        for path in PATHS:
            with visit_path(path):
                state = ClusterState.from_assignments(data, [0, 1, 1, 0])
                gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
                twin = copy.deepcopy(state)
                before = copy.deepcopy(state)
                remove_object(twin, 3, data)
                insert_object(twin, 3, NEW_CLUSTER, data)
                gibbs_sweep(twin, data, hyper, 1.0, np.random.default_rng(1))
            for name in ("assignments", "_sizes", "_counts", "_log_present", "_log_absent", "_log_denom"):
                assert np.array_equal(getattr(state, name), getattr(before, name))
            state.check_consistency(data)
            twin.check_consistency(data)

    def test_random_remove_insert_sequences_keep_invariants(self):
        rng = np.random.default_rng(21)
        data = BinaryMatrix(rng.integers(0, 2, size=(12, 4)).astype(np.uint8))
        state = ClusterState.from_assignments(data, rng.integers(0, 4, size=12))
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

    def test_single_object_lands_in_own_cluster(self):
        data = BinaryMatrix([[1, 0, 1]])
        state = ClusterState.from_assignments(data, [0])
        gibbs_sweep(state, data, default_hyperparams(data), 1.0, np.random.default_rng(0))
        assert state.n_clusters == 1
        assert state.sizes[0] == 1

    @pytest.mark.parametrize("width", [1, 7])
    def test_rejects_hyperparams_of_another_width_before_moving_anything(self, width):
        data = _two_block_data(d=8)
        state = ClusterState.from_assignments(data, [0, 1] * 6)
        hyper = Hyperparams(a=np.ones(width), b=np.ones(width), alpha=1.0)
        with pytest.raises(ValueError, match=f"hyperparameters cover {width} features, the data has 8"):
            gibbs_sweep(state, data, hyper, 1.0, np.random.default_rng(0))
        assert np.array_equal(state.assignments, [0, 1] * 6)

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
