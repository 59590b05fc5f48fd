"""Self-test of the benchmark's span arithmetic and outside counters.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import binclust.io  # noqa: E402
import binclust.sampler  # noqa: E402
from binclust.datagen import SyntheticSpec, generate  # noqa: E402
from binclust.sampler import AnnealingSchedule  # noqa: E402
from tracer import MissingTraceTarget, Recorder, frozen_at, installed, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0: root [0, 10]; 1 and 2 overlap inside it; 3 runs past its end;
    # 4 is a grandchild, so it counts against 1 only.
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    assert self_times(parents, starts, ends) == pytest.approx([10 - (4 + 2), 2 - 1, 3, 4, 1])


def test_layer_self_times_and_unaccounted_add_up_to_the_wall_time():
    names = ["sampler.run", "sampler.gibbs_sweep", "sampler.assignment_distribution", "sampler.joint_log_score"]
    trace = {
        "table": np.array(names),
        "names": np.array([0, 1, 2, 3]),
        "parents": np.array([-1, 0, 1, 0]),
        "starts": np.array([1.0, 1.5, 2.0, 5.0]),
        "ends": np.array([6.0, 4.5, 4.0, 5.5]),
        "labels": np.empty((0, 0), dtype=np.int64),
        "counters": np.array('{"model.cells_scored": 4000}'),
    }
    m, calls = layer_metrics(trace, wall_s=7.0)
    assert m["model.self_s"] == pytest.approx(2.0 + 0.5)
    assert m["sampler.self_s"] == pytest.approx((5 - 3 - 0.5) + (3 - 2))
    assert m["sampler.gibbs_sweep_self_s"] == pytest.approx(1.0)
    assert m["model.ns_per_cell"] == pytest.approx(2.0 * 1e9 / 4000)
    layers = sum(m[f"{layer}.self_s"] for layer in ("io", "model", "sampler", "baselines"))
    assert layers + m["cli.unaccounted_s"] == pytest.approx(7.0)
    assert calls["sampler.joint_log_score"] == 1


def _co_members(labels, i):
    return frozenset(np.flatnonzero(labels == labels[i]).tolist()) - {i}


def _recount(recorder, visits, n):
    """Births, deaths and moves from the label vector before and after every visit."""
    births = deaths = moves = 0
    before = recorder.labels[0]
    for v, after in enumerate(visits):
        i = v % n
        old, new = _co_members(before, i), _co_members(after, i)
        births += bool(old) and not new
        deaths += not old and bool(new)
        moves += old != new
        before = after
    return births, deaths, moves


def test_counters_match_a_recount_from_label_vectors():
    schedule = AnnealingSchedule(t_init=1.0, lam=0.5, block=2, n_sweeps=10)
    totals = np.zeros(3, dtype=int)
    for seed in range(4):
        data, _ = generate(SyntheticSpec(12, 6, 30, 15, k_true=3, seed=seed))
        recorder = Recorder()
        visits = []  # label vector after every visit, recorded outside the tracer's wrapper
        with installed(recorder):
            traced_insert = binclust.sampler.insert_object

            def keep(state, i, option, data):
                out = traced_insert(state, i, option, data)
                visits.append(state.assignments.copy())
                return out

            binclust.sampler.insert_object = keep
            report = binclust.sampler.run(data, schedule=schedule, k_init=5, seed=seed)

        recount = _recount(recorder, visits, data.n_objects)
        c = recorder.counters
        assert (c["sampler.births"], c["sampler.deaths"], c["sampler.moves"]) == recount
        assert c["sampler.births"] - c["sampler.deaths"] == report.n_clusters - (recorder.labels[0].max() + 1)
        totals += recount

        per_sweep = [recorder.labels[0]] + visits[data.n_objects - 1 :: data.n_objects]
        assert len(per_sweep) == len(recorder.labels) == schedule.n_sweeps + 1
        for ours, theirs in zip(recorder.labels, per_sweep):
            np.testing.assert_array_equal(ours, theirs)
        changed = [s for s in range(1, len(per_sweep)) if not np.array_equal(per_sweep[s], per_sweep[s - 1])]
        assert frozen_at(recorder.labels) == max(changed, default=0)

        m, _ = layer_metrics(recorder.arrays(), wall_s=1.0)
        assert m["sampler.k_mean"] == pytest.approx(report.k_trace.mean())
        assert m["sampler.visits"] == schedule.n_sweeps * data.n_objects
    assert totals.all(), f"births, deaths, moves over all seeds: {totals}"


def test_frozen_at_counts_from_the_initial_labels():
    a, b = np.array([0, 1]), np.array([1, 0])
    assert frozen_at([a, a, a]) == 0
    assert frozen_at([a, b, b]) == 1
    assert frozen_at([a, b, a]) == 2


def test_a_missing_target_fails_and_wraps_nothing(monkeypatch):
    original = binclust.sampler.run
    monkeypatch.delattr(binclust.io, "save_dense")
    with pytest.raises(MissingTraceTarget, match="binclust.io.save_dense"):
        with installed(Recorder()):
            pass
    assert binclust.sampler.run is original
