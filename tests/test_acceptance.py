"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines stream.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import functools
import json
import time

import numpy as np
import pytest

from binclust.baselines import gap_statistic, kmeans_binary
from binclust.datagen import SyntheticSpec, generate
from binclust.evaluate import matched_accuracy
from binclust.io import (
    load_dense,
    load_labels,
    load_report,
    load_sparse,
    save_dense,
    save_labels,
    save_report,
    save_report_dict,
    save_sparse,
)
from binclust.model import (
    NEW_CLUSTER,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    assignment_distribution,
    crp_log_prior,
    joint_log_score,
    log_predictive,
)
from binclust.sampler import AnnealingSchedule, gibbs_sweep, init_state, insert_object, remove_object, run

from _oracles import (
    canonical_labels,
    log_ratio_by_betaln,
    matched_accuracy_brute_force,
    predictive_by_quadrature,
    set_partitions,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL - {description}", flush=True)
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"[acceptance] criterion {number}: PASS - {description}{suffix}", flush=True)

        return inner

    return wrap


def _detach(data, labels, i):
    labels = np.array(labels)
    labels[i] = labels.max() + 1  # a cluster of its own, deleted by the removal
    state = ClusterState(data, labels)
    remove_object(state, i, data)
    return state


@criterion(1, "benchmark accuracy floors with stock defaults, 5 seeds each")
def test_criterion_1_benchmark_floors():
    cases = [
        ("thin-signal 200x500", SyntheticSpec(200, 500, 10, 20, k_true=5), 90.0),
        ("square 200x200", SyntheticSpec(200, 200, 20, 20, k_true=5), 90.0),
        ("wide 100x1000", SyntheticSpec(100, 1000, 20, 30, k_true=5), 95.0),
    ]
    details = []
    for name, base, floor in cases:
        accuracies = []
        for seed in range(5):
            spec = SyntheticSpec(
                base.n_objects, base.n_features, base.info_pct, base.noise_pct,
                k_true=base.k_true, seed=1000 + seed,
            )
            data, truth = generate(spec)
            started = time.perf_counter()
            report = run(data, seed=seed)  # stock defaults: alpha=1, a=1, b empirical, 200 sweeps
            elapsed = time.perf_counter() - started
            assert elapsed <= 60.0, f"{name} seed {seed} took {elapsed:.1f}s (> 60s)"
            accuracies.append(matched_accuracy(report.assignments, truth))
        mean_accuracy = float(np.mean(accuracies))
        assert mean_accuracy >= floor, f"{name}: mean accuracy {mean_accuracy:.2f} < {floor}"
        details.append(f"{name} mean {mean_accuracy:.1f}%")
    return "; ".join(details)


@criterion(2, "noise ceiling: 50% noise run completes; accuracy at chance not asserted")
def test_criterion_2_noise_ceiling():
    spec = SyntheticSpec(500, 500, 20, 50, k_true=5, seed=321)
    data, truth = generate(spec)
    report = run(data, seed=0)
    assert len(report.score_trace) == 200
    assert set(report.assignments.tolist()) == set(range(report.n_clusters))
    accuracy = matched_accuracy(report.assignments, truth)
    chance = 100.0 * np.bincount(truth).max() / truth.size
    return f"K={report.n_clusters}, accuracy {accuracy:.1f}% vs chance {chance:.1f}%"


@criterion(3, "final partition equals the exhaustive MAP over all 4140 partitions in >=90% of 20 runs")
def test_criterion_3_exhaustive_map():
    started = time.perf_counter()
    spec = SyntheticSpec(8, 4, 50, 6, k_true=2, seed=11)
    data, _ = generate(spec)
    hyper = Hyperparams(a=np.ones(4), b=np.ones(4), alpha=1.0)
    partitions = list(set_partitions(8))
    assert len(partitions) == 4140
    scores = [
        joint_log_score(ClusterState(data, labels), data, hyper)
        for labels in partitions
    ]
    map_partition = canonical_labels(partitions[int(np.argmax(scores))])
    schedule = AnnealingSchedule(n_sweeps=300)
    hits = 0
    for seed in range(20):
        report = run(data, hyper=hyper, schedule=schedule, k_init=4, seed=seed)
        if canonical_labels(report.assignments) == map_partition:
            hits += 1
    elapsed = time.perf_counter() - started
    assert hits >= 18, f"only {hits}/20 runs reached the MAP partition"
    assert elapsed <= 10.0, f"criterion took {elapsed:.1f}s (> 10s)"
    return f"{hits}/20 runs, {elapsed:.1f}s"


@criterion(4, "closed-form predictive matches log-gamma (1e-10) and quadrature (1e-6) oracles")
def test_criterion_4_collapsed_likelihood_exactness():
    shapes = [0.5, 1.0, 2.0, 10.0]
    combos = 0
    worst = 0.0
    for a in shapes:
        for b in shapes:
            hyper = Hyperparams(a=np.array([a]), b=np.array([b]), alpha=1.0)
            for size in range(0, 51):
                for fcount in range(0, size + 1):
                    for x in (0, 1):
                        got = log_predictive(np.array([x]), (size, np.array([fcount])), hyper)
                        want = log_ratio_by_betaln(a, b, size, fcount, x)
                        worst = max(worst, abs(got - want))
                        assert abs(got - want) < 1e-10
                        combos += 1
    assert combos >= 10000, f"grid too small: {combos}"

    quad_worst = 0.0
    for a, b in [(1.0, 1.0), (0.5, 2.0), (2.0, 10.0)]:
        hyper = Hyperparams(a=np.array([a]), b=np.array([b]), alpha=1.0)
        for size in range(0, 11):
            for fcount in range(0, size + 1):
                for x in (0, 1):
                    got = np.exp(log_predictive(np.array([x]), (size, np.array([fcount])), hyper))
                    want = predictive_by_quadrature(a, b, size, fcount, x)
                    quad_worst = max(quad_worst, abs(got - want))
                    assert abs(got - want) < 1e-6
    return f"{combos} grid combos, worst {worst:.2e}; quadrature worst {quad_worst:.2e}"


def _random_detached_case(rng):
    n = int(rng.integers(3, 14))
    d = int(rng.integers(1, 7))
    data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
    labels = rng.integers(0, max(1, n // 2), size=n)
    i = int(rng.integers(n))
    state = _detach(data, labels, i)
    hyper = Hyperparams(
        a=rng.uniform(0.3, 3.0, size=d),
        b=rng.uniform(0.3, 3.0, size=d),
        alpha=float(rng.uniform(0.2, 4.0)),
    )
    return data, state, i, hyper


@criterion(5, "tempering identity at T=1 (1e-12, 1000 states) and cold limit at T=1e-6")
def test_criterion_5_tempering_identity():
    rng = np.random.default_rng(55)
    cold_checked = 0
    for _ in range(1000):
        data, state, i, hyper = _random_detached_case(rng)
        probs = assignment_distribution(i, state, data, hyper, temperature=1.0)
        logs = [
            crp_log_prior(k, state.sizes, data.n_objects, hyper.alpha)
            + log_predictive(data.values[i], (state.sizes[k], state.feature_counts[k]), hyper)
            for k in range(state.n_clusters)
        ]
        logs.append(
            crp_log_prior(NEW_CLUSTER, state.sizes, data.n_objects, hyper.alpha)
            + log_predictive(data.values[i], None, hyper)
        )
        want = np.exp(np.asarray(logs) - max(logs))
        want /= want.sum()
        assert np.abs(probs - want).max() < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12

        logliks = np.array(
            [
                log_predictive(data.values[i], (state.sizes[k], state.feature_counts[k]), hyper)
                for k in range(state.n_clusters)
            ]
            + [log_predictive(data.values[i], None, hyper)]
        )
        ranked = np.sort(logliks)
        if len(ranked) >= 2 and ranked[-1] - ranked[-2] >= 0.01:
            cold = assignment_distribution(i, state, data, hyper, temperature=1e-6)
            assert cold[int(np.argmax(logliks))] >= 1.0 - 1e-6
            cold_checked += 1
    assert cold_checked >= 100
    return f"1000 states at T=1; {cold_checked} unique-argmax states at T=1e-6"


@criterion(6, "CRP normalization (1e-12) and integer-exact statistics recount, 1000+ cases each")
def test_criterion_6_crp_and_statistics():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        k = int(rng.integers(1, 10))
        sizes = rng.integers(1, 12, size=k)
        n_total = int(sizes.sum()) + 1
        alpha = float(rng.uniform(0.05, 8.0))
        logs = [crp_log_prior(j, sizes, n_total, alpha) for j in range(k)]
        logs.append(crp_log_prior(NEW_CLUSTER, sizes, n_total, alpha))
        assert abs(np.exp(logs).sum() - 1.0) < 1e-12

    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(1, 8))
        data = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
        state = ClusterState(data, rng.integers(0, max(1, n // 2), size=n))
        for _ in range(25):
            i = int(rng.integers(n))
            remove_object(state, i, data)
            if state.n_clusters == 0 or rng.random() < 0.25:
                insert_object(state, i, NEW_CLUSTER, data)
            else:
                insert_object(state, i, int(rng.integers(state.n_clusters)), data)
            state.check_consistency(data)  # raises unless recount is integer-exact
            checked += 1
    assert checked >= 1000
    return f"1000 CRP cases; {checked} remove/insert recounts"


@criterion(7, "gap statistic picks k=5 on 20 consecutive seeds; thin-signal accuracy near 87.5")
def test_criterion_7_baseline_sanity():
    for seed in range(20):
        spec = SyntheticSpec(100, 80, 20, 5, k_true=5, seed=seed)
        data, _ = generate(spec)
        result = gap_statistic(data, k_max=10, n_refs=10, rng=np.random.default_rng(seed))
        assert result.chosen_k == 5, f"seed {seed}: chose {result.chosen_k}"

    accuracies = []
    for seed in range(5):
        spec = SyntheticSpec(200, 500, 10, 20, k_true=5, seed=2000 + seed)
        data, truth = generate(spec)
        rng = np.random.default_rng(seed)
        result = gap_statistic(data, k_max=15, n_refs=10, rng=rng)
        labels = kmeans_binary(data, result.chosen_k, rng=rng)
        accuracies.append(matched_accuracy(labels, truth))
    mean_accuracy = float(np.mean(accuracies))
    assert abs(mean_accuracy - 87.5) <= 15.0, f"baseline accuracy {mean_accuracy:.2f} outside 87.5 +/- 15"
    return f"20/20 seeds chose k=5; thin-signal baseline mean {mean_accuracy:.1f}%"


@criterion(8, "matched accuracy equals brute-force matching (K<=6) and 100 on relabelings")
def test_criterion_8_metric_oracle():
    rng = np.random.default_rng(88)
    for _ in range(400):
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
        assert matched_accuracy(pred, truth) == matched_accuracy_brute_force(pred, truth)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, 7))
        truth = rng.integers(0, k, size=n)
        relabeled = rng.permutation(k)[truth]
        assert matched_accuracy(relabeled, truth) == 100.0
    return "400 brute-force matches, 200 relabelings"


@criterion(9, "byte-identical reports for equal seeds; 1000 lossless round-trips per format")
def test_criterion_9_reproducibility(tmp_path):
    spec = SyntheticSpec(30, 20, 20, 10, k_true=3, seed=9)
    data, _ = generate(spec)
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        save_report(path, run(data, k_init=5, seed=77, schedule=AnnealingSchedule(n_sweeps=40)), data)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    rng = np.random.default_rng(99)
    dense_path = tmp_path / "m.csv"
    sparse_path = tmp_path / "m.sparse"
    labels_path = tmp_path / "labels.txt"
    report_path = tmp_path / "report.json"
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 8))
        matrix = BinaryMatrix(rng.integers(0, 2, size=(n, d)).astype(np.uint8))
        save_dense(dense_path, matrix)
        assert np.array_equal(load_dense(dense_path).values, matrix.values)
        save_sparse(sparse_path, matrix)
        assert np.array_equal(load_sparse(sparse_path).values, matrix.values)
        labels = rng.integers(0, 6, size=int(rng.integers(1, 12)))
        save_labels(labels_path, labels)
        assert np.array_equal(load_labels(labels_path), labels)
        payload = {
            "assignments": [int(v) for v in rng.integers(0, 5, size=n)],
            "n_clusters": int(rng.integers(1, 6)),
            "seed": int(rng.integers(0, 1 << 31)),
            "score_trace": [float(v) for v in rng.standard_normal(4)],
            "temp_trace": [float(v) for v in rng.random(4)],
        }
        save_report_dict(report_path, payload)
        assert load_report(report_path) == payload
    return "reports byte-identical; 1000 instances x 4 formats round-tripped"
