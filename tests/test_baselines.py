"""K-means on binary rows and the gap statistic."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binclust import baselines
from binclust.baselines import (
    _N_RESTARTS,
    _best_fits,
    _cluster_products,
    _inputs,
    _lloyd,
    _plusplus_seeds,
    _squared_distances,
    _weighted_draws,
    gap_statistic,
    kmeans_binary,
)
from binclust.datagen import SyntheticSpec, generate
from binclust.evaluate import matched_accuracy
from binclust.model import BinaryMatrix

from _oracles import (
    CATEGORICAL_EDGES,
    choice_by_cdf,
    dense_cluster_products,
    lloyd_by_dense_products,
    plusplus_seeds_one_run,
)


def _blocks(sizes, d, patterns):
    rows = []
    for size, pattern in zip(sizes, patterns):
        block = np.zeros((size, d), dtype=np.uint8)
        block[:, pattern] = 1
        rows.append(block)
    return BinaryMatrix(np.vstack(rows))


def _plusplus_by_direct_distances(points, k, rng):
    """k-means++ seed indices with each squared distance written out as a difference."""
    seeds = [rng.integers(points.shape[0])]
    d2 = ((points - points[seeds[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        seeds.append(rng.choice(points.shape[0], p=d2 / total) if total > 0 else rng.integers(points.shape[0]))
        d2 = np.minimum(d2, ((points - points[seeds[-1]]) ** 2).sum(axis=1))
    return seeds


def _n_distinct(values):
    return len(np.unique(values, axis=0))


def _one_run(values, k, max_iters, rng):
    """One k-means++-seeded Lloyd run on ``values`` through ``_inputs``, ``_plusplus_seeds`` and ``_lloyd``."""
    inputs = _inputs(values)
    seeds = _plusplus_seeds(inputs[0], inputs[1], inputs[3], [k], _n_distinct(values), rng)[0]
    return _lloyd(*inputs, seeds, max_iters)


def _recorded_lloyd(inputs, seeds, max_iters, steer=None):
    """``_lloyd``'s run as ``(steps, labels, wcss)``, ``steps`` the ``(cross, q)`` it hands to ``_squared_distances``
    at every step.  ``steer(m)``, if given, takes the place of the distances after step m < ``max_iters``."""
    steps = []

    def recorded(norms, cross, q, sizes):
        steps.append((cross.copy(), q.copy()))
        if steer is None or len(steps) == max_iters:
            return _squared_distances(norms, cross, q, sizes)
        return steer(len(steps))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_squared_distances", recorded)
        labels, wcss = _lloyd(*inputs, seeds, max_iters)
    return steps, labels, wcss


def _direct_hamming(points):
    """Every pair of rows' squared distance, written out as a sum of squared differences."""
    return ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)


def _exact_wcss(values, labels):
    """The WCSS of ``labels`` as a fraction: every row's squared distance to its cluster's exact mean row."""
    total = Fraction(0)
    for j in np.unique(labels):
        members = np.asarray(values)[labels == j].astype(int).tolist()
        mean = [Fraction(sum(column), len(members)) for column in zip(*members)]
        total += sum((x - m) ** 2 for row in members for x, m in zip(row, mean))
    return total


def _gap_by_per_k_fits(data, k_max, n_refs, rng):
    """The gap statistic through ``kmeans_binary``, then the correctly rounded exact WCSS of its labels,
    then a scalar log with 0 mapped to -inf."""

    def log_dispersion(matrix, k):
        labels = kmeans_binary(matrix, k, rng)
        wcss = float(_exact_wcss(matrix.values, labels))
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
    def test_k1_puts_every_row_in_one_cluster(self):
        rng = np.random.default_rng(0)
        data = BinaryMatrix(rng.integers(0, 2, size=(15, 6)).astype(np.uint8))
        labels = kmeans_binary(data, 1, rng=rng)
        assert np.all(labels == 0)

    def test_two_separated_blocks(self):
        data = _blocks([7, 7], 10, [range(0, 5), range(5, 10)])
        labels = kmeans_binary(data, 2, rng=np.random.default_rng(1))
        truth = np.repeat([0, 1], 7)
        assert matched_accuracy(labels, truth) == 100.0

    @pytest.mark.parametrize("shape", [(40, 8), (12, 30)], ids=["points-route", "gram-route"])
    def test_objective_non_increasing(self, shape):
        # A run capped at m iterations from the same seeds returns the WCSS
        # after iteration m (or after convergence, if sooner), so the caps
        # 1..50 trace the objective iteration by iteration.
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(6, shape[0]))
            d = int(rng.integers(2, shape[1]))
            values = rng.integers(0, 2, size=(n, d))
            inputs = _inputs(values)
            k = int(rng.integers(2, min(6, n)))
            seeds = _plusplus_seeds(inputs[0], inputs[1], inputs[3], [k], _n_distinct(values), rng)[0]
            trace = [_lloyd(*inputs, seeds, max_iters)[1] for max_iters in range(1, 51)]
            assert (np.diff(trace) <= 1e-9).all()

    def test_seeding_distances_equal_the_direct_formula(self):
        rng = np.random.default_rng(11)
        points = rng.integers(0, 2, size=(40, 9)).astype(np.float64)
        norms = (points * points).sum(axis=1)
        for c in points:
            direct = ((points - c) ** 2).sum(axis=1)
            assert np.array_equal(_squared_distances(norms, (points @ c)[:, None], np.array([c @ c]), 1)[:, 0], direct)
        for seed in range(10):
            k = 1 + seed % 6
            seeds = _plusplus_seeds(points, norms, None, [k], _n_distinct(points), np.random.default_rng(seed))[0]
            assert np.array_equal(seeds, _plusplus_by_direct_distances(points, k, np.random.default_rng(seed)))

    @pytest.mark.parametrize(
        "shape, distinct",
        [((9, 40), 9), ((12, 30), 3), ((12, 4), 3)],
        ids=["gram-route", "gram-route-duplicates", "points-route-duplicates"],
    )
    def test_seeding_on_either_route_equals_the_direct_formula(self, shape, distinct):
        # With k above the number of distinct rows every distance reaches 0,
        # and the seeding falls back to a uniform index.  Both routes run
        # whatever the N <= D rule would pick; the Hamming matrix is the
        # direct formula's, and the one ``_inputs`` builds where it builds one.
        n, d = shape
        rng = np.random.default_rng(5)
        points = rng.integers(0, 2, size=(distinct, d)).astype(np.float64)[np.arange(n) % distinct]
        assert len(np.unique(points, axis=0)) == distinct
        norms = (points * points).sum(axis=1)
        hamming = _direct_hamming(points)
        built_points, built_norms, _, built_hamming = _inputs(points.astype(np.uint8))
        assert built_norms.tobytes() == norms.tobytes()
        if n <= d:
            assert built_points is None and built_hamming.tobytes() == hamming.tobytes()
        else:
            assert built_points.tobytes() == points.tobytes() and built_hamming is None
        for seed in range(20):
            ks = [1 + (seed + r) % n for r in range(1 + seed % 4)]
            direct = np.random.default_rng(seed)
            want = [_plusplus_by_direct_distances(points, k, direct) for k in ks]
            for route in (hamming, None):
                ours = np.random.default_rng(seed)
                got = _plusplus_seeds(points, norms, route, ks, distinct, ours)
                assert [s.tolist() for s in got] == [list(map(int, s)) for s in want]
                assert ours.bit_generator.state == direct.bit_generator.state

    @pytest.mark.parametrize(
        "shape, distinct",
        [((9, 40), 9), ((12, 30), 3), ((12, 4), 3), ((30, 6), 30), ((7, 7), 1)],
        ids=["gram-route", "gram-route-duplicates", "points-route-duplicates", "points-route", "one-distinct-row"],
    )
    def test_seeding_all_runs_at_once_equals_seeding_each_run_alone(self, shape, distinct):
        # Rows drawn from ``distinct`` random rows, which may repeat; runs of
        # k = 1 .. N, above and below the number of distinct rows, in rising
        # and in mixed order; the generator ends where the runs seeded
        # one after another leave it.
        n, d = shape
        rng = np.random.default_rng(17)
        points = rng.integers(0, 2, size=(distinct, d)).astype(np.float64)[np.arange(n) % distinct]
        distinct = _n_distinct(points)  # the drawn rows may repeat
        norms = (points * points).sum(axis=1)
        hamming = _direct_hamming(points)
        orders = [list(range(1, n + 1)), np.repeat([1, n], 3).tolist(), rng.integers(1, n + 1, size=12).tolist()]
        for seed, ks in enumerate(orders):
            for route in (hamming, None):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _plusplus_seeds(points, norms, route, ks, distinct, ours)
                want = [plusplus_seeds_one_run(points, norms, route, k, theirs) for k in ks]
                assert [s.tolist() for s in got] == [list(map(int, s)) for s in want]
                assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "shape, distinct, ks",
        [
            ((20, 50), 20, range(1, 21)),
            ((40, 9), 40, range(1, 8)),
            ((16, 40), 4, range(1, 9)),
            ((24, 5), 3, [1, 2, 3, 4, 24]),
            ((10, 10), 10, [1, 10]),
        ],
        ids=["gram-route-k-1-to-n", "points-route", "gram-route-duplicates", "points-route-duplicates", "n-equals-d"],
    )
    def test_best_fits_equal_runs_seeded_alone_with_dense_products(self, shape, distinct, ks):
        # Each k's best of five runs, each seeded alone from the same generator
        # and stepped with the full one-hot product, gives the same labels,
        # the same WCSS bits and the same generator state afterwards.
        n, d = shape
        rng = np.random.default_rng(23)
        values = rng.integers(0, 2, size=(distinct, d)).astype(np.uint8)[rng.permutation(np.arange(n) % distinct)]
        inputs = _inputs(values)
        for seed in range(3):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _best_fits(BinaryMatrix(values), ks, ours)
            for k, (labels, wcss) in zip(ks, got):
                runs = [lloyd_by_dense_products(*inputs, k, 100, theirs) for _ in range(_N_RESTARTS)]
                want_labels, want_wcss = min(runs, key=lambda fit: fit[1])
                assert np.array_equal(labels, want_labels)
                assert np.float64(wcss).tobytes() == np.float64(want_wcss).tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_every_lloyd_step_updates_cross_and_q_to_the_dense_products(self, data):
        # The cross and q that every step of _lloyd hands to
        # _squared_distances are the full one-hot product of that step's
        # labels, bit for bit: the run capped at m steps returns step m's
        # labels.  The run itself ends with the labels and WCSS of the
        # all-dense oracle.  Columns of uneven density and a few clusters
        # make about two runs in five take a step after the first (uniform
        # random rows with N <= D seldom do).
        n = data.draw(st.integers(2, 60), label="n")
        d = data.draw(st.integers(n, n + 10), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = (rng.random((n, d)) < rng.random(d) ** 2).astype(np.uint8)
        k = data.draw(st.one_of(st.integers(1, min(n, 4)), st.just(n)), label="k")
        inputs = _inputs(values)
        seed = int(rng.integers(2**32))
        rng = np.random.default_rng(seed)
        seeds = _plusplus_seeds(inputs[0], inputs[1], inputs[3], [k], _n_distinct(values), rng)[0]
        steps, labels, wcss = _recorded_lloyd(inputs, seeds, 100)
        for m, (cross, q) in enumerate(steps, 1):
            want_cross, want_q = dense_cluster_products(None, inputs[2], _lloyd(*inputs, seeds, m)[0], k)
            assert cross.tobytes() == want_cross.tobytes() and q.tobytes() == want_q.tobytes()
        want_labels, want_wcss = lloyd_by_dense_products(*inputs, k, 100, np.random.default_rng(seed))
        assert np.array_equal(labels, want_labels)
        assert np.float64(wcss).tobytes() == np.float64(want_wcss).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_lloyd_steps_follow_any_relabeling(self, data):
        # After its first step, _lloyd is steered through a walk of
        # relabelings, each moving any subset of rows (none, some, all): the
        # patched distances put every row nearest its drawn cluster, and each
        # draw gives every cluster a member, so no revival intervenes.  After
        # every relabeling, on either route, cross and q are the full one-hot
        # product's, bit for bit, and the first relabeling that moves no row
        # ends the run.
        n = data.draw(st.integers(1, 25), label="n")
        k = data.draw(st.integers(1, min(n, 8)), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.integers(0, 2, size=(n, data.draw(st.integers(max(1, n - 5), n + 30), label="d")))
        inputs = _inputs(values)
        points = values.astype(np.float64)
        seeds = rng.choice(n, size=k, replace=False)
        walk = [_lloyd(*inputs, seeds, 1)[0]]
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            relabeled = np.where(rng.random(n) < rng.random(), rng.integers(0, k, size=n), walk[-1])
            if np.unique(relabeled).size < k:
                relabeled[rng.choice(n, size=k, replace=False)] = rng.permutation(k)
            walk.append(relabeled)
        eye = np.eye(k)
        steps, labels, _ = _recorded_lloyd(inputs, seeds, len(walk), lambda m: 1.0 - eye[walk[m]])
        moved_none = [m for m in range(1, len(walk)) if np.array_equal(walk[m], walk[m - 1])]
        assert len(steps) == (moved_none + [len(walk)])[0]
        for want_labels, (cross, q) in zip(walk, steps):
            want_cross, want_q = dense_cluster_products(None, points @ points.T, want_labels, k)
            assert cross.tobytes() == want_cross.tobytes() and q.tobytes() == want_q.tobytes()
        assert np.array_equal(labels, walk[len(steps) - 1])

    @pytest.mark.parametrize(
        "case",
        [f"zeros-{seed}" for seed in range(40)] + ["trailing-zeros", "one-nonzero-first", "one-nonzero-last", "length-1"],
    )
    def test_the_seed_draw_equals_rng_choice(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        if case.startswith("zeros"):
            weights = rng.integers(0, 4, size=int(rng.integers(1, 401))).astype(np.float64)
            weights[rng.integers(weights.size)] = 0.0
            weights[rng.integers(weights.size)] = 3.0
        elif case == "trailing-zeros":
            weights = np.concatenate([rng.random(50), np.zeros(30)])
        elif case == "length-1":
            weights = np.ones(1)
        else:
            weights = np.zeros(57)
            weights[0 if case.endswith("first") else -1] = 2.0
        p = weights / weights.sum()
        for seed in range(25):
            ours, numpy_choice = np.random.default_rng(seed), np.random.default_rng(seed)
            u = np.random.default_rng(seed).random(1)
            assert _weighted_draws(weights[None], u)[0] == choice_by_cdf(p, ours) == numpy_choice.choice(p.size, p=p)
            assert ours.random() == numpy_choice.random()

    @pytest.mark.parametrize("weights, u", [(w, u) for w, u in CATEGORICAL_EDGES if sum(w) > 0])
    def test_the_seed_draw_at_a_running_sum_takes_the_next_index(self, weights, u):
        # A uniform equal to a running sum, at the total or just below it:
        # the draw is searchsorted(side="right") on the normalized running
        # sums, as in Generator.choice, one row alone or beside other rows.
        weights = np.array(weights)
        want = choice_by_cdf(weights / weights.sum(), SimpleNamespace(random=lambda: u))
        rows = np.vstack([weights, np.ones_like(weights), weights[::-1]])
        assert _weighted_draws(weights[None], np.array([u]))[0] == want
        assert _weighted_draws(rows, np.full(3, u))[0] == want

    def test_labels_are_exactly_0_to_k_minus_1(self):
        rng = np.random.default_rng(3)
        data = BinaryMatrix(rng.integers(0, 2, size=(20, 5)).astype(np.uint8))
        labels = kmeans_binary(data, 4, rng=rng)
        assert np.array_equal(np.unique(labels), np.arange(4))

    @pytest.mark.parametrize("k", [0, 21])
    def test_rejects_out_of_range_k(self, k):
        data = BinaryMatrix(np.zeros((20, 3), dtype=np.uint8) + np.eye(20, 3, dtype=np.uint8))
        with pytest.raises(ValueError):
            kmeans_binary(data, k, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_rejects_a_k_that_is_not_an_integer_before_fitting(self, k, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(baselines, "_plusplus_seeds", no_fit)
        data = BinaryMatrix(np.eye(4, 3, dtype=np.uint8))
        with pytest.raises(ValueError, match="k must be an integer"):
            kmeans_binary(data, k, rng=np.random.default_rng(0))

    def test_accepts_a_numpy_integer_k(self):
        data = BinaryMatrix(np.random.default_rng(2).integers(0, 2, size=(12, 4)).astype(np.uint8))
        got = kmeans_binary(data, np.int64(3), rng=np.random.default_rng(1))
        want = kmeans_binary(data, 3, rng=np.random.default_rng(1))
        assert np.array_equal(got, want)

    def test_lloyd_returns_nonempty_clusters_and_the_exact_wcss_of_its_labels(self):
        # Random instances, then K = 1 and K = N, then duplicate rows.  The
        # random ones have columns of uneven density, and every other one at
        # most 4 clusters, so that many runs take a step after the first.  The
        # WCSS sums K correctly rounded cluster terms, so it is within
        # K 2^-52 relative of the exact value.
        rng = np.random.default_rng(8)
        cases = []
        for i in range(120):
            n, d = int(rng.integers(1, 50)), int(rng.integers(1, 80))
            values = (rng.random((n, d)) < rng.random(d) ** 2).astype(np.int64)
            cases.append((values, int(rng.integers(1, min(n, 4 if i % 2 else 6) + 1))))
        values = rng.integers(0, 2, size=(25, 12))
        cases += [(values, 1), (values, 25)]
        duplicates = np.repeat(rng.integers(0, 2, size=(4, 9)), [5, 1, 3, 6], axis=0)
        cases += [(duplicates, k) for k in (1, 3, 4, 6, 15)]
        for values, k in cases:
            labels, wcss = _one_run(values, k, 100, rng)
            exact = _exact_wcss(values, labels)
            assert abs(Fraction(wcss) - exact) <= Fraction(k, 2**52) * exact
            assert np.array_equal(np.unique(labels), np.arange(k))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_the_gram_and_points_routes_give_the_same_bits(self, data):
        # N < D, N = D and N > D; one to N distinct rows of columns of uneven
        # density, each repeated about equally often; some columns held at 0
        # or 1; often at most 4 clusters, so that many runs take a step after
        # the first.  Both
        # routes are forced, whatever the N <= D rule would pick, and give
        # the same cross and q at every step; their products, and the last
        # step's q, are checked against the count table.  The Gram route
        # reads no rows, so it runs without them.
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.sampled_from([max(1, n - 5), n, n + 7]), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = data.draw(st.one_of(st.integers(1, n), st.just(n)), label="distinct")
        values = (rng.random((m, d)) < rng.random(d) ** 2)[rng.permutation(n) % m].astype(np.int64)
        constant = rng.random(d) < 0.3
        values[:, constant] = rng.integers(0, 2, size=constant.sum())
        points = values.astype(np.float64)
        norms = (points * points).sum(axis=1)
        gram = points @ points.T
        k = data.draw(st.one_of(st.integers(1, min(n, 4)), st.integers(1, n)), label="k")

        onehot = np.eye(k)[rng.integers(0, k, size=n)]
        table = onehot.T @ points
        for cross in (_cluster_products(points, gram, onehot), _cluster_products(points, None, onehot)):
            assert np.array_equal(cross, points @ table.T)
        hamming = _direct_hamming(points)
        if n <= d:
            built = _inputs(values)
            assert built[0] is None
            assert [a.tobytes() for a in built[1:]] == [norms.tobytes(), gram.tobytes(), hamming.tobytes()]

        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        distinct = _n_distinct(values)
        seeds = _plusplus_seeds(None, norms, hamming, [k], distinct, ours)[0]
        steps, labels, wcss = _recorded_lloyd((None, norms, gram, hamming), seeds, 100)
        seeds = _plusplus_seeds(points, norms, None, [k], distinct, theirs)[0]
        want_steps, want_labels, want_wcss = _recorded_lloyd((points, norms, None, None), seeds, 100)
        assert [a.tobytes() for step in steps for a in step] == [a.tobytes() for step in want_steps for a in step]
        assert np.array_equal(labels, want_labels)
        assert np.float64(wcss).tobytes() == np.float64(want_wcss).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
        table = np.eye(k)[labels].T @ points
        assert np.array_equal(steps[-1][1], (table * table).sum(axis=1))

    def test_a_fit_with_more_rows_than_columns_builds_no_n_by_n_array(self):
        # numpy reports its array allocations to tracemalloc: the peak holds
        # the float64 rows, but nothing near one N x N float64 array.
        n, d = 1500, 4
        data = BinaryMatrix(np.random.default_rng(0).integers(0, 2, size=(n, d)).astype(np.uint8))
        tracemalloc.start()
        try:
            kmeans_binary(data, 3, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n * d * 8 <= peak < n * n * 8

    @pytest.mark.parametrize("shape", [(400, 400), (300, 700)], ids=["square", "wide"])
    def test_a_fit_with_no_more_rows_than_columns_stays_below_the_rows_plus_two_n_by_n_arrays(self, shape):
        # The Gram matrix is built beside the float64 rows, and the rows are
        # dropped before the Hamming matrix is built beside the Gram matrix.
        n, d = shape
        data = BinaryMatrix(np.random.default_rng(0).integers(0, 2, size=(n, d)).astype(np.uint8))
        tracemalloc.start()
        try:
            kmeans_binary(data, 3, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n * d * 8 + n * n * 8 <= peak < n * d * 8 + 2 * n * n * 8

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            data = BinaryMatrix(rng.integers(0, 2, size=(12, 4)).astype(np.uint8))
            labels = kmeans_binary(data, 5, rng=rng)
            assert len(np.unique(labels)) == 5


class TestGapStatistic:
    def test_identical_rows_choose_one_cluster(self):
        data = BinaryMatrix(np.tile([1, 0, 1, 0, 1, 1], (10, 1)))
        result = gap_statistic(data, k_max=5, n_refs=4, rng=np.random.default_rng(0))
        assert result.chosen_k == 1

    def test_a_non_finite_gap_never_passes_the_gap_rule(self):
        # Six distinct rows: no k <= 5 separates them, but at each k >= 2 some
        # reference draw is separated exactly, with a WCSS of 0, so its gap is
        # -inf; the rule compares no pair of gaps and k_max is chosen.
        result = gap_statistic(BinaryMatrix(np.eye(6, dtype=np.uint8)), k_max=5, n_refs=3, rng=29)
        assert result.gap_curve[0] == pytest.approx(-np.log(2))
        assert np.array_equal(result.gap_curve[1:], np.full(4, -np.inf))
        assert result.chosen_k == 5

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

        monkeypatch.setattr(baselines, "_plusplus_seeds", no_fit)
        data = BinaryMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            gap_statistic(data, k_max=0)
        with pytest.raises(ValueError):
            gap_statistic(data, k_max=2, n_refs=0)
        with pytest.raises(ValueError, match="k_max"):
            gap_statistic(data, k_max=3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"k_max": 3.5}, "k_max must be an integer"),
            ({"k_max": True}, "k_max must be an integer"),
            ({"k_max": 2.0}, "k_max must be an integer"),
            ({"k_max": 2, "n_refs": 2.5}, "n_refs must be a positive integer"),
            ({"k_max": 2, "n_refs": True}, "n_refs must be a positive integer"),
            ({"k_max": 2, "n_refs": None}, "n_refs must be a positive integer"),
        ],
    )
    def test_rejects_counts_that_are_not_integers_before_fitting(self, kwargs, message, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(baselines, "_plusplus_seeds", no_fit)
        data = BinaryMatrix([[0, 1], [1, 0], [1, 1]])
        with pytest.raises(ValueError, match=message):
            gap_statistic(data, **kwargs)

    def test_accepts_numpy_integer_counts(self):
        data = BinaryMatrix(np.random.default_rng(4).integers(0, 2, size=(10, 5)).astype(np.uint8))
        got = gap_statistic(data, k_max=np.int64(3), n_refs=np.int32(2), rng=np.random.default_rng(0))
        want = gap_statistic(data, k_max=3, n_refs=2, rng=np.random.default_rng(0))
        assert got.chosen_k == want.chosen_k
        assert np.array_equal(got.gap_curve, want.gap_curve)

    def test_equals_the_per_k_fits(self):
        """Equal chosen k, and curves equal up to rounding, to the per-k fits with exact WCSS.

        Each WCSS here is within k_max 2^-52 relative of the exact value, the
        oracle's within 2^-53, so their logs differ by at most
        (k_max + 1) 2^-52 before numpy's log adds a few ulps of |log| to each.
        A gap is a mean of such logs minus one, a spread at most sqrt(2) times
        their largest difference; so every finite curve entry is within
        8 (k_max + 2) 2^-52 (1 + scale) of the oracle's, scale being the largest
        finite |entry| of the oracle's curves (a reference log is at most twice
        that).  A non-finite entry (a zero WCSS) is the same in both.
        """
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
            scale = max([abs(v) for curve in curves for v in curve if np.isfinite(v)], default=0.0)
            bound = 8 * (k_max + 2) * 2**-52 * (1 + scale)
            for got, want in zip((result.gap_curve, result.sk_curve, result.dispersion_curve), curves):
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), finite)
                assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
                assert (np.abs(got[finite] - want[finite]) <= bound).all()
