"""Span recorder for the traced benchmark run, and the arithmetic over its spans.

The recorder replaces public ``binclust`` functions at the names where the
program looks them up (``binclust.sampler.assignment_distribution``, not
``binclust.model.assignment_distribution``, because the sampler imported it
into its own namespace).  Each call becomes one span: name, start, end and
the span that was open when it began.  Counters are taken at the same
boundaries, from outside the calls: bytes read and written by ``io``, cells
scored by the model, and the sampler's births, deaths and moves.  Spans stay
in memory and are written out once, when the traced command has ended.

Run as a script, this module is the traced child process::

    PYTHONPATH=src python perfbench/tracer.py SPANS.npz cluster --in data.csv ...

It runs the argv through ``binclust.cli.cli_main`` with every target wrapped,
writes the spans to ``SPANS.npz`` and exits with the command's exit code.  A
target that no longer exists makes it exit with code 3 before anything runs.
"""

import contextlib
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Wrapped name -> layer that owns the work.  Keys are "<module>.<attribute>"
# under the ``binclust`` package, i.e. the place the name is looked up.
# ``baselines.BinaryMatrix`` is the validation of each gap reference draw,
# which is the model's data type, so it is model time.
TARGETS = {
    "sampler.run": "sampler",
    "sampler.init_state": "sampler",
    "sampler.gibbs_sweep": "sampler",
    "sampler.remove_object": "sampler",
    "sampler.insert_object": "sampler",
    "sampler.assignment_distribution": "model",
    "sampler.joint_log_score": "model",
    "io.load_matrix": "io",
    "io.save_report": "io",
    "io.save_dense": "io",
    "cli.default_hyperparams": "model",
    "baselines.gap_statistic": "baselines",
    "baselines.kmeans_binary": "baselines",
    "baselines.BinaryMatrix": "model",
}

LAYERS = ("io", "model", "sampler", "baselines")

MISSING_TARGET_EXIT = 3


class MissingTraceTarget(RuntimeError):
    """A name the traced run must wrap is not there any more."""


class Recorder:
    """Spans and outside counters of one traced command, kept in memory."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = []
        self.counters = Counter()
        self.labels = []  # label vector after init, then after every sweep
        self._source_size = 0  # size of the detached object's cluster before removal
        self._left = None  # (old label, source cluster died) of the detached object

    def wrap(self, name, fn):
        """Return ``fn`` recording one span per call, plus the counters for ``name``."""
        before, after = _OBSERVERS.get(name, (None, None))
        names, parents, starts, ends, open_ = self.names, self.parents, self.starts, self.ends, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(starts)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def arrays(self):
        """Spans, label vectors and counters as arrays, the form :func:`layer_metrics` reads."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {
            "table": np.array(table, dtype=str),
            "names": np.array([index[n] for n in self.names], dtype=np.int32),
            "parents": np.array(self.parents, dtype=np.int64),
            "starts": np.array(self.starts, dtype=np.float64),
            "ends": np.array(self.ends, dtype=np.float64),
            "labels": np.array(self.labels, dtype=np.int64) if self.labels else np.empty((0, 0), dtype=np.int64),
            "counters": np.array(json.dumps(dict(self.counters), sort_keys=True)),
        }

    def dump(self, path):
        np.savez(path, **self.arrays())


# -- outside counters --------------------------------------------------------
# Each observer sees the call's positional arguments exactly as the program
# passes them (the CLI and the sampler pass these positionally).


def _bytes_read(rec, args):
    rec.counters["io.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(rec, args, _result):
    rec.counters["io.bytes_written"] += os.path.getsize(args[0])


def _cells(rec, args):
    _, state, data = args[:3]
    rec.counters["model.cells_scored"] += (state.n_clusters + 1) * data.n_features


def _before_remove(rec, args):
    state, i = args[:2]
    rec._source_size = int(state.sizes[state.assignments[i]])


def _after_remove(rec, _args, old_label):
    rec._left = (int(old_label), rec._source_size == 1)


def _before_insert(rec, args):
    # A visit changes the partition unless the object goes back where it
    # was: into its surviving source cluster, or into a fresh singleton after
    # leaving one.  Labels above a dead cluster shift down, so an existing
    # option can only equal the source when the source survived.
    option = args[2]
    old, died = rec._left
    new = isinstance(option, str)
    if died and not new:
        rec.counters["sampler.deaths"] += 1
        rec.counters["sampler.moves"] += 1
    elif not died and new:
        rec.counters["sampler.births"] += 1
        rec.counters["sampler.moves"] += 1
    elif not died and int(option) != old:
        rec.counters["sampler.moves"] += 1


def _keep_init_labels(rec, _args, state):
    rec.labels.append(state.assignments.copy())


def _keep_sweep_labels(rec, args, _result):
    rec.labels.append(args[0].assignments.copy())


_OBSERVERS = {
    "io.load_matrix": (_bytes_read, None),
    "io.save_report": (None, _bytes_written),
    "io.save_dense": (None, _bytes_written),
    "sampler.assignment_distribution": (_cells, None),
    "sampler.remove_object": (_before_remove, _after_remove),
    "sampler.insert_object": (_before_insert, None),
    "sampler.init_state": (None, _keep_init_labels),
    "sampler.gibbs_sweep": (None, _keep_sweep_labels),
}


@contextlib.contextmanager
def installed(recorder):
    """Wrap every target for the duration of the block; fail if any is missing."""
    found = []
    for name in TARGETS:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"binclust.{module_name}")
        if not hasattr(module, attr):
            raise MissingTraceTarget(f"trace target binclust.{name} does not exist")
        found.append((module, attr, getattr(module, attr), name))
    for module, attr, original, name in found:
        setattr(module, attr, recorder.wrap(name, original))
    try:
        yield recorder
    finally:
        for module, attr, original, _ in found:
            setattr(module, attr, original)


# -- arithmetic over spans ----------------------------------------------------


def self_times(parents, starts, ends):
    """Each span's duration minus the part of its interval its child spans cover."""
    out = [float(e - s) for s, e in zip(starts, ends)]
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[int(p)].append((starts[i], ends[i]))
    for p, intervals in children.items():
        lo, hi = starts[p], ends[p]
        reach, covered = lo, 0.0
        for s, e in sorted(intervals):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def frozen_at(labels):
    """First sweep after which the label vector never changes again.

    ``labels[0]`` holds the labels after initialization and ``labels[s]`` those
    after sweep ``s``; 0 means the initial labels were never changed.
    """
    s = len(labels) - 1
    while s > 0 and np.array_equal(labels[s - 1], labels[-1]):
        s -= 1
    return s


UNITS = {
    "io.load_matrix_s": "s", "io.load_mb_per_s": "MB/s", "io.save_report_s": "s", "io.save_dense_s": "s",
    "io.bytes_read": "bytes", "io.bytes_written": "bytes",
    "model.default_hyperparams_s": "s", "model.assignment_distribution_s": "s",
    "model.assignment_distribution_calls": "count", "model.assignment_distribution_us": "us",
    "model.cells_scored": "count", "model.ns_per_cell": "ns", "model.joint_log_score_s": "s",
    "model.joint_log_score_calls": "count", "model.binary_matrix_s": "s",
    "sampler.run_s": "s", "sampler.init_state_s": "s", "sampler.gibbs_sweep_self_s": "s",
    "sampler.remove_object_s": "s", "sampler.insert_object_s": "s", "sampler.visit_us": "us",
    "sampler.sweep_ms_p50": "ms", "sampler.sweep_ms_p95": "ms", "sampler.visits": "count",
    "sampler.births": "count", "sampler.deaths": "count", "sampler.moves": "count",
    "sampler.frozen_at": "sweep", "sampler.k_mean": "count",
    "baselines.gap_statistic_s": "s", "baselines.gap_self_s": "s", "baselines.kmeans_binary_s": "s",
    "baselines.kmeans_binary_calls": "count", "baselines.kmeans_ms_per_call": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s", "cli.unaccounted_s": "s", "trace.overhead_frac": "fraction",
}


def layer_metrics(trace, wall_s):
    """Per-layer metrics of one traced command from its spans and counters.

    ``trace`` is the mapping :meth:`Recorder.arrays` returns (or the ``.npz``
    that :meth:`Recorder.dump` writes); ``wall_s`` is the traced command's wall
    time, which the layer self times plus ``cli.unaccounted_s`` add up to.
    """
    table = [str(n) for n in trace["table"]]
    names = [table[i] for i in trace["names"]]
    starts, ends = trace["starts"], trace["ends"]
    own = self_times(trace["parents"], starts, ends)
    counters = Counter(json.loads(str(trace["counters"])))
    dur, self_, calls = defaultdict(float), defaultdict(float), Counter(names)
    durations = defaultdict(list)
    for name, s, e, t in zip(names, starts, ends, own):
        dur[name] += e - s
        self_[name] += t
        durations[name].append(e - s)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in self_.items():
        layer_self[TARGETS[name]] += t

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    labels = trace["labels"]
    sweeps_ms = np.asarray(durations["sampler.gibbs_sweep"]) * 1e3
    visits = calls["sampler.remove_object"]
    cells = counters["model.cells_scored"]
    m = {
        "io.load_matrix_s": dur["io.load_matrix"],
        "io.load_mb_per_s": per(counters["io.bytes_read"] / 1e6, dur["io.load_matrix"], 1.0),
        "io.save_report_s": dur["io.save_report"],
        "io.save_dense_s": dur["io.save_dense"],
        "io.bytes_read": counters["io.bytes_read"],
        "io.bytes_written": counters["io.bytes_written"],
        "model.default_hyperparams_s": dur["cli.default_hyperparams"],
        "model.assignment_distribution_s": dur["sampler.assignment_distribution"],
        "model.assignment_distribution_calls": calls["sampler.assignment_distribution"],
        "model.assignment_distribution_us": per(
            dur["sampler.assignment_distribution"], calls["sampler.assignment_distribution"], 1e6
        ),
        "model.cells_scored": cells,
        "model.ns_per_cell": per(dur["sampler.assignment_distribution"], cells, 1e9),
        "model.joint_log_score_s": dur["sampler.joint_log_score"],
        "model.joint_log_score_calls": calls["sampler.joint_log_score"],
        "model.binary_matrix_s": dur["baselines.BinaryMatrix"],
        "sampler.run_s": dur["sampler.run"],
        "sampler.init_state_s": dur["sampler.init_state"],
        "sampler.gibbs_sweep_self_s": self_["sampler.gibbs_sweep"],
        "sampler.remove_object_s": dur["sampler.remove_object"],
        "sampler.insert_object_s": dur["sampler.insert_object"],
        "sampler.visit_us": per(dur["sampler.gibbs_sweep"], visits, 1e6),
        "sampler.sweep_ms_p50": float(np.percentile(sweeps_ms, 50)) if sweeps_ms.size else 0.0,
        "sampler.sweep_ms_p95": float(np.percentile(sweeps_ms, 95)) if sweeps_ms.size else 0.0,
        "sampler.visits": visits,
        "sampler.births": counters["sampler.births"],
        "sampler.deaths": counters["sampler.deaths"],
        "sampler.moves": counters["sampler.moves"],
        "sampler.frozen_at": frozen_at(labels) if len(labels) else 0,
        "sampler.k_mean": float(np.mean(labels[1:].max(axis=1) + 1)) if len(labels) > 1 else 0.0,
        "baselines.gap_statistic_s": dur["baselines.gap_statistic"],
        "baselines.gap_self_s": self_["baselines.gap_statistic"],
        "baselines.kmeans_binary_s": dur["baselines.kmeans_binary"],
        "baselines.kmeans_binary_calls": calls["baselines.kmeans_binary"],
        "baselines.kmeans_ms_per_call": per(dur["baselines.kmeans_binary"], calls["baselines.kmeans_binary"], 1e3),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = wall_s
    m["cli.unaccounted_s"] = wall_s - sum(layer_self.values())
    return m, calls


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    try:
        with installed(recorder):
            from binclust.cli import cli_main

            code = cli_main(cli_argv)
    except MissingTraceTarget as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return MISSING_TARGET_EXIT
    recorder.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
