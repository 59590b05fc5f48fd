"""End-to-end benchmark of the binclust CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload cluster-thin --seed 0 --seconds 40 --trace 0

Run from the repository root.  The workload's input matrix is generated from
``--seed`` with ``binclust.generate`` and written with ``io.save_dense``.  Then
one client runs the workload's CLI command again and again, each time as a
fresh ``python -m binclust`` process that it waits for (a closed loop of batch
jobs), until ``--seconds`` have been measured.  Every run's outputs are
checked; the report must be byte-identical across runs of the same seed.

``--trace 0`` prints the end-to-end metrics: medians over the runs of wall
time, child CPU time and child peak RSS; the median start-up time of
``python -m binclust --help``, measured once after each run; and the
matched accuracy and final K of the output.  The times are given at a fixed
reference CPU speed (see ``SpeedProbe``); the raw medians are printed on the
``# raw`` line.  ``--trace 1`` alternates untraced runs with runs of the same
argv through ``perfbench/tracer.py`` and prints the per-layer metrics of the
traced run with the median wall time at the reference speed.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Scratch files live under ``.perfbench_work/`` and are removed on exit.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from tracer import UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The program runs single-threaded: with the 2-thread OpenBLAS default the
# baseline burns twice the CPU for the same wall time on a 2-vCPU machine.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

MIN_RUNS = 3

# The speed probe: a fixed pure-Python loop, timed every PROBE_EVERY_S while
# a child runs, and the probe time that defines the reference speed.
PROBE_LOOP = 10_000
PROBE_EVERY_S = 0.05
PROBE_REF_S = 1e-3

THIN = (200, 500, 10, 20, 5)  # N, D, signal %, noise %, planted K


@dataclass(frozen=True)
class Workload:
    shape: tuple  # SyntheticSpec(N, D, info_pct, noise_pct, k_true)
    argv: tuple  # CLI command and flags; input, seed and outputs are added per run
    order_out: bool = False
    min_accuracy: float = 0.0
    spans: tuple = ()  # trace targets the command must call at least once


_CLUSTER_SPANS = (
    "io.load_matrix", "io.save_report", "cli.default_hyperparams", "sampler.run", "sampler.init_state",
    "sampler.gibbs_sweep", "sampler.remove_object", "sampler.insert_object",
    "sampler.assignment_distribution", "sampler.joint_log_score",
)

WORKLOADS = {
    # The per-object Gibbs visit dominates; the criterion-1 family at stock defaults.
    "cluster-thin": Workload(THIN, ("cluster",), min_accuracy=90.0, spans=_CLUSTER_SPANS),
    # An 8 MB matrix read and written back, few visits each at D = 2000.
    "cluster-bigfile": Workload(
        (2000, 2000, 5, 5, 10), ("cluster", "--sweeps", "3", "--block", "1"), order_out=True,
        spans=_CLUSTER_SPANS + ("io.save_dense",),
    ),
    # The baselines layer only: k-means and the gap statistic on the thin file.
    "baseline-gap": Workload(
        THIN, ("baseline",), spans=("io.load_matrix", "baselines.gap_statistic", "baselines.kmeans_binary"),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "accuracy_pct": "%", "k_final": "count",
}


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    slowdown: float  # probe time during the run over PROBE_REF_S
    errors: list
    traced: bool
    accuracy_pct: float = float("nan")
    k_final: float = float("nan")
    trace: dict = None


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SpeedProbe:
    """Measures how fast the benchmark's CPU runs while a child runs on it.

    This host's CPU speed wanders by 10-30% over seconds to minutes, and a
    probe on another core does not see it, so the benchmark and its children
    are pinned to one CPU and a thread of this process, pinned there too, times
    ``PROBE_LOOP`` iterations of a fixed loop every ``PROBE_EVERY_S`` while a
    child runs (about 2% of the CPU).  A run's slowdown is the median probe
    time during it over ``PROBE_REF_S``; its times divided by that slowdown are
    times at the reference speed.  The probe runs no program code, so a change
    to the program moves the reference-speed times just as it moves raw ones.
    """

    def __init__(self):
        self.samples = []
        self._active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._active.set()
        self._thread.join()

    def _loop(self):
        clock = time.perf_counter
        while True:
            self._active.wait()
            if self._stop.is_set():
                return
            started, x = clock(), 0
            for i in range(PROBE_LOOP):
                x += i * i % 7
            self.samples.append(clock() - started)
            self._stop.wait(PROBE_EVERY_S)

    @contextlib.contextmanager
    def sampling(self):
        """Probe while the block runs; yields a list that then holds the block's slowdown."""
        first, result = len(self.samples), []
        self._active.set()
        try:
            yield result
        finally:
            self._active.clear()
        # A child that ends before the first probe falls back on all probes so far.
        taken = self.samples[first:] or self.samples
        result.append(statistics.median(taken) / PROBE_REF_S if taken else float("nan"))


def spawn(cmd, env, stderr_path, probe):
    """Run ``cmd`` to completion.

    Returns (exit code, wall s, CPU s, peak RSS MB, slowdown) of that child alone.
    """
    with open(stderr_path, "wb") as err, probe.sampling() as slowdown:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, slowdown[0]


class Checker:
    """Checks every run's outputs against the planted truth and the first run."""

    def __init__(self, workload, truth, input_lines):
        self.workload = workload
        self.truth = truth
        self.input_lines = input_lines
        self.first_report = None

    def check(self, run, report_path, order_path):
        from binclust.evaluate import matched_accuracy

        raw = report_path.read_bytes() if report_path.is_file() else b""
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            run.errors.append("report differs from the first run's report with the same seed")
        try:
            report = json.loads(raw)
        except ValueError:
            run.errors.append("report is not valid JSON")
            return
        labels = report.get("assignments", report.get("labels"))
        k = report.get("n_clusters", report.get("chosen_k"))
        n = len(self.truth)
        if not isinstance(labels, list) or len(labels) != n or not all(isinstance(v, int) for v in labels):
            run.errors.append(f"report does not hold {n} integer labels")
            return
        if not isinstance(k, int) or sorted(set(labels)) != list(range(k)):
            run.errors.append(f"labels do not use exactly the labels 0..K-1 for the reported K={k!r}")
        run.k_final = k
        run.accuracy_pct = matched_accuracy(labels, self.truth)
        if run.accuracy_pct < self.workload.min_accuracy:
            run.errors.append(f"accuracy {run.accuracy_pct:.2f}% below the floor {self.workload.min_accuracy}%")
        if self.workload.order_out:
            order = sorted(range(n), key=labels.__getitem__)  # stable, like the CLI's argsort
            expected = b"".join(self.input_lines[i] for i in order)
            actual = order_path.read_bytes() if order_path.is_file() else b""
            if actual != expected:
                run.errors.append("--order-out is not the input's rows reordered by cluster")


def one_run(workload, checker, argv, env, work, traced, probe):
    report, order = work / "report.json", work / "order.csv"
    for stale in (report, order, work / "spans.npz"):
        stale.unlink(missing_ok=True)
    argv = [*argv, "--report", str(report)] + (["--order-out", str(order)] if workload.order_out else [])
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(work / "spans.npz"), *argv]
    else:
        cmd = [sys.executable, "-m", "binclust", *argv]
    code, wall, cpu, rss, slowdown = spawn(cmd, env, work / "run.err", probe)
    run = Run(wall, cpu, rss, slowdown, [], traced)
    if code != 0:
        run.errors.append(f"exit code {code}: {(work / 'run.err').read_text(errors='replace')[-500:]}")
    checker.check(run, report, order)
    if traced and code == 0:
        with np.load(work / "spans.npz") as spans:
            run.trace = {key: spans[key] for key in spans.files}
    return run


def measure(workload, checker, argv, env, work, seconds, trace, probe):
    """Closed loop of runs until the next one would end past ``seconds``, at least ``MIN_RUNS``.

    Untraced, each run is followed by one set-up measurement; traced, untraced
    and traced runs alternate.  Returns the runs and the set-up (wall s, slowdown) pairs.
    """
    runs, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(runs) % 2 == 1
        run = one_run(workload, checker, argv, env, work, traced, probe)
        if not trace:
            # Set-up: a fresh process imports the package and prints its help.
            code, wall, _, _, slowdown = spawn([sys.executable, "-m", "binclust", "--help"], env, work / "help.err", probe)
            setups.append((wall, slowdown))
            if code != 0:
                run.errors.append(f"--help exited {code}: {(work / 'help.err').read_text(errors='replace')[-500:]}")
        for error in run.errors:
            print(f"check failed (run {len(runs)}{', traced' if traced else ''}): {error}", file=sys.stderr)
        runs.append(run)
        typical = statistics.median(r.wall_s for r in runs) + (statistics.median(w for w, _ in setups) if setups else 0.0)
        if len(runs) >= MIN_RUNS and time.perf_counter() + typical > deadline:
            return runs, setups


def traced_metrics(workload, runs):
    """Per-layer metrics of the traced run with the median wall time at the reference speed.

    The span times themselves are raw; ``trace.overhead_frac`` compares times
    at the reference speed.
    """
    plain = [r for r in runs if not r.traced]
    traced = sorted((r for r in runs if r.traced), key=lambda r: r.wall_s / r.slowdown)
    chosen = traced[(len(traced) - 1) // 2]
    if chosen.trace is None:
        return None
    metrics, calls = layer_metrics(chosen.trace, chosen.wall_s)
    missing = [name for name in workload.spans if calls[name] == 0]
    if missing:
        chosen.errors.append(f"traced run never called {', '.join(missing)}")
        print(f"check failed (traced): {chosen.errors[-1]}", file=sys.stderr)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.wall_s / r.slowdown for r in traced) / statistics.median(r.wall_s / r.slowdown for r in plain)
        - 1.0
    )
    return metrics


def median_of_checked(values):
    """Median over the runs whose report could be scored; 0 when none could (the run is then failed)."""
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def environment(allowed_cpus):
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for path in sorted((SRC / "binclust").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(allowed_cpus),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": sorted(os.sched_getaffinity(0)),
        **PINNED_ENV,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "binclust" / "__init__.py").is_file():
        sys.exit(f"run.py: no binclust package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from binclust.datagen import SyntheticSpec, generate
    from binclust.io import save_dense

    workload = WORKLOADS[args.workload]
    # One CPU for this process, its probe thread and every child (see SpeedProbe).
    allowed_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed_cpus)})
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        # Seed 0 is the ROADMAP baseline row: data seed 1000, run seed 0, as in criterion 1.
        n, d, info, noise, k_true = workload.shape
        data, truth = generate(SyntheticSpec(n, d, info, noise, k_true=k_true, seed=1000 + args.seed))
        matrix = work / "input.csv"
        save_dense(matrix, data)
        del data
        checker = Checker(workload, truth.tolist(), matrix.read_bytes().splitlines(keepends=True))
        argv = [*workload.argv, "--in", str(matrix), "--seed", str(args.seed)]
        env = child_env()
        with SpeedProbe() as probe:
            runs, setups = measure(workload, checker, argv, env, work, args.seconds, args.trace, probe)
        layers = traced_metrics(workload, runs) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other benchmark process is using it

    failed = sum(1 for r in runs if r.errors)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  runs {len(runs)}")
    print(f"# env {json.dumps(environment(allowed_cpus), sort_keys=True)}")
    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in (layers or {}).items()}
    else:
        values = {
            "wall_s": statistics.median(r.wall_s / r.slowdown for r in runs),
            "cpu_s": statistics.median(r.cpu_s / r.slowdown for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(w / slowdown for w, slowdown in setups),
            "accuracy_pct": median_of_checked(r.accuracy_pct for r in runs),
            "k_final": median_of_checked(r.k_final for r in runs),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        print(
            f"# raw (not at the reference speed): wall_s {statistics.median(r.wall_s for r in runs):.6g}"
            f"  cpu_s {statistics.median(r.cpu_s for r in runs):.6g}  setup_s {statistics.median(w for w, _ in setups):.6g}"
        )
        print(f"# wall_s per run: {' '.join(f'{r.wall_s:.3f}' for r in runs)}")
        print(f"# slowdown per run: {' '.join(f'{r.slowdown:.3f}' for r in runs)}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {failed / len(runs):>14.6g} fraction ({failed} of {len(runs)} runs)")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(runs), "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
