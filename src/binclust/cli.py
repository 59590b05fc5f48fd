"""Command-line surface.

Subcommands: ``generate`` (synthetic benchmark), ``cluster`` (annealed run),
``evaluate`` (matched accuracy), ``baseline`` (gap statistic + k-means),
``summarize`` (per-cluster feature frequencies from a report), and
``preprocess`` (term-filter / percentile binarization).

Exit codes: 0 on success, 1 on usage errors, 2 on data/format errors.
"""

import argparse
import contextlib
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import baselines, datagen, evaluate, io, sampler
from .model import BinaryMatrix, default_hyperparams


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception instead of exiting."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="binclust", description="Cluster high-dimensional binary data.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="write a synthetic planted-cluster benchmark")
    p.add_argument("--n", type=int, required=True, help="number of objects (rows)")
    p.add_argument("--d", type=int, required=True, help="number of features (columns)")
    p.add_argument("--sd", type=float, required=True, help="signal percentage per cluster")
    p.add_argument("--sn", type=float, required=True, help="noise percentage over all cells")
    p.add_argument("--k-true", type=int, default=5, help="number of planted clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dense CSV output path")
    p.add_argument("--labels-out", required=True, help="ground-truth labels output path")

    p = sub.add_parser("cluster", help="run the annealed collapsed Gibbs sampler")
    p.add_argument("--in", dest="in_path", required=True, help="dense or sparse matrix (auto-detected)")
    p.add_argument("--alpha", type=float, default=1.0, help="concentration of the cluster prior")
    p.add_argument("--t-init", type=float, default=1.0, help="initial temperature")
    p.add_argument("--lambda", dest="lam", type=float, default=0.9, help="cooling factor")
    p.add_argument("--block", type=int, default=20, help="sweeps between cooling steps")
    p.add_argument("--sweeps", type=int, default=200, help="total sweeps")
    p.add_argument("--k-init", type=int, default=10, help="clusters at random initialization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, help="JSON report output path")
    p.add_argument("--order-out", default=None, help="optional CSV of the matrix with rows reordered by cluster")

    p = sub.add_parser("evaluate", help="print matched accuracy of predicted vs true labels")
    p.add_argument("--pred", required=True, help="predicted labels file")
    p.add_argument("--truth", required=True, help="ground-truth labels file")

    p = sub.add_parser("baseline", help="run the gap-statistic + k-means baseline")
    p.add_argument("--in", dest="in_path", required=True, help="dense or sparse matrix (auto-detected)")
    p.add_argument("--k-max", type=int, default=15)
    p.add_argument("--n-refs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True, help="JSON report output path")

    p = sub.add_parser("summarize", help="emit a report's per-cluster feature frequencies as CSV")
    p.add_argument("--report", dest="in_path", required=True, help="JSON report input path")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("preprocess", help="turn raw observation tables into binary matrices")
    psub = p.add_subparsers(dest="transform", required=True, metavar="transform")

    q = psub.add_parser("term-filter", help="binarize a document-term count matrix")
    q.add_argument("--in", dest="in_path", required=True, help="CSV of non-negative counts")
    q.add_argument("--out", required=True, help="dense CSV output path")
    q.add_argument("--cols-out", dest="kept_out", default=None, help="optional file of kept column indices")

    q = psub.add_parser("percentile", help="binarize a real matrix at per-column percentiles")
    q.add_argument("--in", dest="in_path", required=True, help="CSV of reals; blank/na/nan cells are missing")
    q.add_argument("--pct", type=float, default=20.0, help="percentile threshold per column")
    q.add_argument("--direction", choices=("below", "above"), default="below")
    q.add_argument("--out", required=True, help="dense CSV output path (rows with missing values dropped)")
    q.add_argument("--rows-out", dest="kept_out", default=None, help="optional file of kept row indices")

    return parser


def _cmd_generate(args):
    spec = datagen.SyntheticSpec(
        n_objects=args.n,
        n_features=args.d,
        info_pct=args.sd,
        noise_pct=args.sn,
        k_true=args.k_true,
        seed=args.seed,
    )
    data, labels = datagen.generate(spec)
    io.save_dense(args.out, data)
    io.save_labels(args.labels_out, labels)
    return 0


def _cmd_cluster(args):
    data = io.load_matrix(args.in_path)
    hyper = default_hyperparams(data, alpha=args.alpha)
    schedule = sampler.AnnealingSchedule(
        t_init=args.t_init, lam=args.lam, block=args.block, n_sweeps=args.sweeps
    )
    report = sampler.run(data, hyper=hyper, schedule=schedule, k_init=args.k_init, seed=args.seed)
    io.save_report(args.report, report, data)
    if args.order_out is not None:
        order = np.argsort(report.assignments, kind="stable")
        io.save_dense(args.order_out, BinaryMatrix(data.values[order]))
    return 0


def _cmd_evaluate(args):
    pred = io.load_labels(args.pred)
    truth = io.load_labels(args.truth)
    print(evaluate.matched_accuracy(pred, truth))
    return 0


def _cmd_baseline(args):
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    data = io.load_matrix(args.in_path)
    rng = np.random.default_rng(args.seed)
    result = baselines.gap_statistic(data, k_max=args.k_max, n_refs=args.n_refs, rng=rng)
    labels = baselines.kmeans_binary(data, result.chosen_k, rng=rng)
    # A curve entry that is not finite (the log of a zero WCSS, or a gap or
    # spread built on one) is written as null: strict JSON has no NaN or Infinity.
    report = {
        name: [v if math.isfinite(v) else None for v in curve.tolist()]
        for name, curve in vars(result).items() if name.endswith("_curve")
    }
    report.update(
        chosen_k=result.chosen_k, labels=labels.tolist(), seed=args.seed, k_max=args.k_max, n_refs=args.n_refs
    )
    io.save_report_dict(args.report, report)
    return 0


def _cmd_summarize(args):
    report = io.load_report(args.in_path)
    try:
        table = np.asarray(report.get("feature_frequencies"))
    except ValueError:  # a ragged table
        table = np.empty(0)
    # NaN compares false, and JSON's 1e400 parses to inf: both fall outside [0, 1].
    if table.ndim != 2 or table.size == 0 or table.dtype.kind not in "iuf" or not ((table >= 0) & (table <= 1)).all():
        raise io.DataFormatError(
            f"{args.in_path}: feature_frequencies must be a non-empty 2-d numeric table with entries in [0, 1]"
        )
    io.save_csv_matrix(args.out, table.astype(np.float64))
    return 0


def _cmd_preprocess(args):
    if args.transform == "term-filter":
        data, kept = _transformed(args.in_path, io.term_filter, io.load_count_csv(args.in_path))
    else:
        values = io.load_real_csv(args.in_path)
        data, missing_rows = _transformed(args.in_path, io.percentile_binarize, values, args.pct, args.direction)
        if missing_rows.all():
            raise io.DataFormatError(f"{args.in_path}: every row has missing values")
        kept = np.flatnonzero(~missing_rows)
        data = BinaryMatrix(data.values[kept])
    io.save_dense(args.out, data)
    if args.kept_out is not None:
        io.save_labels(args.kept_out, kept)
    return 0


def _transformed(path, transform, table, *options):
    """``transform(table, *options)``; a refusal of the table's content names ``path``, the file it was read from."""
    try:
        return transform(table, *options)
    except io.DataFormatError as exc:
        raise io.DataFormatError(f"{path}: {exc}") from None


# Every argument that names an output file, by its dest; a command reads in_path.
_OUTPUTS = ("out", "labels_out", "report", "order_out", "kept_out")


def _identity(path):
    """Which file ``path`` is, equal for every spelling, symlink and hard link of
    one file: its ``(st_dev, st_ino)`` where it exists, else its resolved path;
    and its ``os.stat`` result, or the ``OSError`` that ``os.stat`` raised."""
    try:
        st = os.stat(path)
    except OSError as exc:
        return os.path.realpath(path), exc
    return (st.st_dev, st.st_ino), st


# Outputs under these stay direct writes: /dev/stdout, say, may resolve to a
# regular file that a shell has open, or to a name that is no file's.
_DIRECT_ROOTS = ("/dev/", "/proc/")


def _stage_outputs(args, staged):
    """Refuse or stage each output in ``args``, in ``_OUTPUTS`` order, from one
    ``os.stat`` of its path.

    Refused, before any work: an output that cannot be written, or that is the
    input or another output and not a special file such as /dev/null.  The
    directory tested is that of the path's resolved target, where a symlink's
    bytes land.  Every other output that is a regular file, or not there yet,
    is pointed at a new temporary file in that directory, and ``(temporary,
    target, mode)`` is appended to ``staged``: ``mode`` is the target's
    permission bits, or ``0o666 & ~umask`` for a new file.  A special file, a
    path under ``_DIRECT_ROOTS`` and a target in a directory that cannot be
    written keep direct writes.  A refusal may follow an earlier output's
    staging: the caller unlinks what ``staged`` holds."""
    umask = os.umask(0)
    os.umask(umask)
    given = vars(args)
    taken = {_identity(given["in_path"])[0]: f"the input {given['in_path']}"} if "in_path" in given else {}
    for name in [name for name in _OUTPUTS if given.get(name) is not None]:
        path = given[name]
        (key, st), target = _identity(path), os.path.realpath(path)
        directory, exists = os.path.dirname(target), isinstance(st, os.stat_result)
        mode = st.st_mode if exists else stat.S_IFREG | (0o666 & ~umask)
        if stat.S_ISDIR(mode):
            raise ValueError(f"cannot write {path}: it is a directory")
        if not os.path.basename(path):
            raise ValueError(f"cannot write {path!r}: it names no file")
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {path}: directory {directory} does not exist")
        writable = os.access(directory, os.W_OK)
        if not (os.access(path, os.W_OK) if exists else writable):
            raise ValueError(f"cannot write {path}: permission denied")
        if key in taken and stat.S_ISREG(mode):
            raise ValueError(f"cannot write {path}: it is the same file as {taken[key]}")
        taken[key] = f"the output {path}"
        if not (exists or isinstance(st, FileNotFoundError)):
            raise st  # a symlink loop, say: nothing could be written there
        if stat.S_ISREG(mode) and writable and not os.path.abspath(path).startswith(_DIRECT_ROOTS):
            fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=directory)
            os.close(fd)
            staged.append((temp, target, stat.S_IMODE(mode)))
            given[name] = temp


_COMMANDS = {
    "generate": _cmd_generate,
    "cluster": _cmd_cluster,
    "evaluate": _cmd_evaluate,
    "baseline": _cmd_baseline,
    "summarize": _cmd_summarize,
    "preprocess": _cmd_preprocess,
}


def cli_main(argv):
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits 0 through here
        return int(exc.code or 0)
    # Outputs are written to temporary files, moved into place only once the
    # command has returned: a command that fails leaves every target as it was.
    staged = []
    try:
        _stage_outputs(args, staged)
        code = _COMMANDS[args.command](args)
        for temp, target, mode in staged:
            os.chmod(temp, mode)
            os.replace(temp, target)
        staged.clear()
        return code
    except (io.DataFormatError, ValueError, OSError) as exc:
        print(f"binclust {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's says what it could not allocate
        print(f"binclust {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        for temp, _, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
