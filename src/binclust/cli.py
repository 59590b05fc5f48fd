"""Command-line surface.

Subcommands: ``generate`` (synthetic benchmark), ``cluster`` (annealed run),
``evaluate`` (matched accuracy), ``baseline`` (gap statistic + k-means),
``summarize`` (per-cluster feature frequencies from a report), and
``preprocess`` (term-filter / percentile binarization).

Exit codes: 0 on success, 1 on usage errors, 2 on data/format errors.
"""

import argparse
import sys

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
    p.add_argument("--report", required=True, help="JSON report input path")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("preprocess", help="turn raw observation tables into binary matrices")
    psub = p.add_subparsers(dest="transform", required=True, metavar="transform")

    q = psub.add_parser("term-filter", help="binarize a document-term count matrix")
    q.add_argument("--in", dest="in_path", required=True, help="CSV of non-negative counts")
    q.add_argument("--out", required=True, help="dense CSV output path")
    q.add_argument("--cols-out", default=None, help="optional file of kept column indices")

    q = psub.add_parser("percentile", help="binarize a real matrix at per-column percentiles")
    q.add_argument("--in", dest="in_path", required=True, help="CSV of reals; blank/na/nan cells are missing")
    q.add_argument("--pct", type=float, default=20.0, help="percentile threshold per column")
    q.add_argument("--direction", choices=("below", "above"), default="below")
    q.add_argument("--out", required=True, help="dense CSV output path (rows with missing values dropped)")
    q.add_argument("--rows-out", default=None, help="optional file of kept row indices")

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
    if pred.shape != truth.shape:
        raise io.DataFormatError(
            f"label files differ in length: {pred.shape[0]} (pred) vs {truth.shape[0]} (truth)"
        )
    print(evaluate.matched_accuracy(pred, truth))
    return 0


def _cmd_baseline(args):
    data = io.load_matrix(args.in_path)
    rng = np.random.default_rng(args.seed)
    result = baselines.gap_statistic(data, k_max=args.k_max, n_refs=args.n_refs, rng=rng)
    labels, _ = baselines.kmeans_binary(data, result.chosen_k, rng=rng)
    report = {name: np.asarray(value).tolist() for name, value in vars(result).items()}
    report.update(labels=labels.tolist(), seed=args.seed, k_max=args.k_max, n_refs=args.n_refs)
    io.save_report_dict(args.report, report)
    return 0


def _cmd_summarize(args):
    report = io.load_report(args.report)
    try:
        table = np.asarray(report.get("feature_frequencies"))
    except ValueError:  # a ragged table
        table = np.empty(0)
    if table.ndim != 2 or table.size == 0 or table.dtype.kind not in "iuf":
        raise io.DataFormatError(f"{args.report}: feature_frequencies must be a non-empty 2-d numeric table")
    io.save_csv_matrix(args.out, table.astype(np.float64))
    return 0


def _cmd_preprocess(args):
    if args.transform == "term-filter":
        counts = io.load_count_csv(args.in_path)
        data, kept = io.term_filter(counts)
        io.save_dense(args.out, data)
        if args.cols_out is not None:
            io.save_labels(args.cols_out, kept)
    else:
        values = io.load_real_csv(args.in_path)
        data, missing_rows = io.percentile_binarize(values, args.pct, args.direction)
        keep = ~missing_rows
        if not keep.any():
            raise io.DataFormatError(f"{args.in_path}: every row has missing values")
        io.save_dense(args.out, BinaryMatrix(data.values[keep]))
        if args.rows_out is not None:
            io.save_labels(args.rows_out, np.flatnonzero(keep))
    return 0


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
    try:
        return _COMMANDS[args.command](args)
    except (io.DataFormatError, ValueError, OSError) as exc:
        print(f"binclust {args.command}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
