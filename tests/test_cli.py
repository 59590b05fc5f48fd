"""Command-line surface: subcommands, pipelines, exit codes."""

import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from binclust import baselines, datagen, io
from binclust.cli import cli_main
from binclust.evaluate import matched_accuracy
from binclust.io import load_dense, load_labels, load_report


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*argv, timeout, **options):
    """Run ``python argv`` in a fresh process with the package on its path; ``options``
    go to ``subprocess.run``, which captures the output unless they say otherwise."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    options = {"capture_output": True, **options}
    return subprocess.run([sys.executable, *argv], env=env, text=True, timeout=timeout, **options)


def _run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_matrix_and_labels(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        labels_out = tmp_path / "labels.txt"
        code, _, _ = _run(
            capsys,
            "generate", "--n", "30", "--d", "20", "--sd", "20", "--sn", "5",
            "--k-true", "3", "--seed", "1", "--out", str(out), "--labels-out", str(labels_out),
        )
        assert code == 0
        data = load_dense(out)
        labels = load_labels(labels_out)
        assert data.n_objects == 30 and data.n_features == 20
        assert set(labels.tolist()) == {0, 1, 2}

    def test_invalid_spec_is_data_error(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            "generate", "--n", "5", "--d", "10", "--sd", "20", "--sn", "5",
            "--k-true", "9", "--out", str(tmp_path / "x.csv"), "--labels-out", str(tmp_path / "y.txt"),
        )
        assert code == 2
        assert "k_true" in err

    def test_as_many_clusters_as_objects_returns(self, tmp_path):
        # A fresh process, so a generator that never returns fails on the timeout.
        out, labels_out = tmp_path / "g.csv", tmp_path / "g.txt"
        done = _python(
            "-m", "binclust", "generate", "--n", "30", "--d", "5", "--sd", "10", "--sn", "1",
            "--k-true", "30", "--out", str(out), "--labels-out", str(labels_out), timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert sorted(load_labels(labels_out).tolist()) == list(range(30))


class TestClusterEvaluatePipeline:
    def test_end_to_end_accuracy(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        truth_path = tmp_path / "truth.txt"
        report_path = tmp_path / "report.json"
        pred_path = tmp_path / "pred.txt"

        code, _, _ = _run(
            capsys,
            "generate", "--n", "60", "--d", "40", "--sd", "25", "--sn", "5",
            "--k-true", "3", "--seed", "7", "--out", str(data_path), "--labels-out", str(truth_path),
        )
        assert code == 0
        code, _, _ = _run(
            capsys,
            "cluster", "--in", str(data_path), "--sweeps", "60", "--k-init", "6",
            "--seed", "3", "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        np.savetxt(pred_path, np.asarray(report["assignments"], dtype=int), fmt="%d")
        code, out, _ = _run(capsys, "evaluate", "--pred", str(pred_path), "--truth", str(truth_path))
        assert code == 0
        assert float(out.strip()) == 100.0

    def test_same_seed_byte_identical_reports(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        _run(
            capsys,
            "generate", "--n", "25", "--d", "15", "--sd", "20", "--sn", "10",
            "--seed", "2", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        for path in (first, second):
            code, _, _ = _run(
                capsys,
                "cluster", "--in", str(data_path), "--sweeps", "30", "--k-init", "5",
                "--seed", "9", "--report", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_order_out_rows_sorted_by_cluster(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        _run(
            capsys,
            "generate", "--n", "20", "--d", "12", "--sd", "25", "--sn", "0",
            "--k-true", "2", "--seed", "4", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )
        report_path = tmp_path / "report.json"
        ordered_path = tmp_path / "ordered.csv"
        code, _, _ = _run(
            capsys,
            "cluster", "--in", str(data_path), "--sweeps", "40", "--k-init", "4",
            "--seed", "0", "--report", str(report_path), "--order-out", str(ordered_path),
        )
        assert code == 0
        report = load_report(report_path)
        data = load_dense(data_path)
        ordered = load_dense(ordered_path)
        order = np.argsort(np.asarray(report["assignments"]), kind="stable")
        assert np.array_equal(ordered.values, data.values[order])

    def test_single_column_matrix_clusters(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        code, _, _ = _run(
            capsys,
            "generate", "--n", "20", "--d", "1", "--sd", "100", "--sn", "10",
            "--k-true", "2", "--seed", "0", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )
        assert code == 0
        report_path = tmp_path / "report.json"
        code, _, err = _run(
            capsys, "cluster", "--in", str(data_path), "--sweeps", "10", "--seed", "0", "--report", str(report_path)
        )
        assert code == 0, err
        assert len(load_report(report_path)["assignments"]) == 20

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--alpha", "inf"), "alpha must be finite"),
            (("--t-init", "1", "--lambda", "0.01", "--block", "1", "--sweeps", "200"), "cools to a temperature of 0"),
            (("--t-init", "1.5e-323", "--lambda", "0.45", "--block", "2", "--sweeps", "5"), "cools to a temperature of 0"),
            (("--t-init", "inf"), "t_init must be finite"),
            (("--alpha", "1e309"), "alpha must be finite"),
        ],
    )
    def test_invalid_run_settings_exit_2_before_sweeping(self, tmp_path, capsys, flags, message):
        data_path = tmp_path / "data.csv"
        data_path.write_text("0,1\n1,0\n1,1\n")
        report_path = tmp_path / "report.json"
        code, _, err = _run(
            capsys, "cluster", "--in", str(data_path), "--k-init", "2", *flags, "--report", str(report_path)
        )
        assert code == 2
        assert message in err
        assert not report_path.exists()

    @pytest.mark.parametrize("text", ["0,1,1,0,1\n", "1\n0\n1\n1\n0\n"], ids=["1x5", "5x1"])
    def test_fewer_rows_than_stock_k_init_cluster_at_stock_defaults(self, tmp_path, capsys, text):
        data_path = tmp_path / "data.csv"
        data_path.write_text(text)
        report_path = tmp_path / "report.json"
        code, _, err = _run(capsys, "cluster", "--in", str(data_path), "--report", str(report_path))
        assert code == 0, err
        report = load_report(report_path)
        assert len(report["assignments"]) == text.count("\n")
        assert report["k_init"] == 10

    def test_sparse_input_autodetected(self, tmp_path, capsys):
        sparse_path = tmp_path / "data.sparse"
        sparse_path.write_text("4 3\n0 0\n1 1\n2 2\n3 0\n")
        report_path = tmp_path / "report.json"
        code, _, _ = _run(
            capsys,
            "cluster", "--in", str(sparse_path), "--sweeps", "10", "--k-init", "2",
            "--seed", "0", "--report", str(report_path),
        )
        assert code == 0
        assert len(load_report(report_path)["assignments"]) == 4

    def test_leading_blank_line_autodetected(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        data_path.write_text("\n0,1\n1,0\n")
        report_path = tmp_path / "report.json"
        code, _, err = _run(
            capsys, "cluster", "--in", str(data_path), "--sweeps", "5", "--k-init", "2", "--report", str(report_path)
        )
        assert code == 0, err
        assert len(load_report(report_path)["assignments"]) == 2

    def test_very_cold_start_clusters(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        truth_path = tmp_path / "truth.txt"
        report_path = tmp_path / "report.json"
        code, _, _ = _run(
            capsys,
            "generate", "--n", "40", "--d", "300", "--sd", "20", "--sn", "5",
            "--k-true", "3", "--seed", "1", "--out", str(data_path), "--labels-out", str(truth_path),
        )
        assert code == 0
        code, _, err = _run(
            capsys,
            "cluster", "--in", str(data_path), "--t-init", "1e-310", "--sweeps", "20",
            "--seed", "0", "--report", str(report_path),
        )
        assert code == 0, err
        report = load_report(report_path)
        assert report["n_clusters"] == 3
        assert matched_accuracy(report["assignments"], load_labels(truth_path)) == 100.0

    def test_mismatched_label_lengths_exit_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n1\n")
        truth.write_text("0\n1\n1\n")
        code, _, err = _run(capsys, "evaluate", "--pred", str(pred), "--truth", str(truth))
        assert code == 2
        assert "length" in err

    def test_impossible_sparse_header_exit_2(self, tmp_path, capsys):
        in_path = tmp_path / "data.sparse"
        in_path.write_text("100000000 100000000\n0 1\n")
        code, _, err = _run(capsys, "cluster", "--in", str(in_path), "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert "does not fit in memory" in err

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["no-bytes", "blank-lines"])
    @pytest.mark.parametrize("command", ["cluster", "baseline"])
    def test_an_empty_matrix_file_exit_2_as_empty(self, tmp_path, capsys, command, text):
        data_path = tmp_path / "empty.csv"
        data_path.write_text(text)
        code, _, err = _run(capsys, command, "--in", str(data_path), "--report", str(tmp_path / "r.json"))
        assert (code, err) == (2, f"binclust {command}: {data_path}: empty file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["empty.csv"]

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            "cluster", "--in", str(tmp_path / "absent.csv"), "--report", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert err.strip() != ""


@pytest.mark.parametrize("command", ["evaluate", "cluster", "baseline", "summarize", "term-filter", "percentile"])
def test_an_input_that_is_not_utf8_exit_2_naming_it(tmp_path, capsys, command):
    bad, good, out = tmp_path / "bad.txt", tmp_path / "good.txt", tmp_path / "out"
    bad.write_bytes(b"\xff0\n1\n")
    good.write_text("0\n1\n")
    argv = {
        "evaluate": ("evaluate", "--pred", str(bad), "--truth", str(good)),
        "cluster": ("cluster", "--in", str(bad), "--report", str(out)),
        "baseline": ("baseline", "--in", str(bad), "--report", str(out)),
        "summarize": ("summarize", "--report", str(bad), "--out", str(out)),
        "term-filter": ("preprocess", "term-filter", "--in", str(bad), "--out", str(out)),
        "percentile": ("preprocess", "percentile", "--in", str(bad), "--out", str(out)),
    }[command]
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err == f"binclust {argv[0]}: {bad}: not UTF-8 text: invalid start byte b'\\xff'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "baseline"])
def test_an_input_led_by_a_byte_order_mark_reports_as_without_it(tmp_path, capsys, command):
    flags = ("--k-max", "2") if command == "baseline" else ()
    reports = []
    for name, head in (("plain.csv", b""), ("marked.csv", b"\xef\xbb\xbf")):
        data_path, report_path = tmp_path / name, tmp_path / (name + ".json")
        data_path.write_bytes(head + b"0,1\n1,0\n")
        code, _, err = _run(capsys, command, "--in", str(data_path), *flags, "--report", str(report_path))
        assert (code, err) == (0, "")
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["generate", "cluster", "baseline"])
def test_a_negative_seed_exit_2_naming_the_seed(tmp_path, capsys, command):
    data_path, out_path = tmp_path / "data.csv", tmp_path / "out"
    data_path.write_text("0,1\n1,0\n1,1\n")
    flags = {
        "generate": ("--n", "6", "--d", "4", "--sd", "20", "--sn", "5", "--k-true", "2",
                     "--out", str(out_path), "--labels-out", str(tmp_path / "t.txt")),
        "cluster": ("--in", str(data_path), "--k-init", "2", "--report", str(out_path)),
        "baseline": ("--in", str(data_path), "--k-max", "2", "--report", str(out_path)),
    }[command]
    code, _, err = _run(capsys, command, *flags, "--seed", "-1")
    assert code == 2
    assert f"binclust {command}: seed must be a non-negative integer, got -1" in err
    assert not out_path.exists()


# Per subcommand that writes files: its arguments before the output flags,
# its first and second output flags, and the loader or generator that must
# not run when an output is bad.
_WRITERS = {
    "cluster": (["cluster", "--in", "{data}"], "--report", "--order-out", (io, "load_matrix")),
    "baseline": (["baseline", "--in", "{data}"], "--report", None, (io, "load_matrix")),
    "generate": (
        ["generate", "--n", "20", "--d", "10", "--sd", "20", "--sn", "5", "--k-true", "2"],
        "--out", "--labels-out", (datagen, "generate"),
    ),
    "summarize": (["summarize", "--report", "{data}"], "--out", None, (io, "load_report")),
    "term-filter": (["preprocess", "term-filter", "--in", "{data}"], "--out", "--cols-out", (io, "load_count_csv")),
    "percentile": (["preprocess", "percentile", "--in", "{data}"], "--out", "--rows-out", (io, "load_real_csv")),
}


_NEEDS_HARD_LINKS = pytest.mark.skipif(not hasattr(os, "link"), reason="os.link is unavailable")
# Root passes os.access on any directory, so a read-only one refuses no one there.
_NOT_ROOT = pytest.mark.skipif(getattr(os, "geteuid", lambda: -1)() == 0, reason="root may write any directory")


@pytest.mark.parametrize(
    "command, bad",
    [("cluster", "missing-dir"), ("cluster", "is-a-dir"), ("cluster", "order-out"),
     ("baseline", "missing-dir"), ("baseline", "is-a-dir"),
     ("generate", "missing-dir"), ("generate", "is-a-dir"), ("generate", "labels-out"),
     ("summarize", "missing-dir"), ("summarize", "is-a-dir"),
     ("term-filter", "missing-dir"), ("term-filter", "is-a-dir"), ("term-filter", "cols-out"),
     ("percentile", "missing-dir"), ("percentile", "is-a-dir"), ("percentile", "rows-out")]
    # Both outputs one file: the same spelling, another spelling, a symlink.
    + [(command, bad) for command in ("cluster", "generate", "term-filter", "percentile")
       for bad in ("same", "dot-slash", "symlink")]
    # An output that is the input.
    + [(command, "input") for command in ("cluster", "baseline", "summarize", "term-filter", "percentile")]
    # An output with no file name.
    + [(command, bad) for command in _WRITERS for bad in ("empty", "sub/", "new/")]
    # An output hard-linked to the input, and two outputs hard-linked to each other.
    + [pytest.param(command, "hard-link-input", marks=_NEEDS_HARD_LINKS)
       for command in ("cluster", "baseline", "summarize", "term-filter", "percentile")]
    + [pytest.param(command, "hard-links", marks=_NEEDS_HARD_LINKS)
       for command in ("cluster", "generate", "term-filter", "percentile")]
    # An output in a directory that may not be written.
    + [pytest.param(command, "read-only-dir", marks=_NOT_ROOT) for command in _WRITERS]
    # An output that is a symlink into a directory that does not exist, or into one that may not be written.
    + [(command, "link-to-missing-dir") for command in _WRITERS]
    + [pytest.param(command, "link-to-read-only-dir", marks=_NOT_ROOT) for command in _WRITERS],
)
def test_an_output_path_that_cannot_be_written_exit_2_before_loading(tmp_path, capsys, monkeypatch, command, bad):
    # No file may appear, and the input and every file planted for the case keep
    # their bytes: a bad second output must not leave the first written.
    monkeypatch.chdir(tmp_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("0,1\n1,0\n1,1\n")
    (tmp_path / "sub").mkdir()
    links = {"link.out": "first.out"}
    if bad.startswith("link-to-"):
        links["bad-link.out"] = "nodir/x.out" if bad == "link-to-missing-dir" else "sub/r.out"
    for link, target in links.items():
        (tmp_path / link).symlink_to(target)
    hard_links = {"hard-link-input": ("data.csv", "hard.csv"), "hard-links": ("first.out", "second.out")}
    if bad in hard_links:
        target, link = (tmp_path / name for name in hard_links[bad])
        if not target.exists():
            target.write_text("kept\n")
        os.link(target, link)
    if bad in ("read-only-dir", "link-to-read-only-dir"):
        (tmp_path / "sub").chmod(0o555)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    args, first, second, (module, work) = _WRITERS[command]
    absent = tmp_path / "absent" / "x.csv"
    argv = [arg.format(data=data_path) for arg in args]
    first_paths = {
        "missing-dir": absent, "is-a-dir": tmp_path / "sub", "input": "./data.csv", "empty": "", "sub/": "sub/", "new/": "new/",
        "hard-link-input": "hard.csv", "read-only-dir": "sub/r.out",
        "link-to-missing-dir": "bad-link.out", "link-to-read-only-dir": "bad-link.out",
    }
    argv += [first, str(first_paths.get(bad, tmp_path / "first.out"))]
    if second is not None:
        second_paths = {
            "same": tmp_path / "first.out", "dot-slash": "./first.out", "symlink": "link.out", "hard-links": "second.out",
        }
        argv += [second, str(absent if second == f"--{bad}" else second_paths.get(bad, tmp_path / "second.out"))]

    def no_work(*args):
        raise AssertionError("worked before checking the output paths")

    monkeypatch.setattr(module, work, no_work)
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert f"binclust {argv[0]}: cannot write " in err
    # A symlink's refusal names the directory its bytes would land in.
    reasons = {"link-to-missing-dir": f"directory {tmp_path.resolve() / 'nodir'} does not exist",
               "link-to-read-only-dir": "permission denied"}
    if bad in reasons:
        assert f"cannot write bad-link.out: {reasons[bad]}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*links, "sub", *before})
    assert list((tmp_path / "sub").iterdir()) == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_an_output_in_a_symlink_loop_exit_2_before_loading_and_keeps_the_links(tmp_path, capsys, monkeypatch):
    # No check refuses it, but os.stat's own error does, before any work.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("0,1\n1,0\n1,1\n")
    (tmp_path / "a.json").symlink_to("b.json")
    (tmp_path / "b.json").symlink_to("a.json")

    def no_work(*args):
        raise AssertionError("worked before checking the output paths")

    monkeypatch.setattr(io, "load_matrix", no_work)
    code, _, err = _run(capsys, "cluster", "--in", "data.csv", "--report", "a.json")
    assert code == 2
    assert f"binclust cluster: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: 'a.json'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "data.csv"]
    assert os.readlink("a.json") == "b.json" and os.readlink("b.json") == "a.json"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_dev_null_may_take_every_output(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    data_path.write_text("0,1\n1,0\n1,1\n")
    code, out, _ = _run(
        capsys, "cluster", "--in", str(data_path), "--k-init", "2", "--sweeps", "2", "--block", "1",
        "--report", "/dev/null", "--order-out", "/dev/null",
    )
    assert (code, out) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.parametrize("old", [True, False], ids=["old-outputs", "no-outputs"])
@pytest.mark.parametrize("failing", ["report", "order-out"])
def test_a_write_that_fails_leaves_every_output_as_it_was(tmp_path, capsys, failing, old):
    resource = pytest.importorskip("resource")
    data_path, full, out = tmp_path / "data.csv", tmp_path / "full", tmp_path / "out"
    full.mkdir()
    out.mkdir()
    spec = datagen.SyntheticSpec(n_objects=200, n_features=200, info_pct=20, noise_pct=5, k_true=3, seed=0)
    io.save_dense(data_path, datagen.generate(spec)[0])
    argv = ["cluster", "--in", str(data_path), "--sweeps", "2", "--block", "1"]
    # A run with no limit gives each output's size: the report, written first, is the smaller.
    code, _, _ = _run(capsys, *argv, "--report", str(full / "r.json"), "--order-out", str(full / "o.csv"))
    sizes = [(full / name).stat().st_size for name in ("r.json", "o.csv")]
    assert code == 0 and sizes[0] < sizes[1]
    limit = sizes[0] // 2 if failing == "report" else (sizes[0] + sizes[1]) // 2
    if old:
        (out / "r.json").write_text("{}\n")
        (out / "o.csv").write_text("0,1\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # The limit acts on the child alone: a write past it fails with EFBIG.
    done = _python(
        "-m", "binclust", *argv, "--report", str(out / "r.json"), "--order-out", str(out / "o.csv"), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert done.returncode == 2, done.stderr
    assert "File too large" in done.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_replaced_output_keeps_its_mode_and_a_symlink_its_target(tmp_path, capsys):
    data_path, kept, link = tmp_path / "data.csv", tmp_path / "kept.json", tmp_path / "link.json"
    data_path.write_text("0,1\n1,0\n1,1\n")
    kept.write_text("{}\n")
    kept.chmod(0o604)
    link.symlink_to("kept.json")
    umask = os.umask(0o027)
    try:
        code, _, err = _run(
            capsys, "cluster", "--in", str(data_path), "--k-init", "2", "--sweeps", "2", "--block", "1",
            "--report", str(link), "--order-out", str(tmp_path / "new.csv"),
        )
    finally:
        os.umask(umask)
    assert (code, err) == (0, "")
    assert os.readlink(link) == "kept.json" and load_report(kept)["n_clusters"] >= 1
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "kept.json", "link.json", "new.csv"]


def test_dev_stdout_is_written_in_place_when_it_is_a_regular_file(tmp_path):
    data_path, captured = tmp_path / "data.csv", tmp_path / "captured.json"
    data_path.write_text("0,1\n1,0\n1,1\n")
    with open(captured, "w") as stdout:
        inode = os.fstat(stdout.fileno()).st_ino
        done = _python(
            "-m", "binclust", "cluster", "--in", str(data_path), "--k-init", "2", "--sweeps", "2", "--block", "1",
            "--report", "/dev/stdout", timeout=60, stdout=stdout, capture_output=False, stderr=subprocess.PIPE,
        )
    assert done.returncode == 0, done.stderr
    assert captured.stat().st_ino == inode and load_report(captured)["n_clusters"] >= 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["captured.json", "data.csv"]


@_NOT_ROOT
def test_an_output_in_a_read_only_directory_is_written_in_place(tmp_path, capsys):
    data_path, sub = tmp_path / "data.csv", tmp_path / "sub"
    data_path.write_text("0,1\n1,0\n1,1\n")
    sub.mkdir()
    (sub / "r.json").write_text("{}\n")
    sub.chmod(0o555)
    try:
        code, _, err = _run(
            capsys, "cluster", "--in", str(data_path), "--k-init", "2", "--sweeps", "2", "--block", "1",
            "--report", str(sub / "r.json"),
        )
        assert (code, err) == (0, "")
        assert load_report(sub / "r.json")["n_clusters"] >= 1
        assert [p.name for p in sub.iterdir()] == ["r.json"]
    finally:
        sub.chmod(0o755)


def test_importing_the_cli_loads_no_scipy_module_it_does_not_call(tmp_path):
    done = _python("-c", "import json, sys, binclust.cli; print(json.dumps(sorted(sys.modules)))", timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "scipy.optimize" not in loaded
    assert "scipy.special" not in loaded
    # A whole cluster run, partition scores included, loads no scipy at all:
    # only evaluate's matched_accuracy calls it.
    data_path, report_path = tmp_path / "data.csv", tmp_path / "report.json"
    argv = ["cluster", "--in", str(data_path), "--sweeps", "4", "--block", "2", "--report", str(report_path)]
    cli_main([
        "generate", "--n", "30", "--d", "20", "--sd", "20", "--sn", "5", "--k-true", "3",
        "--out", str(data_path), "--labels-out", str(tmp_path / "truth.txt"),
    ])
    script = (
        "import json, sys; from binclust.cli import cli_main; "
        f"code = cli_main({argv!r}); print(json.dumps([code, sorted(sys.modules)]))"
    )
    done = _python("-c", script, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    assert code == 0 and load_report(report_path)["n_clusters"] >= 1
    assert [name for name in loaded if name.startswith("scipy")] == []


def test_a_failed_allocation_exit_2_in_one_line(tmp_path, capsys, monkeypatch):
    # numpy's wording; the test allocates nothing.
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

    def refuse(spec):
        raise MemoryError(message)

    monkeypatch.setattr(datagen, "generate", refuse)
    out = tmp_path / "data.csv"
    code, stdout, err = _run(
        capsys,
        "generate", "--n", "1000000", "--d", "1000000", "--sd", "10", "--sn", "10",
        "--k-true", "2", "--seed", "0", "--out", str(out), "--labels-out", str(tmp_path / "t.txt"),
    )
    assert code == 2
    assert stdout == ""
    assert err == f"binclust generate: out of memory: {message}\n"
    assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        code, _, err = _run(capsys, "generate", "--bogus", "1")
        assert code == 1
        assert err.strip() != ""

    def test_unknown_command_exit_1(self, capsys):
        code, _, err = _run(capsys, "transmogrify")
        assert code == 1

    def test_missing_required_flag_exit_1(self, capsys):
        code, _, err = _run(capsys, "evaluate", "--pred", "only-one-side.txt")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "generate" in out


class TestBaselineCommand:
    def test_report_contents(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        _run(
            capsys,
            "generate", "--n", "40", "--d", "24", "--sd", "25", "--sn", "5",
            "--k-true", "3", "--seed", "5", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )
        report_path = tmp_path / "gap.json"
        code, _, _ = _run(
            capsys,
            "baseline", "--in", str(data_path), "--k-max", "6", "--n-refs", "4",
            "--seed", "0", "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert report["chosen_k"] == 3
        assert len(report["gap_curve"]) == 6
        assert len(report["labels"]) == 40

    def test_identical_rows_give_a_strict_json_report_with_nulls(self, tmp_path, capsys):
        # Every k has zero WCSS, in the data and in its references (their
        # column means are 0 or 1), so the dispersions log to -inf and the gaps
        # and spreads are NaN; RFC 8259 has neither, and the report writes null.
        data_path, report_path = tmp_path / "same.csv", tmp_path / "gap.json"
        data_path.write_text("1,0,1,1\n" * 10)
        code, _, _ = _run(
            capsys, "baseline", "--in", str(data_path), "--k-max", "4", "--n-refs", "3", "--report", str(report_path)
        )
        assert code == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(report_path.read_text(), parse_constant=refuse)
        assert report["chosen_k"] == 1
        for name in ("dispersion_curve", "gap_curve", "sk_curve"):
            assert report[name] == [None] * 4

    def test_k_max_above_n_exit_2_before_fitting(self, tmp_path, capsys, monkeypatch):
        data_path = tmp_path / "data.csv"
        _run(
            capsys,
            "generate", "--n", "12", "--d", "30", "--sd", "25", "--sn", "5",
            "--k-true", "3", "--seed", "5", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )

        def no_fit(*args):
            raise AssertionError("fitted before k_max was checked")

        monkeypatch.setattr(baselines, "_lloyd", no_fit)
        report_path = tmp_path / "gap.json"
        code, _, err = _run(capsys, "baseline", "--in", str(data_path), "--k-max", "13", "--report", str(report_path))
        assert code == 2
        assert "k_max must lie in [1, 12], got 13" in err
        assert not report_path.exists()

    def test_same_seed_byte_identical_reports(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        _run(
            capsys,
            "generate", "--n", "30", "--d", "20", "--sd", "20", "--sn", "10",
            "--seed", "3", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (first, second):
            code, _, _ = _run(
                capsys, "baseline", "--in", str(data_path), "--k-max", "6", "--n-refs", "3",
                "--seed", "4", "--report", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_a_run_loads_neither_the_kernel_nor_scipy(self, tmp_path):
        data_path, report_path = tmp_path / "data.csv", tmp_path / "gap.json"
        cli_main([
            "generate", "--n", "30", "--d", "20", "--sd", "20", "--sn", "5", "--k-true", "3",
            "--out", str(data_path), "--labels-out", str(tmp_path / "truth.txt"),
        ])
        argv = ["baseline", "--in", str(data_path), "--k-max", "4", "--n-refs", "2", "--report", str(report_path)]
        script = (
            "import json, sys; from binclust.cli import cli_main; "
            f"code = cli_main({argv!r}); print(json.dumps([code, sorted(sys.modules)]))"
        )
        done = _python("-c", script, timeout=60)
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout)
        assert code == 0 and len(load_report(report_path)["labels"]) == 30
        assert [name for name in loaded if name == "binclust._kernel" or name.startswith("scipy")] == []


class TestSummarizeCommand:
    def test_frequencies_to_csv(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        _run(
            capsys,
            "generate", "--n", "20", "--d", "10", "--sd", "30", "--sn", "0",
            "--k-true", "2", "--seed", "3", "--out", str(data_path), "--labels-out", str(tmp_path / "t.txt"),
        )
        report_path = tmp_path / "report.json"
        _run(
            capsys,
            "cluster", "--in", str(data_path), "--sweeps", "30", "--k-init", "4",
            "--seed", "1", "--report", str(report_path),
        )
        out_path = tmp_path / "freq.csv"
        code, _, _ = _run(capsys, "summarize", "--report", str(report_path), "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()]
        report = load_report(report_path)
        got = np.asarray(rows, dtype=np.float64)
        np.testing.assert_array_equal(got, np.asarray(report["feature_frequencies"]))

    @pytest.mark.parametrize(
        "frequencies",
        [
            5, [0.1, 0.2], [[0.1], [0.2, 0.3]], [[]], None, [["a"]],
            # Entries outside [0, 1]; a string is written as raw JSON text.
            "[[NaN, 0.5], [Infinity, 1]]", "[[1e400, 0.5]]", "[[-Infinity]]", [[1.5, 0.5]], [[-0.25]], [[2]],
        ],
    )
    def test_malformed_frequencies_exit_2_without_output(self, tmp_path, capsys, frequencies):
        report_path = tmp_path / "report.json"
        text = frequencies if isinstance(frequencies, str) else json.dumps(frequencies)
        report_path.write_text(f'{{"feature_frequencies": {text}}}')
        out_path = tmp_path / "freq.csv"
        code, _, err = _run(capsys, "summarize", "--report", str(report_path), "--out", str(out_path))
        assert code == 2
        assert "feature_frequencies must be a non-empty 2-d numeric table" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "text",
        ['{"feature_frequencies": ' + "[" * 100000 + "]" * 100000 + "}", '{"feature_frequencies": ' + "9" * 5000 + "}"],
        ids=["deep-nesting", "long-integer"],
    )
    def test_a_report_json_cannot_parse_exits_2_naming_the_file(self, tmp_path, capsys, text):
        report_path = tmp_path / "report.json"
        report_path.write_text(text)
        out_path = tmp_path / "freq.csv"
        code, _, err = _run(capsys, "summarize", "--report", str(report_path), "--out", str(out_path))
        assert code == 2
        assert err.startswith(f"binclust summarize: {report_path}: invalid JSON: ")
        assert not out_path.exists()


class TestPreprocessCommands:
    def test_term_filter(self, tmp_path, capsys):
        counts = np.zeros((14, 3), dtype=int)
        counts[:11, 0] = 2          # kept: 11 docs, repeats
        counts[:10, 1] = 5          # dropped: only 10 docs
        counts[:12, 2] = 1          # dropped: never twice in a doc
        in_path = tmp_path / "counts.csv"
        in_path.write_text("\n".join(",".join(str(v) for v in row) for row in counts) + "\n")
        out_path = tmp_path / "binary.csv"
        cols_path = tmp_path / "kept.txt"
        code, _, _ = _run(
            capsys,
            "preprocess", "term-filter", "--in", str(in_path), "--out", str(out_path),
            "--cols-out", str(cols_path),
        )
        assert code == 0
        assert load_labels(cols_path).tolist() == [0]
        data = load_dense(out_path)
        assert data.n_features == 1
        assert data.values[:, 0].sum() == 11

    def test_percentile_drops_missing_rows(self, tmp_path, capsys):
        in_path = tmp_path / "vals.csv"
        lines = ["1.0,10.0", "2.0,", "3.0,30.0", "4.0,40.0", "5.0,50.0", "6.0,60.0"]
        in_path.write_text("\n".join(lines) + "\n")
        out_path = tmp_path / "binary.csv"
        rows_path = tmp_path / "rows.txt"
        code, _, _ = _run(
            capsys,
            "preprocess", "percentile", "--in", str(in_path), "--pct", "20", "--direction", "below",
            "--out", str(out_path), "--rows-out", str(rows_path),
        )
        assert code == 0
        kept_rows = load_labels(rows_path).tolist()
        assert kept_rows == [0, 2, 3, 4, 5]
        data = load_dense(out_path)
        assert data.n_objects == 5 and data.n_features == 2

    def test_percentile_with_a_missing_cell_in_every_row_exit_2(self, tmp_path, capsys):
        in_path = tmp_path / "vals.csv"
        in_path.write_text("1.0,\n2.0,na\n,3.0\nnan,4.0\n")  # two values in each column, none in a full row
        out_path = tmp_path / "binary.csv"
        code, _, err = _run(capsys, "preprocess", "percentile", "--in", str(in_path), "--out", str(out_path))
        assert code == 2
        assert "every row has missing values" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_percentile_with_an_infinite_cell_exit_2(self, tmp_path, capsys, cell):
        in_path = tmp_path / "vals.csv"
        in_path.write_text(f"a,b\n1,2\n2,3\n3,{cell}\n4,5\n")
        out_path = tmp_path / "binary.csv"
        code, _, err = _run(capsys, "preprocess", "percentile", "--in", str(in_path), "--out", str(out_path))
        assert code == 2
        assert err == f"binclust preprocess: {in_path}: infinite value {cell} at row 2, column 1\n"
        assert not out_path.exists()

    def test_percentile_with_a_column_of_one_value_exit_2_naming_the_file(self, tmp_path, capsys):
        in_path = tmp_path / "vals.csv"
        in_path.write_text("1,2\n2,\n3,na\n")
        out_path = tmp_path / "binary.csv"
        code, _, err = _run(capsys, "preprocess", "percentile", "--in", str(in_path), "--out", str(out_path))
        assert code == 2
        assert err == f"binclust preprocess: {in_path}: column 1 has fewer than 2 non-missing values\n"
        assert not out_path.exists()

    def test_term_filter_keeping_no_column_exit_2_naming_the_file(self, tmp_path, capsys):
        in_path = tmp_path / "counts.csv"
        in_path.write_text("1,2\n2,3\n")  # repeats, but in 2 documents, not 11
        out_path = tmp_path / "binary.csv"
        code, _, err = _run(capsys, "preprocess", "term-filter", "--in", str(in_path), "--out", str(out_path))
        assert code == 2
        assert err == f"binclust preprocess: {in_path}: no column passes the term filter\n"
        assert not out_path.exists()

    def test_percentile_with_a_bad_pct_names_no_file(self, tmp_path, capsys):
        in_path = tmp_path / "vals.csv"
        in_path.write_text("1,2\n2,3\n")
        code, _, err = _run(
            capsys, "preprocess", "percentile", "--in", str(in_path), "--pct", "0", "--out", str(tmp_path / "o.csv")
        )
        assert code == 2
        assert err == "binclust preprocess: pct must lie strictly between 0 and 100\n"

    def test_bad_count_csv_exit_2(self, tmp_path, capsys):
        in_path = tmp_path / "counts.csv"
        in_path.write_text("1,zebra\n")
        code, _, err = _run(
            capsys, "preprocess", "term-filter", "--in", str(in_path), "--out", str(tmp_path / "o.csv")
        )
        assert code == 2
