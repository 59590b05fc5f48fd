"""Command-line surface: subcommands, pipelines, exit codes."""

import json

import numpy as np
import pytest

from binclust import baselines
from binclust.cli import cli_main
from binclust.evaluate import matched_accuracy
from binclust.io import load_dense, load_labels, load_report


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

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            "cluster", "--in", str(tmp_path / "absent.csv"), "--report", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert err.strip() != ""


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

    @pytest.mark.parametrize("frequencies", [5, [0.1, 0.2], [[0.1], [0.2, 0.3]], [[]], None, [["a"]]])
    def test_malformed_frequencies_exit_2_without_output(self, tmp_path, capsys, frequencies):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({"feature_frequencies": frequencies}))
        out_path = tmp_path / "freq.csv"
        code, _, err = _run(capsys, "summarize", "--report", str(report_path), "--out", str(out_path))
        assert code == 2
        assert "feature_frequencies must be a non-empty 2-d numeric table" in err
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

    def test_bad_count_csv_exit_2(self, tmp_path, capsys):
        in_path = tmp_path / "counts.csv"
        in_path.write_text("1,zebra\n")
        code, _, err = _run(
            capsys, "preprocess", "term-filter", "--in", str(in_path), "--out", str(tmp_path / "o.csv")
        )
        assert code == 2
