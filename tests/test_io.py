"""File formats, round-trips, and the preprocessing transforms."""

import numpy as np
import pytest

from binclust.io import (
    DataFormatError,
    detect_format,
    load_count_csv,
    load_dense,
    load_labels,
    load_matrix,
    load_real_csv,
    load_report,
    load_sparse,
    percentile_binarize,
    report_to_dict,
    save_dense,
    save_labels,
    save_report,
    save_report_dict,
    save_sparse,
    term_filter,
)
from binclust.model import BinaryMatrix
from binclust.sampler import AnnealingSchedule, run


class TestDenseFormat:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        data = load_dense(path)
        assert np.array_equal(data.values, [[0, 1], [1, 0]])

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f1,f2\n0,1\n1,1\n")
        data = load_dense(path)
        assert np.array_equal(data.values, [[0, 1], [1, 1]])

    def test_non_binary_value_names_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n0,2\n")
        with pytest.raises(DataFormatError, match="row 1, column 1"):
            load_dense(path)

    def test_bad_first_row_is_reported_not_dropped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,x\n1,0,1\n")
        with pytest.raises(DataFormatError, match="non-binary value 'x' at row 0, column 2"):
            load_dense(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n0,1,1\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_dense(path)

    def test_round_trip_random_matrices(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "m.csv"
        for _ in range(100):
            data = BinaryMatrix(
                rng.integers(0, 2, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9)))).astype(np.uint8)
            )
            save_dense(path, data)
            assert np.array_equal(load_dense(path).values, data.values)


class TestSparseFormat:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n0 1\n1 0\n")
        data = load_sparse(path)
        assert np.array_equal(data.values, [[0, 1], [1, 0]])

    def test_empty_body_is_all_zeros(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 2\n")
        data = load_sparse(path)
        assert np.array_equal(data.values, np.zeros((3, 2)))

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n2 0\n")
        with pytest.raises(DataFormatError, match="out of range"):
            load_sparse(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n0 1\n0 1\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_sparse(path)

    def test_round_trip_random_matrices(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "m.txt"
        for _ in range(100):
            data = BinaryMatrix(
                (rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9)))) < 0.3).astype(np.uint8)
            )
            save_sparse(path, data)
            assert np.array_equal(load_sparse(path).values, data.values)


class TestFormatDetection:
    def test_dense_detected_by_comma(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("0,1\n1,0\n")
        assert detect_format(path) == "dense"
        assert np.array_equal(load_matrix(path).values, [[0, 1], [1, 0]])

    def test_sparse_detected_by_header(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("2 2\n0 0\n")
        assert detect_format(path) == "sparse"
        assert np.array_equal(load_matrix(path).values, [[1, 0], [0, 0]])

    @pytest.mark.parametrize(
        "text, fmt, values",
        [
            ("\n0,1\n1,0\n", "dense", [[0, 1], [1, 0]]),
            (" \n\t\n0,1\n1,0\n", "dense", [[0, 1], [1, 0]]),
            ("\n2 2\n0 1\n", "sparse", [[0, 1], [0, 0]]),
            ("  \n2 2\n0 1\n", "sparse", [[0, 1], [0, 0]]),
        ],
    )
    def test_detected_from_first_non_blank_line(self, tmp_path, text, fmt, values):
        path = tmp_path / "m"
        path.write_text(text)
        assert detect_format(path) == fmt
        assert np.array_equal(load_matrix(path).values, values)

    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), (1, 1)])
    def test_single_row_and_single_column_round_trip(self, tmp_path, shape):
        path = tmp_path / "m"
        data = BinaryMatrix((np.arange(np.prod(shape)).reshape(shape) % 2).astype(np.uint8))
        save_dense(path, data)
        assert detect_format(path) == "dense"
        assert np.array_equal(load_matrix(path).values, data.values)

    def test_unrecognized_rejected(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("what is this\n")
        with pytest.raises(DataFormatError):
            detect_format(path)


class TestLabelsFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        labels = np.array([0, 2, 1, 1, 0])
        save_labels(path, labels)
        assert np.array_equal(load_labels(path), labels)

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n-1\n")
        with pytest.raises(DataFormatError, match="negative"):
            load_labels(path)

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\nx\n")
        with pytest.raises(DataFormatError):
            load_labels(path)


class TestReportFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(3)
        data = BinaryMatrix(rng.integers(0, 2, size=(12, 5)).astype(np.uint8))
        report = run(data, k_init=3, seed=11, schedule=AnnealingSchedule(n_sweeps=12))
        as_dict = report_to_dict(report, data)
        path = tmp_path / "report.json"
        save_report(path, report, data)
        assert load_report(path) == as_dict

    def test_report_contents(self, tmp_path):
        rng = np.random.default_rng(4)
        data = BinaryMatrix(rng.integers(0, 2, size=(10, 4)).astype(np.uint8))
        report = run(data, k_init=2, seed=5, schedule=AnnealingSchedule(n_sweeps=8))
        loaded = report_to_dict(report, data)
        assert loaded["n_clusters"] == report.n_clusters
        assert loaded["seed"] == 5
        assert loaded["schedule"] == {"t_init": 1.0, "lambda": 0.9, "block": 20, "n_sweeps": 8}
        assert loaded["hyperparams"]["alpha"] == 1.0
        assert len(loaded["assignments"]) == 10
        assert len(loaded["score_trace"]) == 8
        assert len(loaded["feature_frequencies"]) == report.n_clusters
        assert all(len(row) == 4 for row in loaded["feature_frequencies"])

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_report(path)

    def test_dict_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"chosen_k": 3, "gap_curve": [0.5, 1.25, 0.125]}
        save_report_dict(path, payload)
        assert load_report(path) == payload


class TestNumericCsv:
    def test_count_csv(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("word_a,word_b\n0,3\n2,0\n")
        counts = load_count_csv(path)
        assert np.array_equal(counts, [[0, 3], [2, 0]])

    def test_count_csv_rejects_negative(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0,-3\n")
        with pytest.raises(DataFormatError):
            load_count_csv(path)

    def test_count_csv_bad_first_row_is_reported_not_dropped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("0,\n1,2\n3,4\n")
        with pytest.raises(DataFormatError, match="non-integer count at row 0, column 1"):
            load_count_csv(path)

    def test_real_csv_header_with_blank_corner(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text(",gene1,gene2\n,1.5,na\n")
        values = load_real_csv(path)
        assert values.shape == (1, 3)
        assert np.isnan(values[0, 0]) and values[0, 1] == 1.5 and np.isnan(values[0, 2])

    def test_real_csv_missing_tokens(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("1.5,,2.0\n3.0,nan,NA\n")
        values = load_real_csv(path)
        assert values.shape == (2, 3)
        assert np.isnan(values[0, 1]) and np.isnan(values[1, 1]) and np.isnan(values[1, 2])
        assert values[0, 0] == 1.5


class TestTermFilter:
    def test_boundary_kept(self):
        # in exactly 11 docs, max per-doc count 2 -> kept
        counts = np.zeros((15, 1), dtype=np.int64)
        counts[:11, 0] = 1
        counts[0, 0] = 2
        data, kept = term_filter(counts)
        assert kept.tolist() == [0]
        assert data.values[:, 0].sum() == 11

    def test_boundary_dropped_document_frequency(self):
        # in only 10 docs -> dropped even with repeats
        counts = np.zeros((15, 2), dtype=np.int64)
        counts[:10, 0] = 3
        counts[:11, 1] = 2
        data, kept = term_filter(counts)
        assert kept.tolist() == [1]

    def test_dropped_without_any_repeat(self):
        # in 12 docs but never twice in one -> dropped
        counts = np.zeros((15, 2), dtype=np.int64)
        counts[:12, 0] = 1
        counts[:11, 1] = 2
        data, kept = term_filter(counts)
        assert kept.tolist() == [1]

    def test_output_is_presence_absence(self):
        counts = np.zeros((12, 1), dtype=np.int64)
        counts[:, 0] = np.arange(12)  # counts 0..11
        data, kept = term_filter(counts)
        assert kept.tolist() == [0]
        assert np.array_equal(data.values[:, 0], (np.arange(12) >= 1).astype(np.uint8))

    def test_all_filtered_rejected(self):
        with pytest.raises(ValueError):
            term_filter(np.ones((5, 3), dtype=np.int64))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            term_filter(np.array([[1, -1]]))


class TestPercentileBinarize:
    def test_worked_example(self):
        column = np.arange(1.0, 11.0).reshape(-1, 1)
        data, missing = percentile_binarize(column, 20.0, "below")
        # 20th percentile of 1..10 by linear interpolation is 2.8
        assert np.array_equal(data.values[:, 0], (np.arange(1, 11) < 2.8).astype(np.uint8))
        assert data.values[:, 0].sum() == 2
        assert not missing.any()

    def test_all_equal_column_gives_zeros(self):
        column = np.full((8, 1), 3.25)
        data, _ = percentile_binarize(column, 20.0, "below")
        assert data.values.sum() == 0

    def test_direction_above(self):
        column = np.arange(1.0, 11.0).reshape(-1, 1)
        data, _ = percentile_binarize(column, 80.0, "above")
        assert data.values[:, 0].sum() == 2  # 9 and 10 sit strictly above 8.2

    def test_missing_rows_flagged(self):
        values = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0], [6.0, np.nan]])
        _, missing = percentile_binarize(values, 50.0, "below")
        assert missing.tolist() == [False, True, False, True]

    def test_rejects_sparse_column(self):
        values = np.array([[1.0], [np.nan], [np.nan]])
        with pytest.raises(ValueError, match="fewer than 2"):
            percentile_binarize(values, 20.0, "below")

    def test_rejects_bad_pct_and_direction(self):
        values = np.arange(6.0).reshape(-1, 1)
        with pytest.raises(ValueError):
            percentile_binarize(values, 0.0, "below")
        with pytest.raises(ValueError):
            percentile_binarize(values, 20.0, "sideways")

    def test_thresholds_are_per_column(self):
        values = np.column_stack([np.arange(1.0, 11.0), np.arange(101.0, 111.0)])
        data, _ = percentile_binarize(values, 20.0, "below")
        assert data.values[:, 0].sum() == 2
        assert data.values[:, 1].sum() == 2
