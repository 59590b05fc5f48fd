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
    save_csv_matrix,
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
        with pytest.raises(DataFormatError, match="'x'.*row 0, column 3"):
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

    @pytest.mark.parametrize("header", ["100000000 100000000", "9223372036854775807 9223372036854775807"])
    def test_impossible_dimensions_rejected(self, tmp_path, header):
        # The allocation fails at once, without touching memory.
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n0 1\n")
        with pytest.raises(DataFormatError, match=r"a (\d+) x \1 matrix does not fit in memory"):
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


_WRITER_SHAPES = [(1, 1), (1, 7), (6, 1), (23, 17)]


class TestWriterBytes:
    """Each writer's exact bytes against a plain per-cell formatting of the same values."""

    @pytest.mark.parametrize("shape", _WRITER_SHAPES)
    def test_dense(self, tmp_path, shape):
        values = np.random.default_rng(shape[1]).integers(0, 2, size=shape).astype(np.uint8)
        path = tmp_path / "m.csv"
        save_dense(path, BinaryMatrix(values))
        assert path.read_text() == "".join(",".join(str(v) for v in row) + "\n" for row in values)

    @pytest.mark.parametrize("shape", _WRITER_SHAPES)
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32])
    def test_csv_matrix(self, tmp_path, shape, dtype):
        rng = np.random.default_rng(shape[0])
        if dtype is np.int64:
            table = rng.integers(-(2**62), 2**62, size=shape) // rng.integers(1, 2**40, size=shape)
            cell = str
        else:
            table = (rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)).astype(dtype)
            table.flat[0] = 0.1  # not exact in either float type

            def cell(v):
                return repr(float(v))

        path = tmp_path / "t.csv"
        save_csv_matrix(path, table)
        assert path.read_text() == "".join(",".join(cell(v) for v in row) + "\n" for row in table)

    @pytest.mark.parametrize("shape", _WRITER_SHAPES)
    def test_sparse(self, tmp_path, shape):
        values = np.random.default_rng(shape[1]).integers(0, 2, size=shape).astype(np.uint8)
        path = tmp_path / "m.sparse"
        save_sparse(path, BinaryMatrix(values))
        pairs = [f"{i} {j}\n" for i in range(shape[0]) for j in range(shape[1]) if values[i, j]]
        assert path.read_text() == f"{shape[0]} {shape[1]}\n" + "".join(pairs)

    @pytest.mark.parametrize("n", [1, 6, 250])
    def test_labels(self, tmp_path, n):
        labels = np.random.default_rng(n).integers(0, 2**62, size=n)
        path = tmp_path / "labels.txt"
        save_labels(path, labels)
        assert path.read_text() == "".join(f"{int(v)}\n" for v in labels)


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


    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_value_is_refused_and_writes_no_file(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            save_report_dict(path, {"gap_curve": [0.5, value]})
        assert not path.exists()


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
        with pytest.raises(DataFormatError, match="''.*row 0, column 2"):
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


# Per reader: a good file as lines, and the array it loads to.
READERS = {
    "dense": (lambda path: load_dense(path).values, ["0,1", "1,0"], [[0, 1], [1, 0]]),
    "counts": (load_count_csv, ["0,3", "2,0"], [[0, 3], [2, 0]]),
    "reals": (load_real_csv, ["0.5,3", "2,-1e3"], [[0.5, 3.0], [2.0, -1e3]]),
    "sparse": (lambda path: load_sparse(path).values, ["2 2", "0 1", "1 0"], [[0, 1], [1, 0]]),
    "labels": (load_labels, ["0", "2"], [0, 2]),
}


class TestReaderContract:
    """What every reader does with blank lines, line endings, comments and
    numbers outside int64."""

    @pytest.mark.parametrize("name", READERS)
    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path, name):
        reader, lines, expected = READERS[name]
        path = tmp_path / "f"
        path.write_text("\n \t\n" + "\n  \n\n".join(lines) + "\n\n \n")
        assert np.array_equal(reader(path), expected)

    @pytest.mark.parametrize("name", READERS)
    def test_crlf_line_endings_load(self, tmp_path, name):
        reader, lines, expected = READERS[name]
        path = tmp_path / "f"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert np.array_equal(reader(path), expected)

    @pytest.mark.parametrize("name", READERS)
    def test_hash_line_is_refused_not_skipped_as_a_comment(self, tmp_path, name):
        reader, lines, _ = READERS[name]
        path = tmp_path / "f"
        path.write_text("\n".join(lines[:-1] + ["#" + lines[-1]]) + "\n")
        with pytest.raises(DataFormatError, match="'#"):
            reader(path)

    @pytest.mark.parametrize("name", READERS)
    def test_blank_only_file_is_empty(self, tmp_path, name):
        path = tmp_path / "f"
        path.write_text("\n \n\t\n")
        with pytest.raises(DataFormatError, match="empty file"):
            READERS[name][0](path)

    @pytest.mark.parametrize("name", ["dense", "counts", "sparse", "labels"])
    def test_count_above_int64_is_refused(self, tmp_path, name):
        reader, lines, _ = READERS[name]
        path = tmp_path / "f"
        path.write_text("\n".join(lines[:-1] + [lines[-1][:-1] + str(2**63)]) + "\n")
        with pytest.raises(DataFormatError, match=f"'{2**63}'"):
            reader(path)

    @pytest.mark.parametrize("name", ["dense", "counts", "sparse", "labels"])
    def test_non_integer_is_refused(self, tmp_path, name):
        reader, lines, _ = READERS[name]
        path = tmp_path / "f"
        path.write_text("\n".join(lines[:-1] + [lines[-1][:-1] + "1.0"]) + "\n")
        with pytest.raises(DataFormatError, match="'1.0'"):
            reader(path)

    def test_label_file_with_two_numbers_per_line_is_refused(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1\n2 3\n")
        with pytest.raises(DataFormatError, match="2 values, expected 1"):
            load_labels(path)


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

    def test_matches_a_per_column_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, d = rng.integers(2, 12, size=2)
            values = np.round(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 7), int(rng.integers(0, 3)))
            values[rng.random((n, d)) < 0.2] = np.nan
            values[:2] = np.where(np.isnan(values[:2]), 0.5, values[:2])  # at least 2 present per column
            pct = float(rng.uniform(1, 99))
            direction = str(rng.choice(["below", "above"]))
            data, missing = percentile_binarize(values, pct, direction)
            for j in range(d):
                column = values[:, j]
                threshold = np.percentile(column[~np.isnan(column)], pct)
                hits = column < threshold if direction == "below" else column > threshold
                assert np.array_equal(data.values[:, j], hits)
            assert np.array_equal(missing, np.isnan(values).any(axis=1))

    def test_thresholds_are_per_column(self):
        values = np.column_stack([np.arange(1.0, 11.0), np.arange(101.0, 111.0)])
        data, _ = percentile_binarize(values, 20.0, "below")
        assert data.values[:, 0].sum() == 2
        assert data.values[:, 1].sum() == 2
