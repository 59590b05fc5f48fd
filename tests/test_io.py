"""File formats, round-trips, and the preprocessing transforms."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binclust import io
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
        with pytest.raises(DataFormatError, match="'x'.*row 0, column 2$"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2 1\n0 1 1\n", r"header must be 'N D', got 3 values"),
            ("0 5\n", "dimensions must be positive, got 0 x 5"),
        ],
        ids=["three-fields", "zero-rows"],
    )
    def test_a_bad_header_is_refused(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
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

    @pytest.mark.parametrize("first", ["what is this", "a b"], ids=["three-words", "two-words"])
    def test_unrecognized_rejected(self, tmp_path, first):
        path = tmp_path / "m"
        path.write_text(first + "\n")
        with pytest.raises(DataFormatError, match=f"cannot detect matrix format from first non-blank line '{first}'"):
            detect_format(path)


def _loaded(load, path):
    """A loader's outcome: its matrix as a uint8 array, or its error message."""
    try:
        return load(path).values
    except DataFormatError as exc:
        return str(exc)


def _parsed(path):
    """``load_matrix`` without the byte view: format detection and the table reader."""
    with mock.patch.object(io, "_saved_dense", lambda raw: None):
        return load_matrix(path)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and np.array_equal(a, b)


class TestSavedLayoutFastPath:
    """``load_dense``, and so ``load_matrix``, reads ``save_dense``'s exact layout
    as one byte view; any other file, however close, gets the table reader's
    matrix or error."""

    def test_load_dense_reads_a_saved_file_without_the_table_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        values = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        save_dense(path, BinaryMatrix(values))
        monkeypatch.setattr(io, "_read_table", mock.Mock(side_effect=AssertionError("the table reader ran")))
        assert _same(load_dense(path).values, values)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.integers(0, 1)))
    @example(np.zeros((1, 1), dtype=np.uint8))
    @example(np.ones((3, 1), dtype=np.uint8))
    def test_load_matrix_never_reads_a_sparse_file_as_a_byte_view(self, tmp_path, values):
        # load_matrix offers every file's bytes to the byte view first: a
        # sparse file's header holds a space, so the view refuses it.
        path = tmp_path / "m.txt"
        save_sparse(path, BinaryMatrix(values))
        views, byte_view = [], io._saved_dense
        with mock.patch.object(io, "_saved_dense", lambda raw: views.append(byte_view(raw)) or views[-1]):
            assert _same(load_matrix(path).values, values)
        assert views == [None]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.integers(0, 1)))
    @example(np.array([[1], [0], [1]], dtype=np.uint8))
    @example(np.array([[0, 1, 1, 0, 1]], dtype=np.uint8))
    def test_every_saved_matrix_reads_as_the_table_reader_reads_it(self, tmp_path, values):
        path = tmp_path / "m.csv"
        save_dense(path, BinaryMatrix(values))
        assert np.array_equal(io._saved_dense(path.read_bytes()), values)
        assert _same(load_matrix(path).values, BinaryMatrix(io._read_table(path, np.uint8)).values)

    # The 4 x 3 matrix SAVED, whose file has lines of 6 bytes, changed in one
    # place; None expects SAVED back, a string the table reader's error.
    SAVED = [[0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1]]
    MUTATIONS = {
        "2-first-cell": (lambda b: b"2" + b[1:], "non-binary value 2 at row 0, column 0"),
        "2-last-cell": (lambda b: b[:-2] + b"2\n", "non-binary value 2 at row 3, column 2"),
        "slash-below-0": (lambda b: b"/" + b[1:], "could not convert string '/' to uint8 at row 0, column 0"),
        "space-first": (lambda b: b" " + b, None),
        "space-after-comma": (lambda b: b[:2] + b" " + b[2:], None),
        "space-before-newline": (lambda b: b[:5] + b" " + b[5:], None),
        "cr-first-line": (lambda b: b[:5] + b"\r" + b[5:], None),
        "cr-last-line": (lambda b: b[:-1] + b"\r\n", None),
        "blank-line-first": (lambda b: b"\n" + b, None),
        "blank-line-middle": (lambda b: b[:12] + b"\n" + b[12:], None),
        "blank-line-last": (lambda b: b + b"\n", None),
        "no-last-newline": (lambda b: b[:-1], None),
        "comma-for-last-newline": (lambda b: b[:-1] + b",", "row 3 has 4 values, expected 3"),
        "comma-for-a-newline": (lambda b: b[:11] + b"," + b[12:], "row 1 has 6 values, expected 3"),
        "semicolon-first-line": (lambda b: b[:1] + b";" + b[2:], "row 1 has 3 values, expected 2"),
        "semicolon-last-line": (lambda b: b[:-3] + b";" + b[-2:], "row 3 has 2 values, expected 3"),
        "header": (lambda b: b"f0,f1,f2\n" + b, None),
    }

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_a_changed_byte_gives_the_table_readers_matrix_or_error(self, tmp_path, name):
        mutate, expected = self.MUTATIONS[name]
        path = tmp_path / "m.csv"
        save_dense(path, BinaryMatrix(np.array(self.SAVED, dtype=np.uint8)))
        path.write_bytes(mutate(path.read_bytes()))
        assert io._saved_dense(path.read_bytes()) is None
        loaded = _loaded(load_matrix, path)
        assert _same(loaded, _loaded(_parsed, path))
        if expected is None:
            assert _same(loaded, np.array(self.SAVED, dtype=np.uint8))
        else:
            assert loaded == f"{path}: {expected}"


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

    @pytest.mark.parametrize("block_bytes", [1, 40, 1000])
    def test_dense_in_blocks_of_lines(self, tmp_path, monkeypatch, block_bytes):
        """Random shapes written in blocks of one line, of a few lines, and of many."""
        monkeypatch.setattr(io, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(block_bytes)
        path = tmp_path / "m.csv"
        for _ in range(40):
            values = rng.integers(0, 2, size=rng.integers(1, 60, size=2)).astype(np.uint8)
            save_dense(path, BinaryMatrix(values))
            assert path.read_text() == "".join(",".join(map(str, row)) + "\n" for row in values.tolist())

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "invalid JSON"),
            ("[1, 2]", "report must be a JSON object"),
            # Deeper than the parser's recursion limit, and past Python's digit limit.
            ('{"k": ' + "[" * 100000 + "]" * 100000 + "}", "invalid JSON: maximum recursion depth"),
            ('{"k": ' + "9" * 5000 + "}", "invalid JSON: Exceeds the limit"),
        ],
        ids=["syntax", "list", "deep-nesting", "long-integer"],
    )
    def test_invalid_json_rejected(self, tmp_path, text, message):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: {message}"):
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
        with pytest.raises(DataFormatError, match="''.*row 0, column 1$"):
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

# Every reader that decodes text: the table readers, format detection, and the
# matrix and report loaders.
TEXT_READERS = {
    **{name: reader for name, (reader, _, _) in READERS.items()},
    "detect_format": detect_format,
    "matrix": lambda path: load_matrix(path).values,
    "report": load_report,
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

    @pytest.mark.parametrize("name", [*READERS, "detect_format", "matrix"])
    def test_blank_only_file_is_empty(self, tmp_path, name):
        path = tmp_path / "f"
        path.write_text("\n \n\t\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: empty file$"):
            TEXT_READERS[name](path)

    @pytest.mark.parametrize("name", ["dense", "counts", "reals"])
    def test_a_csv_of_only_a_header_has_no_data_rows(self, tmp_path, name):
        path = tmp_path / "f"
        path.write_text("x,y\n\n")
        with pytest.raises(DataFormatError, match="no data rows"):
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

    @pytest.mark.parametrize(
        "name, where",
        [(name, where) for name in TEXT_READERS for where in ("first-byte", "late-byte")],
    )
    def test_bytes_that_are_not_utf8_are_refused_naming_the_file(self, tmp_path, name, where):
        good = ("\n".join(READERS.get(name, READERS["dense"])[1]) + "\n").encode()
        path = tmp_path / "f"
        # The late byte lies well past the first block a text file is decoded in.
        path.write_bytes(b"\xff" + good if where == "first-byte" else good + b"0" * 70000 + b"\xff\n")
        with pytest.raises(DataFormatError) as raised:
            TEXT_READERS[name](path)
        assert str(raised.value) == f"{path}: not UTF-8 text: invalid start byte b'\\xff'"

    @pytest.mark.parametrize(
        "name, refused",
        [(name, False) for name in TEXT_READERS]
        + [(name, True) for name in TEXT_READERS if name != "detect_format"],  # "#0,1" is a dense first line
    )
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, name, refused):
        # Spreadsheet "CSV UTF-8" exports start with the mark EF BB BF.  A
        # refused file's bad cell is its first, right behind the mark.
        lines = ['{"k": [1, 2]}'] if name == "report" else READERS.get(name, READERS["dense"])[1]
        if refused:
            lines = ["#" + lines[0]] + lines[1:]
        text = ("\n".join(lines) + "\n").encode()
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)

        def outcome(path):
            try:
                got = TEXT_READERS[name](path)
            except DataFormatError as exc:
                return None, str(exc).replace(str(path), "<path>")
            return (got if isinstance(got, (str, dict)) else np.asarray(got).tolist()), None

        expected = outcome(plain)
        assert (expected[1] is not None) == refused
        assert outcome(marked) == expected

    def test_a_saved_file_behind_a_byte_order_mark_takes_the_table_reader(self, tmp_path):
        path = tmp_path / "m.csv"
        values = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        save_dense(path, BinaryMatrix(values))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert io._saved_dense(path.read_bytes()) is None
        assert _same(load_matrix(path).values, values)

    def test_label_file_with_two_numbers_per_line_is_refused(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1\n2 3\n")
        with pytest.raises(DataFormatError, match="2 values, expected 1"):
            load_labels(path)


@pytest.mark.parametrize(
    "transform",
    [term_filter, lambda values: percentile_binarize(values, 20.0, "below")],
    ids=["term-filter", "percentile"],
)
def test_a_transform_refuses_a_1d_input(transform):
    with pytest.raises(ValueError, match="must be 2-d"):
        transform(np.arange(6))


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

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_an_infinite_cell(self, value):
        values = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, value], [6.0, value]])
        with pytest.raises(ValueError, match=f"^infinite value {value} at row 2, column 1$"):
            percentile_binarize(values, 20.0, "below")

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
