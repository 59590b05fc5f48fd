"""File formats and dataset preprocessing transforms.

Three text formats cover the data flow: dense CSV for binary matrices,
a coordinate format for sparse ones ("N D" header, then one "row col" pair
per 1-entry), and one integer per line for label vectors.  Run reports are
JSON.  All save/load pairs round-trip losslessly, one-row and one-column
matrices included.  Every reader skips blank lines, and a matrix file's
format is told from its first non-blank line: a comma or a single field
means dense, two integers mean sparse.

Every reader parses its file with numpy's ``loadtxt`` through one table
reader.  CSV inputs (binary matrices, word counts, real-valued tables) share
one header rule: the first row is a header iff none of its cells is a number
and some cell is not a missing token (empty, na, nan, null).  Otherwise it is
data, and a bad cell in it is reported like any other: a cell that is not a
number with numpy's message, which counts the row from 0 among the data rows
and the column from 1; a number out of range (non-binary, negative) by row
and column, both from 0.

The preprocessing transforms turn raw observation tables into binary
matrices: a document-frequency filter for word-count data and a per-column
percentile threshold for real-valued response data.
"""

import json

import numpy as np

from .evaluate import cluster_feature_frequencies
from .model import BinaryMatrix

_MISSING_TOKENS = {"", "na", "nan", "null"}


class DataFormatError(ValueError):
    """Malformed matrix, labels, or report file content."""


# ---------------------------------------------------------------------------
# CSV tables


def save_csv_matrix(path, matrix):
    """Write a numeric matrix as CSV, one row per line: each value by the repr
    of its Python value, so integers print as integers and floats round-trip
    losslessly."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.asarray(matrix).tolist())


def save_dense(path, data):
    """Write a binary matrix as dense CSV, one row per line, no header."""
    # Every cell is one digit, so each line is the same 2 * D bytes with only
    # the digits changing: fill one reusable line per row.
    line = np.full(2 * data.n_features, ord(","), dtype=np.uint8)
    line[-1] = ord("\n")
    with open(path, "wb") as fh:
        for row in data.values:
            np.add(row, ord("0"), out=line[::2])
            fh.write(line)


def load_dense(path):
    """Read a dense CSV binary matrix (optional header row)."""
    table = _read_table(path, np.uint8)
    _refuse_cells(path, table, table > 1, "non-binary value")
    return BinaryMatrix(table)


def load_count_csv(path):
    """Read a CSV of non-negative integer counts (optional header row)."""
    table = _read_table(path, np.int64)
    _refuse_cells(path, table, table < 0, "negative count")
    return table


def load_real_csv(path):
    """Read a CSV of reals (optional header row); empty fields and na/nan/null
    tokens become NaN."""
    return _read_table(path, np.float64, converters=_real_or_missing)


def _real_or_missing(text):
    return np.nan if text.strip().lower() in _MISSING_TOKENS else float(text)


def _read_table(path, dtype, delimiter=",", converters=None):
    """Parse a text table into a 2-d ``dtype`` array with numpy's ``loadtxt``.

    Blank lines are skipped.  ``delimiter=None`` splits on whitespace.  In a
    CSV the first row is a header, and dropped, iff no cell of it is a number
    and some cell is not a missing token; so a bad first data row is
    reported, not dropped.  Every row must have as many fields as the first;
    a ragged row is reported ahead of a bad cell.  ``#`` starts no comment: a
    cell holding it is a bad cell.
    """
    with open(path) as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    if delimiter == "," and _is_header(lines[0].split(",")):
        del lines[0]
    if not lines:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, converters=converters, comments=None, ndmin=2)
    except ValueError as exc:
        # loadtxt refuses ragged rows too, but counts them from 1.  Splitting
        # every line only once the parse has failed keeps it off a good file.
        width = len(lines[0].split(delimiter))
        for r, line in enumerate(lines):
            n_fields = len(line.split(delimiter))
            if n_fields != width:
                raise DataFormatError(f"{path}: row {r} has {n_fields} values, expected {width}") from None
        raise DataFormatError(f"{path}: {exc}") from None


def _is_header(fields):
    tokens = [field.strip() for field in fields if field.strip().lower() not in _MISSING_TOKENS]
    for token in tokens:
        try:
            float(token)
            return False
        except ValueError:
            pass
    return bool(tokens)


def _refuse_cells(path, table, bad, what):
    """Raise for the first cell flagged in ``bad``, in row-major order."""
    if bad.any():
        r, c = divmod(int(bad.argmax()), bad.shape[1])
        raise DataFormatError(f"{path}: {what} {table[r, c]} at row {r}, column {c}")


# ---------------------------------------------------------------------------
# sparse coordinate format


def save_sparse(path, data):
    """Write a binary matrix as "N D" header plus one "row col" pair per 1-entry."""
    with open(path, "w") as fh:
        fh.write(f"{data.n_objects} {data.n_features}\n")
        fh.writelines(f"{i} {j}\n" for i, j in np.argwhere(data.values == 1).tolist())


def load_sparse(path):
    """Read the sparse coordinate format back into a dense-equivalent matrix.

    Positions in error messages count the header as row 0.
    """
    table = _read_table(path, np.int64, delimiter=None)
    if table.shape[1] != 2:
        raise DataFormatError(f"{path}: header must be 'N D', got {table.shape[1]} values")
    (n, d), pairs = table[0], table[1:]
    if n < 1 or d < 1:
        raise DataFormatError(f"{path}: dimensions must be positive, got {n} x {d}")
    try:
        values = np.zeros((n, d), dtype=np.uint8)
    except (MemoryError, ValueError):  # ValueError: n * d overflows the address space
        raise DataFormatError(f"{path}: a {n} x {d} matrix does not fit in memory") from None
    outside = ((pairs < 0) | (pairs >= (n, d))).any(axis=1)
    if outside.any():
        r = int(outside.argmax())
        raise DataFormatError(f"{path}: row {r + 1}: index {tuple(pairs[r].tolist())} out of range for {n} x {d}")
    # n * d fits in memory, so these flat indices cannot overflow.
    _, first = np.unique(pairs[:, 0] * d + pairs[:, 1], return_index=True)
    if first.size < len(pairs):
        r = int(np.setdiff1d(np.arange(len(pairs)), first)[0])
        raise DataFormatError(f"{path}: row {r + 1}: duplicate entry {tuple(pairs[r].tolist())}")
    values[pairs[:, 0], pairs[:, 1]] = 1
    return BinaryMatrix(values)


def detect_format(path):
    """Classify a matrix file by its first non-blank line: one with a comma, or
    with a single field (a one-column matrix), means dense; a two-integer
    header means sparse."""
    with open(path) as fh:
        first = next((line.strip() for line in fh if line.strip()), "")
    fields = first.split()
    if "," in first or len(fields) == 1:
        return "dense"
    if len(fields) == 2:
        try:
            int(fields[0]), int(fields[1])
            return "sparse"
        except ValueError:
            pass
    raise DataFormatError(f"{path}: cannot detect matrix format from first non-blank line {first!r}")


def load_matrix(path):
    """Load a binary matrix in either format, auto-detected."""
    return load_dense(path) if detect_format(path) == "dense" else load_sparse(path)


# ---------------------------------------------------------------------------
# label vectors


def save_labels(path, labels):
    """Write one non-negative integer label per line."""
    with open(path, "w") as fh:
        fh.writelines(f"{value}\n" for value in np.asarray(labels, dtype=np.int64).tolist())


def load_labels(path):
    """Read one non-negative integer label per line."""
    table = _read_table(path, np.int64, delimiter=None)
    if table.shape[1] != 1:
        raise DataFormatError(f"{path}: row 0 has {table.shape[1]} values, expected 1")
    _refuse_cells(path, table, table < 0, "negative label")
    return table[:, 0]


# ---------------------------------------------------------------------------
# run reports


def report_to_dict(report, data):
    """Flatten a RunReport plus its per-cluster feature frequencies into plain JSON types."""
    return {
        **report.config_echo,
        "assignments": report.assignments.tolist(),
        "n_clusters": report.n_clusters,
        "seed": report.seed,
        "score_trace": report.score_trace.tolist(),
        "k_trace": report.k_trace.tolist(),
        "temp_trace": report.temp_trace.tolist(),
        "feature_frequencies": cluster_feature_frequencies(report.assignments, data).tolist(),
    }


def save_report(path, report, data):
    """Write a run report as JSON (sorted keys, so identical runs give identical bytes)."""
    save_report_dict(path, report_to_dict(report, data))


def save_report_dict(path, report_dict):
    """Write a dict as strict JSON: a non-finite float raises ``ValueError`` and leaves no file."""
    text = json.dumps(report_dict, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_report(path):
    """Read a report JSON back into a plain dict."""
    with open(path) as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(report, dict):
        raise DataFormatError(f"{path}: report must be a JSON object")
    return report


# ---------------------------------------------------------------------------
# preprocessing transforms


def term_filter(doc_term_counts):
    """Binarize a document-term count matrix, keeping only informative words.

    A word (column) survives iff some document uses it at least twice and it
    occurs in at least 11 documents; surviving columns are binarized to
    presence/absence.  Returns ``(BinaryMatrix, kept_column_indices)``.
    """
    counts = np.asarray(doc_term_counts)
    if counts.ndim != 2:
        raise ValueError("doc_term_counts must be 2-d")
    if (counts < 0).any():
        raise ValueError("doc_term_counts must be non-negative")
    repeated_somewhere = (counts >= 2).any(axis=0)
    doc_frequency = (counts >= 1).sum(axis=0)
    kept = np.flatnonzero(repeated_somewhere & (doc_frequency >= 11))
    if kept.size == 0:
        raise ValueError("no column passes the term filter")
    binary = (counts[:, kept] >= 1).astype(np.uint8)
    return BinaryMatrix(binary), kept


def percentile_binarize(values, pct, direction="below"):
    """Threshold each column at its own percentile of the non-missing values.

    The threshold is the ``pct``-th percentile (linear interpolation between
    order statistics) of the column's non-NaN entries; an output cell is 1
    iff its value is strictly below (``direction="below"``) or strictly
    above (``direction="above"``) that threshold.  NaN cells binarize to 0
    and their rows are reported in the returned mask so the caller can drop
    them.  Returns ``(BinaryMatrix, rows_with_missing_mask)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be 2-d")
    if not 0 < pct < 100:
        raise ValueError("pct must lie strictly between 0 and 100")
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    present = ~np.isnan(values)
    too_few = present.sum(axis=0) < 2
    if too_few.any():
        raise ValueError(f"column {int(too_few.argmax())} has fewer than 2 non-missing values")
    threshold = np.nanpercentile(values, pct, axis=0)
    # A NaN cell compares False either way, so it binarizes to 0.
    hits = values < threshold if direction == "below" else values > threshold
    return BinaryMatrix(hits.astype(np.uint8)), ~present.all(axis=1)
