"""File formats and dataset preprocessing transforms.

Three text formats cover the data flow: dense CSV for binary matrices,
a coordinate format for sparse ones ("N D" header, then one "row col" pair
per 1-entry), and one integer per line for label vectors.  Run reports are
JSON.  All save/load pairs round-trip losslessly, one-row and one-column
matrices included.  Every reader skips blank lines, and a matrix file's
format is told from its first non-blank line: a comma or a single field
means dense, two integers mean sparse.

Every CSV input (binary matrices, word counts, real-valued tables) goes
through one table reader with one header rule: the first row is a header iff
none of its cells is a number and some cell is not a missing token
(empty, na, nan, null).  Otherwise it is data, and a bad cell in it is
reported by row and column like any other.

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
    """Write a numeric matrix as CSV, one row per line.

    Integer matrices (binary data, contingency tables) are written as
    integers; floats (frequency matrices) via repr, which round-trips
    losslessly.
    """
    matrix = np.asarray(matrix)
    if np.issubdtype(matrix.dtype, np.integer):
        # Format each distinct value once, then look every row up in that table.
        values = np.unique(matrix)
        text = np.array([str(v) for v in values.tolist()], dtype=object)
        rows = (text[np.searchsorted(values, row)].tolist() for row in matrix)
    else:
        rows = ([repr(float(v)) for v in row] for row in matrix)
    with open(path, "w") as fh:
        for fields in rows:
            fh.write(",".join(fields))
            fh.write("\n")


def save_dense(path, data):
    """Write a binary matrix as dense CSV, one row per line, no header."""
    save_csv_matrix(path, data.values)


def load_dense(path):
    """Read a dense CSV binary matrix (optional header row)."""
    return BinaryMatrix(_read_table(path, _binary_cells))


def load_count_csv(path):
    """Read a CSV of non-negative integer counts (optional header row)."""
    return _read_table(path, _count_cells)


def load_real_csv(path):
    """Read a CSV of reals (optional header row); empty fields and na/nan/null
    tokens become NaN."""
    return _read_table(path, _real_cells)


def _read_table(path, cell_rule):
    """Read a CSV table and convert its cells with ``cell_rule``.

    Blank lines are skipped.  The first row is a header, and dropped, iff no
    cell of it is a number and some cell is not a missing token; so a bad
    first data row is reported, not dropped.  Every row must have as many
    cells as the first data row.  ``cell_rule`` maps the 2-d array of
    whitespace-stripped cells to values and names the first bad cell.
    """
    with open(path) as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    if _is_header(lines[0].split(",")):
        del lines[0]
    if not lines:
        raise DataFormatError(f"{path}: no data rows")
    width = lines[0].count(",") + 1
    for r, line in enumerate(lines):
        if line.count(",") + 1 != width:
            raise DataFormatError(f"{path}: row {r} has {line.count(',') + 1} values, expected {width}")
    cells = np.char.strip(_split_cells(lines)).reshape(len(lines), width)
    try:
        return cell_rule(cells)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _split_cells(lines):
    # Splitting the joined text once, rather than each line, keeps the peak
    # memory of a large file down; the list of fields is freed on return.
    # Giving the width spares numpy a slow pass over the list to find it.
    fields = ",".join(lines).split(",")
    return np.array(fields, dtype=f"U{max(map(len, fields))}")


def _is_header(fields):
    tokens = [field.strip() for field in fields if field.strip().lower() not in _MISSING_TOKENS]
    return bool(tokens) and not any(_parses(token, float) for token in tokens)


def _parses(text, kind):
    try:
        kind(text)
    except (ValueError, OverflowError):
        return False
    return True


def _binary_cells(cells):
    ones = cells == "1"
    _reject(~(ones | (cells == "0")), cells, "non-binary value {!r}")
    return ones.astype(np.uint8)


def _count_cells(cells):
    counts = _cast(cells, np.int64, "non-integer count")
    _reject(counts < 0, cells, "negative count")
    return counts


def _real_cells(cells):
    missing = np.isin(np.char.lower(cells), sorted(_MISSING_TOKENS))
    return _cast(np.where(missing, "nan", cells), np.float64, "non-numeric value {!r}")


def _cast(cells, dtype, what):
    """All cells converted to ``dtype`` at once; on failure, the first cell
    that fails on its own is named."""
    try:
        return cells.astype(dtype)
    except (ValueError, OverflowError):
        for (r, c), text in np.ndenumerate(cells):
            if not _parses(text, dtype):
                raise _cell_error(what, cells, r, c) from None
        raise


def _reject(bad, cells, what):
    """Raise for the first cell flagged in ``bad``, in row-major order."""
    if bad.any():
        raise _cell_error(what, cells, *divmod(int(bad.argmax()), cells.shape[1]))


def _cell_error(what, cells, r, c):
    return DataFormatError(f"{what.format(str(cells[r, c]))} at row {r}, column {c}")


# ---------------------------------------------------------------------------
# sparse coordinate format


def save_sparse(path, data):
    """Write a binary matrix as "N D" header plus one "row col" pair per 1-entry."""
    with open(path, "w") as fh:
        fh.write(f"{data.n_objects} {data.n_features}\n")
        for i, j in np.argwhere(data.values == 1):
            fh.write(f"{i} {j}\n")


def load_sparse(path):
    """Read the sparse coordinate format back into a dense-equivalent matrix."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip() != ""]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise DataFormatError(f"{path}: header must be 'N D', got {lines[0]!r}")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError:
        raise DataFormatError(f"{path}: header must be two integers, got {lines[0]!r}") from None
    if n < 1 or d < 1:
        raise DataFormatError(f"{path}: dimensions must be positive, got {n} x {d}")
    values = np.zeros((n, d), dtype=np.uint8)
    for lineno, line in enumerate(lines[1:], start=2):
        pair = line.split()
        if len(pair) != 2:
            raise DataFormatError(f"{path}: line {lineno}: expected 'row col', got {line!r}")
        try:
            i, j = int(pair[0]), int(pair[1])
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: indices must be integers") from None
        if not (0 <= i < n and 0 <= j < d):
            raise DataFormatError(f"{path}: line {lineno}: index ({i}, {j}) out of range for {n} x {d}")
        if values[i, j]:
            raise DataFormatError(f"{path}: line {lineno}: duplicate entry ({i}, {j})")
        values[i, j] = 1
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
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        for value in labels:
            fh.write(f"{int(value)}\n")


def load_labels(path):
    """Read one non-negative integer label per line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text == "":
                continue
            try:
                value = int(text)
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: not an integer label: {text!r}") from None
            if value < 0:
                raise DataFormatError(f"{path}: line {lineno}: negative label {value}")
            out.append(value)
    if not out:
        raise DataFormatError(f"{path}: no labels")
    return np.asarray(out, dtype=np.int64)


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
    with open(path, "w") as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    n, d = values.shape
    binary = np.zeros((n, d), dtype=np.uint8)
    for j in range(d):
        column = values[:, j]
        present = ~np.isnan(column)
        if present.sum() < 2:
            raise ValueError(f"column {j} has fewer than 2 non-missing values")
        threshold = np.percentile(column[present], pct)
        if direction == "below":
            hits = column < threshold
        else:
            hits = column > threshold
        binary[:, j] = np.where(present, hits, False)
    rows_with_missing = np.isnan(values).any(axis=1)
    return BinaryMatrix(binary), rows_with_missing
