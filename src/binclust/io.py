"""File formats and dataset preprocessing transforms.

Three text formats cover the data flow: dense CSV for binary matrices,
a coordinate format for sparse ones ("N D" header, then one "row col" pair
per 1-entry), and one integer per line for label vectors.  Run reports are
JSON.  All save/load pairs round-trip losslessly, one-row and one-column
matrices included.  Every reader skips blank lines, and a matrix file's
format is told from its first non-blank line: a comma or a single field
means dense, two integers mean sparse.

Every reader parses its file with numpy's ``loadtxt`` through one table
reader, the one general parser.  ``load_dense`` and ``load_matrix`` read a
file's bytes once, so a pipe loads as a file does: a file in the exact layout
``save_dense`` writes is taken as one byte view, and any other is decoded once
and given to that reader; both read the same matrix from a file in that
layout.  A file whose bytes are not UTF-8 is refused by name; a leading UTF-8
byte-order mark, as spreadsheet "CSV UTF-8" exports write, is dropped, and
line endings are read as a text-mode file reads them.  CSV inputs (binary matrices,
word counts, real-valued tables) share one header rule: the first row is a header iff none of its cells is a number
and some cell is not a missing token (empty, na, nan, null).  Otherwise it is
data, and a bad cell in it is reported like any other, by row and column,
both from 0, the row among the data rows: a cell that is not a number as
numpy's ``loadtxt`` words it, and a number out of range (non-binary,
negative) by its value.

The preprocessing transforms turn raw observation tables into binary
matrices: a document-frequency filter for word-count data and a per-column
percentile threshold for real-valued response data.  Each refuses a table
whose content it cannot transform with :class:`DataFormatError`, naming no
file, and a bad argument with a plain ``ValueError``.
"""

import json

import numpy as np

from .evaluate import cluster_feature_frequencies
from .model import BinaryMatrix

_MISSING_TOKENS = {"", "na", "nan", "null"}
_BLOCK_BYTES = 1 << 20  # bytes of whole lines that save_dense writes per call


class DataFormatError(ValueError):
    """Malformed matrix, labels, or report file content."""


def _decoded(path, raw):
    """The bytes ``raw`` of the file at ``path`` as the text a text-mode read
    gives: UTF-8 less a leading byte-order mark, each ``\\r\\n`` or lone
    ``\\r`` read as ``\\n``.  Bytes that do not decode raise a
    ``DataFormatError`` naming the file."""
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason} {exc.object[exc.start : exc.end]!r}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_text(path):
    with open(path, "rb") as fh:
        return _decoded(path, fh.read())


def _lines(path, text):
    """The non-blank lines of the file at ``path``, whose text is ``text``; a
    file without one is refused as empty."""
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    return lines


# ---------------------------------------------------------------------------
# CSV tables


def save_csv_matrix(path, matrix):
    """Write a numeric matrix as CSV, one row per line: each value by the repr
    of its Python value, so integers print as integers and floats round-trip
    losslessly."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.asarray(matrix).tolist())


def save_dense(path, data):
    """Write a binary matrix as dense CSV, one row per line, no header.

    Each line is 2 * D bytes: a digit at every even offset, a comma at every
    odd offset but the last, and a newline last.  Lines are written in blocks
    of at most ``_BLOCK_BYTES`` (or one line), one call each.
    """
    width = 2 * data.n_features
    block = np.full((min(data.n_objects, max(1, _BLOCK_BYTES // width)), width), ord(","), dtype=np.uint8)
    block[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        for start in range(0, data.n_objects, len(block)):
            rows = data.values[start : start + len(block)]
            np.add(rows, ord("0"), out=block[: len(rows), ::2])
            fh.write(block[: len(rows)])


def _saved_dense(raw):
    """The ``uint8`` matrix in ``raw`` if ``raw`` is byte for byte what
    ``save_dense`` writes, else None.  ``_read_table`` reads the same matrix
    from such bytes: they hold no header, blank line, space or carriage return.
    """
    width = raw.find(b"\n") + 1
    if width < 2 or len(raw) % width:
        return None
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
    # A byte below "0" wraps above 1.  An odd width puts each newline at an
    # even offset, so it fails this digit test.
    values = lines[:, ::2] - np.uint8(ord("0"))
    if (values > 1).any() or (lines[:, 1:-1:2] != ord(",")).any() or (lines[:, -1] != ord("\n")).any():
        return None
    return values


def load_dense(path):
    """Read a dense CSV binary matrix (optional header row).  A file in
    ``save_dense``'s exact layout is read as one byte view, any other by the
    table reader."""
    return _load_binary(path, "dense")


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


def _read_table(path, dtype, delimiter=",", converters=None, lines=None):
    """Parse a text table into a 2-d ``dtype`` array with numpy's ``loadtxt``.

    The table is the file at ``path``, or its non-blank ``lines`` (``_lines``)
    where they have been read already.  Blank lines are skipped.
    ``delimiter=None`` splits on whitespace.  In a CSV the first row is a
    header, and dropped, iff no cell of it is a number and some cell is not a
    missing token; so a bad first data row is reported, not dropped.  Every row must have as many fields as the first;
    a ragged row is reported ahead of a bad cell, and the first bad cell in
    row-major order by row and column, both from 0.  ``#`` starts no comment:
    a cell holding it is a bad cell.
    """
    if lines is None:
        lines = _lines(path, _read_text(path))
    if delimiter == "," and _is_header(lines[0].split(",")):
        del lines[0]
    if not lines:
        raise DataFormatError(f"{path}: no data rows")

    def parse(rows, usecols=None):
        return np.loadtxt(
            rows, dtype=dtype, delimiter=delimiter, converters=converters, comments=None, ndmin=2, usecols=usecols
        )

    try:
        return parse(lines)
    except ValueError as exc:
        # loadtxt refuses ragged rows and bad cells too, but counts a ragged
        # row, and a bad cell's column, from 1.  Splitting every line, and
        # parsing the first bad row cell by cell, only once the parse has
        # failed keeps it off a good file.
        width = len(lines[0].split(delimiter))
        for r, line in enumerate(lines):
            n_fields = len(line.split(delimiter))
            if n_fields != width:
                raise DataFormatError(f"{path}: row {r} has {n_fields} values, expected {width}") from None
        for r, line in enumerate(lines):
            try:
                parse([line])
            except ValueError:
                for c, cell in enumerate(line.split(delimiter)):
                    try:
                        parse([line], usecols=c)
                    except ValueError:
                        message = f"could not convert string {cell!r} to {np.dtype(dtype)} at row {r}, column {c}"
                        raise DataFormatError(f"{path}: {message}") from None
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
    return _sparse(path, _read_table(path, np.int64, delimiter=None))


def _sparse(path, table):
    """The binary matrix of a sparse file's integer table, header row first."""
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
    header means sparse.  A file with no such line is refused as empty."""
    return _format(path, _lines(path, _read_text(path))[0])


def _format(path, line):
    """``detect_format``'s answer for a file whose first non-blank line is ``line``."""
    first = line.strip()
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
    return _load_binary(path, None)


def _load_binary(path, fmt):
    """The binary matrix in the file at ``path``, whose bytes are read once.

    Bytes in ``save_dense``'s exact layout are taken as one byte view.  Any
    other bytes are decoded, and freed, and the text is parsed as ``fmt``:
    "dense", or None for the format ``detect_format`` tells.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    table = _saved_dense(raw)
    if table is not None:
        return BinaryMatrix(table)
    text = _decoded(path, raw)
    del raw
    lines = _lines(path, text)
    del text
    if (fmt or _format(path, lines[0])) == "sparse":
        return _sparse(path, _read_table(path, np.int64, delimiter=None, lines=lines))
    table = _read_table(path, np.uint8, lines=lines)
    _refuse_cells(path, table, table > 1, "non-binary value")
    return BinaryMatrix(table)


# ---------------------------------------------------------------------------
# label vectors


def save_labels(path, labels):
    """Write one non-negative integer label per line."""
    save_csv_matrix(path, np.asarray(labels, dtype=np.int64)[:, None])


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
    """Read a report JSON back into a plain dict, refusing by name a file that does not parse."""
    text = _read_text(path)
    try:
        report = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
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
        raise DataFormatError("no column passes the term filter")
    binary = (counts[:, kept] >= 1).astype(np.uint8)
    return BinaryMatrix(binary), kept


def percentile_binarize(values, pct, direction="below"):
    """Threshold each column at its own percentile of the non-missing values.

    The threshold is the ``pct``-th percentile (linear interpolation between
    order statistics) of the column's non-NaN entries; an output cell is 1
    iff its value is strictly below (``direction="below"``) or strictly
    above (``direction="above"``) that threshold.  NaN cells binarize to 0 and
    their rows are reported in the returned mask; an infinite cell is refused.
    Returns ``(BinaryMatrix, rows_with_missing_mask)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be 2-d")
    if not 0 < pct < 100:
        raise ValueError("pct must lie strictly between 0 and 100")
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    if np.isinf(values).any():
        r, c = np.argwhere(np.isinf(values))[0].tolist()
        raise DataFormatError(f"infinite value {values[r, c]} at row {r}, column {c}")
    present = ~np.isnan(values)
    too_few = present.sum(axis=0) < 2
    if too_few.any():
        raise DataFormatError(f"column {int(too_few.argmax())} has fewer than 2 non-missing values")
    threshold = np.nanpercentile(values, pct, axis=0)
    # A NaN cell compares False either way, so it binarizes to 0.
    hits = values < threshold if direction == "below" else values > threshold
    return BinaryMatrix(hits.astype(np.uint8)), ~present.all(axis=1)
