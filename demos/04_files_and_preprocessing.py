"""File formats and the two raw-data preprocessing transforms.

Everything here also exists as CLI subcommands (`binclust generate`,
`binclust cluster`, `binclust preprocess ...`); this script drives the same
machinery as a library to show the round-trip guarantees and the exact
boundary rules of the transforms.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

import binclust as bc
from binclust import io

workdir = Path(tempfile.mkdtemp(prefix="binclust_demo_"))
atexit.register(shutil.rmtree, workdir)  # removed again when the demo exits
print(f"writing into {workdir}")

# --- dense and sparse matrix formats round-trip exactly -------------------
rng = np.random.default_rng(0)
matrix = bc.BinaryMatrix((rng.random((6, 9)) < 0.25).astype(np.uint8))

dense_path = workdir / "matrix.csv"
sparse_path = workdir / "matrix.sparse"
io.save_dense(dense_path, matrix)
io.save_sparse(sparse_path, matrix)
assert np.array_equal(io.load_dense(dense_path).values, matrix.values)
assert np.array_equal(io.load_sparse(sparse_path).values, matrix.values)
# auto-detection keys off the first non-blank line: commas mean dense, "N D" means sparse
assert io.detect_format(dense_path) == "dense"
assert io.detect_format(sparse_path) == "sparse"
print("dense and sparse round-trips: OK (auto-detection agrees)")
print(f"sparse file starts with: {sparse_path.read_text().splitlines()[0]!r}")

# --- document-term filtering ----------------------------------------------
# Keep a word only if some document uses it at least twice AND it appears in
# more than 10 documents.  Column 0 passes both tests, column 1 fails the
# document-frequency test (10 is not more than 10), column 2 never repeats.
counts = np.zeros((14, 3), dtype=np.int64)
counts[:11, 0] = [2] + [1] * 10
counts[:10, 1] = 4
counts[:12, 2] = 1
binary, kept = io.term_filter(counts)
print(f"\nterm filter kept columns {kept.tolist()} of 3 "
      f"(presence matrix is {binary.n_objects} x {binary.n_features})")

# --- percentile thresholding ----------------------------------------------
# Per column: threshold at the 20th percentile of the non-missing values and
# mark everything strictly below it.  Rows with any missing value come back
# flagged so the caller can drop them.
responses = np.array(
    [
        [0.02, 1.4],
        [0.10, 0.9],
        [0.50, np.nan],
        [0.80, 2.2],
        [0.90, 0.1],
        [1.10, 3.0],
    ]
)
binary, missing_rows = io.percentile_binarize(responses, pct=20.0, direction="below")
print(f"\npercentile-binarized potency matrix:\n{binary.values}")
print(f"rows flagged for removal (missing data): {np.flatnonzero(missing_rows).tolist()}")

# --- run reports -----------------------------------------------------------
data, _ = bc.generate(bc.SyntheticSpec(n_objects=30, n_features=12, info_pct=25, noise_pct=5, seed=3))
report = bc.run(data, k_init=5, seed=0, schedule=bc.AnnealingSchedule(n_sweeps=40))
report_path = workdir / "report.json"
io.save_report(report_path, report, data)
loaded = io.load_report(report_path)
print(f"\nreport JSON round-trips: {loaded == io.report_to_dict(report, data)}")
print(f"report keys: {sorted(loaded)}")
