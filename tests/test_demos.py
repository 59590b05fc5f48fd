"""The demos that drive the library's finer-grained API run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["03_one_gibbs_decision.py", "04_files_and_preprocessing.py"])
def test_demo_exits_zero(tmp_path, name):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["TMPDIR"] = str(tmp_path)  # demo 04 writes its files under a fresh temporary directory
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "False" not in done.stdout
