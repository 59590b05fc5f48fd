"""Every demo runs to completion, with every warning an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["01_plant_and_recover.py", "02_method_vs_baseline.py", "03_one_gibbs_decision.py", "04_files_and_preprocessing.py"],
)
def test_demo_exits_zero(tmp_path, name):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env["TMPDIR"] = str(tmp_path)  # demo 04 writes its files under a fresh temporary directory
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "False" not in done.stdout
    assert not list(tmp_path.glob("binclust_demo_*")), "the demo left its temporary directory behind"
