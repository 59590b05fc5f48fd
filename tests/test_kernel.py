"""The compiled visit kernel: its build and cache, its fallback, and runs equal to numpy's."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from binclust import _kernel
from binclust.datagen import SyntheticSpec, generate
from binclust.model import BinaryMatrix
from binclust.sampler import AnnealingSchedule, run

from _paths import PATHS, visit_path

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROOT = Path(__file__).resolve().parents[1]


def test_the_kernel_builds_and_loads_here():
    assert _kernel.library() is not None


def test_the_ctypes_context_mirrors_the_c_struct_field_for_field():
    body = re.search(r"typedef struct \{(.*?)\} bc_state;", _kernel.SOURCE, re.S).group(1)
    fields = []
    for declaration in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        match = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s*(\*?)\s*(\w+)\s*", declaration)
        assert match, f"one field per declaration, got {declaration.strip()!r}"
        c_type, pointer, name = match.groups()
        fields.append((name, "pointer" if pointer else c_type))
    c_types = {ctypes.c_int64: "int64_t", ctypes.c_double: "double", ctypes.c_void_p: "pointer"}
    assert fields == [(name, c_types[field_type]) for name, field_type in _kernel._Context._fields_]


def test_a_missing_compiler_warns_once_then_runs_the_numpy_path(monkeypatch, tmp_path):
    data, _ = generate(SyntheticSpec(30, 20, 20, 10, k_true=3, seed=9))
    schedule = AnnealingSchedule(n_sweeps=10)
    with visit_path("numpy"):
        expected = run(data, schedule=schedule, seed=4)
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_CC", str(tmp_path / "no-such-compiler"))
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(cache))
    with pytest.warns(RuntimeWarning) as caught:
        report = run(data, schedule=schedule, seed=4)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("binclust: the compiled visit kernel is unavailable")
    assert "no-such-compiler" in str(caught[0].message)
    assert _kernel._lib is False
    assert np.array_equal(report.assignments, expected.assignments)
    assert np.array_equal(report.score_trace, expected.score_trace)
    assert list(cache.iterdir()) == []  # the failed build left no temporary file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = run(data, schedule=schedule, seed=4)
    assert np.array_equal(again.assignments, expected.assignments)


def test_the_build_lands_in_pycache_and_a_second_process_loads_it_without_gcc(tmp_path):
    package = tmp_path / "src" / "binclust"
    shutil.copytree(Path(_kernel.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    copied = sorted(p for p in package.rglob("*"))
    script = (
        "import binclust as bc\n"
        "from binclust import _kernel\n"
        "data, _ = bc.generate(bc.SyntheticSpec(12, 6, 30, 10, k_true=2, seed=0))\n"
        "bc.run(data, schedule=bc.AnnealingSchedule(n_sweeps=2))\n"
        "assert _kernel._lib\n"
        "print(_kernel._lib._name)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", script]
    first = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert first.returncode == 0, first.stderr
    built = Path(first.stdout.strip())
    assert built.parent == package / "__pycache__"
    assert built.name.startswith("visit-") and built.suffix == ".so"
    assert sorted(package.rglob("*")) == sorted(copied + [built.parent, built])
    assert "__pycache__/" in (ROOT / ".gitignore").read_text().split()
    stamp = built.stat().st_mtime_ns
    # No compiler on the PATH: a build attempt would warn, and fail the process.
    (tmp_path / "empty").mkdir()
    second = subprocess.run(argv, env={**env, "PATH": str(tmp_path / "empty")}, capture_output=True, text=True, timeout=300)
    assert second.returncode == 0, second.stderr
    assert Path(second.stdout.strip()) == built
    assert built.stat().st_mtime_ns == stamp


def test_help_and_baseline_never_load_the_kernel(tmp_path):
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from binclust.cli import cli_main\n"
        "from binclust.io import save_dense\n"
        "from binclust.model import BinaryMatrix\n"
        f"path = {str(tmp_path / 'm.csv')!r}\n"
        "save_dense(path, BinaryMatrix(np.random.default_rng(0).integers(0, 2, size=(20, 6))))\n"
        "assert cli_main(['--help']) == 0\n"
        f"assert cli_main(['baseline', '--in', path, '--k-max', '3', '--n-refs', '2', '--report', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('binclust._kernel' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


# Sweeps one state through births that outgrow its row buffers and through
# deaths, checking the kernel's cache after every sweep; visits objects that
# return to their own row, some of them scored under another hyperparameter
# object between detach and attach; then runs from the coldest start there is.
_SANITIZED_RUN = """
import numpy as np
from binclust import _kernel
from binclust.datagen import SyntheticSpec, generate
from binclust.model import Hyperparams, assignment_distribution, default_hyperparams
from binclust.sampler import AnnealingSchedule, gibbs_sweep, init_state, insert_object, remove_object, run

_kernel._FLAGS, _kernel._CACHE_DIR = {flags!r}, {cache!r}
data, _ = generate(SyntheticSpec(60, 40, 20, 5, k_true=6, seed=3))
hyper = default_hyperparams(data)
rng = np.random.default_rng(0)
state = init_state(data, 1, rng)
capacity = state._sizes.shape[0]
for temperature in (1.0, 1.0, 0.1):
    gibbs_sweep(state, data, hyper, temperature, rng)
    state.check_consistency(data)
assert _kernel._lib and state._visit
assert state._sizes.shape[0] > capacity, "no buffer growth"
state = init_state(data, 40, rng)
k_start = state.n_clusters
gibbs_sweep(state, data, hyper, 1.0, rng)
state.check_consistency(data)
assert state.n_clusters < k_start, "no deaths"
other = Hyperparams(a=np.full(data.n_features, 0.5), b=np.full(data.n_features, 2.0), alpha=2.0)
state = init_state(data, 3, rng)  # clusters of about 20: every object can return
restored = switched = 0
for i in range(data.n_objects):
    k = remove_object(state, i, data)
    switch = i % 3 == 0
    assignment_distribution(i, state, data, other if switch else hyper, 0.5)
    if state._visit._ctx.returned_object == i:
        restored += 1
    else:
        switched += switch
    insert_object(state, i, k, data)
    state.check_consistency(data)
assert restored and switched, (restored, switched)
run(data, schedule=AnnealingSchedule(t_init=5e-324, n_sweeps=5), k_init=8, seed=1)
"""


def test_the_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    libasan = subprocess.run([_kernel._CC, "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("libasan.so, the AddressSanitizer runtime, is not installed")
    warned = subprocess.run(
        [_kernel._CC, *_kernel._FLAGS, "-Wall", "-Wextra", "-Wconversion", "-Werror", "-x", "c", "-",
         "-o", str(tmp_path / "warnings.so"), "-lm"],
        input=_kernel.SOURCE, capture_output=True, text=True, timeout=300,
    )
    assert warned.returncode == 0, warned.stderr
    flags = _kernel._FLAGS + ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
    cache = str(tmp_path / "cache")
    # Built here, outside the sanitized process: gcc need not run under the preloaded runtime.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_FLAGS", flags)
        patch.setattr(_kernel, "_CACHE_DIR", cache)
        _kernel._built()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        "LD_PRELOAD": libasan,
        "ASAN_OPTIONS": "detect_leaks=0",
        "PATH": str(tmp_path / "no-compiler"),  # the library is loaded, never rebuilt
    }
    script = _SANITIZED_RUN.format(flags=flags, cache=cache)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]


# Detaches, births, deaths and growth before a state's first scoring binds its
# kernel; a switch of hyperparameters before every birth, some of which grow
# the buffers; and deaths of the top live row.  The cache is checked after
# every step.
_SANITIZED_EDGES = """
import numpy as np
from binclust import _kernel
from binclust.datagen import SyntheticSpec, generate
from binclust.model import NEW_CLUSTER, ClusterState, Hyperparams, assignment_distribution, default_hyperparams
from binclust.sampler import gibbs_sweep, insert_object, remove_object

_kernel._FLAGS, _kernel._CACHE_DIR = {flags!r}, {cache!r}
data, _ = generate(SyntheticSpec(30, 25, 20, 5, k_true=3, seed=4))
n = data.n_objects
hypers = (default_hyperparams(data), Hyperparams(a=np.full(25, 0.5), b=np.full(25, 2.0), alpha=2.0))
rng = np.random.default_rng(0)
state = ClusterState(data, np.arange(n) % 2)
capacity = state._sizes.shape[0]
for i in range(n):
    remove_object(state, i, data)
    insert_object(state, i, NEW_CLUSTER if i % 2 else int(rng.integers(state.n_clusters)), data)
assert state._visit is None and state._sizes.shape[0] > capacity, "no growth before binding"
gibbs_sweep(state, data, hypers[0], 1.0, rng)
state.check_consistency(data)
assert _kernel._lib and state._visit
state = ClusterState(data, np.arange(n) % 2)
capacity = state._sizes.shape[0]
for i in range(n):
    remove_object(state, i, data)
    assignment_distribution(i, state, data, hypers[i % 2], 0.5)
    insert_object(state, i, NEW_CLUSTER, data)
    state.check_consistency(data)
assert state._sizes.shape[0] > capacity, "no growth after a switch"
for i in range(n):
    remove_object(state, i, data)
    assignment_distribution(i, state, data, hypers[0], 0.5)
    insert_object(state, i, NEW_CLUSTER, data)
    top = state.n_clusters - 1
    assert remove_object(state, i, data) == top and state.n_clusters == top, "no death of the top live row"
    state.check_consistency(data)
    assignment_distribution(i, state, data, hypers[1], 0.5)
    insert_object(state, i, 0, data)
    state.check_consistency(data)
"""


def test_the_kernel_runs_its_edge_cases_clean_under_sanitizers(tmp_path, monkeypatch):
    # The test above, with the edge-case script in place of _SANITIZED_RUN.
    monkeypatch.setattr(sys.modules[__name__], "_SANITIZED_RUN", _SANITIZED_EDGES)
    test_the_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path)


def _planted(n, d, sd, sn, k_true, seed):
    return lambda: (generate(SyntheticSpec(n, d, sd, sn, k_true=k_true, seed=seed))[0], {})


def _cold(t_init):
    def case():
        data, _ = generate(SyntheticSpec(40, 300, 20, 5, k_true=3, seed=1))
        return data, {"schedule": AnnealingSchedule(t_init=t_init, n_sweeps=20)}

    return case


def _duplicate_rows():
    rows = np.random.default_rng(3).integers(0, 2, size=(4, 9))
    return BinaryMatrix(np.repeat(rows, [5, 1, 3, 6], axis=0)), {"k_init": 3}


CASES = {
    # Criterion 1's instances: three shapes, five seeds each, at stock defaults.
    **{
        f"{name}-seed{seed}": (_planted(*shape, k_true=5, seed=1000 + seed), seed)
        for name, shape in (("thin", (200, 500, 10, 20)), ("square", (200, 200, 20, 20)), ("wide", (100, 1000, 20, 30)))
        for seed in range(5)
    },
    "criterion9": (
        lambda: (generate(SyntheticSpec(30, 20, 20, 10, k_true=3, seed=9))[0],
                 {"k_init": 5, "schedule": AnnealingSchedule(n_sweeps=40)}),
        77,
    ),
    **{f"cold-{t}": (_cold(t), 0) for t in (1e-306, 1e-310, 5e-324)},
    "one-row": (lambda: (BinaryMatrix([[1, 0, 1, 1, 0, 0, 1]]), {"schedule": AnnealingSchedule(n_sweeps=20)}), 0),
    "one-column": (lambda: (BinaryMatrix(np.array([[1], [0], [0], [1], [1], [0], [1], [1]])), {}), 2),
    "duplicate-rows": (_duplicate_rows, 5),
}


@pytest.mark.parametrize("name", list(CASES))
def test_both_paths_give_equal_labels_and_score_traces(name):
    make, seed = CASES[name]
    data, kwargs = make()
    reports = {}
    for path in PATHS:
        with visit_path(path):
            reports[path] = run(data, seed=seed, **kwargs)
    plain, compiled = reports["numpy"], reports["compiled"]
    assert np.array_equal(compiled.assignments, plain.assignments)
    assert np.array_equal(compiled.score_trace, plain.score_trace)
    assert np.array_equal(compiled.k_trace, plain.k_trace)
