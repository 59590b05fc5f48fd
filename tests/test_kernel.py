"""The compiled visit kernel: its build and cache, its fallback, and runs equal to numpy's."""

import importlib.machinery
import inspect
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from binclust import _kernel, sampler
from binclust.datagen import SyntheticSpec, generate
from binclust.model import (
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    assignment_distribution,
    default_hyperparams,
    insert_object,
    remove_object,
)
from binclust.sampler import AnnealingSchedule, run

from _oracles import CATEGORICAL_EDGES, categorical_by_searchsorted
from _paths import PATHS, visit_path

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROOT = Path(__file__).resolve().parents[1]


def test_the_kernel_builds_and_loads_here():
    assert _kernel.library() is not None


@pytest.mark.parametrize("declaration", ["int64_t a, b", "int32_t n"])
def test_the_field_parse_refuses_a_declaration_ctypes_cannot_mirror(declaration):
    source = f"typedef struct {{\n    double alpha;\n    {declaration}; /* a comment */\n}} bc_state;"
    with pytest.raises(ValueError, match=re.escape(repr(declaration))):
        _kernel._fields(source)


def test_every_entry_python_calls_is_exported_and_refuses_a_wrong_count_or_type():
    lib = _kernel.library()
    called = set(re.findall(r"\.(bc_\w+)\b", inspect.getsource(_kernel.Visit)))
    arity = {name: len(params.split(",")) for name, params in re.findall(r"^static \w+ (bc_\w+)\(([^)]*)\)", _kernel.SOURCE, re.M)}
    assert called == set(arity) == {name for name in vars(lib) if name.startswith("bc_")}
    for name, n in arity.items():
        entry = getattr(lib, name)
        for count in (0, n - 1, n + 1):
            with pytest.raises(TypeError, match=rf"{name}\(\) takes {n} arguments \({count} given\)"):
                entry(*[0] * count)
        # Every argument converts before the C function runs: a refusal never reaches address 0.
        for position in range(n):
            for bad in ("1", None):
                args = [0] * n
                args[position] = bad
                with pytest.raises(TypeError):
                    entry(*args)


@pytest.mark.parametrize("compiler", ["missing", "failing", "timeout"])
def test_a_missing_or_failing_compiler_warns_once_then_runs_the_numpy_path(monkeypatch, tmp_path, compiler):
    data, _ = generate(SyntheticSpec(30, 20, 20, 10, k_true=3, seed=9))
    schedule = AnnealingSchedule(n_sweeps=10)
    with visit_path("numpy"):
        expected = run(data, schedule=schedule, seed=4)
    cache, cc = tmp_path / "cache", tmp_path / f"{compiler}-cc"
    if compiler == "failing":
        cc.write_text("#!/bin/sh\necho 'error: boom' >&2\nexit 1\n")
        cc.chmod(0o755)
        reason = f"{cc} exited with status 1: error: boom"
    elif compiler == "timeout":

        def out_of_time(argv, **kwargs):
            raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", out_of_time)
        reason = "timed out after 300 seconds"
    else:
        reason = f"No such file or directory: '{cc}'"
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_CC", str(cc))
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(cache))
    with pytest.warns(RuntimeWarning) as caught:
        report = run(data, schedule=schedule, seed=4)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert message.startswith("binclust: the compiled visit kernel is unavailable, the numpy path runs instead: ")
    assert message.endswith(reason)
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
        "print(_kernel._lib.__file__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", script]
    first = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert first.returncode == 0, first.stderr
    built = Path(first.stdout.strip())
    assert built.parent == package / "__pycache__"
    assert built.name.startswith("visit-") and built.name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
    assert sorted(package.rglob("*")) == sorted(copied + [built.parent, built])
    assert "__pycache__/" in (ROOT / ".gitignore").read_text().split()
    stamp = built.stat().st_mtime_ns
    # No compiler on the PATH: a build attempt would warn, and fail the process.
    (tmp_path / "empty").mkdir()
    second = subprocess.run(argv, env={**env, "PATH": str(tmp_path / "empty")}, capture_output=True, text=True, timeout=300)
    assert second.returncode == 0, second.stderr
    assert Path(second.stdout.strip()) == built
    assert built.stat().st_mtime_ns == stamp


def test_a_build_deletes_stale_builds_but_not_a_running_builds_file(monkeypatch, tmp_path):
    stale = tmp_path / f"visit-0123456789abcdef{_kernel._SUFFIX}"
    running = tmp_path / "visit-fedcba9876543210-x1y2.tmp"
    other_interpreter = tmp_path / "visit-0011223344556677.cpython-00-other.so"
    ctypes_era = tmp_path / "visit-785726fff974475b.so"  # loaded by ctypes before the kernel was an extension module
    not_a_key = tmp_path / "visit-785726fff974475.so"  # 15 hex digits: no build of this module
    for planted in (stale, running, other_interpreter, ctypes_era, not_a_key):
        planted.write_bytes(b"")
    monkeypatch.setattr(_kernel, "_CACHE_DIR", str(tmp_path))
    built = Path(_kernel._built())
    assert sorted(tmp_path.iterdir()) == sorted([built, running, other_interpreter, not_a_key])


def test_the_cache_key_covers_the_extension_suffix(monkeypatch):
    # A build for another interpreter's ABI is never loaded by this one.
    key = _kernel._key()
    monkeypatch.setattr(_kernel, "_SUFFIX", ".cpython-00-other.so")
    assert _kernel._key() != key


def test_the_source_compiles_without_warnings(tmp_path):
    warned = subprocess.run(
        [_kernel._CC, *_kernel._FLAGS, "-Wall", "-Wextra", "-Wconversion", "-Wpedantic", "-Wshadow", "-Wcast-qual",
         "-Wdouble-promotion", "-Wstrict-prototypes", "-Werror", "-x", "c", "-",
         "-o", str(tmp_path / "warnings.so"), "-lm"],
        input=_kernel.SOURCE, capture_output=True, text=True, timeout=300,
    )
    assert warned.returncode == 0, warned.stderr


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


def test_a_cluster_run_that_loads_an_existing_build_never_imports_subprocess(tmp_path):
    assert _kernel.library() is not None  # built before the child starts
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from binclust import _kernel\n"
        "from binclust.cli import cli_main\n"
        "from binclust.io import save_dense\n"
        "from binclust.model import BinaryMatrix\n"
        f"path = {str(tmp_path / 'm.csv')!r}\n"
        "save_dense(path, BinaryMatrix(np.random.default_rng(0).integers(0, 2, size=(20, 6))))\n"
        f"assert cli_main(['cluster', '--in', path, '--sweeps', '2', '--block', '1', '--report', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "assert _kernel._lib\n"
        "print('subprocess' in sys.modules)\n"
    )
    src = str(Path(_kernel.__file__).parents[1])  # the package whose build the test process holds
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


def _scored(top):
    """A kernel-bound state whose object 0 is detached and scored over ``top`` rows, and its
    matrix: object 0's singleton died at the detach, and each of the other ``top - 1`` clusters
    holds two objects."""
    labels = np.concatenate([[top - 1], np.repeat(np.arange(top - 1), 2)])
    data = BinaryMatrix(np.random.default_rng(0).integers(0, 2, size=(labels.size, 5)))
    with visit_path("compiled"):
        state = ClusterState(data, labels)
        remove_object(state, 0, data)
        probs = assignment_distribution(0, state, data, default_hyperparams(data), 1.0)
    assert probs.shape == (top,) and state._visit
    return state, data


def _drawn_by_the_kernel(probs, u):
    state, _ = _scored(len(probs))
    state._visit.probs[: len(probs)] = probs
    return state._visit.draw(0, len(probs), u)


@st.composite
def _draws(draw):
    """A vector of 1-9 probabilities, some 0, whose total may fall short of 1 or exceed it,
    and a uniform: any in [0, 1), the largest below 1, 0 or one of the running sums."""
    probs = draw(hnp.arrays(np.float64, draw(st.integers(1, 9)), elements=st.one_of(st.just(0.0), st.floats(0, 1))))
    if draw(st.booleans()) and probs.sum() > 0:
        probs /= probs.sum()
    sums = np.cumsum(probs).tolist()
    u = draw(st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from([0.0, 0.9999999999999999, *sums])))
    return probs, u


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_draws())
def test_the_kernels_draw_equals_categorical(case):
    probs, u = case
    assert _drawn_by_the_kernel(probs, u) == sampler._categorical(probs, u)


@pytest.mark.parametrize("probs, u", CATEGORICAL_EDGES)
def test_the_kernels_draw_at_the_pinned_edges(probs, u):
    probs = np.array(probs)
    assert _drawn_by_the_kernel(probs, u) == sampler._categorical(probs, u) == categorical_by_searchsorted(probs, u)


def test_the_draw_refuses_all_but_the_last_distributions_object_and_rows_changing_nothing():
    state, data = _scored(4)
    visit, hyper = state._visit, state._visit.hyper

    def memory():
        return [visit.probs.tobytes(), state.assignments.tobytes(), visit._ctx.probs_object, visit._ctx.probs_top]

    taken, before = visit.draw(0, 4, 0.5), memory()
    assert 0 <= taken < 4
    # Another object, other rows, a numpy integer or an index outside the objects.
    for i, top in ((1, 4), (0, 3), (0, 5), (np.int64(0), 4), (-1, 4), (2**63, 4)):
        assert visit.draw(i, top, 0.5) == -1, (i, top)
    assert memory() == before
    insert_object(state, 0, 0, data)  # an attached object
    assert visit.draw(0, 4, 0.5) == -1
    remove_object(state, 0, data)  # a detach since the distribution: row 0 keeps two members
    assert visit.draw(0, 4, 0.5) == -1
    assignment_distribution(0, state, data, hyper, 1.0)
    assert visit.draw(0, 4, 0.5) >= 0
    remove_object(state, 1, data)  # a detach of another object since
    assert visit.draw(0, 4, 0.5) == -1
    insert_object(state, 1, 0, data)
    assignment_distribution(0, state, data, hyper, 1.0)
    assert visit.draw(0, 4, 0.5) >= 0
    insert_object(state, 0, 1, data)  # an attach since, of the object itself
    assert visit.draw(0, 4, 0.5) == -1
    assert state._visit is visit


def test_a_compiled_run_draws_in_the_kernel_and_a_numpy_run_through_categorical(monkeypatch):
    # From one cluster the buffers grow, so the draw also follows the rebinding of a kernel.
    data, _ = generate(SyntheticSpec(60, 40, 20, 5, k_true=6, seed=3))
    kwargs = {"schedule": AnnealingSchedule(n_sweeps=6, block=2), "k_init": 1, "seed": 2}
    categorical, calls = sampler._categorical, []

    def counted(probs, u):
        calls.append(u)
        return categorical(probs, u)

    def refused(probs, u):
        raise AssertionError("the compiled path drew through _categorical")

    monkeypatch.setattr(sampler, "_categorical", counted)
    with visit_path("numpy"):
        plain = run(data, **kwargs)
    assert len(calls) == 6 * data.n_objects
    monkeypatch.setattr(sampler, "_categorical", refused)
    with visit_path("compiled"):
        compiled = run(data, **kwargs)
    assert np.array_equal(compiled.assignments, plain.assignments)
    assert np.array_equal(compiled.score_trace, plain.score_trace)


def test_a_refused_draw_falls_back_to_categorical(monkeypatch):
    data, _ = generate(SyntheticSpec(40, 30, 20, 10, k_true=3, seed=5))
    kwargs = {"schedule": AnnealingSchedule(n_sweeps=5, block=1), "seed": 1}
    with visit_path("numpy"):
        plain = run(data, **kwargs)
    bind = _kernel.Visit.__init__

    def refusing(self, *args):
        bind(self, *args)
        self.draw = lambda i, top, u: -1

    monkeypatch.setattr(_kernel.Visit, "__init__", refusing)
    with visit_path("compiled"):
        compiled = run(data, **kwargs)
    assert np.array_equal(compiled.assignments, plain.assignments)
    assert np.array_equal(compiled.score_trace, plain.score_trace)


# Appended to both sanitized scripts below.  With the zero row as the top row
# of the buffers: a death of the row just below it, whose terms move one row;
# a growth right after a death, with no scoring between; and a growth while
# another object's row is pending.  Every step is checked, and a scoring
# after each growth binds a fresh kernel.
_SANITIZED_TOP_ROW = """
from binclust.model import NEW_CLUSTER, ClusterState, assignment_distribution, default_hyperparams
from binclust.sampler import insert_object, remove_object

top_hyper = default_hyperparams(data)
for growth in ("after a death", "with a row pending"):
    state = ClusterState(data, np.arange(data.n_objects) % 3)  # K = 3 in 5 rows
    remove_object(state, 0, data)
    assignment_distribution(0, state, data, top_hyper, 0.5)  # binds the kernel
    insert_object(state, 0, NEW_CLUSTER, data)  # object 0 alone in row 3, the zero row in row 4
    state.check_consistency(data)
    rows = state._sizes.shape[0]
    assert state._visit and state.n_clusters == rows - 1, "no full buffers"
    if growth == "after a death":
        k1 = remove_object(state, 1, data)
        state.check_consistency(data)
        assert remove_object(state, 0, data) == rows - 2, "no death just below the top row"
        state.check_consistency(data)
        insert_object(state, 1, NEW_CLUSTER, data)  # the buffers are full again
        state.check_consistency(data)
        insert_object(state, 0, NEW_CLUSTER, data)
    else:
        remove_object(state, 2, data)
        state.check_consistency(data)
        k1 = remove_object(state, 1, data)
        assert state._visit._ctx.pending_object == 1, "no pending row"
        state.check_consistency(data)
        insert_object(state, 2, NEW_CLUSTER, data)
        state.check_consistency(data)
        insert_object(state, 1, k1, data)
    assert state._visit is None and state._sizes.shape[0] > rows, "no growth " + growth
    state.check_consistency(data)
    remove_object(state, 3, data)
    assignment_distribution(3, state, data, top_hyper, 0.5)
    assert state._visit, "no kernel bound after growth"
    state.check_consistency(data)
    insert_object(state, 3, 0, data)
    state.check_consistency(data)
"""


# Sweeps one state through births that outgrow its row buffers and through
# deaths, checking the kernel's cache after every sweep; visits objects that
# return to their own row, some of them scored under another hyperparameter
# object between detach and attach; detaches two objects at once and swaps
# them; refuses to score one of two detached objects, changing no memo; then
# runs from the coldest start there is.
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
    if state._visit._ctx.pending_object == i:  # a return into the row it left
        restored += 1
    else:
        switched += switch
    insert_object(state, i, k, data)
    state.check_consistency(data)
assert restored and switched, (restored, switched)
clock = state._visit._ctx.clock
for sweep in range(2):  # stays: the second sweep scores every row from the memo, and neither ticks
    for i in range(data.n_objects):
        k = remove_object(state, i, data)
        assignment_distribution(i, state, data, hyper, 0.5)
        insert_object(state, i, k, data)
    state.check_consistency(data)
assert state._visit._ctx.clock == clock, "a stay ticked"
for i in range(0, data.n_objects - 1, 2):  # two objects out: the second detach settles the first's row
    k_first = remove_object(state, i, data)
    k_second = remove_object(state, i + 1, data)
    state.check_consistency(data)
    insert_object(state, i + 1, k_first, data)
    insert_object(state, i, k_second, data)
    state.check_consistency(data)
k_first, k_second = remove_object(state, 0, data), remove_object(state, 1, data)
memo = state._visit._ctx.clock, state._visit._scored_at.tobytes(), state._visit._scores.tobytes()
try:
    assignment_distribution(0, state, data, hyper, 0.5)
except ValueError:
    pass
else:
    raise AssertionError("a state with two objects detached was scored")
assert (state._visit._ctx.clock, state._visit._scored_at.tobytes(), state._visit._scores.tobytes()) == memo
insert_object(state, 1, k_second, data)
insert_object(state, 0, k_first, data)
state.check_consistency(data)
run(data, schedule=AnnealingSchedule(t_init=5e-324, n_sweeps=5), k_init=8, seed=1)
""" + _SANITIZED_TOP_ROW


def test_the_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    libasan = subprocess.run([_kernel._CC, "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("libasan.so, the AddressSanitizer runtime, is not installed")
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
# the buffers; deaths of the top live row; moves and moves back, and a death
# in the middle, scored from the memo.  The cache is checked after every step.
# Then a bound kernel refuses every step that does not fit, through its entries
# and through the visit steps, changing nothing, and takes a numpy integer
# index through each visit step; draws at the edges of the uniform, and
# refuses a draw from any but the last distribution, changing nothing.
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
state = ClusterState(data, np.arange(n) % 5)
for i in range(n):
    k = remove_object(state, i, data)
    assignment_distribution(i, state, data, hypers[0], 0.5)
    insert_object(state, i, (k + 1) % 5, data)
    state.check_consistency(data)
    remove_object(state, i, data)
    assignment_distribution(i, state, data, hypers[0], 0.5)
    insert_object(state, i, k, data)
    state.check_consistency(data)
for i in range(1, n, 5):  # row 1 empties into row 0
    remove_object(state, i, data)
    assignment_distribution(i, state, data, hypers[0], 0.5)
    insert_object(state, i, 0, data)
    state.check_consistency(data)
assert state.n_clusters == 4, "no death in the middle"
state = ClusterState(data, np.arange(n) % 3)
k = remove_object(state, 0, data)
assignment_distribution(0, state, data, hypers[0], 0.5)  # binds the kernel
insert_object(state, 0, k, data)
visit, top, capacity = state._visit, state.n_clusters, state._sizes.shape[0]


def unchanged():
    arrays = (state.assignments, state._sizes, state._counts, visit._terms, visit._memo, visit._scores,
              visit._scored_at, visit._changed)
    return [a.tobytes() for a in arrays + (visit.probs,)] + [
        visit._ctx.clock, visit._ctx.pending_object, visit._ctx.pending_row, visit._ctx.probs_object, visit._ctx.probs_top
    ]


def refused(entries, steps):
    before = unchanged()
    assert all(entry() in (None, False) for entry in entries), "a bound entry took a step that does not fit"
    for step in steps:
        try:
            step()
        except ValueError:
            pass
        else:
            raise AssertionError("a visit step that does not fit was taken")
    assert unchanged() == before and state._visit is visit


for i in (-1, n, 2**63, True):
    refused(
        (lambda: visit.detach(i, top), lambda: visit.attach(i, 0, top), lambda: visit.distribution(i, top + 1, 0.5)),
        (lambda: remove_object(state, i, data), lambda: insert_object(state, i, 0, data),
         lambda: assignment_distribution(i, state, data, hypers[0], 0.5)),
    )
refused(  # attached objects
    (lambda: visit.attach(1, 0, top), lambda: visit.distribution(1, top + 1, 0.5), lambda: visit.detach(2, 0)),
    (lambda: insert_object(state, 1, 0, data), lambda: assignment_distribution(1, state, data, hypers[0], 0.5)),
)
k = remove_object(state, np.int64(1), data)  # a detach that leaves its row pending
assert visit._ctx.pending_object == 1
refused(  # a detached object, an attached one while it is out, rows past the buffers, a birth into the
    # last row, no positive temperature
    (lambda: visit.detach(1, top), lambda: visit.distribution(2, top + 1, 0.5), lambda: visit.attach(2, 0, top),
     lambda: visit.detach(2, capacity), lambda: visit.attach(1, top + 1, top),
     lambda: visit.attach(1, capacity - 1, capacity - 1), lambda: visit.distribution(1, capacity + 1, 0.5),
     lambda: visit.distribution(1, top + 1, 0.0), lambda: visit.distribution(1, top + 1, float("nan"))),
    (lambda: remove_object(state, 1, data), lambda: assignment_distribution(2, state, data, hypers[0], 0.5),
     lambda: insert_object(state, 2, 0, data), lambda: assignment_distribution(1, state, data, hypers[0], 0.0)),
)
assignment_distribution(np.int64(1), state, data, hypers[0], 0.5)
for u in (0.0, 0.5, 0.9999999999999999, 1.0, float("inf"), float("-inf"), float("nan")):
    assert 0 <= visit.draw(1, top + 1, u) <= top, "a draw outside the rows"
before = unchanged()
for args in ((2, top + 1, 0.5), (1, top, 0.5), (1, top + 2, 0.5), (np.int64(1), top + 1, 0.5), (-1, top + 1, 0.5),
             (2**63, top + 1, 0.5)):
    assert visit.draw(*args) == -1, "a draw from another object's distribution or other rows"
assert unchanged() == before
k2 = remove_object(state, 2, data)
assert visit.draw(1, top + 1, 0.5) == -1, "a draw after a detach"
insert_object(state, 2, k2, data)
insert_object(state, np.int64(1), k, data)
assert visit.draw(1, top + 1, 0.5) == -1, "a draw after an attach"
assert state._visit is visit and visit._ctx.pending_object == -1
state.check_consistency(data)
""" + _SANITIZED_TOP_ROW


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


def _on_both_paths(data, **kwargs):
    """``run(data, **kwargs)`` on each path of ``PATHS``: numpy, then compiled."""
    reports = []
    for path in PATHS:
        with visit_path(path):
            reports.append(run(data, **kwargs))
    return reports


@pytest.mark.parametrize("name", list(CASES))
def test_both_paths_give_equal_labels_and_score_traces(name):
    make, seed = CASES[name]
    data, kwargs = make()
    plain, compiled = _on_both_paths(data, seed=seed, **kwargs)
    assert np.array_equal(compiled.assignments, plain.assignments)
    assert np.array_equal(compiled.score_trace, plain.score_trace)
    assert np.array_equal(compiled.k_trace, plain.k_trace)


@pytest.mark.parametrize(
    "make_hyper",
    [
        lambda d: Hyperparams(a=np.ones(d), b=np.ones(d), alpha=1.7e308),
        lambda d: Hyperparams(a=np.full(d, 1e307), b=np.full(d, 1e307), alpha=1.0),
    ],
    ids=["alpha-1.7e308", "shapes-1e307"],
)
def test_both_paths_agree_at_the_largest_accepted_settings(make_hyper):
    data, _ = generate(SyntheticSpec(40, 30, 20, 10, k_true=3, seed=5))
    hyper = make_hyper(data.n_features)
    plain, compiled = _on_both_paths(data, hyper=hyper, schedule=AnnealingSchedule(n_sweeps=10, block=2), seed=0)
    assert np.array_equal(compiled.assignments, plain.assignments)
    assert np.array_equal(compiled.score_trace, plain.score_trace)
    assert np.isfinite(plain.score_trace).all() and (plain.score_trace <= 0).all()


@st.composite
def _whole_runs(draw):
    """A small instance and its run settings: D also from 8-16 and 129-160,
    where ``pairwise_sum`` takes its 8-lane and its recursive branches."""
    n = draw(st.integers(1, 14))
    d = draw(st.one_of(st.integers(1, 7), st.integers(8, 16), st.integers(129, 160)))
    data = BinaryMatrix(draw(hnp.arrays(np.uint8, (n, d), elements=st.integers(0, 1))))
    alpha = 10.0 ** draw(st.floats(-3, 6))
    if draw(st.booleans()):
        hyper = default_hyperparams(data, alpha)
    else:
        shapes = hnp.arrays(np.float64, d, elements=st.floats(1e-3, 1e3))
        hyper = Hyperparams(a=draw(shapes), b=draw(shapes), alpha=alpha)
    schedule = AnnealingSchedule(
        t_init=draw(st.floats(1e-3, 50)), lam=draw(st.floats(0.05, 0.99)),
        block=draw(st.integers(1, 5)), n_sweeps=draw(st.integers(1, 25)),
    )
    return data, {"hyper": hyper, "schedule": schedule, "k_init": draw(st.integers(1, n + 3)),
                  "seed": draw(st.integers(0, 2**32 - 1))}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_whole_runs())
def test_both_paths_give_equal_whole_runs(case):
    data, kwargs = case
    plain, compiled = _on_both_paths(data, **kwargs)
    assert np.array_equal(compiled.assignments, plain.assignments)
    assert np.array_equal(compiled.score_trace, plain.score_trace)
    assert np.array_equal(compiled.k_trace, plain.k_trace)
