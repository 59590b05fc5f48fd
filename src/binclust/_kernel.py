"""The compiled per-visit Gibbs kernel: its C source, its build on first use,
and its binding to one :class:`~binclust.model.ClusterState`.

A visit of the annealed Gibbs sampler detaches one object, scores every
cluster option and attaches the object again.  Here those steps run in C
over the state's own row buffers, one call each, with no copies in or out.
The log-term cache is this kernel's alone; the numpy path keeps none.

- Detach and attach update the size, the feature counts and the cached log
  terms of the one row they touch.  Adding or removing an object changes
  ``log(a_j + c_kj)`` only where the object has feature j and
  ``log(b_j + n_k - c_kj)`` only where it has not, so a touched row costs D
  logs.  ``sum_j log(a_j + b_j + n)`` is memoised by the size n.
- The distribution selects and sums each row's terms in numpy's pairwise
  order, then shifts, tempers, seats and normalises in the steps of
  :func:`binclust.model.assignment_distribution`.

The C source uses no Python C API.  The first process that needs it compiles
it with ``gcc`` into ``__pycache__/visit-<hash>.so`` beside this file (the
hash covers the source, the flags and the machine type), writing a temporary
file and renaming it into place; every process loads that file with
:mod:`ctypes`.  If the build or the load fails, one ``RuntimeWarning`` names
the error and the numpy code in :mod:`binclust.model` runs instead.  That
code scores with the plain collapsed predictive, the reference the tests hold
this kernel to: libm's ``log`` and ``exp`` may differ from numpy's in the last
bit, every other step is the same.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings

import numpy as np

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* One ClusterState's arrays.  Rows of the row buffers are clusters, up to
   their capacity; row K, after the last cluster, is the new-cluster row. */
typedef struct {
    int64_t n_objects;     /* N */
    int64_t n_features;    /* D */
    const uint8_t *values; /* N x D, {0, 1} */
    int64_t *assignments;  /* N labels, -1 while detached */
    int64_t *sizes;        /* capacity */
    int64_t *counts;       /* capacity x D */
    double *log_present;   /* capacity x D: log(a_j + c_kj) */
    double *log_absent;    /* capacity x D: log(b_j + n_k - c_kj) */
    double *log_denom;     /* capacity: sum_j log(a_j + b_j + n_k) */
    uint8_t *stale;        /* capacity: the row's log terms are not current */
    const double *a;       /* D */
    const double *b;       /* D */
    double alpha;
    double *denom_memo;    /* N + 1: sum_j log(a_j + b_j + n) by n, NaN until computed */
    double *scratch;       /* D */
    double *probs;         /* capacity: the last distribution */
} bc_state;

/* numpy's pairwise summation, as its add.reduce runs along a contiguous
   axis, so that a sum here is the sum numpy gives for the same values. */
static double pairwise_sum(const double *v, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += v[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = v[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += v[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += v[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(v, half) + pairwise_sum(v + half, n - half);
}

/* yes if bit is 1, else no, by bit mask: a branch on the data would be
   mispredicted at every other feature. */
static double pick(uint8_t bit, double yes, double no)
{
    const uint64_t mask = (uint64_t)0 - bit;
    uint64_t y, n;
    memcpy(&y, &yes, sizeof y);
    memcpy(&n, &no, sizeof n);
    y = (y & mask) | (n & ~mask);
    memcpy(&yes, &y, sizeof y);
    return yes;
}

static double denom_sum(const bc_state *s, int64_t n)
{
    for (int64_t j = 0; j < s->n_features; j++)
        s->scratch[j] = log((s->a[j] + s->b[j]) + (double)n);
    return pairwise_sum(s->scratch, s->n_features);
}

static double log_denom(const bc_state *s, int64_t n)
{
    if (n < 0 || n > s->n_objects)
        return denom_sum(s, n);
    if (isnan(s->denom_memo[n]))
        s->denom_memo[n] = denom_sum(s, n);
    return s->denom_memo[n];
}

static void row_logs(const bc_state *s, int64_t k, double *present, double *absent)
{
    const int64_t d = s->n_features, n = s->sizes[k];
    const int64_t *c = s->counts + k * d;
    for (int64_t j = 0; j < d; j++) {
        present[j] = log(s->a[j] + (double)c[j]);
        absent[j] = log(s->b[j] + (double)(n - c[j]));
    }
}

/* Log terms of row k from its statistics alone, none memoised: the reference
   for the cache the other calls keep.  Returns the denominator sum. */
double bc_row_terms(const bc_state *s, int64_t k, double *present, double *absent)
{
    row_logs(s, k, present, absent);
    return denom_sum(s, s->sizes[k]);
}

/* Add (sign 1) or remove (sign -1) object i to or from row k.  A current row
   recomputes only the terms that change; any other row is left stale. */
static void move(bc_state *s, int64_t i, int64_t k, int64_t sign)
{
    const int64_t d = s->n_features;
    const uint8_t *x = s->values + i * d;
    int64_t *c = s->counts + k * d;
    const int64_t n = (s->sizes[k] += sign);
    if (s->stale[k] || n == 0) {
        for (int64_t j = 0; j < d; j++)
            c[j] += sign * x[j];
        s->stale[k] = 1;
        return;
    }
    double *present = s->log_present + k * d, *absent = s->log_absent + k * d;
    for (int64_t j = 0; j < d; j++) {
        if (x[j]) {
            c[j] += sign;
            present[j] = log(s->a[j] + (double)c[j]);
        } else {
            absent[j] = log(s->b[j] + (double)(n - c[j]));
        }
    }
    s->log_denom[k] = log_denom(s, n);
}

void bc_detach(bc_state *s, int64_t i, int64_t k)
{
    move(s, i, k, -1);
    s->assignments[i] = -1;
}

void bc_attach(bc_state *s, int64_t i, int64_t k)
{
    move(s, i, k, 1);
    s->assignments[i] = k;
}

/* The tempered distribution of detached object i over rows 0 .. top - 1,
   the last of them the new-cluster row, into probs. */
void bc_distribution(bc_state *s, int64_t i, int64_t top, double temperature)
{
    const int64_t d = s->n_features;
    const uint8_t *x = s->values + i * d;
    double *p = s->probs;
    double best = -INFINITY;
    for (int64_t k = 0; k < top; k++) {
        if (s->stale[k]) {
            row_logs(s, k, s->log_present + k * d, s->log_absent + k * d);
            s->log_denom[k] = log_denom(s, s->sizes[k]);
            s->stale[k] = 0;
        }
        const double *present = s->log_present + k * d, *absent = s->log_absent + k * d;
        for (int64_t j = 0; j < d; j++)
            s->scratch[j] = pick(x[j], present[j], absent[j]);
        p[k] = pairwise_sum(s->scratch, d) - s->log_denom[k];
        if (p[k] > best)
            best = p[k];
    }
    /* At a cold temperature a worse option's shifted likelihood overflows
       to -inf, which is its exact weight of zero. */
    double top_weight = -INFINITY;
    for (int64_t k = 0; k < top; k++) {
        const double seats = k < top - 1 ? (double)s->sizes[k] : s->alpha;
        p[k] = log(seats) + (p[k] - best) / temperature;
        if (p[k] > top_weight)
            top_weight = p[k];
    }
    for (int64_t k = 0; k < top; k++)
        p[k] = exp(p[k] - top_weight);
    const double total = pairwise_sum(p, top);
    for (int64_t k = 0; k < top; k++)
        p[k] /= total;
}
"""

_CC = "gcc"
_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")

# None until the first visit of the process asks for the kernel; then the
# loaded library, or False where it could not be built or loaded and the
# numpy path runs.
_lib = None


def library():
    """The kernel library, built or loaded on the first call; None on the numpy path."""
    global _lib
    if _lib is None:
        try:
            _lib = _load(_built())
        except (OSError, subprocess.SubprocessError) as exc:
            _lib = False
            warnings.warn(
                f"binclust: the compiled visit kernel is unavailable, the numpy path runs instead: {_describe(exc)}",
                RuntimeWarning,
                stacklevel=2,
            )
    return _lib or None


def _describe(exc):
    if isinstance(exc, subprocess.CalledProcessError):
        lines = (exc.stderr or "").strip().splitlines()
        return f"{exc.cmd[0]} exited with status {exc.returncode}" + (f": {lines[-1]}" if lines else "")
    return str(exc)


def _built():
    """Path of the compiled library, compiled first if no process has yet."""
    key = hashlib.sha256("\0".join([SOURCE, *_FLAGS, platform.machine()]).encode()).hexdigest()[:16]
    path = os.path.join(_CACHE_DIR, f"visit-{key}.so")
    if not os.path.exists(path):
        os.makedirs(_CACHE_DIR, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"visit-{key}-", suffix=".tmp", dir=_CACHE_DIR)
        os.close(fd)
        try:
            subprocess.run(
                [_CC, *_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=SOURCE, capture_output=True, text=True, check=True, timeout=300,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def _load(path):
    lib = ctypes.CDLL(path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for name, restype, argtypes in (
        ("bc_detach", None, (ptr, i64, i64)),
        ("bc_attach", None, (ptr, i64, i64)),
        ("bc_distribution", None, (ptr, i64, i64, ctypes.c_double)),
        ("bc_row_terms", ctypes.c_double, (ptr, i64, ptr, ptr)),
    ):
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


class _Context(ctypes.Structure):
    """``bc_state`` of the C source, field for field."""

    _fields_ = [
        ("n_objects", ctypes.c_int64),
        ("n_features", ctypes.c_int64),
        ("values", ctypes.c_void_p),
        ("assignments", ctypes.c_void_p),
        ("sizes", ctypes.c_void_p),
        ("counts", ctypes.c_void_p),
        ("log_present", ctypes.c_void_p),
        ("log_absent", ctypes.c_void_p),
        ("log_denom", ctypes.c_void_p),
        ("stale", ctypes.c_void_p),
        ("a", ctypes.c_void_p),
        ("b", ctypes.c_void_p),
        ("alpha", ctypes.c_double),
        ("denom_memo", ctypes.c_void_p),
        ("scratch", ctypes.c_void_p),
        ("probs", ctypes.c_void_p),
    ]


class Visit:
    """The kernel bound to one state's arrays.

    It holds a reference to every array whose address the C side keeps, so
    none is freed while bound.  The state rebinds its row buffers after it
    replaces them (:meth:`bind_buffers`) and its hyperparameters when they
    change (:meth:`bind_hyper`); a data matrix is bound on the first call
    that passes it.
    """

    def __init__(self, lib, state):
        n, d = state.assignments.shape[0], state._counts.shape[1]
        self._lib = lib
        self._ctx = _Context(n_objects=n, n_features=d)
        self._addr = ctypes.addressof(self._ctx)
        self._assignments = state.assignments
        self._memo = np.full(n + 1, np.nan)
        self._scratch = np.empty(d)
        self._ctx.assignments = self._assignments.ctypes.data
        self._ctx.denom_memo = self._memo.ctypes.data
        self._ctx.scratch = self._scratch.ctypes.data
        self._values = self._hyper = None
        self.bind_buffers(state)
        if state._hyper is not None:
            self.bind_hyper(state._hyper)

    def bind_buffers(self, state):
        self._buffers = buffers = (
            state._sizes, state._counts, state._log_present, state._log_absent, state._log_denom, state._stale
        )
        self._probs = np.empty(state._sizes.shape[0])
        ctx = self._ctx
        ctx.sizes, ctx.counts, ctx.log_present, ctx.log_absent, ctx.log_denom, ctx.stale = (
            buf.ctypes.data for buf in buffers
        )
        ctx.probs = self._probs.ctypes.data

    def bind_hyper(self, hyper):
        """Score under ``hyper`` from now on; the state marks every row stale."""
        self._hyper = hyper
        self._ctx.a, self._ctx.b, self._ctx.alpha = hyper.a.ctypes.data, hyper.b.ctypes.data, hyper.alpha
        self._memo.fill(np.nan)

    def _bind_values(self, values):
        shape = (self._ctx.n_objects, self._ctx.n_features)
        if values.shape != shape or values.dtype != np.uint8 or not values.flags.c_contiguous:
            raise ValueError(f"expected a C-contiguous {shape} uint8 matrix, got {values.dtype} {values.shape}")
        self._values = values
        self._ctx.values = values.ctypes.data

    def detach(self, i, k, values):
        if values is not self._values:
            self._bind_values(values)
        self._lib.bc_detach(self._addr, i, k)

    def attach(self, i, k, values):
        if values is not self._values:
            self._bind_values(values)
        self._lib.bc_attach(self._addr, i, k)

    def distribution(self, i, top, temperature, values):
        if values is not self._values:
            self._bind_values(values)
        self._lib.bc_distribution(self._addr, i, top, temperature)
        return self._probs[:top].copy()

    def row_terms(self, rows):
        """From-scratch log terms of ``rows``, as the cache holds them: (present, absent, denom)."""
        d = self._ctx.n_features
        present, absent = np.empty((len(rows), d)), np.empty((len(rows), d))
        denom = np.empty(len(rows))
        for r, k in enumerate(rows):
            denom[r] = self._lib.bc_row_terms(self._addr, int(k), present[r].ctypes.data, absent[r].ctypes.data)
        return present, absent, denom
