"""The compiled per-visit Gibbs kernel: its C source, its build on first use,
and its binding to one :class:`~binclust.model.ClusterState`.

A visit of the annealed Gibbs sampler detaches one object, scores every
cluster option and attaches the object again.  Here those steps run in C
over the state's own statistics buffers, one call each, with no copies in or
out.  The log-term cache is :class:`Visit`'s alone: bound to one state, its
matrix and one set of hyperparameters, and current on every row at all times.

- Detach and attach are one C routine, ``move``, the only code that changes
  a row, a label or the restore slot during a visit.  Adding or removing an
  object changes ``log(a_j + c_kj)`` only where the object has feature j
  and ``log(b_j + n_k - c_kj)`` only where it has not, so a touched row
  costs D logs.  ``sum_j log(a_j + b_j + n)`` is memoised by the size n, and
  the distribution reads each row's from the memo by the row's size.  A move
  that empties its row changes only the counts: the state deletes it next.
- Restore on return, one case of ``move``: a detach from a row that keeps
  members saves the D terms it overwrites in one slot keyed by (object,
  row), and an attach of that object into that row copies them back instead
  of taking D logs.  They are the logs of the same counts under the same
  hyperparameters, so the bits are the same.  Every other move empties the
  slot, and a kernel bound for other hyperparameters starts with it empty.
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
    const double *a;       /* D */
    const double *b;       /* D */
    double alpha;
    double *denom_memo;    /* N + 1: sum_j log(a_j + b_j + n) by n, NaN until computed */
    double *scratch;       /* D */
    double *probs;         /* capacity: the last distribution */
    /* The restore slot: the terms the last detach overwrote, one per
       feature, while returned_object may still return to returned_row;
       returned_object is -1 when the slot is empty. */
    int64_t returned_object;
    int64_t returned_row;
    double *returned;      /* D */
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

/* Log terms of row k from its statistics alone, none memoised: what the
   cache fills its rows with and is checked against.  Returns the
   denominator sum. */
double bc_row_terms(const bc_state *s, int64_t k, double *present, double *absent)
{
    const int64_t d = s->n_features, n = s->sizes[k];
    const int64_t *c = s->counts + k * d;
    for (int64_t j = 0; j < d; j++) {
        present[j] = log(s->a[j] + (double)c[j]);
        absent[j] = log(s->b[j] + (double)(n - c[j]));
    }
    return denom_sum(s, n);
}

/* Add (sign 1) or remove (sign -1) object i to or from row k: a row left
   empty gets its counts only, a return copies the slot's terms back, and any
   other move takes D logs and saves the terms they overwrite into the slot. */
static void move(bc_state *s, int64_t i, int64_t k, int64_t sign)
{
    const int64_t d = s->n_features;
    const uint8_t *x = s->values + i * d;
    int64_t *c = s->counts + k * d;
    double *present = s->log_present + k * d, *absent = s->log_absent + k * d;
    const int64_t n = (s->sizes[k] += sign);
    const int restore = sign > 0 && s->returned_object == i && s->returned_row == k;
    s->assignments[i] = sign > 0 ? k : -1;
    s->returned_object = sign < 0 && n > 0 ? i : -1;
    s->returned_row = k;
    if (n == 0) {
        for (int64_t j = 0; j < d; j++)
            c[j] += sign * x[j];
    } else if (restore) {
        for (int64_t j = 0; j < d; j++) {
            c[j] += x[j];
            (x[j] ? present : absent)[j] = s->returned[j];
        }
    } else {
        for (int64_t j = 0; j < d; j++) {
            if (x[j]) {
                c[j] += sign;
                s->returned[j] = present[j];
                present[j] = log(s->a[j] + (double)c[j]);
            } else {
                s->returned[j] = absent[j];
                absent[j] = log(s->b[j] + (double)(n - c[j]));
            }
        }
    }
}

void bc_detach(bc_state *s, int64_t i, int64_t k)
{
    move(s, i, k, -1);
}

void bc_attach(bc_state *s, int64_t i, int64_t k)
{
    move(s, i, k, 1);
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
        const double *present = s->log_present + k * d, *absent = s->log_absent + k * d;
        for (int64_t j = 0; j < d; j++)
            s->scratch[j] = pick(x[j], present[j], absent[j]);
        p[k] = pairwise_sum(s->scratch, d) - log_denom(s, s->sizes[k]);
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

# None until the first scoring of the process asks for the kernel; then the
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
        ("a", ctypes.c_void_p),
        ("b", ctypes.c_void_p),
        ("alpha", ctypes.c_double),
        ("denom_memo", ctypes.c_void_p),
        ("scratch", ctypes.c_void_p),
        ("probs", ctypes.c_void_p),
        ("returned_object", ctypes.c_int64),
        ("returned_row", ctypes.c_int64),
        ("returned", ctypes.c_void_p),
    ]


class Visit:
    """The kernel bound to one state's data matrix and statistics buffers, and to
    ``hyper``, with its log-term cache.

    Every cache row, up to the buffers' capacity, holds what ``bc_row_terms``
    computes from that row's statistics under ``hyper``: detach and attach
    keep the rows they touch so, and the state calls :meth:`bind_buffers` and
    :meth:`drop_row` on growth and on a death.  Other hyperparameters take a
    fresh kernel.  It holds a reference to every array whose address the C
    side keeps, so none is freed while bound.
    """

    def __init__(self, lib, state, hyper):
        n, d = state._values.shape
        self._lib = lib
        self.hyper = hyper
        self._ctx = ctx = _Context(n_objects=n, n_features=d, alpha=hyper.alpha, returned_object=-1)
        self._addr = ctypes.addressof(ctx)
        self._values, self._assignments = state._values, state.assignments
        self._memo = np.full(n + 1, np.nan)
        self._scratch = np.empty(d)
        self._returned = np.empty(d)
        ctx.values, ctx.assignments, ctx.a, ctx.b, ctx.denom_memo, ctx.scratch, ctx.returned = (
            buf.ctypes.data
            for buf in (self._values, self._assignments, hyper.a, hyper.b, self._memo, self._scratch, self._returned)
        )
        self._present, self._absent = np.empty((0, d)), np.empty((0, d))
        self.bind_buffers(state)

    def _recompute(self, present, absent, start=0):
        """Fill rows ``start`` up of the given cache-shaped arrays from the statistics; return their denominators."""
        return [
            self._lib.bc_row_terms(self._addr, k, present[k].ctypes.data, absent[k].ctypes.data)
            for k in range(start, present.shape[0])
        ]

    def bind_buffers(self, state):
        """Bind the state's statistics buffers after it grew them; the rows growth added get their terms."""
        self._sizes, self._counts = state._sizes, state._counts
        old, capacity = self._present.shape[0], state._sizes.shape[0]
        self._present, self._absent = grown = [
            np.concatenate([buf, np.empty((capacity - old, buf.shape[1]))]) for buf in (self._present, self._absent)
        ]
        self._probs = np.empty(capacity)
        ctx = self._ctx
        ctx.sizes, ctx.counts, ctx.log_present, ctx.log_absent, ctx.probs = (
            buf.ctypes.data for buf in (self._sizes, self._counts, *grown, self._probs)
        )
        self._recompute(*grown, start=old)

    def drop_row(self, k, top):
        """Delete row ``k`` as the state deletes its statistics: rows ``k + 1 .. top`` shift down one."""
        for buf in (self._present, self._absent):
            buf[k:top] = buf[k + 1 : top + 1]

    def detach(self, i, k):
        self._lib.bc_detach(self._addr, i, k)

    def attach(self, i, k):
        self._lib.bc_attach(self._addr, i, k)

    def distribution(self, i, top, temperature):
        """The distribution of detached object ``i`` over rows ``0 .. top - 1``, under the bound matrix."""
        self._lib.bc_distribution(self._addr, i, top, temperature)
        return self._probs[:top].copy()

    def check(self):
        """Raise unless every cache row, and the memoised denominator of every row's size once
        computed, equals its recomputation from the statistics."""
        cache = (self._present, self._absent)
        fresh = tuple(np.empty_like(buf) for buf in cache)
        denoms = self._recompute(*fresh)
        memo = self._memo[self._sizes]
        memo_current = ((memo == denoms) | np.isnan(memo)).all()
        if not (memo_current and all(np.array_equal(c, f) for c, f in zip(cache, fresh))):
            raise ValueError("cached log terms disagree with a recomputation from the statistics")
