"""The compiled per-visit Gibbs kernel: its C source, its build on first use,
and its binding to one :class:`~binclust.model.ClusterState`.

A visit of the annealed Gibbs sampler detaches one object, scores every
cluster option and attaches the object again.  Here those steps run in C
over the state's own statistics buffers, one call each, with no copies in or
out.  The log-term cache is :class:`Visit`'s alone: one array whose row k
holds four planes of D terms from the row's size n and counts c_j, present
``log(a_j + c_j)`` and absent ``log(b_j + n - c_j)``, then both with one
member left out, ``log(a_j + c_j - 1)`` and ``log(b_j + n - 1 - c_j)`` (0
where nothing is left to leave out; no distribution reads those).  It is
bound to one state, its matrix, its row buffers and one set of
hyperparameters, and current on every row at all times.  Only
:func:`binclust.model.assignment_distribution` binds one, filling every row,
when the state holds none or one bound under another ``Hyperparams`` object.
A state holds none before its first scoring and after growth: a birth into
the last row of the buffers first doubles them, drops the kernel and attaches
in numpy.  So no birth reaches the kernel without a spare row above it, and
every row from K up holds a zero row's terms.

- A detach from a row that keeps members changes only the integer sizes,
  counts and label: the row keeps its terms with the object in and is
  pending for it, and the distribution scores it from its leave-one-out
  planes.  An attach back into it changes no term, so a visit whose object
  stays takes no log.  ``sum_j log(a_j + b_j + n)`` is memoised by n.
- Any other attach, or a second detach, first settles the pending row: each
  feature moves one term between planes and takes one log, D in all.  The
  attach does the same at its own row, so a move takes 2·D logs and a
  birth after a death D.  A detach that empties its row compacts the death
  as :func:`binclust.model.remove_object` does on the numpy path: the terms,
  sizes and counts of every live row above it, and of the zero row, move
  down one row, and every label above it drops by one.  A moved term is the
  log of the same count under the same hyperparameters as a recomputation:
  same bits.
- The distribution first sums the live rows' sizes and, unless they cover
  the other N - 1 objects, refuses.  It then selects and sums each row's
  terms in numpy's pairwise order, and shifts, tempers, seats and normalises
  in the steps of :func:`binclust.model.assignment_distribution`.

Each object also keeps its scores between visits: its untempered
log-likelihood at every row, with itself left out of its own row, as its
last distribution computed them, and the tick of that distribution.  A clock
advances at every change of a row's statistics, counting the pending object
in, or of its position: at a settle, at an attach other than a return into
the pending row, and at a detach that empties its row, which moves every row
above it down one.  A birth also ticks the row above it, where the
new-cluster row now stands: an object's score there may date from a cluster
that stood there before a death.  ``changed[k]`` is the tick at which row k
last changed.  A distribution copies the score of each row with
``changed[k]`` no later than its object's tick, and scores only the rest.
That is exact: every change to a row after the tick ticks it, the object's
own place changes only by an attach elsewhere or a death, which tick its
rows, and a score is a function of the row's statistics and the object
alone, summed from cache terms that equal a recomputation; so a copied score
has the bits a rescoring would give.  A visit that stays ticks nothing, so
once the partition settles a visit scores no row at all.  The score memo is
N x capacity doubles, N/(4D) of the term cache: 192 KB at N = D = 2000 with
12 rows.

The C source ends in a small CPython extension module, ``_visit``: one
``METH_FASTCALL`` entry per ``bc_`` function, named as it, which takes the
address of the state's ``bc_state`` and the function's other arguments and
refuses another count or type with ``TypeError``.  :class:`Visit` binds four
to one state as ``detach``, ``attach``, ``distribution`` and ``draw``; the
``bc_state`` it hands them is a ctypes structure whose fields are read from
the struct in the source.  Each of the four checks its own arguments, so one
call is a whole visit step.  It takes the step only for an object index that
is an exact ``int`` in 0 .. N - 1 and fits the step: attached with a label in
0 .. K - 1 for a detach, K the live rows passed in; detached for a
distribution, at a positive temperature, or for an attach into a row in 0 ..
K with a spare row above a birth; for a draw, the object of the last
distribution, over the same rows, with no detach or attach since.  Otherwise
it changes nothing and returns a sentinel, -1 for a detach or a draw and
False for the others.  Then the checks in :mod:`binclust.model` name the
refusal, or accept the index, a numpy integer say, and call again with an
``int``; after a refused draw :func:`binclust.sampler.gibbs_sweep` draws
through :func:`binclust.sampler._categorical`.  A detach from row k returns
``bc_detach``'s integer as it is, 2k + 1 if the row died and 2k if not; a
draw the row that a uniform picks from the distribution, by the steps of
``_categorical``, so the same row.
The first process that needs the module compiles it with ``gcc`` against this
interpreter's headers into ``__pycache__/visit-<hash><suffix>`` beside this
file (``<suffix>`` is the interpreter's extension suffix, ABI tag included;
the hash covers the source, the flags, the machine type and the suffix),
writing a temporary file and renaming it into place; it deletes no other
file.  Every process loads that file through the import system's
:class:`~importlib.machinery.ExtensionFileLoader`.  If the build or the load
fails, for want of ``gcc`` or of ``Python.h``, one ``RuntimeWarning`` names
the error and the numpy code in :mod:`binclust.model` runs instead.  That code
scores with the plain collapsed predictive, the reference the tests hold this
kernel to: libm's ``log`` and ``exp`` may differ from numpy's in the last bit,
every other step is the same.
"""

import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import re
import sysconfig
import tempfile
import warnings

import numpy as np

SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* One ClusterState's arrays.  Rows of the row buffers are clusters, up to
   their capacity; row K, after the last cluster, is the new-cluster row. */
typedef struct {
    int64_t n_objects;     /* N */
    int64_t n_features;    /* D */
    int64_t capacity;      /* rows of the row buffers */
    const uint8_t *values; /* N x D, {0, 1} */
    int64_t *assignments;  /* N labels, -1 while detached */
    int64_t *sizes;        /* capacity */
    int64_t *counts;       /* capacity x D */
    double *log_terms;     /* capacity x 4 x D: by a row's size n and counts c_j, log(a_j + c_j),
                              log(b_j + n - c_j), then with one member left out,
                              log(a_j + c_j - 1) and log(b_j + n - 1 - c_j) */
    const double *a;       /* D */
    const double *b;       /* D */
    double alpha;
    double *denom_memo;    /* N + 1: sum_j log(a_j + b_j + n) by n, NaN until computed */
    double *scratch;       /* D */
    double *probs;         /* N + 1: the last distribution */
    /* The pending row: its statistics left out pending_object at its detach,
       its log terms still count it in.  Both -1 when no row is pending. */
    int64_t pending_object;
    int64_t pending_row;
    /* The score memo.  clock advances at each change of a row's statistics,
       the pending object counted in, and at each move of a row. */
    int64_t clock;
    int64_t *changed;      /* capacity: the tick at which each row last changed */
    double *scores;        /* N x capacity: object i's untempered log-likelihood at each row,
                              i left out of its own, as its last distribution scored them */
    int64_t *scored_at;    /* N: the tick of object i's last distribution, -1 before any */
    /* The object and the rows of the distribution in probs; both -1 before
       any, and after a detach or an attach. */
    int64_t probs_object;
    int64_t probs_top;
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

/* Rows from .. to - 1 changed: one new tick for all of them. */
static void touch(bc_state *s, int64_t from, int64_t to)
{
    s->clock++;
    for (int64_t k = from; k < to; k++)
        s->changed[k] = s->clock;
}

/* log(shape + m - 1), a term with one of m members left out; 0, which no
   distribution reads, where m = 0. */
static double left_out(double shape, int64_t m)
{
    return m > 0 ? log(shape + (double)(m - 1)) : 0.0;
}

/* Log terms of row k from its statistics alone, none memoised, into the
   4 x D terms: what the cache fills its rows with and is checked against.
   The pending row's terms count its object in.  Returns the denominator sum the
   distribution reads for the row, that of its size. */
static double bc_row_terms(const bc_state *s, int64_t k, double *terms)
{
    const int64_t d = s->n_features, pending = k == s->pending_row, n = s->sizes[k] + pending;
    const int64_t *c = s->counts + k * d;
    const uint8_t *x = s->values + (pending ? s->pending_object : 0) * d;
    for (int64_t j = 0; j < d; j++) {
        const int64_t m = c[j] + (pending ? x[j] : 0);
        terms[j] = log(s->a[j] + (double)m);
        terms[d + j] = log(s->b[j] + (double)(n - m));
        terms[2 * d + j] = left_out(s->a[j], m);
        terms[3 * d + j] = left_out(s->b[j], n - m);
    }
    return denom_sum(s, s->sizes[k]);
}

/* Object i's untempered log-likelihood at row k from the row's statistics
   alone, none memoised: what its memo holds for the row.  The statistics
   count the pending object in and leave object i out. */
static double bc_row_score(const bc_state *s, int64_t i, int64_t k)
{
    const int64_t d = s->n_features, pending = k == s->pending_row, *c = s->counts + k * d;
    const int64_t out = s->assignments[i] == k || (pending && i == s->pending_object), n = s->sizes[k] + pending - out;
    const uint8_t *x = s->values + i * d, *back = s->values + (pending ? s->pending_object : 0) * d;
    for (int64_t j = 0; j < d; j++) {
        const int64_t m = c[j] + pending * back[j] - out * x[j];
        s->scratch[j] = x[j] ? log(s->a[j] + (double)m) : log(s->b[j] + (double)(n - m));
    }
    const double sum = pairwise_sum(s->scratch, d); /* before denom_sum reuses scratch */
    return sum - denom_sum(s, n);
}

/* Bring the pending row's terms to its statistics, which left its object
   out, in D logs, one per feature; then no row is pending. */
static void settle(bc_state *s)
{
    const int64_t k = s->pending_row, d = s->n_features;
    if (k < 0)
        return;
    const uint8_t *x = s->values + s->pending_object * d;
    const int64_t n = s->sizes[k], *c = s->counts + k * d;
    double *t = s->log_terms + 4 * k * d;
    for (int64_t j = 0; j < d; j++) {
        if (x[j]) {
            t[j] = t[2 * d + j];
            t[2 * d + j] = left_out(s->a[j], c[j]);
        } else {
            t[d + j] = t[3 * d + j];
            t[3 * d + j] = left_out(s->b[j], n - c[j]);
        }
    }
    s->pending_object = s->pending_row = -1;
    touch(s, k, k + 1);
}

/* Object i's counts into (sign 1) or out of (sign -1) row k, and its
   label; returns the row's new size. */
static int64_t recount(bc_state *s, int64_t i, int64_t k, int64_t sign)
{
    const int64_t d = s->n_features;
    const uint8_t *x = s->values + i * d;
    int64_t *c = s->counts + k * d;
    for (int64_t j = 0; j < d; j++)
        c[j] += sign * x[j];
    s->assignments[i] = sign > 0 ? k : -1;
    return s->sizes[k] += sign;
}

/* Remove object i from its row k, settling any pending row first; K is the
   number of live rows.  A row that keeps members keeps its log terms and
   becomes the pending row.  A row left empty dies: the terms, sizes and
   counts of rows k + 1 .. K, the zero row K included, move down one row, and
   every label above k drops by one.  Returns 2k + 1 where the row died, 2k
   where it did not; -1, having changed nothing, unless i is an object with a
   label in 0 .. K - 1 and a zero row stands above the live rows. */
static int64_t bc_detach(bc_state *s, int64_t i, int64_t n_clusters)
{
    if (i < 0 || i >= s->n_objects || n_clusters >= s->capacity)
        return -1;
    const int64_t k = s->assignments[i], d = s->n_features;
    if (k < 0 || k >= n_clusters)
        return -1;
    settle(s);
    s->probs_object = s->probs_top = -1;
    if (recount(s, i, k, -1) > 0) {
        s->pending_object = i;
        s->pending_row = k;
        return 2 * k;
    }
    /* Every row from K up holds a zero row's terms, so those above K need not move. */
    const size_t rows = (size_t)(n_clusters - k);
    memmove(s->log_terms + 4 * k * d, s->log_terms + 4 * (k + 1) * d, rows * 4 * (size_t)d * sizeof *s->log_terms);
    memmove(s->sizes + k, s->sizes + k + 1, rows * sizeof *s->sizes);
    memmove(s->counts + k * d, s->counts + (k + 1) * d, rows * (size_t)d * sizeof *s->counts);
    for (int64_t j = 0; j < s->n_objects; j++)
        s->assignments[j] -= s->assignments[j] > k;
    touch(s, k, s->capacity);
    return 2 * k + 1;
}

/* Add detached object i to row k of rows 0 .. K, K the number of live rows
   and row K the new-cluster row: back into the pending row it left, with no
   log and no tick; anywhere else, after settling the pending row, with D
   logs.  A birth also ticks the row above, where the new-cluster row now
   stands.  Returns 1; 0, having changed nothing, unless i is a detached
   object, k one of those rows, and a zero row stands above the live rows
   after the attach: the state grows its buffers before a birth that would
   take the last row. */
static int bc_attach(bc_state *s, int64_t i, int64_t k, int64_t n_clusters)
{
    if (i < 0 || i >= s->n_objects || s->assignments[i] != -1 || k < 0 || k > n_clusters
        || n_clusters + (k == n_clusters) >= s->capacity)
        return 0;
    s->probs_object = s->probs_top = -1;
    if (s->pending_object == i && s->pending_row == k) {
        s->pending_object = s->pending_row = -1;
        recount(s, i, k, 1);
        return 1;
    }
    settle(s);
    const int64_t d = s->n_features, n = recount(s, i, k, 1);
    const uint8_t *x = s->values + i * d;
    const int64_t *c = s->counts + k * d;
    double *t = s->log_terms + 4 * k * d;
    for (int64_t j = 0; j < d; j++) {
        if (x[j]) {
            t[2 * d + j] = t[j];
            t[j] = log(s->a[j] + (double)c[j]);
        } else {
            t[3 * d + j] = t[d + j];
            t[d + j] = log(s->b[j] + (double)(n - c[j]));
        }
    }
    touch(s, k, n == 1 ? k + 2 : k + 1);
    return 1;
}

/* The tempered distribution of detached object i over rows 0 .. top - 1,
   the last of them the new-cluster row, into probs.  A row unchanged since
   object i's last distribution takes its score from the memo.  Returns 1; 0,
   having changed nothing, unless i is a detached object, the rows are 1 to
   the capacity, the temperature is positive, and the sizes of the live rows
   0 .. top - 2 sum to N - 1, as they do with object i alone detached. */
static int bc_distribution(bc_state *s, int64_t i, int64_t top, double temperature)
{
    if (i < 0 || i >= s->n_objects || s->assignments[i] != -1 || top < 1 || top > s->capacity || !(temperature > 0))
        return 0;
    int64_t covered = 0;
    for (int64_t k = 0; k < top - 1; k++)
        covered += s->sizes[k];
    if (covered != s->n_objects - 1)
        return 0;
    const int64_t d = s->n_features, seen = s->scored_at[i];
    const uint8_t *x = s->values + i * d;
    double *p = s->probs, *memo = s->scores + i * s->capacity;
    double best = -INFINITY;
    for (int64_t k = 0; k < top; k++) {
        if (s->changed[k] > seen) {
            /* The pending row, the one object i left, scores from its leave-one-out planes. */
            const double *present = s->log_terms + (4 * k + (k == s->pending_row ? 2 : 0)) * d;
            const double *absent = present + d;
            for (int64_t j = 0; j < d; j++)
                s->scratch[j] = pick(x[j], present[j], absent[j]);
            memo[k] = pairwise_sum(s->scratch, d) - log_denom(s, s->sizes[k]);
        }
        p[k] = memo[k];
        if (p[k] > best)
            best = p[k];
    }
    s->scored_at[i] = s->clock;
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
    s->probs_object = i;
    s->probs_top = top;
    return 1;
}

/* The row a uniform u draws from object i's distribution over rows 0 .. top
   - 1: the first k whose running sum of probs[0 .. k], taken left to right,
   exceeds u, and top - 1 where rounding leaves the total at or below u.
   Returns -1, having changed nothing, unless probs holds object i's
   distribution over exactly top rows, with no detach or attach since. */
static int64_t bc_draw(const bc_state *s, int64_t i, int64_t top, double u)
{
    if (i < 0 || i != s->probs_object || top != s->probs_top)
        return -1;
    double total = 0.0;
    for (int64_t k = 0; k < top; k++) {
        total += s->probs[k];
        if (total > u)
            return k;
    }
    return top - 1;
}

/* The module's entries, one per bc_ function above and named as it: each
   takes the address of a bc_state as an int, then the function's other
   arguments, and refuses another count or type with TypeError.  An object or
   row index is any object with __index__, but only an exact int that fits an
   int64_t keeps its value: any other, a bool or a numpy integer say, passes
   as -1, which the bc_ functions refuse.  Another int64_t is a Python int or
   any object with __index__, a double any real number. */

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, expected, nargs);
    return -1;
}

/* Each converter returns nonzero, with the exception set, where arg does not convert. */
static int to_pointer(PyObject *arg, void **out)
{
    *out = PyLong_AsVoidPtr(arg);
    return *out == NULL && PyErr_Occurred() != NULL;
}

static int to_int64(PyObject *arg, int64_t *out)
{
    *out = PyLong_AsLongLong(arg);
    return *out == -1 && PyErr_Occurred() != NULL;
}

static int to_index(PyObject *arg, int64_t *out)
{
    int overflow;
    *out = -1;
    if (PyLong_CheckExact(arg))
        *out = PyLong_AsLongLongAndOverflow(arg, &overflow); /* -1 past the range */
    else if (!PyIndex_Check(arg)) {
        PyErr_Format(PyExc_TypeError, "'%.200s' object cannot be interpreted as an integer", Py_TYPE(arg)->tp_name);
        return 1;
    }
    return 0;
}

static int to_double(PyObject *arg, double *out)
{
    *out = PyFloat_AsDouble(arg);
    return *out == -1.0 && PyErr_Occurred() != NULL;
}

/* A refusal returns -1 for a detach or a draw, False for an attach or a distribution. */
static PyObject *py_detach(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    void *s;
    int64_t i, n_clusters;
    (void)module;
    if (arity("bc_detach", nargs, 3) || to_pointer(args[0], &s) || to_index(args[1], &i) || to_int64(args[2], &n_clusters))
        return NULL;
    return PyLong_FromLongLong(bc_detach(s, i, n_clusters));
}

static PyObject *py_attach(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    void *s;
    int64_t i, k, n_clusters;
    (void)module;
    if (arity("bc_attach", nargs, 4) || to_pointer(args[0], &s) || to_index(args[1], &i) || to_index(args[2], &k)
        || to_int64(args[3], &n_clusters))
        return NULL;
    return PyBool_FromLong(bc_attach(s, i, k, n_clusters));
}

static PyObject *py_distribution(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    void *s;
    int64_t i, top;
    double temperature;
    (void)module;
    if (arity("bc_distribution", nargs, 4) || to_pointer(args[0], &s) || to_index(args[1], &i)
        || to_int64(args[2], &top) || to_double(args[3], &temperature))
        return NULL;
    return PyBool_FromLong(bc_distribution(s, i, top, temperature));
}

static PyObject *py_draw(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    void *s;
    int64_t i, top;
    double u;
    (void)module;
    if (arity("bc_draw", nargs, 4) || to_pointer(args[0], &s) || to_index(args[1], &i) || to_int64(args[2], &top)
        || to_double(args[3], &u))
        return NULL;
    return PyLong_FromLongLong(bc_draw(s, i, top, u));
}

static PyObject *py_row_terms(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    void *s, *terms;
    int64_t k;
    (void)module;
    if (arity("bc_row_terms", nargs, 3) || to_pointer(args[0], &s) || to_int64(args[1], &k) || to_pointer(args[2], &terms))
        return NULL;
    return PyFloat_FromDouble(bc_row_terms(s, k, terms));
}

static PyObject *py_row_score(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    void *s;
    int64_t i, k;
    (void)module;
    if (arity("bc_row_score", nargs, 3) || to_pointer(args[0], &s) || to_int64(args[1], &i) || to_int64(args[2], &k))
        return NULL;
    return PyFloat_FromDouble(bc_row_score(s, i, k));
}

/* The cast goes through void (*)(void), which -Wcast-function-type lets
   pass: CPython calls each entry with the fast-call signature its flag names. */
#define ENTRY(name, fn) {name, (PyCFunction)(void (*)(void))fn, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ENTRY("bc_detach", py_detach),
    ENTRY("bc_attach", py_attach),
    ENTRY("bc_distribution", py_distribution),
    ENTRY("bc_draw", py_draw),
    ENTRY("bc_row_terms", py_row_terms),
    ENTRY("bc_row_score", py_row_score),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {PyModuleDef_HEAD_INIT, "_visit", NULL, -1, methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__visit(void)
{
    return PyModule_Create(&module_def);
}
"""

_CC = "gcc"
# The interpreter's headers, for Python.h.
_FLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"])
_CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
# What this interpreter's import system calls an extension module file, ABI tag included.
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

# None until the first scoring of the process asks for the kernel; then the
# loaded extension module, or False where it could not be built or loaded
# and the numpy path runs.
_lib = None


def library():
    """The kernel's extension module, built or loaded on the first call; None on the numpy path."""
    global _lib
    if _lib is None:
        try:
            _lib = _load(_built())
        except (OSError, ImportError) as exc:
            _lib = False
            warnings.warn(
                f"binclust: the compiled visit kernel is unavailable, the numpy path runs instead: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return _lib or None


def _key():
    """The build's cache key: a digest of the source, the flags, the machine type and the extension suffix."""
    return hashlib.sha256("\0".join([SOURCE, *_FLAGS, platform.machine(), _SUFFIX]).encode()).hexdigest()[:16]


def _built():
    """Path of the compiled extension module, compiled first if no process has yet.

    A build writes its own keyed file through a temporary file and deletes
    nothing else, so a process never loses its build to another's.  A
    ``gcc`` run that fails or times out raises ``OSError``, as a missing
    ``gcc`` does.  Only a build imports ``subprocess``: a process that loads
    an existing build never pays for it.
    """
    key = _key()
    path = os.path.join(_CACHE_DIR, f"visit-{key}{_SUFFIX}")
    if not os.path.exists(path):
        import subprocess

        os.makedirs(_CACHE_DIR, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"visit-{key}-", suffix=".tmp", dir=_CACHE_DIR)
        os.close(fd)
        try:
            subprocess.run(
                [_CC, *_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=SOURCE, capture_output=True, text=True, check=True, timeout=300,
            )
            os.replace(tmp, path)
        except subprocess.CalledProcessError as exc:
            last = (exc.stderr or "").strip().splitlines()[-1:]
            raise OSError(": ".join([f"{exc.cmd[0]} exited with status {exc.returncode}", *last])) from None
        except subprocess.TimeoutExpired as exc:
            raise OSError(str(exc)) from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def _load(path):
    """The extension module at ``path``, loaded by the import system's own loader."""
    loader = importlib.machinery.ExtensionFileLoader("binclust._visit", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def _fields(source):
    """``bc_state``'s fields in ``source`` as ctypes ``_fields_``: each declaration, comments
    aside, one ``[const] type [*]name`` of an ``int64_t``, a ``double`` or any pointer;
    ``ValueError`` names any other."""
    c_types = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    body = re.search(r"typedef struct \{(.*?)\} bc_state;", source, re.S).group(1)
    fields = []
    for declaration in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        match = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s*(\*?)\s*(\w+)\s*", declaration)
        if not (match and (match[2] or match[1] in c_types)):
            raise ValueError(f"bc_state: cannot mirror the declaration {declaration.strip()!r} in ctypes")
        c_type, pointer, name = match.groups()
        fields.append((name, ctypes.c_void_p if pointer else c_types[c_type]))
    return fields


class _Context(ctypes.Structure):
    """The memory of one ``bc_state``, whose address the C entries are handed.  Its
    fields are read from the struct in the C source, the one place they are declared."""

    _fields_ = _fields(SOURCE)


class Visit:
    """The kernel bound to one state's data matrix and statistics buffers, and to
    ``hyper``, with its log-term cache.

    Construction fills every cache row, up to the buffers' capacity, with what
    ``bc_row_terms`` computes from that row's statistics under ``hyper``, and
    leaves no row pending: ``detach(i, n_clusters)`` and ``attach(i, k,
    n_clusters)``, the C entries bound to this kernel, keep the rows they touch
    so, the pending row as the row with its object in.  ``detach`` returns
    2k + 1 if the object's row k died and 2k if not, ``attach`` True.
    ``distribution(i, top, temperature)`` writes the distribution of detached
    object i over rows ``0 .. top - 1`` into ``probs`` and returns True;
    ``draw(i, top, u)`` then returns the row that the uniform ``u`` picks from
    it.  Each refuses a call that does not fit, changing nothing: ``detach``
    and ``draw`` with -1, the others with False.  The score memo starts
    empty, at tick 0, and the C entries tick the rows they change.
    Scoring binds a kernel, and growth drops it (the module docstring gives
    both rules).  It holds a reference to every array whose address the C side
    keeps, so none is freed while bound.
    """

    def __init__(self, lib, state, hyper):
        n, d = state._values.shape
        capacity = state._sizes.shape[0]
        self._lib = lib
        self.hyper = hyper
        self._ctx = ctx = _Context(
            n_objects=n, n_features=d, capacity=capacity, alpha=hyper.alpha, pending_object=-1, pending_row=-1,
            probs_object=-1, probs_top=-1,
        )
        self._addr = ctypes.addressof(ctx)
        self.detach = functools.partial(lib.bc_detach, self._addr)
        self.attach = functools.partial(lib.bc_attach, self._addr)
        self.distribution = functools.partial(lib.bc_distribution, self._addr)
        self.draw = functools.partial(lib.bc_draw, self._addr)
        self._values, self._assignments = state._values, state.assignments
        # A detached object has N options at most: probs needs no growth.
        self._memo, self.probs, self._scratch = np.full(n + 1, np.nan), np.empty(n + 1), np.empty(d)
        self._sizes, self._counts = state._sizes, state._counts
        self._terms = np.empty((capacity, 4, d))
        # The clock starts at 0, when every row changed and no object has scored: the score memo covers nothing.
        self._changed, self._scored_at = np.zeros(capacity, np.int64), np.full(n, -1, np.int64)
        self._scores = np.empty((n, capacity))
        ctx.values, ctx.assignments, ctx.sizes, ctx.counts, ctx.log_terms = (
            buf.ctypes.data for buf in (self._values, self._assignments, self._sizes, self._counts, self._terms)
        )
        ctx.a, ctx.b, ctx.denom_memo, ctx.probs, ctx.scratch = (
            buf.ctypes.data for buf in (hyper.a, hyper.b, self._memo, self.probs, self._scratch)
        )
        ctx.changed, ctx.scored_at, ctx.scores = (
            buf.ctypes.data for buf in (self._changed, self._scored_at, self._scores)
        )
        self._recompute(self._terms)

    def _recompute(self, terms):
        """Fill every row of the cache-shaped ``terms`` from the statistics; return their denominators."""
        return [self._lib.bc_row_terms(self._addr, k, terms[k].ctypes.data) for k in range(terms.shape[0])]

    def check(self):
        """Raise unless every cache row, the memoised denominator of every row's size once
        computed, and every memoised score its object's tick covers equal their recomputation
        from the statistics.  Scores are checked on rows 0 .. K, the rows the next
        distribution of their object reads."""
        fresh = np.empty_like(self._terms)
        denoms = self._recompute(fresh)
        memo = self._memo[self._sizes]
        if not (((memo == denoms) | np.isnan(memo)).all() and np.array_equal(self._terms, fresh)):
            raise ValueError("cached log terms disagree with a recomputation from the statistics")
        top = np.count_nonzero(self._sizes) + 1  # the live rows, then the new-cluster row
        for i, k in zip(*np.nonzero(self._changed[:top] <= self._scored_at[:, None])):
            if self._scores[i, k] != self._lib.bc_row_score(self._addr, i, k):
                raise ValueError(f"the memoised score of object {i} at row {k} disagrees with a recomputation")
