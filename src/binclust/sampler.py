"""Annealed collapsed Gibbs sampler over cluster labels.

A run owns one mutable :class:`~binclust.model.ClusterState` and sweeps the
objects in index order.  Each visit detaches the object, scores every
existing cluster plus a fresh one under the tempered collapsed posterior,
draws one option, and reattaches; :mod:`binclust.model` owns the three
steps around the draw.  Where the state has bound the compiled kernel of
:mod:`binclust._kernel`, the kernel also draws, from the distribution it
just wrote; on the numpy path :func:`_categorical` draws, by the same steps.
The temperature is multiplied by the cooling factor after every
``block`` sweeps, so the chain starts as an exact Gibbs sampler and ends
close to greedy ascent on the partition score.
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    NEW_CLUSTER,
    BinaryMatrix,
    ClusterState,
    _check_int,
    _check_positive,
    _check_width,
    assignment_distribution,
    default_hyperparams,
    insert_object,
    joint_log_score,
    remove_object,
)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling plan: start at ``t_init`` and multiply by ``lam`` after every
    ``block`` of the ``n_sweeps`` total sweeps.

    Immutable, so a schedule that passed validation stays valid.
    """

    t_init: float = 1.0
    lam: float = 0.9
    block: int = 20
    n_sweeps: int = 200

    def __post_init__(self):
        for name in ("block", "n_sweeps"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        object.__setattr__(self, "t_init", _check_positive(self.t_init, "t_init"))
        object.__setattr__(self, "lam", _check_positive(self.lam, "lam", below=1.0))
        # The temperatures never rise, so the first 0 settles it.
        if not all(t > 0 for t in self._temperatures()):
            raise ValueError("the schedule cools to a temperature of 0: raise t_init or lam, or lower n_sweeps/block")

    def _temperatures(self):
        """Yield the temperature after each sweep's cooling step, one per sweep.

        Sweep s (from 1) runs at the value yielded for sweep s - 1, the first
        at ``t_init``.  The one place the cooling is computed: :func:`run`
        sweeps at these values and the refusal of a schedule that cools to 0
        checks them, so the two round alike even at subnormal temperatures.
        """
        temperature = self.t_init
        for sweep in range(1, self.n_sweeps + 1):
            if sweep % self.block == 0:
                temperature *= self.lam
            yield temperature


@dataclass
class RunReport:
    """Everything needed to reproduce and inspect one annealed run."""

    assignments: np.ndarray
    n_clusters: int
    score_trace: np.ndarray
    k_trace: np.ndarray
    temp_trace: np.ndarray
    seed: int
    config_echo: dict


def init_state(data, k_init, rng):
    """Assign each object uniformly at random to one of ``k_init`` labels.

    Labels that end up empty are compacted away, so the returned state may
    hold fewer than ``k_init`` clusters.  A ``k_init`` above the number of
    objects is valid; its state always holds fewer.
    """
    labels = rng.integers(0, _check_int(k_init, "k_init", 1), size=data.n_objects)
    return ClusterState(data, labels)


def _categorical(probs, u):
    """The index a uniform draw ``u`` picks from a normalized probability vector.

    The first index whose running sum exceeds ``u``, the last where rounding
    leaves the total at or below it.  The sum runs left to right in float64,
    as ``np.cumsum`` does, so this is ``searchsorted(cumsum(probs), u,
    side="right")`` clamped to the last index, bit for bit.  The numpy path's
    draw, and the oracle of the compiled kernel's ``bc_draw``, which takes
    the same steps.
    """
    total = 0.0
    for k, p in enumerate(probs.tolist()):
        total += p
        if total > u:
            return k
    return len(probs) - 1


def gibbs_sweep(state, data, hyper, temperature, rng):
    """One full pass over all objects at a fixed temperature, in place; returns None.

    Every argument is checked, and every label held to 0..K-1, before the
    first object is detached, so a refused call leaves the state as it was.
    The sweep's N uniforms are drawn in one block, visit i taking the i-th:
    the same numbers, and the same generator state after, as one
    ``rng.random()`` per visit.  A visit draws in the compiled kernel where the
    state has bound one, and through :func:`_categorical` on the numpy path or
    if the kernel refuses; the two pick the same option.
    """
    state._check_values(data.values)
    _check_width(hyper, data)
    if not temperature > 0:
        raise ValueError("temperature must be strictly positive")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    labels, k = state.assignments, state.n_clusters
    if labels.min() < 0 or labels.max() >= k:  # UNASSIGNED included: a detached object is refused
        i = int(np.flatnonzero((labels < 0) | (labels >= k))[0])
        raise ValueError(f"object {i} carries label {labels[i]}, outside 0..{k - 1}")
    if data.values is not state._values:
        # Equal, as checked above: visit with the state's own array, which
        # every visit step accepts without comparing it cell by cell.
        data = BinaryMatrix(state._values)
    for i, u in enumerate(rng.random(data.n_objects).tolist()):
        remove_object(state, i, data)
        probs = assignment_distribution(i, state, data, hyper, temperature)
        visit = state._visit  # read after the scoring, which may bind it
        choice = visit.draw(i, len(probs), u) if visit else -1
        if choice < 0:
            choice = _categorical(probs, u)
        option = NEW_CLUSTER if choice == state._k else choice
        insert_object(state, i, option, data)


def run(data, hyper=None, schedule=None, k_init=10, seed=0):
    """Execute a full annealed run and return its :class:`RunReport`.

    ``hyper`` defaults to :func:`~binclust.model.default_hyperparams` and
    ``schedule`` to the stock :class:`AnnealingSchedule`.  The run is
    deterministic given ``(data, hyper, schedule, k_init, seed)``.  Traces
    are recorded once per sweep, after the post-sweep cooling step.  A sweep
    that leaves every label where it was records the previous score again
    instead of recomputing it: the same labels give the same statistics, so
    :func:`~binclust.model.joint_log_score` would return the same bits.
    """
    seed = _check_int(seed, "seed", 0)
    reference = default_hyperparams(data)
    hyper = reference if hyper is None else hyper
    if schedule is None:
        schedule = AnnealingSchedule()
    rng = np.random.default_rng(seed)
    state = init_state(data, k_init, rng)
    m = schedule.n_sweeps
    score_trace = np.empty(m, dtype=np.float64)
    k_trace = np.empty(m, dtype=np.int64)
    temp_trace = np.empty(m, dtype=np.float64)
    temperature = schedule.t_init
    scored = None  # the labels the last score was computed for
    for sweep, cooled in enumerate(schedule._temperatures()):
        gibbs_sweep(state, data, hyper, temperature, rng)
        temperature = cooled
        if scored is None or not np.array_equal(state.assignments, scored):
            score = joint_log_score(state, data, hyper)
            scored = state.assignments.copy()
        score_trace[sweep] = score
        k_trace[sweep] = state.n_clusters
        temp_trace[sweep] = temperature
    # The report JSON's run record, in its exact shape.
    config_echo = {
        "hyperparams": {
            "alpha": hyper.alpha,
            "a_policy": _shape_policy(hyper.a, reference.a, "constant:1"),
            "b_policy": _shape_policy(hyper.b, reference.b, "empirical:n/colsum"),
        },
        "k_init": int(k_init),
        "schedule": {
            "t_init": schedule.t_init,
            "lambda": schedule.lam,
            "block": schedule.block,
            "n_sweeps": schedule.n_sweeps,
        },
    }
    return RunReport(
        assignments=state.assignments.copy(),
        n_clusters=state.n_clusters,
        score_trace=score_trace,
        k_trace=k_trace,
        temp_trace=temp_trace,
        seed=seed,
        config_echo=config_echo,
    )


def _shape_policy(values, reference, label):
    return label if np.array_equal(values, reference) else "custom"
