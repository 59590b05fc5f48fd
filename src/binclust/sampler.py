"""Annealed collapsed Gibbs sampler over cluster labels.

A run owns one mutable :class:`~binclust.model.ClusterState` and sweeps the
objects in index order.  Each visit detaches the object, scores every
existing cluster plus a fresh one under the tempered collapsed posterior,
draws one option, and reattaches.  The temperature is multiplied by the
cooling factor after every ``block`` sweeps, so the chain starts as an exact
Gibbs sampler and ends close to greedy ascent on the partition score.
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    NEW_CLUSTER,
    UNASSIGNED,
    ClusterState,
    _check_object,
    _check_option,
    _check_width,
    _is_integer,
    assignment_distribution,
    default_hyperparams,
    joint_log_score,
)


@dataclass
class AnnealingSchedule:
    """Cooling plan: start at ``t_init`` and multiply by ``lam`` after every
    ``block`` of the ``n_sweeps`` total sweeps."""

    t_init: float = 1.0
    lam: float = 0.9
    block: int = 20
    n_sweeps: int = 200

    def __post_init__(self):
        for name in ("block", "n_sweeps"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            setattr(self, name, int(value))
        self.t_init = float(self.t_init)
        self.lam = float(self.lam)
        if not self.t_init > 0:
            raise ValueError("t_init must be strictly positive")
        if not np.isfinite(self.t_init):
            raise ValueError("t_init must be finite")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie strictly between 0 and 1")
        if not min(self._temperatures()) > 0:
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
    if not (_is_integer(k_init) and k_init >= 1):
        raise ValueError(f"k_init must be a positive integer, got {k_init!r}")
    labels = rng.integers(0, k_init, size=data.n_objects)
    return ClusterState.from_assignments(data, labels)


def remove_object(state, i, data):
    """Detach object ``i`` from the state, in place; returns its old label.

    If the source cluster becomes empty it is deleted and the labels above
    it shift down by one, keeping the label set compact.
    """
    i = _check_object(i, state)
    if state.assignments[i] == UNASSIGNED:
        raise ValueError(f"object {i} is already detached")
    return state._detach(i, data.values)


def insert_object(state, i, option, data):
    """Attach detached object ``i`` to an existing cluster or a new one, in place.

    ``option`` is an existing cluster index or ``NEW_CLUSTER``; a new cluster
    takes the next free label (the current cluster count).
    """
    i = _check_object(i, state)
    if state.assignments[i] != UNASSIGNED:
        raise ValueError(f"object {i} is already assigned")
    state._attach(i, _check_option(option, state.n_clusters), data.values)
    return state


def _categorical(probs, rng):
    """Draw one index from a normalized probability vector."""
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, len(probs) - 1)


def gibbs_sweep(state, data, hyper, temperature, rng):
    """One full pass over all objects at a fixed temperature, in place."""
    _check_width(hyper, data)
    for i in range(data.n_objects):
        remove_object(state, i, data)
        probs = assignment_distribution(i, state, data, hyper, temperature)
        choice = _categorical(probs, rng)
        option = NEW_CLUSTER if choice == state.n_clusters else choice
        insert_object(state, i, option, data)
    return state


def run(data, hyper=None, schedule=None, k_init=10, seed=0):
    """Execute a full annealed run and return its :class:`RunReport`.

    ``hyper`` defaults to :func:`~binclust.model.default_hyperparams` and
    ``schedule`` to the stock :class:`AnnealingSchedule`.  The run is
    deterministic given ``(data, hyper, schedule, k_init, seed)``.  Traces
    are recorded once per sweep, after the post-sweep cooling step.
    """
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
    for sweep, cooled in enumerate(schedule._temperatures()):
        gibbs_sweep(state, data, hyper, temperature, rng)
        temperature = cooled
        score_trace[sweep] = joint_log_score(state, data, hyper)
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
        seed=int(seed),
        config_echo=config_echo,
    )


def _shape_policy(values, reference, label):
    return label if np.array_equal(values, reference) else "custom"
