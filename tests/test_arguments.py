"""Every scalar argument against its rule: one table of integer arguments, one of real ones.

An integer argument takes a Python or numpy integer, not a bool, in its
range; a real one takes a number, not a bool or a string, finite and
strictly positive (``lam`` also below 1).  Each refusal is a ``ValueError``
whose message starts with the name the argument goes by.
"""

import argparse
import re

import numpy as np
import pytest

from binclust import cli, io
from binclust.baselines import gap_statistic, kmeans_binary
from binclust.datagen import SyntheticSpec
from binclust.model import (
    NEW_CLUSTER,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    assignment_distribution,
    crp_log_prior,
    default_hyperparams,
    insert_object,
    remove_object,
)
from binclust.sampler import AnnealingSchedule, init_state, run

DATA = BinaryMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
ONE = BinaryMatrix([[1, 0]])  # one object: every index but 0 is out of range


def _detached_one():
    state = ClusterState(ONE, [0])
    remove_object(state, 0, ONE)
    return state


def _insert_option(option):
    state = ClusterState(DATA, [0, 1, 0])
    remove_object(state, 2, DATA)
    insert_object(state, 2, option, DATA)


def _baseline_seed(seed):
    io.save_dense("in.csv", DATA)
    args = argparse.Namespace(seed=seed, in_path="in.csv", k_max=1, n_refs=1, report="report.json")
    return cli._cmd_baseline(args)


def _spec(**kwargs):
    return SyntheticSpec(**{"n_objects": 3, "n_features": 4, "info_pct": 50, "noise_pct": 0, "k_true": 1, **kwargs})


OPTION = f"a cluster option other than {NEW_CLUSTER!r}"

# (entry, name in the message, call with the value, low, high or None)
INTEGERS = [
    ("AnnealingSchedule", "block", lambda v: AnnealingSchedule(block=v, n_sweeps=2), 1, None),
    ("AnnealingSchedule", "n_sweeps", lambda v: AnnealingSchedule(n_sweeps=v, block=1), 1, None),
    ("init_state", "k_init", lambda v: init_state(DATA, v, np.random.default_rng(0)), 1, None),
    ("run", "seed", lambda v: run(DATA, schedule=AnnealingSchedule(n_sweeps=1), seed=v), 0, None),
    ("kmeans_binary", "k", lambda v: kmeans_binary(DATA, v, rng=0), 1, 3),
    ("gap_statistic", "k_max", lambda v: gap_statistic(DATA, k_max=v, n_refs=1, rng=0), 1, 3),
    ("gap_statistic", "n_refs", lambda v: gap_statistic(DATA, k_max=1, n_refs=v, rng=0), 1, None),
    ("SyntheticSpec", "n_objects", lambda v: _spec(n_objects=v), 1, None),
    ("SyntheticSpec", "n_features", lambda v: _spec(n_features=v), 1, None),
    ("SyntheticSpec", "k_true", lambda v: _spec(k_true=v), 1, 3),
    ("SyntheticSpec", "seed", lambda v: _spec(seed=v), 0, None),
    ("crp_log_prior", OPTION, lambda v: crp_log_prior(v, [2], 3, 1.0), 0, 0),
    ("insert_object", OPTION, _insert_option, 0, 1),
    ("remove_object", "object index", lambda v: remove_object(ClusterState(ONE, [0]), v, ONE), 0, 0),
    ("insert_object", "object index", lambda v: insert_object(_detached_one(), v, NEW_CLUSTER, ONE), 0, 0),
    (
        "assignment_distribution",
        "object index",
        lambda v: assignment_distribution(v, _detached_one(), ONE, default_hyperparams(ONE), 1.0),
        0,
        0,
    ),
    ("cli baseline", "seed", _baseline_seed, 0, None),
]

# (entry, name in the message, call with the value, whether 1 and up is refused)
REALS = [
    ("Hyperparams", "alpha", lambda v: Hyperparams(a=[1.0], b=[1.0], alpha=v), False),
    ("default_hyperparams", "alpha", lambda v: default_hyperparams(DATA, alpha=v), False),
    ("crp_log_prior", "alpha", lambda v: crp_log_prior(0, [2], 3, v), False),
    ("AnnealingSchedule", "t_init", lambda v: AnnealingSchedule(t_init=v, n_sweeps=2), False),
    ("AnnealingSchedule", "lam", lambda v: AnnealingSchedule(lam=v, n_sweeps=2), True),
]


def _refused_integers(low, high):
    values = [True, False, np.True_, 2.0, np.float64(1), "1", None, low - 1, 2**63, np.uint64(2**63)]
    return values + ([high + 1] if high is not None else [])


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the CLI entry reads and writes its files here


@pytest.mark.parametrize("entry, name, call, low, high", INTEGERS, ids=[f"{e}-{n}" for e, n, *_ in INTEGERS])
def test_an_integer_argument_refuses_all_but_an_integer_in_its_range(entry, name, call, low, high):
    for value in _refused_integers(low, high):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be ") as refusal:
            call(value)
        assert repr(value) in str(refusal.value)
    for value in (np.int64(low if high is None else high), np.uint8(low)):
        call(value)


def test_a_bounded_refusal_names_the_closed_interval_and_an_unbounded_one_the_sign():
    with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 3\], got 4$"):
        kmeans_binary(DATA, 4)
    with pytest.raises(ValueError, match=r"^n_refs must be a positive integer, got 0$"):
        gap_statistic(DATA, k_max=1, n_refs=0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        run(DATA, seed=-1)


@pytest.mark.parametrize("entry, name, call, below_one", REALS, ids=[f"{e}-{n}" for e, n, *_ in REALS])
def test_a_real_argument_refuses_a_bool_a_string_and_a_value_out_of_range(entry, name, call, below_one):
    refused = [True, np.True_, "2", b"2", np.nan, np.inf, -np.inf, 0, -1, 0.0, -0.0] + ([1, 1.5] if below_one else [])
    for value in refused:
        with pytest.raises(ValueError, match=f"^{name} must "):
            call(value)
    for value in (0.5, np.float64(0.5), np.float32(0.5), np.array(0.5), np.int64(1) if not below_one else 0.25):
        call(value)


def test_a_real_refusal_gives_the_range_and_the_float():
    with pytest.raises(ValueError, match=r"^t_init must be finite and strictly positive, got nan$"):
        AnnealingSchedule(t_init=np.float64(np.nan))
    with pytest.raises(ValueError, match=r"^lam must lie strictly between 0 and 1, got 1.5$"):
        AnnealingSchedule(lam=np.float32(1.5))


@pytest.mark.parametrize("value", [True, np.True_, "2", b"0.5"])
def test_a_real_argument_given_a_bool_or_a_string_names_it(value):
    with pytest.raises(ValueError, match=f"^alpha must be a real number, got {re.escape(repr(value))}$"):
        Hyperparams(a=[1.0], b=[1.0], alpha=value)


def test_an_accepted_real_is_kept_as_a_float():
    schedule = AnnealingSchedule(t_init=np.float32(0.5), lam=np.array(0.5), n_sweeps=2)
    assert type(schedule.t_init) is float and type(schedule.lam) is float
    assert (schedule.t_init, schedule.lam) == (0.5, 0.5)
    assert type(Hyperparams(a=[1.0], b=[1.0], alpha=np.int64(2)).alpha) is float
