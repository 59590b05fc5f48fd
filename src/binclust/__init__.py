"""Nonparametric clustering of high-dimensional binary data.

``binclust`` fits a collapsed Beta-Bernoulli mixture whose cluster count is
governed by a Dirichlet-process prior, optimized with an annealed collapsed
Gibbs sampler that cools toward a single point solution.  The package also
ships a planted-cluster benchmark generator, a matched-accuracy evaluator,
a k-means + gap-statistic baseline, file formats, and a CLI.
"""

from .baselines import GapResult, gap_statistic, kmeans_binary
from .datagen import SyntheticSpec, generate
from .evaluate import cluster_feature_frequencies, contingency, matched_accuracy
from .model import (
    NEW_CLUSTER,
    UNASSIGNED,
    BinaryMatrix,
    ClusterState,
    Hyperparams,
    assignment_distribution,
    crp_log_prior,
    default_hyperparams,
    joint_log_score,
    log_predictive,
)
from .sampler import (
    AnnealingSchedule,
    RunReport,
    gibbs_sweep,
    init_state,
    insert_object,
    remove_object,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule",
    "BinaryMatrix",
    "ClusterState",
    "GapResult",
    "Hyperparams",
    "NEW_CLUSTER",
    "RunReport",
    "SyntheticSpec",
    "UNASSIGNED",
    "assignment_distribution",
    "cluster_feature_frequencies",
    "contingency",
    "crp_log_prior",
    "default_hyperparams",
    "gap_statistic",
    "generate",
    "gibbs_sweep",
    "init_state",
    "insert_object",
    "joint_log_score",
    "kmeans_binary",
    "log_predictive",
    "matched_accuracy",
    "remove_object",
    "run",
]
