"""Scoring predicted clusterings against ground truth.

Accuracy is the percentage of objects whose predicted cluster maps onto
their true cluster under the best one-to-one cluster matching, so it is
invariant to how either side happens to number its clusters.
"""

import numpy as np

from .model import ClusterState, _count_table


def contingency(pred, truth):
    """Count label co-occurrences; array entry (p, t) is ``|{i : pred_i=p and truth_i=t}|``."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1:
        raise ValueError(f"labels must be 1-d vectors, got ndim {pred.ndim} (predicted) and {truth.ndim} (true)")
    if pred.shape != truth.shape:
        raise ValueError(f"label vectors differ in length: {pred.shape[0]} (predicted) vs {truth.shape[0]} (true)")
    if pred.size == 0:
        raise ValueError("label vectors are empty")
    # Per predicted cluster, the count table of the one-hot rows of the true labels.
    return _count_table(pred, (truth[:, None] == np.unique(truth)).view(np.uint8))[2]


def matched_accuracy(pred, truth):
    """Percentage of objects correctly clustered under the best 1-to-1 matching.

    The matching between predicted and true clusters maximizes the summed
    co-occurrence counts (Hungarian assignment on the contingency table);
    surplus clusters on either side stay unmatched and contribute nothing.
    """
    # Imported here, not at module level: this is the only user of scipy.optimize,
    # and importing it costs every process a third of a second.
    from scipy.optimize import linear_sum_assignment

    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    matched = int(table[rows, cols].sum())
    return 100.0 * matched / table.sum()


def cluster_feature_frequencies(assignments, data):
    """K x D matrix whose (k, j) entry is the fraction of cluster k carrying feature j."""
    state = ClusterState(data, assignments)
    return state.feature_counts / state.sizes[:, None]
