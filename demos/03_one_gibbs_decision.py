"""Anatomy of a single Gibbs decision, and what temperature does to it.

Takes a toy dataset, detaches one object, and prints the pieces the sampler
combines: the seat-count prior over clusters, the collapsed predictive
log-likelihood of the object's row under each cluster's posterior, and the
resulting assignment distribution at several temperatures.  Cooling leaves
the prior alone and sharpens only the likelihood, so by T=0.05 the choice
is effectively the maximum-likelihood one.
"""

import numpy as np

import binclust as bc
from binclust.model import NEW_CLUSTER

# Three tight groups; object 10 (row of the "ones-left" pattern with one
# flipped bit) is the one to place.
values = np.array(
    [[1, 1, 1, 0, 0, 0]] * 4
    + [[0, 0, 0, 1, 1, 1]] * 4
    + [[1, 0, 1, 0, 1, 0]] * 2
    + [[1, 1, 0, 0, 0, 0]]  # the object in question
)
data = bc.BinaryMatrix(values)
labels = np.array([0] * 4 + [1] * 4 + [2] * 2 + [0])
hyper = bc.default_hyperparams(data)

state = bc.ClusterState(data, labels)
bc.remove_object(state, 10, data)
x = data.values[10]
print(f"object row: {x.tolist()}")
print(f"clusters after detaching it: sizes={state.sizes.tolist()}")

# The two ingredients of the decision, per option (last option = new cluster):
options = list(range(state.n_clusters)) + [NEW_CLUSTER]
print("\noption      seat prior   predictive loglik")
for opt in options:
    prior = bc.crp_log_prior(opt, state.sizes, data.n_objects, hyper.alpha)
    if opt == NEW_CLUSTER:
        loglik = bc.log_predictive(x, None, hyper)
        name = "new"
    else:
        loglik = bc.log_predictive(x, (state.sizes[opt], state.feature_counts[opt]), hyper)
        name = f"cluster {opt}"
    print(f"{name:<10} {np.exp(prior):>11.3f} {loglik:>19.3f}")

# Tempering: the prior column stays put, the likelihood gets a 1/T exponent.
print("\nassignment probabilities by temperature:")
header = "  ".join(f"{'c' + str(k):>8}" for k in range(state.n_clusters)) + f"  {'new':>8}"
print(f"{'T':>6}  {header}")
for temperature in (1.0, 0.5, 0.2, 0.05):
    probs = bc.assignment_distribution(10, state, data, hyper, temperature)
    row = "  ".join(f"{p:8.4f}" for p in probs)
    print(f"{temperature:6.2f}  {row}")

print("\nat T=1 this is the exact collapsed posterior; cooling concentrates it")
print("on the best-likelihood cluster while never silencing the seat prior.")
