"""Synthetic dataset generator for the experiment scripts and tests."""

from __future__ import annotations

import numpy as np

from .data_io import SparseDataset
from .errors import DataError


def hierarchical_clusters(num_clusters: int, labels_per_cluster: int, n: int,
                          seed: int, cluster_scale: float = 1.0,
                          label_scale: float = 1.0, noise_scale: float = 0.3,
                          zipf_exponent: float = 0.0):
    """Hierarchically clustered classification data.

    Label y belongs to cluster y // labels_per_cluster. Features are
    K = num_clusters + labels_per_cluster dimensional: a cluster indicator
    block plus a within-cluster indicator block, both corrupted with
    Gaussian noise. Labels in the same cluster differ only in the second
    block, so coarse structure is much easier to learn than fine structure.
    """
    if num_clusters < 2 or labels_per_cluster < 2:
        raise DataError("need at least 2 clusters and 2 labels per cluster")
    rng = np.random.default_rng(seed)
    num_labels = num_clusters * labels_per_cluster
    K = num_clusters + labels_per_cluster
    if zipf_exponent > 0.0:
        # skewed marginals: most labels are rare, as in extreme
        # classification benchmarks
        p = (1.0 + np.arange(num_labels)) ** -zipf_exponent
        labels = rng.choice(num_labels, size=n, p=p / p.sum())
    else:
        labels = rng.integers(0, num_labels, size=n)
    # mildly varied indicator strengths keep the feature covariance
    # spectrum free of exact ties
    c_str = cluster_scale * (1.0 + 0.5 * np.arange(num_clusters) / num_clusters)
    l_str = label_scale * (1.0 + 0.5 * np.arange(labels_per_cluster) / labels_per_cluster)
    X = noise_scale * rng.standard_normal((n, K))
    X[np.arange(n), labels // labels_per_cluster] += c_str[labels // labels_per_cluster]
    X[np.arange(n), num_clusters + labels % labels_per_cluster] += l_str[labels % labels_per_cluster]
    return SparseDataset.from_dense(X, labels, num_labels)
