import numpy as np
import pytest

from advsamp.errors import DataError
from advsamp.synthetic import hierarchical_clusters

from conftest import one_hot_contexts


class TestHierarchicalClusters:
    def test_shapes_and_label_range(self):
        ds = hierarchical_clusters(4, 3, 500, seed=0)
        assert ds.features.shape == (500, 7)
        assert ds.num_labels == 12
        assert ds.labels.min() >= 0 and ds.labels.max() < 12

    def test_cluster_indicator_dominates(self):
        ds = hierarchical_clusters(4, 4, 2000, seed=1, noise_scale=0.1)
        X = ds.features.toarray()
        clusters = ds.labels // 4
        # the strongest of the first 4 coordinates names the cluster
        assert np.mean(np.argmax(X[:, :4], axis=1) == clusters) > 0.99

    def test_zipf_marginals_are_skewed(self):
        ds = hierarchical_clusters(4, 4, 40_000, seed=2, zipf_exponent=1.0)
        counts = np.bincount(ds.labels, minlength=16)
        # p(y) ~ 1/(y+1): label 0 should be ~16x more common than label 15
        assert counts[0] > 8 * counts[15]
        ratio = counts[0] / counts[15]
        assert 10 < ratio < 26

    def test_zero_exponent_is_uniform(self):
        ds = hierarchical_clusters(4, 4, 40_000, seed=3)
        counts = np.bincount(ds.labels, minlength=16)
        assert counts.max() < 1.2 * counts.min()

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(DataError):
            hierarchical_clusters(1, 4, 100, seed=0)
        with pytest.raises(DataError):
            hierarchical_clusters(4, 1, 100, seed=0)


class TestOneHotContexts:
    def test_conditionals_are_floored_and_normalized(self):
        _, p = one_hot_contexts(5, 7, 1000, seed=0, min_prob=0.02)
        # renormalization after flooring can pull entries a bit below 0.02
        assert np.all(p >= 0.02 / (1.0 + 0.02 * 7))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_empirical_matches_table(self):
        ds, p = one_hot_contexts(3, 4, 60_000, seed=1)
        X = ds.features.toarray()
        for c in range(3):
            rows = X[:, c] == 1.0
            emp = np.bincount(ds.labels[rows], minlength=4) / rows.sum()
            assert np.max(np.abs(emp - p[c])) < 0.02
