import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chisquare

from advsamp.aux_tree import fit_tree
from advsamp.data_io import PcaProjection, fit_pca
from advsamp.errors import DataError
from advsamp.linear_model import LinearClassifier
from advsamp.noise import (
    LOG_PROB_FLOOR,
    AdversarialNoise,
    FrequencyNoise,
    UniformNoise,
    make_noise,
)
from advsamp.training import TrainConfig, train

from conftest import dataset_from_dense

ONE_ROW = sp.csr_matrix(np.ones((1, 1)))


def goodness_of_fit(samples, probs):
    obs = np.bincount(samples, minlength=probs.size)
    return chisquare(obs, probs * samples.size).pvalue


class TestUniform:
    def test_log_prob_constant(self):
        n = UniformNoise(5)
        Z = n.prepare(sp.csr_matrix(np.ones((3, 2))))
        assert Z.shape == (3, 0)
        assert np.allclose(n.log_prob_pairs(Z, [0, 4, 2]), -np.log(5))
        assert np.allclose(n.log_prob_matrix(Z), -np.log(5))

    def test_normalized(self):
        n = UniformNoise(7)
        totals = np.exp(n.log_prob_matrix(n.prepare(ONE_ROW))).sum(axis=1)
        assert totals == pytest.approx([1.0])

    def test_sampling_distribution(self, rng):
        n = UniformNoise(6)
        X = sp.csr_matrix(np.ones((100_000, 1)))
        draws = n.sample_batch(n.prepare(X), rng)
        assert goodness_of_fit(draws, np.full(6, 1 / 6)) > 0.001

    def test_out_of_range_label(self, rng):
        # a noise over 3 labels cannot serve data with label 3
        ds = dataset_from_dense(np.ones((4, 1)), [0, 1, 2, 3], 4)
        cfg = TrainConfig("neg_sampling", learning_rate=0.1, log_every=0)
        with pytest.raises(DataError):
            train(ds, cfg, LinearClassifier(4, 1), UniformNoise(3))


class TestFrequency:
    def test_unsmoothed_probs(self):
        n = FrequencyNoise([3, 1, 0], smoothing=0.0)
        assert np.allclose(n.probs, [0.75, 0.25, 0.0])

    def test_add_one_smoothing(self):
        n = FrequencyNoise([3, 1, 0], smoothing=1.0)
        assert np.allclose(n.probs, [4 / 7, 2 / 7, 1 / 7])

    def test_zero_count_floor(self):
        n = FrequencyNoise([5, 0], smoothing=0.0)
        assert n.log_prob_pairs(n.prepare(ONE_ROW), [1])[0] == LOG_PROB_FLOOR

    def test_normalized(self):
        n = FrequencyNoise([2, 9, 4, 1], smoothing=0.5)
        totals = np.exp(n.log_prob_matrix(n.prepare(ONE_ROW))).sum(axis=1)
        assert totals == pytest.approx([1.0])

    def test_sampling_distribution(self, rng):
        n = FrequencyNoise([10, 30, 60], smoothing=0.0)
        X = sp.csr_matrix(np.ones((100_000, 1)))
        draws = n.sample_batch(n.prepare(X), rng)
        assert goodness_of_fit(draws, n.probs) > 0.001

    def test_log_prob_pairs_matches(self):
        n = FrequencyNoise([1, 2, 3])
        X = sp.csr_matrix(np.ones((3, 1)))
        pairs = n.log_prob_pairs(n.prepare(X), [2, 0, 1])
        assert np.allclose(pairs, n.log_probs[[2, 0, 1]])

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            FrequencyNoise([1, -2])
        with pytest.raises(DataError):
            FrequencyNoise([0, 0], smoothing=0.0)


class TestAdversarial:
    def fitted(self, rng, C=4, K=6, k=2, n=400):
        # two gaussian context clusters, each favoring half the labels
        X = rng.standard_normal((n, K))
        X[: n // 2, 0] += 4.0
        labels = np.where(
            np.arange(n) < n // 2,
            rng.integers(0, C // 2, n),
            rng.integers(C // 2, C, n),
        )
        ds = dataset_from_dense(X, labels, C)
        proj = fit_pca(ds, k)
        Xr = (X - proj.mean) @ proj.components.T
        tree = fit_tree(Xr, labels, C, 0.1)
        return AdversarialNoise(tree, proj), ds

    def test_normalized_per_context(self, rng):
        noise, ds = self.fitted(rng)
        totals = np.exp(noise.log_prob_matrix(noise.prepare(ds.features))).sum(axis=1)
        assert np.abs(totals - 1.0).max() < 1e-9

    def test_conditional_on_context(self, rng):
        noise, ds = self.fitted(rng)
        # a cluster-0 context should put most mass on the first half of labels
        p0, p1 = np.exp(noise.log_prob_matrix(noise.prepare(ds.features[[0, -1]])))
        assert p0[:2].sum() > 0.8
        assert p1[2:].sum() > 0.8

    def test_sampling_matches_log_prob(self, rng):
        noise, ds = self.fitted(rng)
        Z = noise.prepare(ds.features[3])
        draws = noise.sample_batch(np.repeat(Z, 100_000, axis=0), rng)
        probs = np.exp(noise.log_prob_matrix(Z)[0])
        assert goodness_of_fit(draws, probs) > 0.001

    def test_scalar_batch_agree(self, rng):
        noise, ds = self.fitted(rng)
        X = ds.features.toarray()
        Z = noise.prepare(ds.features)
        assert np.abs(Z - (X - noise.projection.mean) @ noise.projection.components.T).max() < 1e-12
        lp_scalar = [noise.log_prob_pairs(Z[:1], [y])[0] for y in range(4)]
        lp_all = noise.log_prob_matrix(Z[:1])[0]
        assert np.allclose(lp_scalar, lp_all, atol=1e-12)
        pairs = noise.log_prob_pairs(np.repeat(Z[:1], 4, axis=0), np.arange(4))
        assert np.allclose(pairs, lp_all, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        noise, _ = self.fitted(rng)
        bad = PcaProjection(np.zeros(6), np.eye(3, 6), np.ones(3))
        with pytest.raises(DataError):
            AdversarialNoise(noise.tree, bad)


class TestLabelRange:
    """``log_prob_pairs`` rejects labels outside [0, C) instead of wrapping
    -1 round to label C-1."""

    @pytest.mark.parametrize("kind", ["uniform", "frequency", "adversarial"])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_log_prob_pairs_rejects(self, rng, kind, bad):
        if kind == "adversarial":
            noise, ds = TestAdversarial().fitted(rng)
            Z = noise.prepare(ds.features[:2])
        else:
            noise = (UniformNoise(4) if kind == "uniform"
                     else FrequencyNoise(np.array([3.0, 1.0, 2.0, 5.0])))
            Z = noise.prepare(sp.csr_matrix(np.ones((2, 1))))
        assert noise.log_prob_pairs(Z, [0, 3]).shape == (2,)
        with pytest.raises(DataError):
            noise.log_prob_pairs(Z, [0, bad])
        if kind == "adversarial":
            with pytest.raises(DataError):
                noise.tree.log_prob_pairs(Z, [bad, 0])


class TestFactory:
    def test_kinds(self, rng):
        assert isinstance(make_noise("uniform", num_labels=3), UniformNoise)
        assert isinstance(make_noise("frequency", label_counts=[1, 2]), FrequencyNoise)

    def test_missing_arguments(self):
        with pytest.raises(DataError):
            make_noise("uniform")
        with pytest.raises(DataError):
            make_noise("frequency")
        with pytest.raises(DataError):
            make_noise("adversarial")
        with pytest.raises(DataError):
            make_noise("gaussian", num_labels=2)
