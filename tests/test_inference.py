import numpy as np
import pytest

from advsamp.errors import DataError
from advsamp.inference import EvalReport, PredictionConfig, _score_matrix, evaluate
from advsamp.linear_model import LinearClassifier
from advsamp.noise import FrequencyNoise, UniformNoise

from conftest import dataset_from_dense


def model_with(weights, biases):
    C, K = np.asarray(weights).shape
    m = LinearClassifier(C, K)
    m.weights[:] = weights
    m.biases[:] = biases
    return m


def accuracy(model, noise, X, labels, bias_removal):
    ds = dataset_from_dense(X, labels, model.num_labels)
    return evaluate(model, noise, ds, PredictionConfig(bias_removal=bias_removal)).accuracy


class TestCorrectedScore:
    def test_adds_noise_log_prob(self, rng):
        m = model_with(rng.standard_normal((3, 2)), rng.standard_normal(3))
        noise = FrequencyNoise([5, 3, 2], smoothing=0.0)
        ds = dataset_from_dense(rng.standard_normal((4, 2)), [0, 1, 2, 0], 3)
        raw = _score_matrix(m, None, ds, bias_removal=False)
        assert np.array_equal(_score_matrix(m, noise, ds, True), raw + noise.log_probs)

    def test_uniform_noise_is_constant_shift(self, rng):
        m = model_with(rng.standard_normal((4, 2)), rng.standard_normal(4))
        ds = dataset_from_dense(rng.standard_normal((3, 2)), [0, 1, 3], 4)
        raw = _score_matrix(m, None, ds, bias_removal=False)
        corr = _score_matrix(m, UniformNoise(4), ds, bias_removal=True)
        assert np.allclose(corr, raw - np.log(4), atol=1e-12)

    def test_bias_removal_off_returns_raw(self, rng):
        m = model_with(rng.standard_normal((4, 2)), rng.standard_normal(4))
        ds = dataset_from_dense(rng.standard_normal((3, 2)), [0, 1, 3], 4)
        corr = _score_matrix(m, FrequencyNoise([1, 2, 3, 4]), ds, bias_removal=False)
        assert np.array_equal(corr, _score_matrix(m, None, ds, bias_removal=False))


class TestPredictTopk:
    def test_correction_changes_the_winner(self):
        # raw scores favor label 0; a strong noise penalty flips it to 1
        m = model_with(np.array([[0.5], [0.0]]), [0.0, 0.0])
        noise = FrequencyNoise([1, 99], smoothing=0.0)
        assert accuracy(m, noise, [[1.0]], [0], bias_removal=False) == 1.0
        assert accuracy(m, noise, [[1.0]], [1], bias_removal=True) == 1.0

    def test_ranking_order(self):
        # the prediction is the highest-scoring label
        m = model_with(np.array([[1.0], [3.0], [2.0]]), np.zeros(3))
        hits = [accuracy(m, None, [[1.0]], [y], False) for y in range(3)]
        assert hits == [0.0, 1.0, 0.0]

    def test_tie_breaks_by_label_id(self):
        m = model_with(np.zeros((4, 1)), [0.0, 1.0, 1.0, 0.0])
        hits = [accuracy(m, None, [[1.0]], [y], False) for y in range(4)]
        assert hits == [0.0, 1.0, 0.0, 0.0]


class TestEvaluate:
    def test_zero_model_uniform_readout(self, rng):
        # all scores zero: accuracy is the rate of label 0 (argmax tie-break)
        # and the mean log likelihood is exactly -log C
        ds = dataset_from_dense(rng.standard_normal((20, 3)),
                                rng.integers(0, 4, 20), 4)
        m = LinearClassifier(4, 3)
        rep = evaluate(m, None, ds, PredictionConfig(bias_removal=False))
        assert rep.log_likelihood == pytest.approx(-np.log(4), abs=1e-12)
        assert rep.accuracy == pytest.approx(np.mean(ds.labels == 0))
        assert rep.n_points == 20

    def test_uniform_noise_on_off_identical(self, rng):
        # a constant per-label shift cancels in both accuracy and the
        # softmax readout
        ds = dataset_from_dense(rng.standard_normal((30, 3)),
                                rng.integers(0, 5, 30), 5)
        m = model_with(rng.standard_normal((5, 3)), rng.standard_normal(5))
        noise = UniformNoise(5)
        on = evaluate(m, noise, ds, PredictionConfig(bias_removal=True))
        off = evaluate(m, noise, ds, PredictionConfig(bias_removal=False))
        assert on.accuracy == off.accuracy
        assert on.log_likelihood == pytest.approx(off.log_likelihood, abs=1e-10)

    def test_perfect_model(self, rng):
        labels = rng.integers(0, 3, 15)
        X = np.eye(3)[labels] * 50.0
        ds = dataset_from_dense(X, labels, 3)
        m = model_with(np.eye(3), np.zeros(3))
        rep = evaluate(m, None, ds, PredictionConfig(bias_removal=False))
        assert rep.accuracy == 1.0
        assert rep.log_likelihood > -1e-10

    def test_matches_per_example_predictions(self, rng):
        ds = dataset_from_dense(rng.standard_normal((25, 4)),
                                rng.integers(0, 6, 25), 6)
        m = model_with(rng.standard_normal((6, 4)), rng.standard_normal(6))
        noise = FrequencyNoise(ds.label_counts)
        cfg = PredictionConfig(bias_removal=True)
        rep = evaluate(m, noise, ds, cfg)
        # per-example oracle: dense scores plus log p_n, first maximum wins
        X = ds.features.toarray()
        hits = [np.argmax(m.weights @ X[i] + m.biases + noise.log_probs) == ds.labels[i]
                for i in range(25)]
        assert rep.accuracy == pytest.approx(np.mean(hits))

    def test_empty_dataset(self, rng):
        ds = dataset_from_dense(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DataError):
            evaluate(LinearClassifier(2, 2), None, ds, PredictionConfig())

    def test_report_dict(self):
        rep = EvalReport(0.5, -1.0, 10, 0.2)
        d = rep.to_dict()
        assert d["accuracy"] == 0.5 and d["n_points"] == 10
