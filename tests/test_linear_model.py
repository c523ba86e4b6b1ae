import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from advsamp.errors import DataError, NumericError
from advsamp.inference import PredictionConfig, _score_matrix, evaluate
from advsamp.linear_model import LinearClassifier
from advsamp.noise import UniformNoise
from advsamp.training import TrainConfig, adagrad_step, train

from conftest import dataset_from_dense


def model_with(weights, biases):
    C, K = np.asarray(weights).shape
    m = LinearClassifier(C, K)
    m.weights[:] = weights
    m.biases[:] = biases
    return m


def scores(model, X):
    """The (n, C) raw scores evaluation reads out for the rows of X."""
    ds = dataset_from_dense(X, np.zeros(len(X), dtype=int), model.num_labels)
    return _score_matrix(model, None, ds, bias_removal=False)


class TestScore:
    def test_zero_weights_returns_bias(self):
        m = model_with(np.zeros((2, 4)), [0.3, -1.0])
        assert scores(m, [[1.0, 2.0, 0.0, 0.0]])[0, 0] == pytest.approx(0.3)

    def test_one_hot_pick(self):
        w = np.zeros((1, 5))
        w[0, 2] = 1.5
        m = model_with(w, [0.0])
        assert scores(m, [[0, 0, 1.0, 0, 0]])[0, 0] == pytest.approx(1.5)

    def test_matches_dense_dot_oracle(self, rng):
        w = rng.standard_normal((3, 20))
        m = model_with(w, rng.standard_normal(3))
        dense = rng.standard_normal(20)
        dense[rng.choice(20, 10, replace=False)] = 0.0
        got = scores(m, [dense])[0]
        for y in range(3):
            oracle = float(dense @ w[y] + m.biases[y])
            assert abs(got[y] - oracle) < 1e-12

    def test_label_out_of_range(self):
        m = LinearClassifier(2, 3)
        ds = dataset_from_dense(np.ones((1, 3)), [5], 6)
        with pytest.raises(DataError):
            evaluate(m, None, ds, PredictionConfig(bias_removal=False))

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity_with_zero_bias(self, a, b):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((1, 4))
        m = model_with(w, [0.0])
        x1 = np.array([1.0, 0.0, 2.0, 0.0])
        x2 = np.array([0.0, -1.0, 0.0, 0.5])
        s1, s2, combo = scores(m, [x1, x2, a * x1 + b * x2])[:, 0]
        assert combo == pytest.approx(a * s1 + b * s2, abs=1e-10)

    def test_scores_all_consistent(self, rng):
        m = model_with(rng.standard_normal((4, 6)), rng.standard_normal(4))
        dense = rng.standard_normal(6)
        dense[[1, 4]] = 0.0
        idx = np.flatnonzero(dense)
        per_label = [m.weights[y, idx] @ dense[idx] + m.biases[y] for y in range(4)]
        assert np.allclose(scores(m, [dense])[0], per_label)


def adagrad(model, y, idx, gw, gb, rho=0.1):
    """The Adagrad write-back of ``train``, on label y's cells ``idx``."""
    labs = np.array([y])
    cells = (labs[:, None], np.asarray(idx))
    adagrad_step(model.weights, model.accum_w, cells, model.weights[cells],
                 np.atleast_2d(gw), rho, 1e-8)
    adagrad_step(model.biases, model.accum_b, labs, model.biases[labs],
                 np.array([gb], dtype=float), rho, 1e-8)


class TestAdagrad:
    def test_first_step_magnitude(self):
        # first touch: accum = g^2, so the step is -rho * g / (|g| + eps)
        m = LinearClassifier(1, 2)
        adagrad(m, 0, [0], [4.0], 0.0)
        assert m.weights[0, 0] == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_no_change(self):
        m = LinearClassifier(1, 2)
        m.weights[0, 0] = 0.7
        adagrad(m, 0, [0], [0.0], 0.0)
        assert m.weights[0, 0] == 0.7
        assert m.accum_w[0, 0] == 0.0

    def test_second_step_scaling(self):
        # two unit gradients: second step has magnitude rho/sqrt(2)
        m = LinearClassifier(1, 1)
        adagrad(m, 0, [0], [1.0], 0.0)
        first = -m.weights[0, 0]
        adagrad(m, 0, [0], [1.0], 0.0)
        second = -m.weights[0, 0] - first
        assert first == pytest.approx(0.1, rel=1e-6)
        assert second == pytest.approx(0.1 / np.sqrt(2), rel=1e-6)

    def test_first_touch_step_bounded_by_rho(self, rng):
        m = LinearClassifier(1, 5)
        adagrad(m, 0, np.arange(5), rng.standard_normal(5) * 10, 0.0, rho=0.05)
        assert np.abs(m.weights[0]).max() <= 0.05 + 1e-12

    def test_untouched_coordinates_unchanged(self):
        m = LinearClassifier(2, 4)
        adagrad(m, 0, [1], [1.0], 1.0)
        assert np.all(m.weights[1] == 0.0) and m.biases[1] == 0.0
        assert m.weights[0, 0] == 0.0 and m.weights[0, 2] == 0.0
        assert m.biases[0] == pytest.approx(-0.1, rel=1e-6)

    def test_accumulator_nondecreasing(self, rng):
        m = LinearClassifier(1, 3)
        prev = m.accum_w.copy()
        for _ in range(10):
            adagrad(m, 0, np.arange(3), rng.standard_normal(3), rng.standard_normal())
            assert np.all(m.accum_w >= prev)
            prev = m.accum_w.copy()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_gradient_raises(self):
        # an infinite feature value makes the step's loss and gradient NaN
        ds = dataset_from_dense([[np.inf, 1.0]], [0], 2)
        cfg = TrainConfig("neg_sampling", learning_rate=0.1, log_every=0)
        with pytest.raises(NumericError):
            train(ds, cfg, LinearClassifier(2, 2), UniformNoise(2))

    def test_bad_config(self):
        with pytest.raises(DataError):
            TrainConfig("neg_sampling", learning_rate=-1.0)
        with pytest.raises(DataError):
            TrainConfig("neg_sampling", learning_rate=0.1, adagrad_epsilon=0.0)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        m = model_with(rng.standard_normal((3, 4)), rng.standard_normal(3))
        m.save(tmp_path / "m.npz")
        back = LinearClassifier.load(tmp_path / "m.npz")
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.biases, m.biases)
        # accumulators excluded by default
        assert np.all(back.accum_w == 0.0)

    def test_round_trip_with_accumulators(self, tmp_path, rng):
        m = LinearClassifier(2, 3)
        adagrad(m, 1, [0, 2], [1.0, -2.0], 0.5)
        m.save(tmp_path / "m.npz", include_accumulators=True)
        back = LinearClassifier.load(tmp_path / "m.npz")
        assert np.array_equal(back.accum_w, m.accum_w)
        assert np.array_equal(back.accum_b, m.accum_b)
