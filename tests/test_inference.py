import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from advsamp import inference
from advsamp.data_io import PcaProjection, SparseDataset
from advsamp.errors import DataError
from advsamp.inference import EvalReport, PredictionConfig, evaluate
from advsamp.linear_model import LinearClassifier
from advsamp.noise import AdversarialNoise, FrequencyNoise, UniformNoise

from conftest import dataset_from_dense
from eval_oracle import dense_evaluate, score_matrix
from test_aux_tree import random_tree


def model_with(weights, biases):
    C, K = np.asarray(weights).shape
    m = LinearClassifier(C, K)
    m.weights[:] = weights
    m.biases[:] = biases
    return m


def adversarial_noise(C, K, k, rng):
    """Adversarial noise from a random tree on a random orthonormal k-dim projection."""
    basis, _ = np.linalg.qr(rng.standard_normal((K, k)))
    return AdversarialNoise(random_tree(C, k, rng), PcaProjection(rng.standard_normal(K), basis.T))


def make_noise(kind, C, K, rng):
    if kind == "uniform":
        return UniformNoise(C)
    if kind == "frequency":
        # zero counts without smoothing reach the log-probability floor
        counts = rng.integers(0, 4, C)
        counts[0] += 1
        return FrequencyNoise(counts, smoothing=float(rng.integers(0, 2)))
    if kind == "adversarial":
        return adversarial_noise(C, K, min(K, 3), rng)
    return None


def budget_for(rows, C, K=0):
    """An EVAL_BLOCK_BYTES that makes ``evaluate``'s blocks exactly ``rows``
    rows long, beside its (K, C) copy of the weights."""
    return rows * inference.BLOCK_TABLES * 8 * C + K * C * 8


def accuracy(model, noise, X, labels, bias_removal):
    ds = dataset_from_dense(X, labels, model.num_labels)
    return evaluate(model, noise, ds, PredictionConfig(bias_removal=bias_removal)).accuracy


class TestCorrectedScore:
    def test_adds_noise_log_prob(self, rng):
        m = model_with(rng.standard_normal((3, 2)), rng.standard_normal(3))
        noise = FrequencyNoise([5, 3, 2], smoothing=0.0)
        ds = dataset_from_dense(rng.standard_normal((4, 2)), [0, 1, 2, 0], 3)
        raw = score_matrix(m, None, ds, bias_removal=False)
        assert np.array_equal(score_matrix(m, noise, ds, True), raw + noise.log_probs)

    def test_uniform_noise_is_constant_shift(self, rng):
        m = model_with(rng.standard_normal((4, 2)), rng.standard_normal(4))
        ds = dataset_from_dense(rng.standard_normal((3, 2)), [0, 1, 3], 4)
        raw = score_matrix(m, None, ds, bias_removal=False)
        corr = score_matrix(m, UniformNoise(4), ds, bias_removal=True)
        assert np.allclose(corr, raw - np.log(4), atol=1e-12)

    def test_bias_removal_off_returns_raw(self, rng):
        m = model_with(rng.standard_normal((4, 2)), rng.standard_normal(4))
        ds = dataset_from_dense(rng.standard_normal((3, 2)), [0, 1, 3], 4)
        corr = score_matrix(m, FrequencyNoise([1, 2, 3, 4]), ds, bias_removal=False)
        assert np.array_equal(corr, score_matrix(m, None, ds, bias_removal=False))


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


class TestStreaming:
    """``evaluate`` streams over row blocks; the whole-matrix oracle in
    ``eval_oracle.py`` is the reference."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 30), C=st.integers(2, 12), K=st.integers(1, 5),
           block=st.sampled_from(["one", "odd", "all"]),
           kind=st.sampled_from([None, "uniform", "frequency", "adversarial"]),
           density=st.sampled_from([0.03, 0.7]), given_dense=st.booleans(),
           bias_removal=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_streamed_matches_dense_oracle(self, n, C, K, block, kind, density, given_dense,
                                           bias_removal, seed):
        # blocks below DENSE_MIN_DENSITY take the CSR product, the others
        # (and all, with the dense features given) the dense one; BLAS sums
        # in another order than scipy, so the mean log likelihood agrees
        # within 1e-12
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, K)) * (rng.random((n, K)) < density)
        ds = dataset_from_dense(X, rng.integers(0, C, n), C)
        m = model_with(rng.standard_normal((C, K)), rng.standard_normal(C))
        noise = make_noise(kind, C, K, rng)
        rows = {"one": 1, "odd": 3, "all": n + int(rng.integers(0, 3))}[block]
        cfg = PredictionConfig(bias_removal=bias_removal,
                               dense_features=X if given_dense else None)
        with mock.patch.object(inference, "EVAL_BLOCK_BYTES", budget_for(rows, C, K)):
            assert inference.block_rows(C, K * C * 8) == rows
            rep = evaluate(m, noise, ds, cfg)
        acc, log_lik = dense_evaluate(m, noise, ds, bias_removal)
        assert rep.accuracy == acc
        assert abs(rep.log_likelihood - log_lik) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_given_noise_table_equals_computed(self, rng, rows):
        ds = dataset_from_dense(rng.standard_normal((40, 4)), rng.integers(0, 9, 40), 9)
        m = model_with(rng.standard_normal((9, 4)), rng.standard_normal(9))
        noise = adversarial_noise(9, 4, 2, rng)
        whole = noise.log_prob_matrix(noise.prepare(ds.features))
        with mock.patch.object(inference, "EVAL_BLOCK_BYTES", budget_for(rows, 9, 4)):
            table = inference.noise_log_probs(noise, ds.features)
            computed = evaluate(m, noise, ds, PredictionConfig())
            given_table = evaluate(m, noise, ds, PredictionConfig(noise_log_probs=table))
        # a block of one row goes through BLAS's matrix-vector product,
        # which may round differently from the matrix-matrix one
        assert np.abs(table - whole).max() <= 1e-12
        if rows >= 40:
            assert np.array_equal(table, whole)
        assert (given_table.accuracy, given_table.log_likelihood) == \
            (computed.accuracy, computed.log_likelihood)

    @pytest.mark.parametrize("weights_mb", [0, 3, 20])
    def test_block_rows_leave_room_for_the_weights(self, weights_mb):
        # as many rows as fit beside the weights copy, and one when none do
        C, reserved = 1000, weights_mb * 2**20
        rows = inference.block_rows(C, reserved)
        row_bytes = inference.BLOCK_TABLES * 8 * C
        if reserved + row_bytes > inference.EVAL_BLOCK_BYTES:
            assert rows == 1
        else:
            assert reserved + rows * row_bytes <= inference.EVAL_BLOCK_BYTES \
                < reserved + (rows + 1) * row_bytes

    def test_dense_features_of_wrong_shape(self, rng):
        ds = dataset_from_dense(rng.standard_normal((5, 2)), [0, 1, 2, 0, 1], 3)
        cfg = PredictionConfig(dense_features=np.zeros((5, 3)))
        with pytest.raises(DataError):
            evaluate(LinearClassifier(3, 2), None, ds, cfg)

    @pytest.mark.parametrize("density,K", [(0.03, 400), (1.0, 32)])
    def test_bias_corrected_block_within_budget(self, density, K):
        # blocks of the compiled walk's tables on a 1,000-label tree (1,024
        # leaves), beside evaluate's copy of the weights: by the CSR product
        # (3.1 MiB of weights, more than half the budget, which the blocks
        # keep: 52 rows) and by the dense one (98)
        budget, C, n = 4 * 2**20, 1000, 200
        rng = np.random.default_rng(0)
        with mock.patch.object(inference, "EVAL_BLOCK_BYTES", budget):
            X = sp.random(n, K, density=density, format="csr", random_state=rng)
            assert inference.is_dense(X.nnz, *X.shape) == (density == 1.0)
            ds = SparseDataset(X, rng.integers(0, C, n), C)
            m = model_with(rng.standard_normal((C, K)), rng.standard_normal(C))
            noise = adversarial_noise(C, K, 16, rng)
            tracemalloc.start()
            try:
                rep = evaluate(m, noise, ds, PredictionConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        acc, log_lik = dense_evaluate(m, noise, ds, True)
        assert (rep.accuracy, rep.n_points) == (acc, n)
        assert abs(rep.log_likelihood - log_lik) <= 1e-12
        # the peak evaluate's docstring states
        assert peak <= max(budget, K * C * 8 + budget // 2), f"peak {peak / 2**20:.2f} MiB"

    def test_weights_copy_over_budget_keeps_half(self):
        # a (K, C) weights copy larger than the whole budget used to leave
        # blocks of one row; the blocks keep half the budget, so the peak is
        # at most the copy plus that half
        budget, n, C, K = 2**20, 120, 500, 300
        copy = K * C * 8
        assert copy > budget
        rng = np.random.default_rng(0)
        X = sp.random(n, K, density=0.03, format="csr", random_state=rng)
        ds = SparseDataset(X, rng.integers(0, C, n), C)
        m = model_with(rng.standard_normal((C, K)), rng.standard_normal(C))
        noise = adversarial_noise(C, K, 8, rng)
        rows, log_prob_matrix = [], noise.log_prob_matrix

        def block(Z, out=None):  # a mock would keep every block's scores alive
            rows.append(Z.shape[0])
            return log_prob_matrix(Z, out=out)

        with mock.patch.object(inference, "EVAL_BLOCK_BYTES", budget), \
                mock.patch.object(noise, "log_prob_matrix", block):
            tracemalloc.start()
            try:
                rep = evaluate(m, noise, ds, PredictionConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            half = inference.block_rows(C, budget // 2)
        assert sum(rows) == n and max(rows) == half > 1
        assert peak <= copy + budget // 2, f"peak {peak / 2**20:.2f} MiB"
        acc, log_lik = dense_evaluate(m, noise, ds, True)
        assert (rep.accuracy, rep.n_points) == (acc, n)
        assert abs(rep.log_likelihood - log_lik) <= 1e-12

    def test_noise_table_of_wrong_shape(self, rng):
        ds = dataset_from_dense(rng.standard_normal((5, 2)), [0, 1, 2, 0, 1], 3)
        cfg = PredictionConfig(noise_log_probs=np.zeros((4, 3)))
        with pytest.raises(DataError):
            evaluate(LinearClassifier(3, 2), UniformNoise(3), ds, cfg)

    def test_peak_memory_bounded_by_budget(self):
        # the dense path would hold ~3.5 tables of n x C float64 (16 MB each)
        budget = 2**20
        n, C, K = 4000, 500, 32
        assert n * C * 8 > 15 * budget
        rng = np.random.default_rng(0)
        X = sp.random(n, K, density=0.25, format="csr", random_state=rng)
        ds = SparseDataset(X, rng.integers(0, C, n), C)
        m = model_with(rng.standard_normal((C, K)), rng.standard_normal(C))
        noise = adversarial_noise(C, K, 4, rng)
        with mock.patch.object(inference, "EVAL_BLOCK_BYTES", budget):
            tracemalloc.start()
            try:
                rep = evaluate(m, noise, ds, PredictionConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rep.n_points == n
        assert peak < 2 * budget, f"peak {peak / 2**20:.1f} MiB"
