import numpy as np
import pytest

from advsamp.data_io import fit_pca
from advsamp.errors import DataError, NumericError
from advsamp.linear_model import LinearClassifier
from advsamp.noise import FrequencyNoise, UniformNoise, make_noise
from advsamp.training import (
    METRIC_COLUMNS,
    TrainConfig,
    pair_loss_and_grad,
    softmax_loss_and_grad,
    train,
)

from conftest import dataset_from_dense

FD_EPS = 1e-5


def model_with(weights, biases):
    C, K = np.asarray(weights).shape
    m = LinearClassifier(C, K)
    m.weights[:] = weights
    m.biases[:] = biases
    return m


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def row(ds, i):
    """Feature indices and values of example i."""
    X = ds.features
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return X.indices[lo:hi], X.data[lo:hi]


def ref_score(model, idx, vals, y):
    """Per-label scoring oracle: the sparse dot product x . w_y + b_y."""
    return float(model.weights[y, idx] @ vals + model.biases[y])


def ref_adagrad(model, y, idx, gw, gb, rho, eps=1e-8):
    """Per-label Adagrad oracle on label y's feature support idx."""
    aw = model.accum_w[y]
    aw[idx] += gw**2
    model.weights[y, idx] -= rho * gw / (np.sqrt(aw[idx]) + eps)
    model.accum_b[y] += gb**2
    model.biases[y] -= rho * gb / (np.sqrt(model.accum_b[y]) + eps)


def pair_loss_of(model, x, labs, lp=None, lam=0.0):
    """The negative-sampling step loss and gradient at dense input x."""
    labs = np.asarray(labs)
    xi = model.weights[labs] @ x + model.biases[labs]
    return pair_loss_and_grad(xi, labs, lp, lam)


def check_pair_gradient(model, x, labs, lp=None, lam=0.0):
    """Each touched label's merged gradient against central differences."""
    _, g = pair_loss_of(model, x, labs, lp, lam)
    fd = fd_score_gradient(lambda mm: pair_loss_of(mm, x, labs, lp, lam)[0], model, set(labs))
    for j, y in enumerate(labs):
        assert abs(g[j] - fd[y]) < 1e-6 * max(1.0, abs(fd[y]))


def fd_score_gradient(loss_of_model, model, labels):
    """Central differences through the bias of each touched label; the bias
    enters the score additively, so d loss / d xi_y = d loss / d b_y."""
    out = {}
    for y in labels:
        saved = model.biases[y]
        model.biases[y] = saved + FD_EPS
        hi = loss_of_model(model)
        model.biases[y] = saved - FD_EPS
        lo = loss_of_model(model)
        model.biases[y] = saved
        out[y] = (hi - lo) / (2 * FD_EPS)
    return out


class TestSoftmaxLoss:
    def test_two_equal_scores(self):
        loss, grad = softmax_loss_and_grad([0.0, 0.0], 0)
        assert loss == pytest.approx(np.log(2))
        assert np.allclose(grad, [-0.5, 0.5])

    def test_three_to_one_odds(self):
        loss, grad = softmax_loss_and_grad([np.log(3.0), 0.0], 0)
        assert loss == pytest.approx(np.log(4.0 / 3.0))
        assert np.allclose(grad, [-0.25, 0.25])

    def test_shift_invariance(self, rng):
        scores = rng.standard_normal(5)
        l0, g0 = softmax_loss_and_grad(scores, 2)
        l1, g1 = softmax_loss_and_grad(scores + 123.456, 2)
        assert l1 == pytest.approx(l0, abs=1e-12)
        assert np.abs(g1 - g0).max() < 1e-12

    def test_large_scores_stable(self):
        loss, grad = softmax_loss_and_grad([1000.0, 0.0], 1)
        assert loss == pytest.approx(1000.0)
        assert np.all(np.isfinite(grad))

    def test_finite_difference_oracle(self, rng):
        scores = rng.standard_normal(6)
        _, grad = softmax_loss_and_grad(scores, 3)
        for c in range(6):
            e = np.zeros(6)
            e[c] = FD_EPS
            hi, _ = softmax_loss_and_grad(scores + e, 3)
            lo, _ = softmax_loss_and_grad(scores - e, 3)
            fd = (hi - lo) / (2 * FD_EPS)
            assert abs(grad[c] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_label_guard(self):
        with pytest.raises(DataError):
            softmax_loss_and_grad(np.zeros(100_001), 0)

    def test_non_finite_scores(self):
        with pytest.raises(NumericError):
            softmax_loss_and_grad([np.inf, 0.0], 0)


class TestPairLoss:
    def test_zero_scores(self):
        loss, g = pair_loss_and_grad(np.zeros(2), np.array([0, 2]), None, 0.0)
        assert loss == pytest.approx(2 * np.log(2))
        assert g == pytest.approx([-0.5, 0.5])

    def test_same_positive_and_negative(self):
        loss, g = pair_loss_and_grad(np.zeros(2), np.array([1, 1]), None, 0.0)
        # -sigma(-0) + sigma(0) = 0: the merged contributions cancel at xi = 0,
        # and both rows of the label carry the merged gradient
        assert loss == pytest.approx(2 * np.log(2))
        assert g == pytest.approx([0.0, 0.0])

    def test_well_separated_scores(self):
        loss, _ = pair_loss_and_grad(np.array([20.0, -20.0]), np.array([0, 1]), None, 0.0)
        assert loss == pytest.approx(2 * np.log1p(np.exp(-20.0)), rel=1e-9)
        assert loss < 5e-9

    def test_finite_difference_oracle(self, rng):
        m = model_with(rng.standard_normal((4, 3)), rng.standard_normal(4))
        x = rng.standard_normal(3)
        check_pair_gradient(m, x, [1, 3])
        check_pair_gradient(m, x, [1, 3, 1, 0, 3])  # repeats, positive drawn again


class TestRegularizedLoss:
    def test_zero_lambda_matches_plain(self, rng):
        xi, labs = rng.standard_normal(3), np.array([0, 1, 1])
        plain = pair_loss_and_grad(xi, labs, None, 0.0)
        reg = pair_loss_and_grad(xi, labs, rng.standard_normal(3), 0.0)
        assert reg[0] == plain[0]
        assert np.array_equal(reg[1], plain[1])

    def test_zero_model_uniform_noise(self):
        # xi = 0 and log p_n = -log 2, so each label adds lam (log 2)^2
        lp = np.full(2, -np.log(2))
        loss, g = pair_loss_and_grad(np.zeros(2), np.array([0, 1]), lp, 0.5)
        expect = 2 * np.log(2) + 2 * 0.5 * np.log(2.0) ** 2
        assert loss == pytest.approx(expect)
        assert g[0] == pytest.approx(-0.5 + 2 * 0.5 * (-np.log(2)))

    def test_double_weight_when_labels_coincide(self):
        xi, labs, lp = np.array([0.3, 0.3]), np.array([0, 0]), np.zeros(2)  # C = 1
        loss, _ = pair_loss_and_grad(xi, labs, lp, 0.25)
        base, _ = pair_loss_and_grad(xi, labs, None, 0.0)
        assert loss == pytest.approx(base + 2 * 0.25 * 0.3 * 0.3)

    def test_finite_difference_oracle(self, rng):
        m = model_with(rng.standard_normal((4, 2)), rng.standard_normal(4))
        x = rng.standard_normal(2)
        noise = FrequencyNoise([4, 3, 2, 1])
        for labs in ([2, 0], [2, 2, 0, 0, 1]):
            check_pair_gradient(m, x, labs, noise.log_probs[labs], 0.7)


class TestUnbiasedness:
    def test_enumerated_expectation_matches_population_gradient(self, rng):
        # E_{y ~ p_D, y' ~ p_n}[pair gradient] = -p_D sigma(-xi) + p_n sigma(xi)
        C = 5
        xi = rng.standard_normal(C)
        p_data = rng.dirichlet(np.ones(C))
        noise = FrequencyNoise(rng.integers(1, 10, C), smoothing=0.0)
        expected = np.zeros(C)
        for y in range(C):
            for y_neg in range(C):
                labs = np.array([y, y_neg])
                _, g = pair_loss_and_grad(xi[labs], labs, None, 0.0)
                w = p_data[y] * noise.probs[y_neg]
                # a repeated label carries its merged gradient in both rows
                for label, j in zip(*np.unique(labs, return_index=True)):
                    expected[label] += w * g[j]
        population = -p_data * sigmoid(-xi) + noise.probs * sigmoid(xi)
        assert np.abs(expected - population).max() < 1e-10


def tiny_dataset(rng, n=60, C=4, K=6):
    centers = rng.standard_normal((C, K)) * 3.0
    labels = rng.integers(0, C, n)
    X = centers[labels] + 0.5 * rng.standard_normal((n, K))
    return dataset_from_dense(X, labels, C)


class TestTrainLoop:
    def cfg(self, **kw):
        base = dict(method="neg_sampling", learning_rate=0.1, epochs=2, seed=1,
                    log_every=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_identity(self, rng):
        ds = tiny_dataset(rng)
        m = LinearClassifier(ds.num_labels, 6)
        before = m.weights.copy()
        train(ds, self.cfg(epochs=0), m, noise=UniformNoise(ds.num_labels))
        assert np.array_equal(m.weights, before)

    def test_single_step_matches_reference_implementation(self, rng):
        # the inline loop must agree with a per-label pair loss and Adagrad
        ds = tiny_dataset(rng, n=1)
        noise = UniformNoise(ds.num_labels)
        m = LinearClassifier(ds.num_labels, 6)
        train(ds, self.cfg(epochs=1, seed=7), m, noise=noise)

        ref = LinearClassifier(ds.num_labels, 6)
        r = np.random.default_rng(7)
        r.permutation(1)
        y_neg = int(noise.sample_batch(noise.prepare(ds.features), r)[0])
        idx, vals = row(ds, 0)
        y = int(ds.labels[0])
        grads = {y: -sigmoid(-ref_score(ref, idx, vals, y))}
        grads[y_neg] = grads.get(y_neg, 0.0) + sigmoid(ref_score(ref, idx, vals, y_neg))
        for label, g in grads.items():
            ref_adagrad(ref, label, idx, g * vals, g, 0.1)
        assert np.abs(m.weights - ref.weights).max() < 1e-12
        assert np.abs(m.biases - ref.biases).max() < 1e-12

    def test_epoch_matches_per_label_reference(self, rng):
        # several negatives over few labels (repeats and hits on the positive),
        # the score regularizer on, and one example with no features
        X = 2.0 * rng.standard_normal((40, 6))
        X[X < 0.5] = 0.0
        X[7] = 0.0
        ds = dataset_from_dense(X, rng.integers(0, 3, 40), 3)
        noise = FrequencyNoise(ds.label_counts, smoothing=1.0)
        cfg = self.cfg(epochs=1, seed=5, negatives_per_positive=5, regularizer=0.05)
        m = LinearClassifier(3, 6)
        res = train(ds, cfg, m, noise=noise)

        ref = LinearClassifier(3, 6)
        r = np.random.default_rng(cfg.seed)
        order = r.permutation(ds.num_examples)
        Z = noise.prepare(ds.features[order])
        negs = np.stack([noise.sample_batch(Z, r) for _ in range(5)])
        total = 0.0
        for t, i in enumerate(order):
            idx, vals = row(ds, i)
            grads = {}
            for j, label in enumerate([ds.labels[i], *negs[:, t]]):
                xi = ref_score(ref, idx, vals, label)
                sign = -1.0 if j == 0 else 1.0
                resid = xi + noise.log_probs[label]
                total += np.logaddexp(0.0, sign * xi) + cfg.regularizer * resid**2
                grads[label] = (grads.get(label, 0.0) + sign / (1.0 + np.exp(-sign * xi))
                                + 2.0 * cfg.regularizer * resid)
            for label, g in grads.items():
                ref_adagrad(ref, label, idx, g * vals, g, cfg.learning_rate)
        for got, want in [(m.weights, ref.weights), (m.biases, ref.biases),
                          (m.accum_w, ref.accum_w), (m.accum_b, ref.accum_b)]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert res.metrics[-1]["train_loss"] == pytest.approx(total / 40, rel=1e-12)

    def test_softmax_epoch_matches_per_label_reference(self, rng):
        # full softmax with the parameter L2 term and one example with no features
        X = 2.0 * rng.standard_normal((30, 5))
        X[X < 0.5] = 0.0
        X[4] = 0.0
        ds = dataset_from_dense(X, rng.integers(0, 4, 30), 4)
        cfg = self.cfg(method="softmax_full", epochs=2, seed=9, regularizer=0.02)
        m = LinearClassifier(4, 5)
        res = train(ds, cfg, m)

        ref = LinearClassifier(4, 5)
        r = np.random.default_rng(cfg.seed)
        lam = cfg.regularizer
        epoch_losses = []
        for _ in range(cfg.epochs):
            total = 0.0
            for i in r.permutation(ds.num_examples):
                idx, vals = row(ds, i)
                xi = np.array([ref_score(ref, idx, vals, y) for y in range(4)])
                p = np.exp(xi - xi.max())
                p /= p.sum()
                total += (-np.log(p[ds.labels[i]]) + lam * (ref.weights[:, idx] ** 2).sum()
                          + lam * (ref.biases**2).sum())
                # every label's gradient is taken before any label is updated
                grads = [(p[y] - (y == ds.labels[i]), ref.weights[y, idx].copy(),
                          ref.biases[y]) for y in range(4)]
                for y, (g, w, b) in enumerate(grads):
                    ref_adagrad(ref, y, idx, g * vals + 2 * lam * w, g + 2 * lam * b,
                                cfg.learning_rate)
            epoch_losses.append(total / ds.num_examples)
        for got, want in [(m.weights, ref.weights), (m.biases, ref.biases),
                          (m.accum_w, ref.accum_w), (m.accum_b, ref.accum_b)]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert [r["train_loss"] for r in res.metrics] == pytest.approx(epoch_losses, rel=1e-12)

    def test_deterministic_given_seed(self, rng):
        ds = tiny_dataset(rng)
        runs = []
        for _ in range(2):
            m = LinearClassifier(ds.num_labels, 6)
            train(ds, self.cfg(seed=3), m, noise=UniformNoise(ds.num_labels))
            runs.append(m.weights.copy())
        assert np.array_equal(runs[0], runs[1])
        m2 = LinearClassifier(ds.num_labels, 6)
        train(ds, self.cfg(seed=4), m2, noise=UniformNoise(ds.num_labels))
        assert not np.array_equal(runs[0], m2.weights)

    def test_only_touched_rows_move(self, rng):
        ds = tiny_dataset(rng, n=1, C=10)
        m = LinearClassifier(10, 6)
        train(ds, self.cfg(epochs=1), m, noise=UniformNoise(10))
        moved = np.flatnonzero(np.abs(m.weights).sum(axis=1))
        assert moved.size <= 2

    def test_positive_score_grows(self, rng):
        X = np.tile([[1.0, 0.0]], (40, 1))
        ds = dataset_from_dense(X, np.zeros(40, dtype=int), 4)
        m = LinearClassifier(4, 2)
        train(ds, self.cfg(epochs=3), m, noise=UniformNoise(4))
        assert m.weights[0, 0] + m.biases[0] > 0.5

    def test_loss_decreases_across_epochs(self, rng):
        ds = tiny_dataset(rng, n=200)
        m = LinearClassifier(ds.num_labels, 6)
        res = train(ds, self.cfg(epochs=6), m, noise=UniformNoise(ds.num_labels))
        losses = [row["train_loss"] for row in res.metrics]
        assert losses[-1] < losses[0]

    def test_softmax_loss_decreases(self, rng):
        ds = tiny_dataset(rng, n=200)
        m = LinearClassifier(ds.num_labels, 6)
        res = train(ds, self.cfg(method="softmax_full", epochs=6), m)
        losses = [row["train_loss"] for row in res.metrics]
        assert losses[-1] < losses[0]

    def test_softmax_regularizer_shrinks_weights(self, rng):
        ds = tiny_dataset(rng, n=100)
        norms = []
        for lam in (0.0, 0.05):
            m = LinearClassifier(ds.num_labels, 6)
            train(ds, self.cfg(method="softmax_full", epochs=4, regularizer=lam), m)
            norms.append(np.linalg.norm(m.weights))
        assert norms[1] < norms[0]

    def test_regularized_path_pulls_towards_noise(self, rng):
        # with a huge score penalty the scores are pinned near -log p_n
        ds = tiny_dataset(rng, n=150)
        noise = FrequencyNoise(ds.label_counts, smoothing=0.0)
        m = LinearClassifier(ds.num_labels, 6)
        train(ds, self.cfg(epochs=20, regularizer=50.0), m, noise=noise)
        x = ds.features[0].toarray()[0]
        resid = m.weights @ x + m.biases + noise.log_probs
        assert np.abs(resid).max() < 0.3

    def test_multiple_negatives(self, rng):
        ds = tiny_dataset(rng)
        m = LinearClassifier(ds.num_labels, 6)
        res = train(ds, self.cfg(negatives_per_positive=3), m,
                    noise=UniformNoise(ds.num_labels))
        assert np.isfinite(res.metrics[-1]["train_loss"])

    def test_adversarial_noise_path(self, rng):
        ds = tiny_dataset(rng, n=120)
        proj = fit_pca(ds, 3)
        from advsamp.aux_tree import fit_tree
        from advsamp.data_io import apply_pca_matrix

        tree = fit_tree(apply_pca_matrix(proj, ds.features), ds.labels,
                        ds.num_labels, 0.1)
        noise = make_noise("adversarial", tree=tree, projection=proj)
        runs = []
        for _ in range(2):
            m = LinearClassifier(ds.num_labels, 6)
            train(ds, self.cfg(regularizer=0.01), m, noise=noise)
            runs.append(m.weights.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_method_noise_mismatch(self, rng):
        ds = tiny_dataset(rng, n=5)
        m = LinearClassifier(ds.num_labels, 6)
        with pytest.raises(DataError):
            train(ds, self.cfg(method="softmax_full"), m, noise=UniformNoise(4))
        with pytest.raises(DataError):
            train(ds, self.cfg(), m)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_weights_detected(self, rng):
        ds = tiny_dataset(rng, n=5)
        m = LinearClassifier(ds.num_labels, 6)
        m.weights[:] = np.nan
        with pytest.raises(NumericError):
            train(ds, self.cfg(epochs=1), m, noise=UniformNoise(ds.num_labels))

    def test_bad_config(self):
        with pytest.raises(DataError):
            TrainConfig(method="sgd", learning_rate=0.1)
        with pytest.raises(DataError):
            TrainConfig(method="neg_sampling", learning_rate=0.0)
        with pytest.raises(DataError):
            TrainConfig(method="neg_sampling", learning_rate=0.1, epochs=-1)
        with pytest.raises(DataError):
            TrainConfig(method="neg_sampling", learning_rate=0.1,
                        negatives_per_positive=0)
        with pytest.raises(DataError):
            TrainConfig(method="neg_sampling", learning_rate=0.1, log_every=-1)


class TestMetrics:
    def test_log_rows_and_epoch_rows(self, rng):
        ds = tiny_dataset(rng, n=25)
        val = tiny_dataset(rng, n=10)
        m = LinearClassifier(ds.num_labels, 6)
        cfg = TrainConfig(method="neg_sampling", learning_rate=0.1, epochs=2,
                          seed=0, log_every=10)
        res = train(ds, cfg, m, noise=UniformNoise(ds.num_labels), val_dataset=val)
        # fine-grained rows at global-step multiples of 10, one forced-eval
        # row at each epoch end (the step-50 row is both)
        assert [r["steps"] for r in res.metrics] == [10, 20, 25, 30, 40, 50]
        for r in (res.metrics[2], res.metrics[-1]):
            assert isinstance(r["val_acc"], float)
        for r in (res.metrics[0], res.metrics[1], res.metrics[3], res.metrics[4]):
            assert r["val_acc"] == ""

    @pytest.mark.parametrize("method", ["neg_sampling", "softmax_full"])
    def test_epoch_end_on_log_step_adds_no_empty_row(self, rng, method):
        ds = tiny_dataset(rng, n=20)
        val = tiny_dataset(rng, n=10)
        m = LinearClassifier(ds.num_labels, 6)
        cfg = TrainConfig(method=method, learning_rate=0.1, epochs=2, seed=0,
                          log_every=20)
        noise = UniformNoise(ds.num_labels) if method == "neg_sampling" else None
        res = train(ds, cfg, m, noise=noise, val_dataset=val)
        assert [(r["epoch"], r["steps"]) for r in res.metrics] == [(1, 20), (2, 40)]
        for r in res.metrics:
            assert r["train_loss"] > 0
            assert isinstance(r["val_acc"], float)

    def test_eval_at_log(self, rng):
        ds = tiny_dataset(rng, n=25)
        val = tiny_dataset(rng, n=10)
        m = LinearClassifier(ds.num_labels, 6)
        cfg = TrainConfig(method="neg_sampling", learning_rate=0.1, epochs=1,
                          seed=0, log_every=10, eval_at_log=True)
        res = train(ds, cfg, m, noise=UniformNoise(ds.num_labels), val_dataset=val)
        assert all(isinstance(r["val_acc"], float) for r in res.metrics)

    def test_csv_round_trip_with_offset(self, rng, tmp_path):
        import csv

        ds = tiny_dataset(rng, n=20)
        m = LinearClassifier(ds.num_labels, 6)
        res = train(ds, TrainConfig(method="neg_sampling", learning_rate=0.1,
                                    epochs=1, seed=0, log_every=0),
                    m, noise=UniformNoise(ds.num_labels))
        res.write_metrics_csv(tmp_path / "m.csv", wall_clock_offset_s=100.0)
        with open(tmp_path / "m.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(METRIC_COLUMNS)
        assert float(rows[1][2]) > 100.0
