"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line. The heavy synthetic-cluster
experiment (criteria 6 and 7) is shared through a session fixture.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from advsamp.aux_tree import fit_tree, log_sigmoid
from advsamp.data_io import PcaProjection
from advsamp.diagnostics import (
    NonparametricProblem,
    hessian_alpha,
    random_noise_tables,
    snr,
    snr_sweep,
)
from advsamp.inference import PredictionConfig, evaluate
from advsamp.linear_model import LinearClassifier
from advsamp.noise import AdversarialNoise, FrequencyNoise
from advsamp.training import TrainConfig, train

from conftest import CountingRng, load_script, one_hot_contexts
from numpy_oracle import all_deltas, pair_loss_and_grad, softmax_loss_and_grad
from test_aux_tree import fit_node_traced, make_problem
from snr_oracles import (
    FORM_AGREEMENT_TOL,
    eta_trace,
    expected_gradient,
    mc_gradient_covariance,
    noise_covariance,
    sum_alpha_via_f,
)

convergence = load_script("convergence_comparison")

# criterion 6/7 experiment shape: 16 clusters x 16 labels, C = 256, K = 32,
# N = 50 000; weak within-cluster signal makes fine label distinctions the
# bottleneck, which is the regime where conditional negatives carry signal
CLUSTERS = 16
LABELS_PER_CLUSTER = 16
CLUSTER_N = 50_000
CLUSTER_SEEDS = (0, 1, 2)
CLUSTER_NOISE_SCALE = 0.4
# skewed label marginals: uniform negatives mostly hit rare labels and
# carry little gradient signal, so the noise choice matters
CLUSTER_ZIPF = 1.0
CLUSTER_EPOCHS = 6
CLUSTER_LR = 0.1
CLUSTER_PCA_K = 8


def _report(num: int, desc: str, ok: bool) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    return ok


@pytest.fixture(scope="session")
def cluster_runs():
    """Per-seed uniform/adversarial training runs on the clustered data, made
    by ``scripts/convergence_comparison.py``."""
    runs = []
    for seed in CLUSTER_SEEDS:
        val_set, trained = convergence.compare_noises(
            seed=seed, clusters=CLUSTERS, labels_per_cluster=LABELS_PER_CLUSTER,
            n=CLUSTER_N, noise_scale=CLUSTER_NOISE_SCALE, zipf_exponent=CLUSTER_ZIPF,
            pca_k=CLUSTER_PCA_K, epochs=CLUSTER_EPOCHS, learning_rate=CLUSTER_LR,
            noises=("uniform", "adversarial"))
        runs.append({"val": val_set, "seed": seed, **trained})
    return runs


class TestCriterion1:
    def test_softmax_equivalence_at_desk_scale(self):
        start = time.perf_counter()
        ds, _ = one_hot_contexts(6, 8, 6000, seed=0)
        X = ds.features.toarray()

        m_soft = LinearClassifier(8, 6)
        train(ds, TrainConfig(method="softmax_full", learning_rate=0.5,
                              epochs=100, seed=1, log_every=0), m_soft)

        tree = fit_tree(X, ds.labels, 8)
        noise = AdversarialNoise(tree, PcaProjection(np.zeros(6), np.eye(6),
                                                     np.ones(6)))
        m_neg = LinearClassifier(8, 6)
        train(ds, TrainConfig(method="neg_sampling", learning_rate=0.3,
                              epochs=100, seed=1, negatives_per_positive=8,
                              log_every=0), m_neg, noise=noise)

        max_dev = 0.0
        for c in range(6):
            x = np.eye(6)[c]
            s_soft = m_soft.weights[:, c] + m_soft.biases
            s_corr = m_neg.weights[:, c] + m_neg.biases + tree.log_prob_all(x[None])[0]
            a = s_soft - s_soft.mean()
            b = s_corr - s_corr.mean()
            max_dev = max(max_dev, float(np.abs(a - b).max()))
        elapsed = time.perf_counter() - start
        ok = max_dev < 0.1 and elapsed < 120
        _report(1, f"centered softmax vs corrected scores agree "
                   f"(max dev {max_dev:.4f} nats, {elapsed:.0f}s)", ok)
        assert max_dev < 0.1
        assert elapsed < 120


class TestCriterion2:
    def test_matched_noise_is_the_optimum(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        p_data = rng.dirichlet(np.ones(4), size=3)
        matched = NonparametricProblem(p_data, p_data.copy())
        eta_star = snr(matched).eta_bar

        candidates = random_noise_tables(3, 4, 500, rng)
        etas = snr_sweep(p_data, candidates)
        strictly_best = all(eta < eta_star for eta in etas)

        sums_matched = sum_alpha_via_f(matched)
        matched_at_half = np.all(np.abs(sums_matched - 0.5) <= 1e-10)
        bounded = all(
            np.all(sum_alpha_via_f(NonparametricProblem(p_data, c)) <= 0.5 + 1e-10)
            for c in candidates
        )
        off_half = all(
            np.all(sum_alpha_via_f(NonparametricProblem(p_data, c)) < 0.5 - 1e-10)
            for c in candidates
        )
        elapsed = time.perf_counter() - start
        ok = strictly_best and matched_at_half and bounded and off_half and elapsed < 10
        _report(2, f"eta(p_data) beats 500 random noise tables and "
                   f"sum(alpha) peaks at 1/2 only when matched ({elapsed:.1f}s)", ok)
        assert strictly_best and matched_at_half and bounded and off_half
        assert elapsed < 10


class TestCriterion3:
    def test_analytic_formulas_match_oracles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(3)
        prob = NonparametricProblem(rng.dirichlet(np.ones(4), size=3),
                                    rng.dirichlet(np.ones(4), size=3))
        xi = np.log(prob.p_data) - np.log(prob.p_noise)

        # (a) alpha vs finite-difference Hessian of the expected loss
        alpha = hessian_alpha(prob)
        h = 1e-5
        diag_ok, mixed_ok = True, True
        for i in range(3):
            for j in range(4):
                e = np.zeros((3, 4))
                e[i, j] = h
                gp = expected_gradient(prob, xi + e)
                gm = expected_gradient(prob, xi - e)
                fd = (gp - gm) / (2 * h)
                rel = abs(fd[i, j] - alpha[i, j]) / abs(alpha[i, j])
                diag_ok = diag_ok and rel < 1e-5
                fd[i, j] = 0.0
                mixed_ok = mixed_ok and np.abs(fd).max() < 1e-8

        # (b) covariance blocks vs Monte Carlo at 1e6 samples
        exact = noise_covariance(prob)
        mc = mc_gradient_covariance(prob, 1_000_000, seed=5)
        tol = np.maximum(0.02 * np.abs(exact), 1e-3)
        cov_ok = bool(np.all(np.abs(mc - exact) <= tol))

        # (c) matrix-trace eta vs the closed form snr() computes
        eta = snr(prob).eta_bar
        trace_ok = abs(eta_trace(prob) - eta) <= FORM_AGREEMENT_TOL * abs(eta)

        elapsed = time.perf_counter() - start
        ok = diag_ok and mixed_ok and cov_ok and trace_ok and elapsed < 60
        _report(3, f"alpha/covariance/eta formulas match FD and Monte-Carlo "
                   f"oracles ({elapsed:.1f}s)", ok)
        assert diag_ok and mixed_ok and cov_ok and trace_ok
        assert elapsed < 60


class TestCriterion4:
    H = 1e-5

    def _rel_ok(self, analytic, fd):
        return abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_all_loss_gradients_match_finite_differences(self):
        """The score losses ``train`` runs, differentiated through the bias of
        each touched label: softmax over all labels, and the negative-sampling
        step (positive plus 3 negatives over 5 labels, so labels repeat)
        without and with the score regularizer."""
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        ok = True
        noise = FrequencyNoise([3, 1, 4, 1, 5])

        def random_model(C, K):
            m = LinearClassifier(C, K)
            m.weights[:] = rng.standard_normal((C, K))
            m.biases[:] = rng.standard_normal(C)
            return m

        def fd_through_bias(model, label, loss_fn):
            saved = model.biases[label]
            model.biases[label] = saved + self.H
            hi = loss_fn()
            model.biases[label] = saved - self.H
            lo = loss_fn()
            model.biases[label] = saved
            return (hi - lo) / (2 * self.H)

        for _ in range(100):
            m = random_model(6, 3)
            x = rng.standard_normal(3)
            y = int(rng.integers(6))
            loss = lambda: softmax_loss_and_grad(m.weights @ x + m.biases, y)  # noqa: E731
            _, grad = loss()
            for c in range(6):
                ok = ok and self._rel_ok(grad[c], fd_through_bias(m, c, lambda: loss()[0]))

        for lam in (0.0, 0.3):
            for _ in range(100):
                m = random_model(5, 3)
                x = rng.standard_normal(3)
                labs = rng.integers(5, size=4)
                lp = noise.log_probs[labs]
                loss = lambda: pair_loss_and_grad(  # noqa: E731
                    m.weights[labs] @ x + m.biases[labs], labs, lp, lam)
                _, grad = loss()
                for j, label in enumerate(labs):
                    fd = fd_through_bias(m, label, lambda: loss()[0])
                    ok = ok and self._rel_ok(grad[j], fd)

        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 10
        _report(4, f"softmax, pair, and regularized gradients match central "
                   f"differences on 100 instances each ({elapsed:.1f}s)", ok)
        assert ok


class TestCriterion5:
    def test_tree_contracts(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        ok = True

        for C in (3, 8, 16):
            k = 4
            X = rng.standard_normal((60 * C, k))
            labels = rng.integers(0, C, X.shape[0])
            tree = fit_tree(X, labels, C)

            probe = rng.standard_normal((10, k))
            mass = np.exp(tree.log_prob_all(probe)).sum(axis=1)
            ok = ok and bool(np.all(np.abs(mass - 1.0) < 1e-10))
            ok = ok and bool(np.all(1.0 - mass < 1e-12))  # padding mass

            x = probe[0]
            draws = tree.sample_batch(np.tile(x, (100_000, 1)),
                                      np.random.default_rng(C))
            emp = np.bincount(draws, minlength=C) / 100_000
            tv = 0.5 * float(np.abs(emp - np.exp(tree.log_prob_all(x[None])[0])).sum())
            ok = ok and tv < 0.02

            counting = CountingRng(0)  # one uniform per node on the path
            tree.sample_batch(x[None], counting)
            ok = ok and counting.uniforms == int(np.ceil(np.log2(C)))

        for _ in range(50):
            L = int(rng.choice([2, 4, 6, 8]))
            feats = [rng.standard_normal((rng.integers(1, 6), 3)) for _ in range(L)]
            problem = make_problem(feats)
            _, _, _, trace = fit_node_traced(problem, lam=0.1)
            ok = ok and bool(np.all(np.diff(trace) >= -1e-12))

        # delta identity: w.s_y + n_y b equals the log-sigmoid difference sum
        feats = [rng.standard_normal((rng.integers(1, 5), 3)) for _ in range(6)]
        problem = make_problem(feats)
        w, b = rng.standard_normal(3), float(rng.standard_normal())
        deltas = all_deltas(problem, w, b)
        for j in range(6):
            z = feats[j] @ w + b
            oracle = float((log_sigmoid(z) - log_sigmoid(-z)).sum())
            ok = ok and abs(deltas[j] - oracle) < 1e-9

        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 60
        _report(5, f"tree normalization, padding, sampling, node-fit "
                   f"monotonicity, and split identity hold ({elapsed:.1f}s)", ok)
        assert ok


class TestCriterion6:
    def test_adversarial_converges_in_fewer_steps(self, cluster_runs):
        start = time.perf_counter()
        lines, ok = [], True
        for entry in cluster_runs:
            s_u, f_u = convergence.steps_to_fraction(entry["uniform"]["result"].metrics, 0.9)
            s_a, f_a = convergence.steps_to_fraction(entry["adversarial"]["result"].metrics,
                                                     0.9)
            seed_ok = s_a < s_u and f_a >= f_u
            ok = ok and seed_ok
            lines.append(f"seed {entry['seed']}: adv {s_a}/{f_a:.4f} "
                         f"vs unif {s_u}/{f_u:.4f}")
        elapsed = time.perf_counter() - start
        _report(6, "adversarial negatives reach 90% of final accuracy in "
                   "fewer steps with final >= uniform's "
                   f"({'; '.join(lines)})", ok)
        assert ok


class TestCriterion7:
    def test_bias_removal_is_necessary(self, cluster_runs):
        lines, ok = [], True
        for entry in cluster_runs:
            model = entry["adversarial"]["model"]
            noise = entry["adversarial"]["noise"]
            on = evaluate(model, noise, entry["val"],
                          PredictionConfig(bias_removal=True)).accuracy
            off = evaluate(model, noise, entry["val"],
                           PredictionConfig(bias_removal=False)).accuracy
            ok = ok and on > off
            lines.append(f"seed {entry['seed']}: on {on:.4f} vs off {off:.4f}")
        _report(7, f"bias-corrected readout beats raw scores ({'; '.join(lines)})",
                ok)
        assert ok


class TestCriterion8:
    def test_eurlex_paper_numbers(self, tmp_path):
        data_dir = os.environ.get("ADVSAMP_EURLEX_DIR", "")
        train_file = Path(data_dir) / "train.txt" if data_dir else None
        if not data_dir or not train_file.exists():
            notice = ("criterion 8 skipped: EURLex-4K dataset not present "
                      "(set ADVSAMP_EURLEX_DIR to a directory with "
                      "train.txt/test.txt in svmlight format)")
            print(f"\n[SKIP] {notice}")
            pytest.skip(notice)

        import json

        from advsamp.cli import main as cli_main

        eurlex = load_script("run_eurlex")
        results = {}
        for method in ("softmax_full", "neg_sampling"):
            out = tmp_path / method
            for argv in eurlex.pipeline_argvs(data_dir, out, method, "uniform"):
                assert cli_main(argv) == 0
            results[method] = json.loads((out / "eval.json").read_text())["accuracy"]

        soft_ok = abs(results["softmax_full"] - 0.336) <= 0.02
        neg_ok = abs(results["neg_sampling"] - 0.264) <= 0.02
        ok = soft_ok and neg_ok
        _report(8, f"EURLex accuracy softmax {results['softmax_full']:.3f} "
                   f"(target 0.336+-0.02), uniform sampling "
                   f"{results['neg_sampling']:.3f} (target 0.264+-0.02)", ok)
        assert ok
