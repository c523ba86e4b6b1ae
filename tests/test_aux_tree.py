import itertools
import warnings

import numpy as np
import pytest

from advsamp.aux_tree import (
    AuxiliaryTree,
    NodeFitProblem,
    all_deltas,
    compute_delta,
    decision_prob,
    fit_node,
    fit_tree,
    init_node,
    log_sigmoid,
    newton_fit,
    node_objective,
    sigmoid,
    split_labels,
)
from advsamp.errors import DataError, NumericError


def random_tree(C, k, rng, scale=1.0):
    depth = int(np.ceil(np.log2(C)))
    Cp = 1 << depth
    node_w = scale * rng.standard_normal((Cp - 1, k))
    node_b = scale * rng.standard_normal(Cp - 1)
    # route padding out: give any node with an all-padding right half the
    # sentinel; with labels assigned in order, padding occupies the tail
    label_leaf = np.arange(C)
    tree = AuxiliaryTree(node_w, node_b, label_leaf, C, depth)
    if Cp > C:
        # pin ancestors of padding leaves whose sibling subtree is all padding
        for node in range(Cp - 1):
            left_first, size = _leaf_range(node, depth)
            half = size // 2
            if left_first >= C:  # whole subtree padding: irrelevant
                continue
            if left_first + half >= C:  # right half all padding
                tree.node_w[node] = 0.0
                tree.node_b[node] = -700.0
    return tree


def _leaf_range(node, depth):
    # heap node -> (first leaf position, subtree leaf count)
    level = int(np.floor(np.log2(node + 1)))
    pos = node + 1 - (1 << level)
    size = 1 << (depth - level)
    return pos * size, size


def make_problem(features_by_label, label_ids=None, num_real=None):
    L = len(features_by_label)
    if label_ids is None:
        label_ids = np.arange(L)
    if num_real is None:
        num_real = L
    feats = [np.asarray(f, dtype=np.float64).reshape(-1, len(features_by_label[0][0]) if len(features_by_label[0]) else 1) for f in features_by_label]
    return NodeFitProblem(np.asarray(label_ids), feats, num_real)


class TestDecisionProb:
    def test_zero_params(self):
        assert decision_prob(np.zeros(3), 0.0, np.ones(3), 1) == pytest.approx(0.5)
        assert decision_prob(np.zeros(3), 0.0, np.ones(3), -1) == pytest.approx(0.5)

    def test_branches_sum_to_one(self, rng):
        for _ in range(20):
            w, b, x = rng.standard_normal(4), rng.standard_normal(), rng.standard_normal(4)
            total = decision_prob(w, b, x, 1) + decision_prob(w, b, x, -1)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_three_quarters(self):
        w = np.array([np.log(3.0)])
        assert decision_prob(w, 0.0, np.array([1.0]), 1) == pytest.approx(0.75)
        assert decision_prob(w, 0.0, np.array([1.0]), 1, log=True) == pytest.approx(np.log(0.75))


class TestLogProb:
    def test_uniform_tree(self):
        tree = AuxiliaryTree(np.zeros((3, 2)), np.zeros(3), np.arange(4), 4, 2)
        for y in range(4):
            assert tree.log_prob(np.ones(2), y) == pytest.approx(-2 * np.log(2))

    def test_binary_normalization(self, rng):
        tree = AuxiliaryTree(rng.standard_normal((1, 3)), rng.standard_normal(1),
                             np.arange(2), 2, 1)
        x = rng.standard_normal(3)
        total = np.exp(tree.log_prob(x, 0)) + np.exp(tree.log_prob(x, 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_edge_product_oracle(self, rng):
        tree = random_tree(8, 3, rng)
        x = rng.standard_normal(3)
        for y in range(8):
            leaf = tree.label_leaf[y]
            oracle = 0.0
            for level in range(3):
                node = tree.path_nodes[leaf, level]
                sign = tree.path_signs[leaf, level]
                oracle += decision_prob(tree.node_w[node], tree.node_b[node], x,
                                        sign, log=True)
            assert tree.log_prob(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_padding_label_errors(self, rng):
        tree = random_tree(3, 2, rng)
        with pytest.raises(DataError):
            tree.log_prob(np.ones(2), 3)


class TestSample:
    def test_fair_coin(self, rng):
        tree = AuxiliaryTree(np.zeros((1, 2)), np.zeros(1), np.arange(2), 2, 1)
        n = 100_000
        draws = tree.sample_batch(np.tile(np.ones(2), (n, 1)), rng)
        freq = np.mean(draws == 0)
        sigma = np.sqrt(0.25 / n)
        assert abs(freq - 0.5) < 3 * sigma

    @pytest.mark.parametrize("C", [2, 3, 8, 16])
    def test_node_visits(self, C, rng):
        tree = random_tree(C, 2, rng)
        _, visits = tree.sample(rng.standard_normal(2), rng, return_visits=True)
        assert visits == int(np.ceil(np.log2(C)))

    def test_distribution_matches_log_prob(self, rng):
        tree = random_tree(8, 3, rng, scale=0.8)
        x = rng.standard_normal(3)
        n = 1_000_000
        draws = tree.sample_batch(np.tile(x, (n, 1)), rng)
        emp = np.bincount(draws, minlength=8) / n
        exact = np.exp(tree.log_prob_all(x[None, :])[0])
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.005

    def test_scalar_batch_same_distribution(self, rng):
        tree = random_tree(4, 2, rng)
        x = rng.standard_normal(2)
        scalar = np.array([tree.sample(x, np.random.default_rng(i)) for i in range(4000)])
        emp = np.bincount(scalar, minlength=4) / 4000
        exact = np.exp(tree.log_prob_all(x[None, :])[0])
        assert np.abs(emp - exact).max() < 0.05

    def test_corrupted_tree_errors(self):
        # leaf 1 is padding; a root bias of +700 forces every walk into it
        tree = AuxiliaryTree(np.zeros((1, 2)), np.array([700.0]), np.arange(1), 1, 1)
        with pytest.raises(NumericError):
            tree.sample(np.zeros(2), np.random.default_rng(0))


class TestDeltas:
    def test_single_point(self):
        p = make_problem([[[1.0, 0.0]], [[0.0, 1.0]]])
        w, b = np.array([0.7, 0.0]), 0.0
        assert compute_delta(p, 0, w, b) == pytest.approx(0.7)

    def test_zero_params(self):
        p = make_problem([[[1.0, 2.0]], [[3.0, -1.0]]])
        assert np.allclose(all_deltas(p, np.zeros(2), 0.0), 0.0)

    def test_two_points_sum(self):
        p = make_problem([[[0.3, 0.0], [-0.1, 0.0]], [[1.0, 0.0]]])
        w, b = np.array([1.0, 0.0]), 0.0
        assert compute_delta(p, 0, w, b) == pytest.approx(0.2)

    def test_sigmoid_identity(self, rng):
        # delta equals the log-sigmoid difference sum, by sigma(z)/sigma(-z)=e^z
        feats = [rng.standard_normal((rng.integers(1, 5), 3)) for _ in range(4)]
        p = make_problem(feats)
        w, b = rng.standard_normal(3), rng.standard_normal()
        for j in range(4):
            z = feats[j] @ w + b
            oracle = float((log_sigmoid(z) - log_sigmoid(-z)).sum())
            assert abs(compute_delta(p, j, w, b) - oracle) < 1e-9


class TestSplitLabels:
    def problem_with_deltas(self, deltas):
        # one unit point along a private axis per label scaled by delta
        L = len(deltas)
        feats = [np.eye(L)[j : j + 1] * deltas[j] for j in range(L)]
        return make_problem(feats), np.ones(L), 0.0

    def test_top_half(self):
        p, w, b = self.problem_with_deltas([5.0, 1.0, 4.0, 2.0])
        assert list(split_labels(p, w, b)) == [1, -1, 1, -1]

    def test_tie_break_by_id(self):
        p, w, b = self.problem_with_deltas([1.0, 1.0, 1.0, 1.0])
        assert list(split_labels(p, w, b)) == [1, 1, -1, -1]

    def test_two_labels(self):
        p, w, b = self.problem_with_deltas([1.0, 2.0])
        assert list(split_labels(p, w, b)) == [-1, 1]

    def test_padding_forced_left(self):
        feats = [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]),
                 np.zeros((0, 2)), np.zeros((0, 2))]
        p = make_problem(feats, label_ids=[0, 1, 2, 3], num_real=2)
        zeta = split_labels(p, np.array([1.0, 0.0]), 0.0)
        assert list(zeta) == [1, 1, -1, -1]


def gd_oracle(problem, zeta, lam, iters=200_000, lr=0.05):
    """Gradient ascent to convergence on the same concave objective."""
    X, slots = problem.stacked()
    s = zeta[slots].astype(float)
    Xt = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    k = Xt.shape[1]
    theta = np.zeros(k)
    for _ in range(iters):
        z = s * (Xt @ theta)
        grad = Xt.T @ (s * sigmoid(-z)) - 2 * lam * theta
        if np.linalg.norm(grad) < 1e-10:
            break
        theta += lr * grad
    return theta[:-1], theta[-1]


class TestNewtonFit:
    def test_symmetric_data_zero_bias(self, rng):
        x = rng.standard_normal(3)
        p = make_problem([np.stack([x, x]), np.stack([-x, -x])])
        w, b = newton_fit(p, np.array([1, -1]), lam=0.1)
        assert abs(b) < 1e-8

    def test_all_positive_gives_positive_bias(self, rng):
        feats = [rng.standard_normal((3, 2)) for _ in range(2)]
        p = make_problem(feats)
        w, b = newton_fit(p, np.array([1, 1]), lam=50.0)
        assert b > 0
        assert np.linalg.norm(w) < 0.1

    def test_matches_gradient_descent_oracle(self, rng):
        feats = [rng.standard_normal((5, 3)) for _ in range(4)]
        p = make_problem(feats)
        zeta = np.array([1, 1, -1, -1])
        w, b = newton_fit(p, zeta, lam=0.1)
        X, slots = p.stacked()
        s = zeta[slots].astype(float)
        Xt = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
        theta = np.concatenate([w, [b]])
        grad = Xt.T @ (s * sigmoid(-s * (Xt @ theta))) - 2 * 0.1 * theta
        assert np.linalg.norm(grad) < 1e-10
        w_o, b_o = gd_oracle(p, zeta, 0.1)
        assert np.abs(w - w_o).max() < 1e-6
        assert abs(b - b_o) < 1e-6

    def test_requires_positive_regularizer(self, rng):
        p = make_problem([rng.standard_normal((2, 2)) for _ in range(2)])
        with pytest.raises(DataError):
            newton_fit(p, np.array([1, -1]), lam=0.0)


class TestInitNode:
    def test_collinear_aggregates(self):
        direction = np.array([0.6, 0.8])
        feats = [np.outer([c], direction) for c in (1.0, 2.0, -1.0, 0.5)]
        p = make_problem(feats)
        w, b = init_node(p)
        assert b == 0.0
        assert min(np.abs(w - direction).max(), np.abs(w + direction).max()) < 1e-6

    def test_two_point_symmetry(self):
        p = make_problem([np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])])
        w, _ = init_node(p)
        assert abs(abs(w[0]) - 1.0) < 1e-8 and abs(w[1]) < 1e-8

    def test_matches_eigensolver_oracle(self, rng):
        feats = [rng.standard_normal((rng.integers(1, 4), 4)) for _ in range(6)]
        p = make_problem(feats)
        w, _ = init_node(p)
        aggs = np.stack([f.sum(axis=0) for f in feats])
        centered = aggs - aggs.mean(axis=0)
        cov = centered.T @ centered / len(feats)
        vecs = np.linalg.eigh(cov)[1]
        oracle = vecs[:, -1]
        assert min(np.abs(w - oracle).max(), np.abs(w + oracle).max()) < 1e-6

    def test_zero_covariance_fallback(self):
        same = np.array([[1.0, 1.0]])
        with pytest.warns(UserWarning):
            w, b = init_node(make_problem([same, same]))
        assert list(w) == [1.0, 0.0] and b == 0.0

    @pytest.mark.parametrize("num_real", [4, 2])
    def test_labels_without_rows_fall_back_silently(self, num_real):
        # labels whose rows all went to the validation split (here with or
        # without padding labels beside them) leave all-zero aggregates
        p = NodeFitProblem(np.arange(4), [np.zeros((0, 3))] * 4, num_real)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, b = init_node(p)
        assert list(w) == [1.0, 0.0, 0.0] and b == 0.0


class TestFitNode:
    def exhaustive_best(self, problem, lam):
        L = problem.label_ids.size
        best, best_obj = None, -np.inf
        for pos in itertools.combinations(range(L), L // 2):
            zeta = np.full(L, -1)
            zeta[list(pos)] = 1
            w, b = newton_fit(problem, zeta, lam)
            obj = node_objective(problem, w, b, zeta, lam)
            if obj > best_obj:
                best, best_obj = zeta, obj
        return best, best_obj

    def test_two_clusters_grouped(self, rng):
        centers = {0: np.array([4.0, 0.0]), 1: np.array([-4.0, 0.0])}
        feats = [centers[j // 2] + 0.2 * rng.standard_normal((6, 2)) for j in range(4)]
        p = make_problem(feats)
        w, b, zeta, trace = fit_node(p, lam=0.1)
        assert zeta[0] == zeta[1] and zeta[2] == zeta[3] and zeta[0] != zeta[2]
        _, best_obj = self.exhaustive_best(p, 0.1)
        assert node_objective(p, w, b, zeta, 0.1) >= best_obj - 1e-6

    def test_two_labels_single_solve(self, rng):
        feats = [rng.standard_normal((3, 2)) for _ in range(2)]
        w, b, zeta, trace = fit_node(make_problem(feats), lam=0.1)
        assert sorted(zeta) == [-1, 1]

    def test_identical_features_tie_break(self):
        same = np.array([[0.5, -0.5], [0.5, -0.5]])
        with pytest.warns(UserWarning):
            w, b, zeta, _ = fit_node(make_problem([same.copy() for _ in range(4)]), lam=1.0)
        assert np.linalg.norm(w) < 1e-4
        assert list(zeta) == [1, 1, -1, -1]

    def test_objective_nondecreasing_random_problems(self, rng):
        for trial in range(50):
            L = int(rng.choice([2, 4, 6, 8]))
            k = int(rng.integers(2, 5))
            feats = [rng.standard_normal((rng.integers(1, 6), k)) for _ in range(L)]
            _, _, _, trace = fit_node(make_problem(feats), lam=0.1)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-12), f"trial {trial}: {trace}"


class TestTreeValidation:
    """``AuxiliaryTree`` (and so ``load``) rejects inconsistent arrays."""

    def parts(self, rng, C=5, depth=3, k=2):
        Cp = 1 << depth
        return dict(node_w=rng.standard_normal((Cp - 1, k)), node_b=rng.standard_normal(Cp - 1),
                    label_leaf=rng.permutation(Cp)[:C], num_labels=C, depth=depth)

    def test_valid_parts_accepted(self, rng):
        AuxiliaryTree(**self.parts(rng))

    @pytest.mark.parametrize("change", [
        dict(node_b=np.zeros(6)),  # wrong length
        dict(node_w=np.zeros((6, 2))),
        dict(label_leaf=np.array([0, 1, 2, 3])),  # wrong shape
        dict(label_leaf=np.array([0, 1, 2, 3, 3])),  # repeated leaf
        dict(label_leaf=np.array([0, 1, 2, 3, 8])),  # beyond 2^depth
        dict(label_leaf=np.array([0, 1, 2, 3, -1])),
        dict(num_labels=9, label_leaf=np.arange(9)),  # C > 2^depth
    ])
    def test_inconsistent_parts_rejected(self, rng, change):
        with pytest.raises(DataError):
            AuxiliaryTree(**{**self.parts(rng), **change})

    def test_load_rejects_repeated_leaf(self, tmp_path, rng):
        tree = AuxiliaryTree(**self.parts(rng))
        tree.label_leaf[1] = tree.label_leaf[0]
        tree.save(tmp_path / "t.npz")
        with pytest.raises(DataError):
            AuxiliaryTree.load(tmp_path / "t.npz")


class TestFitTree:
    def test_separable_likelihood_approaches_zero(self, rng):
        # one private feature per label: perfectly separable
        n_per = 30
        X = np.repeat(np.eye(4), n_per, axis=0) * 5.0
        labels = np.repeat(np.arange(4), n_per)
        lls = []
        for lam in (1.0, 0.01, 1e-4):
            tree = fit_tree(X, labels, 4, lam)
            ll = tree.log_prob_pairs(X, labels).mean()
            lls.append(ll)
        assert lls[0] < lls[1] < lls[2] < 0.0
        assert lls[-1] > -0.01

    def test_padding_normalization(self, rng):
        X = rng.standard_normal((60, 3))
        labels = rng.integers(0, 3, 60)
        tree = fit_tree(X, labels, 3, 0.1)
        assert tree.padded_size == 4 and tree.depth == 2
        x = rng.standard_normal((5, 3))
        total = np.exp(tree.log_prob_all(x)).sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_two_labels_single_node(self, rng):
        X = rng.standard_normal((20, 2))
        labels = rng.integers(0, 2, 20)
        tree = fit_tree(X, labels, 2, 0.1)
        assert tree.depth == 1 and tree.node_w.shape == (1, 2)

    def test_padding_never_sampled(self, rng):
        X = rng.standard_normal((100, 2))
        labels = rng.integers(0, 5, 100)  # pads to 8
        tree = fit_tree(X, labels, 5, 0.1)
        draws = tree.sample_batch(rng.standard_normal((20_000, 2)), rng)
        assert draws.max() < 5

    def test_rejects_single_label(self):
        with pytest.raises(DataError):
            fit_tree(np.zeros((3, 2)), np.zeros(3, dtype=int), 1, 0.1)

    def test_round_trip(self, tmp_path, rng):
        X = rng.standard_normal((50, 3))
        labels = rng.integers(0, 6, 50)
        tree = fit_tree(X, labels, 6, 0.1)
        tree.save(tmp_path / "t.npz")
        back = AuxiliaryTree.load(tmp_path / "t.npz")
        x = rng.standard_normal(3)
        for y in range(6):
            assert back.log_prob(x, y) == tree.log_prob(x, y)
