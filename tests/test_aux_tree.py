import itertools
import re
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from advsamp import aux_tree
from advsamp.aux_tree import (
    ALTERNATION_GUARD,
    B_PAD,
    NODE_COUNTERS,
    AuxiliaryTree,
    LevelFitProblem,
    check_regularizer,
    fit_tree,
    init_level,
    label_sums,
    log_sigmoid,
    sigmoid,
)
from advsamp.errors import DataError, NumericError

import numpy_oracle
from conftest import CountingRng
from numpy_oracle import NodeFitProblem, all_deltas, level_node, newton_fit, split_labels

# fit_tree's alternation of a level, and fit_tree itself: in the compiled
# kernel, and with the numpy oracle's alternation
LEVEL_FITS = (aux_tree._alternate_level, numpy_oracle.alternate_level)
TREE_FITS = (fit_tree, numpy_oracle.fit_tree)

# The compiled node fit sums in another order and solves by Cholesky where
# numpy uses LU, so its parameters theta = (w, b) agree with numpy's within
# |theta_c - theta_numpy| <= THETA_RTOL * max(|theta_numpy|, 1), not bit for
# bit. Both stop where |grad| < 1e-10 or a Newton gain is below roundoff;
# the largest difference seen on random problems was 6e-8, on the
# benchmark's datasets 1e-14.
THETA_RTOL = 1e-6


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


def node_problem(label_ids, rows, slots, num_real):
    """A ``NodeFitProblem`` with each label's row count and row sum, as
    ``fit_tree``'s gather gives them."""
    label_ids = np.asarray(label_ids, dtype=np.int64)
    return NodeFitProblem(label_ids, rows, slots, num_real,
                          np.bincount(slots, minlength=label_ids.size),
                          label_sums(rows, slots, label_ids.size))


def make_problem(features_by_label, label_ids=None, num_real=None):
    """A ``NodeFitProblem`` from per-label (m_y, k) arrays: their rows stacked
    in label order, each with its label's slot."""
    feats = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in features_by_label]
    L = len(feats)
    slots = np.repeat(np.arange(L), [f.shape[0] for f in feats])
    return node_problem(np.arange(L) if label_ids is None else label_ids,
                        np.concatenate(feats), slots, L if num_real is None else num_real)


def level_of(problems):
    """Nodes of as many labels, stacked into one ``LevelFitProblem``."""
    return LevelFitProblem(
        np.stack([p.label_ids for p in problems]), np.concatenate([p.rows for p in problems]),
        np.concatenate([p.slots for p in problems]),
        np.cumsum([0] + [p.slots.size for p in problems]), problems[0].num_real_labels,
        np.stack([p.counts for p in problems]), np.stack([p.aggregates for p in problems]))


def init_node(problem):
    """One node's start as a 2-D product and ``eigh``, the reference for
    ``init_level``'s rows: the dominant eigenvector of the covariance of the
    per-label aggregate vectors of the node's real labels; bias zero."""
    real = ~problem.is_padding()
    aggs, counts = problem.aggregates, problem.counts
    if not real.all():
        aggs, counts = aggs[real], counts[real]
    k = aggs.shape[1]
    if aggs.shape[0] < 2 or not counts.any():
        return np.eye(k)[0], 0.0
    centered = aggs - np.add.reduce(aggs, axis=0) / aggs.shape[0]
    cov = centered.T @ centered / aggs.shape[0]
    if not cov.any():
        warnings.warn("zero covariance of label aggregates; using first basis vector")
        return np.eye(k)[0], 0.0
    lam, vecs = np.linalg.eigh(cov)
    if not lam[-1] > 0:  # NaN too, from an overflowed covariance
        warnings.warn("degenerate covariance; using first basis vector")
        return np.eye(k)[0], 0.0
    return vecs[:, -1], 0.0


def fit_node(problem, lam, level_fit=numpy_oracle.alternate_level, counters=None):
    """One node fitted as ``fit_tree`` fits a level: a one-node level (its
    arrays viewed, not copied), checked and started as ``fit_tree`` does
    (``init_node`` for the start) and alternated by ``level_fit``, one of
    LEVEL_FITS (numpy by default). Returns (w, b, zeta) and fills
    ``counters`` (see NODE_COUNTERS) when given."""
    check_regularizer(lam)
    level = LevelFitProblem(problem.label_ids[None], problem.rows, problem.slots,
                            np.array([0, problem.slots.size]), problem.num_real_labels,
                            problem.counts[None], problem.aggregates[None])
    aux_tree._check_level(level)
    theta = np.append(*init_node(problem))[None]
    zeta, node_counters = level_fit(level, lam, theta)
    if counters is not None:
        counters[:] = node_counters[0]
    return theta[0, :-1], float(theta[0, -1]), zeta[0]


def fit_tree_oracle(Xr, labels, C, lam, level_fit=numpy_oracle.alternate_level):
    """``fit_tree`` as it was before the level loop: a depth-first recursion
    with per-label lists, a scan over all labels for their rows, each node's
    problem built from one feature array per label and fitted by
    ``fit_node`` with ``level_fit``, the children's label lists
    rebuilt by comprehension. Returns (node_w, node_b, label_leaf) and the
    fit's counters as ``fit_report`` holds them."""
    k = Xr.shape[1]
    depth = int(np.ceil(np.log2(C)))
    Cp = 1 << depth
    rows_by_label = [np.flatnonzero(labels == y) for y in range(C)]
    node_w = np.zeros((Cp - 1, k))
    node_b = np.zeros(Cp - 1)
    label_leaf = np.zeros(C, dtype=np.int64)
    report = {"newton_steps": 0, "alternation_rounds": 0, "newton_capped_nodes": [],
              "guard_nodes": []}

    def features_for(ids):
        return [Xr[rows_by_label[y]] if y < C else np.zeros((0, k)) for y in ids]

    def recurse(node, ids, leaf_base):
        if len(ids) == 1:
            if ids[0] < C:
                label_leaf[ids[0]] = leaf_base
            return
        half = len(ids) // 2
        pad = [y for y in ids if y >= C]
        if len(pad) >= half:
            left = sorted(pad, reverse=True)[:half]
            taken = set(left)
            right = [y for y in ids if y not in taken]
            node_b[node] = B_PAD
        else:
            counters = np.zeros(len(NODE_COUNTERS), dtype=np.int64)
            w, b, zeta = fit_node(make_problem(features_for(ids), ids, C), lam, level_fit,
                                  counters)
            node_w[node] = w
            node_b[node] = b
            report["newton_steps"] += int(counters[0])
            report["alternation_rounds"] += int(counters[1])
            for stopped, count in zip(("newton_capped_nodes", "guard_nodes"), counters[2:]):
                if count:
                    report[stopped].append(node)
            right = [y for y, s in zip(ids, zeta) if s > 0]
            left = [y for y, s in zip(ids, zeta) if s < 0]
        recurse(2 * node + 1, left, leaf_base)
        recurse(2 * node + 2, right, leaf_base + half)

    recurse(0, list(range(Cp)), 0)
    report["newton_capped_nodes"].sort()
    report["guard_nodes"].sort()
    return (node_w, node_b, label_leaf), report


def oracle_case(C, k, n, seed):
    """Rows and labels for C labels in k dimensions: some labels without
    rows, and rows repeated within and across labels."""
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((int(rng.integers(1, n + 2)), k))
    X = distinct[rng.integers(0, distinct.shape[0], n)]
    present = rng.choice(C, size=int(rng.integers(1, C + 1)), replace=False)
    return X, rng.choice(present, size=n)


def root_problem(X, labels, C):
    """The root's ``NodeFitProblem`` as ``fit_tree`` builds it: every label
    id of the padded tree, the rows grouped by label."""
    order = np.argsort(labels, kind="stable")
    Cp = 1 << int(np.ceil(np.log2(C)))
    return node_problem(np.arange(Cp), X[order], labels[order], C)


def fitted_nodes(tree, X, labels):
    """Each fitted node of ``tree`` as (heap index, its NodeFitProblem, its
    split), rebuilt from the leaf map: the node's real labels ascending,
    then padding ids for its other leaves, which its split puts left."""
    C = tree.num_labels
    for node in range(tree.padded_size - 1):
        if tree.node_b[node] == B_PAD:
            continue
        level = int(np.log2(node + 1))
        size = tree.padded_size >> level
        first = (node + 1 - (1 << level)) * size
        ids = np.flatnonzero((tree.label_leaf >= first) & (tree.label_leaf < first + size))
        right = tree.label_leaf[ids] >= first + size // 2
        ids = np.concatenate([ids, C + np.arange(size - ids.size)])
        zeta = np.where(np.concatenate([right, np.zeros(size - right.size, bool)]), 1, -1)
        rows = np.flatnonzero(np.isin(labels, ids))
        rows = rows[np.argsort(labels[rows], kind="stable")]
        problem = node_problem(ids, X[rows], np.searchsorted(ids, labels[rows]), C)
        yield node, problem, zeta


def assert_theta_close(got, want):
    got, want = np.append(*got), np.append(*want)
    assert np.linalg.norm(got - want) <= THETA_RTOL * max(np.linalg.norm(want), 1.0), (got, want)


def assert_reference_fixed_point(problem, w, b, zeta, lam):
    """(w, b, zeta) is where the numpy alternation stops: (w, b) is its
    Newton optimum for zeta, with the same node objective, and zeta its
    balanced split of (w, b), but for labels whose deltas tie the split's
    boundary to roundoff (numpy sums each delta in another order)."""
    w2, b2 = newton_fit(problem, zeta, lam, w0=w, b0=b)
    assert_theta_close((w, b), (w2, b2))
    obj, ref = node_objective(problem, w, b, zeta, lam), node_objective(problem, w2, b2, zeta, lam)
    assert abs(obj - ref) <= THETA_RTOL * max(abs(ref), 1.0)
    deltas = np.where(problem.is_padding(), -np.inf, all_deltas(problem, w, b))
    moved = split_labels(problem, w, b) != zeta
    if moved.any():
        boundary = np.sort(deltas)[::-1][problem.label_ids.size // 2 - 1]
        tol = 1e-9 * max(1.0, np.abs(deltas[np.isfinite(deltas)]).max())
        assert np.abs(deltas[moved] - boundary).max() <= tol, (deltas, zeta)
        # equal deltas are no near-tie: their order is the ids'
        up, down = deltas[moved & (zeta > 0)], deltas[moved & (zeta < 0)]
        assert not np.isin(up, down).any(), (deltas, zeta)


def node_objective(problem, w, b, zeta, lam):
    """Regularized per-node log likelihood, the quantity ``fit_node`` ascends."""
    X, slots = problem.rows, problem.slots
    if X.shape[0] == 0:
        return -lam * (w @ w + b * b)
    z = zeta[slots] * (X @ w + b)
    return float(log_sigmoid(z).sum() - lam * (w @ w + b * b))


def fit_node_traced(problem, lam):
    """``fit_node``'s alternation, also returning the objective after every
    half-step (Newton ascent, then re-split) as ``trace``."""
    w, b = init_node(problem)
    zeta = split_labels(problem, w, b)
    trace = []
    for _ in range(ALTERNATION_GUARD):
        w, b = newton_fit(problem, zeta, lam, w0=w, b0=b)
        trace.append(node_objective(problem, w, b, zeta, lam))
        new_zeta = split_labels(problem, w, b)
        trace.append(node_objective(problem, w, b, new_zeta, lam))
        if np.array_equal(new_zeta, zeta):
            break
        zeta = new_zeta
    return w, b, zeta, trace


def per_edge_oracle(tree, x, y):
    """log p(y | x) as a sum over the root-to-leaf edges, one scalar
    log-sigmoid per edge: the leaf's bits, most significant first, are the
    branch decisions (1 = right)."""
    leaf = int(tree.label_leaf[y])
    node, total = 0, 0.0
    for level in range(tree.depth):
        bit = (leaf >> (tree.depth - 1 - level)) & 1
        z = float(tree.node_w[node] @ x + tree.node_b[node])
        total -= np.logaddexp(0.0, -z if bit else z)
        node = 2 * node + 1 + bit
    assert node - (tree.padded_size - 1) == leaf
    return total


def log_prob_all_oracle(tree, Xr):
    """``AuxiliaryTree.log_prob_all`` as it was before the compiled walk: a
    GEMM per level, log sigma through ``np.logaddexp``, the left child as
    log sigma(z) - z, and one gather by ``label_leaf``. After level l,
    column j of the running sums is the log-probability of reaching node
    2^(l+1) - 1 + j."""
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    n = Xr.shape[0]
    acc = np.zeros((n, 1))
    for level in range(tree.depth):
        nodes = slice((1 << level) - 1, (2 << level) - 1)
        z = Xr @ tree.node_w[nodes].T + tree.node_b[nodes]
        children = np.empty((n, 1 << level, 2))
        log_right = np.negative(np.logaddexp(0.0, -z), out=children[:, :, 1])
        np.subtract(log_right, z, out=children[:, :, 0])
        children += acc[:, :, None]
        acc = children.reshape(n, -1)
    return acc[:, tree.label_leaf]


class TestLogProb:
    def test_uniform_tree(self):
        tree = AuxiliaryTree(np.zeros((3, 2)), np.zeros(3), np.arange(4), 4, 2)
        assert np.allclose(tree.log_prob_all(np.ones((1, 2))), -2 * np.log(2), atol=1e-15)
        assert np.allclose(tree.log_prob_pairs(np.ones((4, 2)), np.arange(4)),
                           -2 * np.log(2), atol=1e-15)

    def test_binary_normalization(self, rng):
        tree = AuxiliaryTree(rng.standard_normal((1, 3)), rng.standard_normal(1),
                             np.arange(2), 2, 1)
        x = rng.standard_normal((1, 3))
        total = np.exp(tree.log_prob_all(x)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_three_quarters(self):
        # sigma(log 3) = 3/4 for the right branch and 1/4 for the left
        tree = AuxiliaryTree(np.array([[np.log(3.0)]]), np.zeros(1), np.arange(2), 2, 1)
        lp = tree.log_prob_all(np.ones((1, 1)))[0]
        assert lp == pytest.approx(np.log([0.25, 0.75]), abs=1e-15)

    def test_matches_per_edge_product_oracle(self, rng):
        tree = random_tree(8, 3, rng)
        tree.label_leaf = rng.permutation(8)  # non-identity leaf order
        X = rng.standard_normal((4, 3))
        lp_all = tree.log_prob_all(X)
        for i, x in enumerate(X):
            for y in range(8):
                oracle = per_edge_oracle(tree, x, y)
                assert lp_all[i, y] == pytest.approx(oracle, abs=1e-12)
                assert tree.log_prob_pairs(x[None], [y])[0] == pytest.approx(oracle, abs=1e-12)


class TestTreeProperties:
    """Random trees of any size C, powers of two or not, padding pinned as
    ``random_tree`` does."""

    @settings(max_examples=60, deadline=None)
    @given(C=st.integers(2, 300), k=st.integers(1, 6), n=st.integers(1, 4),
           scale=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_batch_paths_match_per_edge_oracle(self, C, k, n, scale, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(C, k, rng, scale)
        X = rng.standard_normal((n, k))
        lp = tree.log_prob_all(X)
        assert lp.shape == (n, C)
        oracle = np.array([[per_edge_oracle(tree, x, y) for y in range(C)] for x in X])
        assert np.abs(lp - oracle).max() < 1e-12
        pairs = tree.log_prob_pairs(np.repeat(X, C, axis=0), np.tile(np.arange(C), n))
        assert np.abs(pairs.reshape(n, C) - lp).max() < 1e-12
        assert np.abs(logsumexp(lp, axis=1)).max() < 1e-10
        assert np.all(1.0 - np.exp(lp).sum(axis=1) < 1e-12)  # padding mass

    @settings(max_examples=60, deadline=None)
    @given(C=st.integers(2, 300), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_sampling_draws_one_uniform_per_level(self, C, n, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(C, 3, rng)
        counting = CountingRng(seed)
        draws = tree.sample_batch(rng.standard_normal((n, 3)), counting)
        assert counting.uniforms == n * int(np.ceil(np.log2(C)))
        assert draws.shape == (n,) and 0 <= draws.min() and draws.max() < C


def scaled_tree(C, k, rng, max_logit, X):
    """``random_tree`` with its unpinned nodes scaled so that the largest
    |logit| over the rows X is ``max_logit``."""
    tree = random_tree(C, k, rng)
    free = tree.node_b != -B_PAD
    z = X @ tree.node_w[free].T + tree.node_b[free]
    factor = max_logit / np.abs(z).max()
    tree.node_w[free] *= factor
    tree.node_b[free] *= factor
    return tree


def assert_oracle_close(got, want):
    """The walk sums log sigma(z) = min(z, 0) - log1p(exp(-|z|)) from one
    GEMM, the oracle -logaddexp(0, -z) from a GEMM per level, so they may
    part in the last bits: within 1e-13 absolute, relative beyond |log p| = 1."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


class TestLogProbAll:
    """``log_prob_all``'s compiled walk and the numpy oracle's level loop
    against the per-level GEMM oracle: the walk and the numpy oracle read
    the same logit and tail tables and add in the same order, so they agree
    bit for bit."""

    def both(self, tree, X, out=None):
        got = [walk(X, None if out is None else out.copy())
               for walk in (tree.log_prob_all, partial(numpy_oracle.log_prob_all, tree))]
        assert np.array_equal(got[0], got[1])
        return got[0]

    @pytest.mark.parametrize("C", [2, 3, 8, 9, 100, 1000, 2049, 4096])
    @pytest.mark.parametrize("k", [1, 16, aux_tree.MAX_REDUCED_DIM])
    def test_matches_oracle(self, C, k, rng):
        # depth 1 to 12; C = 2^d + 1 pins the most subtrees at -B_PAD
        X = rng.standard_normal((5, k))
        tree = random_tree(C, k, rng)
        lp = self.both(tree, X)
        assert_oracle_close(lp, log_prob_all_oracle(tree, X))
        assert np.abs(logsumexp(lp, axis=1)).max() < 1e-12

    @pytest.mark.parametrize("C,k", [(2, 1), (9, 16), (1000, 16), (4096, 3)])
    def test_logits_up_to_800(self, C, k, rng):
        X = rng.standard_normal((7, k))
        tree = scaled_tree(C, k, rng, 800.0, X)
        lp = self.both(tree, X)
        assert_oracle_close(lp, log_prob_all_oracle(tree, X))
        assert np.abs(logsumexp(lp, axis=1)).max() < 1e-12

    @pytest.mark.parametrize("C", [3, 5, 9, 17, 100])
    def test_fitted_tree_pinned_at_b_pad(self, C, rng):
        X = rng.standard_normal((20 * C, 4))
        tree = fit_tree(X, rng.integers(0, C, 20 * C), C, 0.1)
        assert (tree.node_b == B_PAD).any()
        lp = self.both(tree, X[:50])
        assert_oracle_close(lp, log_prob_all_oracle(tree, X[:50]))
        assert np.abs(logsumexp(lp, axis=1)).max() < 1e-12

    def test_single_rows_and_strided_input(self, rng):
        tree = random_tree(100, 6, rng)
        tree.label_leaf = rng.permutation(128)[:100]
        X = rng.standard_normal((12, 12))[::2, ::2]  # neither axis contiguous
        whole = self.both(tree, X)
        assert_oracle_close(whole, log_prob_all_oracle(tree, X))
        for i in range(X.shape[0]):
            assert_oracle_close(self.both(tree, X[i]), whole[i:i + 1])

    def test_adds_into_out(self, rng):
        tree = random_tree(9, 3, rng)
        X = rng.standard_normal((4, 3))
        base = rng.standard_normal((4, 9))
        added = self.both(tree, X, out=base)
        assert np.array_equal(added, base + self.both(tree, X))
        out = base.copy()
        assert tree.log_prob_all(X, out=out) is out

    @pytest.mark.parametrize("out", [
        np.zeros((4, 8)), np.zeros((3, 9)), np.zeros((9, 4)).T, np.zeros((4, 9), np.float32),
    ])
    def test_bad_out_rejected(self, out, rng):
        tree = random_tree(9, 3, rng)
        with pytest.raises(DataError, match="C-contiguous float64"):
            tree.log_prob_all(rng.standard_normal((4, 3)), out=out)

    def test_bad_label_leaf_rejected(self, rng):
        # the kernel would read outside its scratch
        tree = random_tree(9, 3, rng)
        tree.label_leaf = tree.label_leaf.copy()
        tree.label_leaf[0] = tree.padded_size
        with pytest.raises(DataError, match="label_leaf"):
            tree.log_prob_all(rng.standard_normal((2, 3)))


class TestPathWalk:
    """``sample_batch`` and ``log_prob_pairs`` through the compiled path
    walk against the numpy oracle's level loops: the same draws from the same generator stream, and pair log-probabilities
    within 1e-13, relative beyond |log p| = 1 (the kernel's dot products sum
    in another order than numpy's einsum)."""

    def tree(self, C, k, fitted, rng):
        if not fitted:
            return random_tree(C, k, rng)  # pins at -B_PAD
        # a fitted tree pins the parent of an all-padding half at +B_PAD
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fit_tree(rng.standard_normal((2 * C, k)), np.arange(2 * C) % C, C, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(C=st.integers(2, 300), k=st.integers(1, 64), n=st.sampled_from([0, 1, 2, 37, 200]),
           fitted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_levels(self, C, k, n, fitted, seed):
        rng = np.random.default_rng(seed)
        tree = self.tree(C, k, fitted, rng)
        X = rng.standard_normal((n, k))
        ys = rng.integers(0, C, n)
        gens = [np.random.default_rng(seed) for _ in range(2)]
        draws = tree.sample_batch(X, gens[0])
        want_draws = numpy_oracle.sample_batch(tree, X, gens[1])
        want_pairs = numpy_oracle.log_prob_pairs(tree, X, ys)
        assert np.array_equal(draws, want_draws)
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        assert_oracle_close(tree.log_prob_pairs(X, ys), want_pairs)
        counting = CountingRng(seed)
        tree.sample_batch(X, counting)
        assert counting.uniforms == tree.depth * n

    def test_strided_rows(self, rng):
        tree = random_tree(100, 6, rng)
        X = rng.standard_normal((40, 12))[::2, ::2]  # neither axis contiguous
        ys = rng.integers(0, 100, 20)
        assert np.array_equal(tree.log_prob_pairs(X, ys),
                              tree.log_prob_pairs(np.ascontiguousarray(X), ys))
        assert np.array_equal(tree.sample_batch(X, np.random.default_rng(1)),
                              tree.sample_batch(np.ascontiguousarray(X),
                                                np.random.default_rng(1)))

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    @pytest.mark.parametrize("rows,labels,why", [
        ((4, 4), 4, "reduced features"),
        ((4, 2), 4, "reduced features"),
        ((2, 2, 3), 2, "reduced features"),
        ((4, 3), 3, "one label per row"),
        ((4, 3), 1, "one label per row"),  # would broadcast in numpy
        ((4, 3), (4, 1), "one label per row"),
    ])
    def test_wrong_shapes_rejected(self, rng, backend, rows, labels, why):
        tree = random_tree(9, 3, rng)
        X = rng.standard_normal(rows)
        ys = np.zeros(labels, dtype=np.int64)
        # the oracle's walks check their arguments as the methods do
        if backend == "c":
            pairs, sample = tree.log_prob_pairs, tree.sample_batch
        else:
            pairs = partial(numpy_oracle.log_prob_pairs, tree)
            sample = partial(numpy_oracle.sample_batch, tree)
        with pytest.raises(DataError, match=why):
            pairs(X, ys)
        if why == "reduced features":
            with pytest.raises(DataError, match=why):
                sample(X, rng)

    @pytest.mark.parametrize("field,value", [
        ("node_w", lambda w: np.asfortranarray(w)),
        ("node_w", lambda w: w[:-1]),
        ("node_b", lambda b: b.astype(np.float32)),
        ("node_b", lambda b: b[:-1]),
    ])
    def test_bad_node_arrays_rejected(self, rng, field, value):
        # the kernel would read outside them
        tree = random_tree(9, 3, rng)
        setattr(tree, field, value(getattr(tree, field)))
        X = rng.standard_normal((4, 3))
        with pytest.raises(DataError, match="node arrays"):
            tree.log_prob_pairs(X, np.zeros(4, dtype=np.int64))
        with pytest.raises(DataError, match="node arrays"):
            tree.sample_batch(X, rng)

    @settings(max_examples=20, deadline=None)
    @given(C=st.integers(2, 40), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_numpy_levels_match_per_edge_oracle(self, C, k, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(C, k, rng)
        X = rng.standard_normal((3, k))
        pairs = numpy_oracle.log_prob_pairs(tree, np.repeat(X, C, axis=0),
                                            np.tile(np.arange(C), 3))
        draws = numpy_oracle.sample_batch(tree, X, rng)
        oracle = [per_edge_oracle(tree, x, y) for x in X for y in range(C)]
        assert np.abs(pairs - oracle).max() < 1e-12
        assert draws.shape == (3,) and 0 <= draws.min() and draws.max() < C


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
        # one uniform per node on the root-to-leaf path
        tree = random_tree(C, 2, rng)
        counting = CountingRng(0)
        tree.sample_batch(rng.standard_normal((1, 2)), counting)
        assert counting.uniforms == int(np.ceil(np.log2(C)))

    def test_distribution_matches_log_prob(self, rng):
        tree = random_tree(8, 3, rng, scale=0.8)
        x = rng.standard_normal(3)
        n = 1_000_000
        draws = tree.sample_batch(np.tile(x, (n, 1)), rng)
        emp = np.bincount(draws, minlength=8) / n
        exact = np.exp(tree.log_prob_all(x[None, :])[0])
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.005

    def test_corrupted_tree_errors(self):
        # leaf 1 is padding; a root bias of +700 forces every walk into it
        tree = AuxiliaryTree(np.zeros((1, 2)), np.array([700.0]), np.arange(1), 1, 1)
        with pytest.raises(NumericError):
            tree.sample_batch(np.zeros((1, 2)), np.random.default_rng(0))


class TestDeltas:
    def test_single_point(self):
        p = make_problem([[[1.0, 0.0]], [[0.0, 1.0]]])
        w, b = np.array([0.7, 0.0]), 0.0
        assert all_deltas(p, w, b)[0] == pytest.approx(0.7)

    def test_zero_params(self):
        p = make_problem([[[1.0, 2.0]], [[3.0, -1.0]]])
        assert np.allclose(all_deltas(p, np.zeros(2), 0.0), 0.0)

    def test_two_points_sum(self):
        p = make_problem([[[0.3, 0.0], [-0.1, 0.0]], [[1.0, 0.0]]])
        w, b = np.array([1.0, 0.0]), 0.0
        assert all_deltas(p, w, b)[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_aggregates_equal_per_label_sums(self, k, rng):
        # for k >= 2 numpy's axis-0 sum adds a label's rows one at a time, in
        # order, as the per-slot sum does (for k = 1 it sums pairwise)
        feats = [rng.standard_normal((int(rng.integers(0, 40)), k)) for _ in range(6)]
        sums = np.stack([f.sum(axis=0) for f in feats])
        assert make_problem(feats).aggregates.tobytes() == sums.tobytes()

    def test_sigmoid_identity(self, rng):
        # delta equals the log-sigmoid difference sum, by sigma(z)/sigma(-z)=e^z
        feats = [rng.standard_normal((rng.integers(1, 5), 3)) for _ in range(4)]
        p = make_problem(feats)
        w, b = rng.standard_normal(3), rng.standard_normal()
        deltas = all_deltas(p, w, b)
        for j in range(4):
            z = feats[j] @ w + b
            oracle = float((log_sigmoid(z) - log_sigmoid(-z)).sum())
            assert abs(deltas[j] - oracle) < 1e-9


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
    X, slots = problem.rows, problem.slots
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
        X, slots = p.rows, p.slots
        s = zeta[slots].astype(float)
        Xt = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
        theta = np.concatenate([w, [b]])
        grad = Xt.T @ (s * sigmoid(-s * (Xt @ theta))) - 2 * 0.1 * theta
        assert np.linalg.norm(grad) < 1e-10
        w_o, b_o = gd_oracle(p, zeta, 0.1)
        assert np.abs(w - w_o).max() < 1e-6
        assert abs(b - b_o) < 1e-6

    def test_large_objective_reaches_gradient_tolerance(self):
        # with |obj| in the thousands the last Newton gains fall below the
        # objective's roundoff, where no line search can see an ascent
        rng = np.random.default_rng(0)
        zeta = np.array([1, -1] * 4)
        for _ in range(6):
            feats = [3 * rng.standard_normal((int(rng.integers(200, 800)), 6))
                     + rng.standard_normal(6) for _ in range(8)]
            p = make_problem(feats)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w, b = newton_fit(p, zeta, lam=0.1)
            s = zeta[p.slots].astype(float)
            Xt = np.concatenate([p.rows, np.ones((p.rows.shape[0], 1))], axis=1)
            theta = np.concatenate([w, [b]])
            grad = Xt.T @ (s * sigmoid(-s * (Xt @ theta))) - 2 * 0.1 * theta
            assert np.linalg.norm(grad) < 1e-10

    def test_requires_positive_regularizer(self, rng):
        p = make_problem([rng.standard_normal((2, 2)) for _ in range(2)])
        with pytest.raises(DataError):
            newton_fit(p, np.array([1, -1]), lam=0.0)


def start(problem):
    """``init_node``'s (w, b) for ``problem``, which ``init_level`` gives
    bit for bit for it as a one-node level."""
    w, b = init_node(problem)
    assert init_level(level_of([problem])).tobytes() == np.append(w, b)[None].tobytes()
    return w, b


class TestInitNode:
    def test_collinear_aggregates(self):
        direction = np.array([0.6, 0.8])
        feats = [np.outer([c], direction) for c in (1.0, 2.0, -1.0, 0.5)]
        p = make_problem(feats)
        w, b = start(p)
        assert b == 0.0
        assert min(np.abs(w - direction).max(), np.abs(w + direction).max()) < 1e-6

    def test_two_point_symmetry(self):
        p = make_problem([np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])])
        w, _ = start(p)
        assert abs(abs(w[0]) - 1.0) < 1e-8 and abs(w[1]) < 1e-8

    def test_matches_eigensolver_oracle(self, rng):
        feats = [rng.standard_normal((rng.integers(1, 4), 4)) for _ in range(6)]
        p = make_problem(feats)
        w, _ = start(p)
        aggs = np.stack([f.sum(axis=0) for f in feats])
        centered = aggs - aggs.mean(axis=0)
        cov = centered.T @ centered / len(feats)
        vecs = np.linalg.eigh(cov)[1]
        oracle = vecs[:, -1]
        assert min(np.abs(w - oracle).max(), np.abs(w + oracle).max()) < 1e-6

    def test_zero_covariance_fallback(self):
        same = np.array([[1.0, 1.0]])
        with pytest.warns(UserWarning):
            w, b = start(make_problem([same, same]))
        assert list(w) == [1.0, 0.0] and b == 0.0

    @pytest.mark.parametrize("num_real", [4, 2])
    def test_labels_without_rows_fall_back_silently(self, num_real):
        # labels whose rows all went to the validation split (here with or
        # without padding labels beside them) leave all-zero aggregates
        p = make_problem([np.zeros((0, 3))] * 4, num_real=num_real)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, b = start(p)
        assert list(w) == [1.0, 0.0, 0.0] and b == 0.0


def assert_level_starts_per_node(level):
    """Each row of ``init_level(level)`` is ``init_node`` of that node, bit
    for bit, and the level warns as the nodes do, in count and text.
    Returns the warnings."""
    found = []
    for start_level in (init_level, lambda level: np.array(
            [np.append(*init_node(level_node(level, i)))
             for i in range(level.row_ptr.size - 1)])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            theta = start_level(level)
        found.append((theta.tobytes(), sorted(str(w.message) for w in caught)))
    assert found[0] == found[1]
    return found[0][1]


class TestInitLevel:
    """``init_level``'s stacked start against ``init_node``, node by node."""

    @pytest.mark.parametrize("k", [1, 3, aux_tree.MAX_REDUCED_DIM])
    @pytest.mark.parametrize("C", [16, 5, 9, 33, 100])
    def test_levels_of_a_fit(self, C, k, rng):
        # every level fit_tree starts, among them (unless C is a power of
        # two) levels with a node that mixes real and padding labels, and
        # labels without rows
        present = rng.choice(C, size=C - C // 4, replace=False)
        X, labels = rng.standard_normal((6 * C, k)), rng.choice(present, size=6 * C)
        levels = []

        def record(level):
            levels.append(level)
            return init_level(level)

        with mock.patch.object(aux_tree, "init_level", record), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_tree(X, labels, C, 0.1)
        assert len(levels) == int(np.ceil(np.log2(C)))
        mixed = sum(int((level.label_ids >= C).any()) for level in levels)
        assert (mixed == 0) == (C == 16)
        for level in levels:
            assert_level_starts_per_node(level)

    @pytest.mark.parametrize("k", [1, aux_tree.MAX_REDUCED_DIM])
    @pytest.mark.parametrize("spectrum", ["eigh", "zero"])
    def test_fallbacks_in_one_level(self, k, spectrum, rng, monkeypatch):
        # a finite nonzero covariance has a positive top eigenvalue, so the
        # degenerate fallback is reached with eigh patched to a zero spectrum
        if spectrum == "zero":
            monkeypatch.setattr(np.linalg, "eigh",
                                lambda a: (np.zeros(a.shape[:-1]), np.zeros(a.shape)))

        def node(ids, feats):  # num_real = 100; ids ascend, padding last
            return make_problem([np.reshape(f, (-1, k)) for f in feats], ids, 100)

        same, none = np.ones((2, k)), np.zeros((0, k))
        rows = [rng.standard_normal((int(rng.integers(1, 4)), k)) for _ in range(4)]
        nodes = [
            node([0, 1, 2, 3], rows),
            node([4, 5, 6, 7], [same] * 4),  # zero covariance
            node([8, 9, 10, 11], [none] * 4),  # labels without rows
            node([97, 98, 99, 100], rows[:3] + [none]),  # mixed
            node([98, 99, 100, 101], [same] * 2 + [none] * 2),  # mixed, zero covariance
        ]
        assert assert_level_starts_per_node(level_of(nodes)) == (
            ["degenerate covariance; using first basis vector"] * (2 * (spectrum == "zero"))
            + ["zero covariance of label aggregates; using first basis vector"] * 2)


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
        w, b, zeta = fit_node(p, lam=0.1)
        assert zeta[0] == zeta[1] and zeta[2] == zeta[3] and zeta[0] != zeta[2]
        _, best_obj = self.exhaustive_best(p, 0.1)
        assert node_objective(p, w, b, zeta, 0.1) >= best_obj - 1e-6

    def test_two_labels_single_solve(self, rng):
        feats = [rng.standard_normal((3, 2)) for _ in range(2)]
        w, b, zeta = fit_node(make_problem(feats), lam=0.1)
        assert sorted(zeta) == [-1, 1]

    def test_identical_features_tie_break(self):
        # equal deltas: ids break the tie, in the kernel and in numpy
        same = np.array([[0.5, -0.5], [0.5, -0.5]])
        for level_fit in LEVEL_FITS:
            with pytest.warns(UserWarning):
                w, b, zeta = fit_node(make_problem([same.copy() for _ in range(4)]), 1.0,
                                      level_fit)
            assert np.linalg.norm(w) < 1e-4
            assert list(zeta) == [1, 1, -1, -1]

    def test_objective_nondecreasing_random_problems(self, rng):
        for trial in range(50):
            L = int(rng.choice([2, 4, 6, 8]))
            k = int(rng.integers(2, 5))
            feats = [rng.standard_normal((rng.integers(1, 6), k)) for _ in range(L)]
            problem = make_problem(feats)
            w, b, zeta, trace = fit_node_traced(problem, lam=0.1)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-12), f"trial {trial}: {trace}"
            # the traced copy is the alternation fit_node runs
            fw, fb, fzeta = fit_node(problem, lam=0.1)
            assert np.array_equal(fw, w) and fb == b and np.array_equal(fzeta, zeta)


class TestCompiledNodeFit:
    """``fit_node`` in the compiled kernel against the numpy oracle's
    alternation."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(C=st.sampled_from([2, 4, 8, 16, 3, 5, 9, 17]), k=st.integers(1, 8),
           n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_fit(self, C, k, n, seed):
        # test_matches_per_label_oracle's cases, at the root: padding ids,
        # labels without rows, repeated rows, k = 1
        problem = root_problem(*oracle_case(C, k, n, seed), C)
        counters = np.zeros((2, len(NODE_COUNTERS)), dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wc, bc, zc = fit_node(problem, 0.1, aux_tree._alternate_level, counters[0])
            wp, bp, zp = fit_node(problem, 0.1, numpy_oracle.alternate_level, counters[1])
        if np.array_equal(zc, zp):
            assert_theta_close((wc, bc), (wp, bp))
            assert counters[0, 1] == counters[1, 1]  # alternation rounds
        else:
            event("a near-tie in delta flipped the split")
        if not counters[0, 2:].any():
            assert_reference_fixed_point(problem, wc, bc, zc, 0.1)

    def test_same_warnings_and_counters(self, rng, monkeypatch):
        # one Newton step and one round are too few for this problem, so
        # both stops fire in the kernel and in numpy; the kernel reads the
        # limits from the module, as the numpy oracle does
        monkeypatch.setattr(aux_tree, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(aux_tree, "ALTERNATION_GUARD", 1)
        rng = np.random.default_rng(28)  # its alternation takes 2 rounds
        problem = make_problem([rng.standard_normal((int(rng.integers(1, 6)), 3))
                                for _ in range(4)])
        found = []
        for level_fit in LEVEL_FITS:
            counters = np.zeros(len(NODE_COUNTERS), dtype=np.int64)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit_node(problem, 0.1, level_fit, counters)
            found.append(([re.sub(r"\|grad\|=[^)]*", "", str(w.message)) for w in caught],
                          counters.tolist()))
        assert found[0] == found[1]
        assert found[0][0] == ["Newton ascent hit 1 iterations ()",
                               "node fit did not reach a split fixed point in 1 rounds"]
        assert found[0][1] == [1, 1, 1, 1]

    def test_tree_reports_the_stopped_nodes(self, monkeypatch):
        monkeypatch.setattr(aux_tree, "ALTERNATION_GUARD", 1)
        rng = np.random.default_rng(39)  # a node takes 2 rounds
        X = rng.standard_normal((12, 3))
        labels = rng.integers(0, 4, 12)
        reports = []
        for fit in TREE_FITS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reports.append(fit(X, labels, 4, 0.1).fit_report)
        for r in reports:
            assert r["alternation_rounds"] == 3 and r["newton_steps"] > 0
            assert r["newton_capped_nodes"] == []
        assert reports[0]["guard_nodes"] == reports[1]["guard_nodes"] != []

    @pytest.mark.parametrize("change,why", [
        (lambda p: setattr(p, "rows", np.asfortranarray(p.rows)), "C-contiguous"),
        (lambda p: setattr(p, "rows", p.rows[:, :2]), "C-contiguous"),
        (lambda p: setattr(p, "slots", p.slots.astype(np.int32)), "C-contiguous"),
        (lambda p: setattr(p, "slots", p.slots[:-1]), "C-contiguous"),
        (lambda p: setattr(p, "label_ids", p.label_ids.astype(np.float64)), "C-contiguous"),
        (lambda p: setattr(p, "counts", p.counts[:-1]), "C-contiguous"),
        (lambda p: setattr(p, "aggregates", np.asfortranarray(p.aggregates)), "C-contiguous"),
        (lambda p: p.slots.__setitem__(0, 4), "slots"),
        (lambda p: p.slots.__setitem__(-1, -1), "slots"),
    ])
    def test_bad_arrays_rejected(self, rng, change, why):
        # the kernel would read or write outside the arrays
        problem = make_problem([rng.standard_normal((3, 3)) for _ in range(4)])
        change(problem)
        with pytest.raises(DataError, match=why):
            fit_node(problem, 0.1, aux_tree._alternate_level)

    @pytest.mark.parametrize("row_ptr,why", [
        ([0, 5, 3, 9], "row_ptr"), ([1, 5, 7, 9], "row_ptr"), ([0, 4, 6, 8], "row_ptr"),
        ([0, 9], "C-contiguous"),
    ])
    def test_bad_level_rejected(self, rng, row_ptr, why):
        # three nodes sharing nine rows: the kernel would read past a node's
        # rows, or past the array
        level = level_of([make_problem([rng.standard_normal((1, 2)) for _ in range(3)])
                          for _ in range(3)])
        level.row_ptr = np.array(row_ptr)
        with pytest.raises(DataError, match=why):
            aux_tree._check_level(level)
        level.row_ptr = np.array([0, 3, 6, 9])
        aux_tree._check_level(level)

    def test_widest_reduced_dimension(self, rng):
        feats = [rng.standard_normal((20, aux_tree.MAX_REDUCED_DIM)) + j for j in range(2)]
        problem = make_problem(feats)
        fits = [fit_node(problem, 0.1, level_fit) for level_fit in LEVEL_FITS]
        assert np.array_equal(fits[0][2], fits[1][2])
        assert_theta_close(fits[0][:2], fits[1][:2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_same_error(rng, bad):
    # never a silent NaN tree, in the kernel or in numpy
    X = rng.standard_normal((30, 3))
    X[7, 1] = bad
    labels = rng.integers(0, 5, 30)
    messages = []
    for fit, level_fit in zip(TREE_FITS, LEVEL_FITS):
        with pytest.raises(NumericError) as exc:
            fit(X, labels, 5, 0.1)
        messages.append(str(exc.value))
        with pytest.raises(NumericError):
            fit_node(make_problem([X[:15], X[15:]]), 0.1, level_fit)
    assert messages[0] == messages[1]


@pytest.mark.parametrize("big", [1e160, 1e200, 1e300])
def test_overflowing_hessian_same_error(rng, big):
    # finite rows so large that the Newton Hessian overflows: the compiled
    # fit's Cholesky and the numpy oracle's step check both refuse, where the
    # numpy fit used to keep the eigh start silently
    X = rng.standard_normal((40, 3))
    X[5, 1] = big
    labels = rng.integers(0, 5, 40)
    for fit in TREE_FITS:
        with warnings.catch_warnings(), \
                pytest.raises(NumericError, match="non-finite parameters"):
            warnings.simplefilter("ignore")
            fit(X, labels, 5, 0.1)


@pytest.mark.parametrize("k", [2, 8, 16])
def test_overflowing_start_same_error(rng, k):
    # rows of scale 1e200 overflow the covariance the start's eigh reads,
    # which with k = 8 or 16 made numpy's eigh fail to converge
    # (LinAlgError) and with k = 2 gave NaN eigenvalues; the error is all
    # the caller sees, with no overflow warning before it
    X = 1e200 * rng.standard_normal((40, k))
    labels = np.arange(40) % 5
    for fit in TREE_FITS:
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(NumericError, match="covariance of its start overflows"):
            warnings.simplefilter("always")
            fit(X, labels, 5, 0.1)
        assert [str(w.message) for w in caught] == []


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
    @settings(max_examples=40, deadline=None)
    @given(C=st.sampled_from([2, 3, 4, 5, 8, 9, 16, 17, 33]), k=st.integers(1, 8),
           n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_label_oracle(self, C, k, n, seed):
        # C = 2, powers of two, and 2^d + 1 (the most padding); some labels
        # without rows, and rows repeated within and across labels. With the
        # kernel's alternation and with the numpy oracle's, the level-order
        # fit, with its stacked eigh and one alternation per level, is the
        # per-node recursion bit for bit, counters included. The compiled
        # tree agrees with the numpy one within THETA_RTOL, and each of its
        # nodes is a fixed point of the numpy alternation
        X, labels = oracle_case(C, k, n, seed)
        trees = []
        for fit, level_fit in zip(TREE_FITS, LEVEL_FITS):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want, want_report = fit_tree_oracle(X, labels, C, 0.1, level_fit)
                tree = fit(X, labels, C, 0.1)
            report = tree.fit_report
            for got, expected in zip((tree.node_w, tree.node_b, tree.label_leaf), want):
                assert got.tobytes() == expected.tobytes()
            assert {key: report[key] for key in want_report} == want_report
            trees.append(tree)
        tree, numpy_tree = trees
        report = tree.fit_report
        if np.array_equal(tree.label_leaf, numpy_tree.label_leaf):
            for node in range(tree.node_b.size):
                assert_theta_close((tree.node_w[node], tree.node_b[node]),
                                   (numpy_tree.node_w[node], numpy_tree.node_b[node]))
        else:
            event("a near-tie in delta flipped a split")
        stopped = report["newton_capped_nodes"] + report["guard_nodes"]
        for node, problem, zeta in fitted_nodes(tree, X, labels):
            if node not in stopped:
                assert_reference_fixed_point(problem, tree.node_w[node], tree.node_b[node],
                                             zeta, 0.1)

    def test_level_fit_reports_ascending_stopped_nodes(self, monkeypatch):
        # the guard stops nodes 0, 2, 6, 13 and 23, which a depth-first fit
        # meets as 0, 2, 23, 6, 13; the level loop lists them in heap order
        monkeypatch.setattr(aux_tree, "ALTERNATION_GUARD", 1)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((400, 3))
        labels = rng.integers(0, 33, 400)
        for fit, level_fit in zip(TREE_FITS, LEVEL_FITS):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = fit(X, labels, 33, 0.1).fit_report
                _, want = fit_tree_oracle(X, labels, 33, 0.1, level_fit)
            assert report["guard_nodes"] == want["guard_nodes"] == [0, 2, 6, 13, 23]

    def test_level_fit_warns_as_the_oracle(self):
        # identical rows, two per label: the aggregates of every fitted node
        # coincide, so the stacked start warns of a zero covariance once per
        # node, as the per-node starts do
        X = np.ones((16, 2))
        labels = np.arange(16) % 8
        for tree_fit, level_fit in zip(TREE_FITS, LEVEL_FITS):
            found = []
            for fit in (lambda: tree_fit(X, labels, 8, 0.1),
                        lambda: fit_tree_oracle(X, labels, 8, 0.1, level_fit)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    fit()
                found.append(sorted(re.sub(r"\|grad\|=[^)]*", "", str(w.message))
                                    for w in caught))
            assert found[0] == found[1]
            assert found[0].count("zero covariance of label aggregates; using first basis "
                                  "vector") == 7

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_regularizer_must_be_finite_and_positive(self, rng, lam):
        # nan used to fail mid-fit as a NumericError and inf to fit a
        # degenerate tree
        X = rng.standard_normal((20, 3))
        labels = rng.integers(0, 4, 20)
        problem = make_problem([X[:10], X[10:]])
        for fit, level_fit in zip(TREE_FITS, LEVEL_FITS):
            with pytest.raises(DataError, match="finite and positive"):
                fit(X, labels, 4, lam)
            with pytest.raises(DataError, match="finite and positive"):
                fit_node(problem, lam, level_fit)
        with pytest.raises(DataError, match="finite and positive"):
            newton_fit(problem, np.array([1, -1]), lam)

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

    @pytest.mark.parametrize("shape,labels", [
        ((6, 2), [0, 1, 0]), ((3, 2), [0, 1, 0, 1, 1]), ((6,), [0, 1, 0, 1, 1, 0]),
    ])
    def test_one_label_per_row(self, shape, labels):
        # fewer labels than rows used to fit on the first rows and ignore
        # the rest, more labels than rows to fail with an IndexError
        with pytest.raises(DataError, match="one label per row"):
            fit_tree(np.zeros(shape), labels, 2, 0.1)

    def test_round_trip(self, tmp_path, rng):
        X = rng.standard_normal((50, 3))
        labels = rng.integers(0, 6, 50)
        tree = fit_tree(X, labels, 6, 0.1)
        tree.save(tmp_path / "t.npz")
        back = AuxiliaryTree.load(tmp_path / "t.npz")
        x = rng.standard_normal((4, 3))
        ys = rng.integers(0, 6, 4)
        assert np.array_equal(back.log_prob_all(x), tree.log_prob_all(x))
        assert np.array_equal(back.log_prob_pairs(x, ys), tree.log_prob_pairs(x, ys))
