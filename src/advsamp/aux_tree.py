"""Balanced probabilistic binary decision tree over labels.

Each internal node nu holds (w_nu, b_nu); a branch decision zeta in {-1, +1}
has probability sigma(zeta * (w_nu . x + b_nu)), with +1 meaning the right
child. Labels live at the leaves of a complete tree of depth
ceil(log2 C); the label set is padded to the next power of two with
uninhabited padding labels whose leaves receive essentially zero mass via
a large bias sentinel.

Fitting is greedy and top-down: at each node, alternate Newton ascent on
(w, b) with a balanced re-partition of the node's labels until the
partition is a fixed point, then recurse into both halves.

Tree layout: heap order, node i has children 2i+1 (left) and 2i+2 (right);
level l holds the contiguous nodes 2^l - 1 ... 2^(l+1) - 2, and leaf
position j corresponds to heap index (padded_size - 1) + j. The bits of j,
most significant first, are the branch decisions on the way to it, so every
walk is index arithmetic and no per-leaf path table is stored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_io import _open_npz, label_array
from .errors import DataError, NumericError

TREE_MAGIC = "advsamp-tree-v1"

# exp(-700) underflows to ~1e-304 in float64, so a padding branch gets
# effectively zero probability
B_PAD = 700.0

NEWTON_GRAD_TOL = 1e-10
NEWTON_MAX_ITER = 100
# a predicted gain below this many ulps of |objective| is roundoff
NEWTON_GAIN_ULPS = 4.0
ALTERNATION_GUARD = 50
MAX_REDUCED_DIM = 64


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def log_sigmoid(z):
    """log sigma(z), stable for large |z|."""
    return -np.logaddexp(0.0, -np.asarray(z, dtype=np.float64))


@dataclass
class NodeFitProblem:
    """Per-node fitting data: reduced features grouped by label.

    ``label_ids`` may include padding ids (>= num_real_labels), which carry
    no data and are forced to the left half during splitting.
    """

    label_ids: np.ndarray  # (L,)
    features_by_label: list  # L arrays of shape (m_y, k); empty for padding
    num_real_labels: int

    def __post_init__(self):
        self.label_ids = np.asarray(self.label_ids, dtype=np.int64)
        if self.label_ids.size < 2:
            raise DataError("node fit needs at least 2 labels")
        self.features_by_label = [
            np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in self.features_by_label
        ]
        self.aggregates = np.stack([f.sum(axis=0) for f in self.features_by_label])
        self.counts = np.array([f.shape[0] for f in self.features_by_label])
        # all rows stacked once, with the label slot of each row
        self.rows = np.concatenate(self.features_by_label)
        self.slots = np.repeat(np.arange(self.label_ids.size), self.counts)

    def is_padding(self) -> np.ndarray:
        return self.label_ids >= self.num_real_labels


def all_deltas(problem: NodeFitProblem, w, b) -> np.ndarray:
    """Objective change for flipping each label from -1 to +1: w.s_y + n_y b."""
    return problem.aggregates @ w + problem.counts * b


def split_labels(problem: NodeFitProblem, w, b) -> np.ndarray:
    """Balanced split: +1 for the half of labels with largest delta.

    Ties break by label id ascending; padding labels always fall in the
    -1 half (they sort below everything).
    """
    deltas = all_deltas(problem, w, b)
    deltas = np.where(problem.is_padding(), -np.inf, deltas)
    order = np.lexsort((problem.label_ids, -deltas))
    half = problem.label_ids.size // 2
    zeta = np.full(problem.label_ids.size, -1, dtype=np.int64)
    zeta[order[:half]] = 1
    return zeta


def node_objective(problem: NodeFitProblem, w, b, zeta, lam: float) -> float:
    """Regularized per-node log likelihood."""
    X, slots = problem.rows, problem.slots
    if X.shape[0] == 0:
        return -lam * (w @ w + b * b)
    z = zeta[slots] * (X @ w + b)
    return float(log_sigmoid(z).sum() - lam * (w @ w + b * b))


def newton_fit(problem: NodeFitProblem, zeta, lam: float, w0=None, b0=0.0):
    """Maximize the regularized node objective over (w, b) by Newton ascent.

    Backtracking halves the step until the objective increases. Once the
    predicted gain grad . step is below the objective's roundoff, no line
    search can see an ascent, so the full Newton step is taken and the
    ascent stops. Requires lam > 0 for strict concavity.
    """
    if lam <= 0:
        raise DataError("node regularizer must be positive")
    X, slots = problem.rows, problem.slots
    k = X.shape[1]
    theta = np.zeros(k + 1)
    if w0 is not None:
        theta[:k] = w0
    theta[k] = b0
    if X.shape[0] == 0:
        return np.zeros(k), 0.0
    s = zeta[slots].astype(np.float64)
    Xt = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)

    def obj_and_grad(th):
        z = s * (Xt @ th)
        obj = log_sigmoid(z).sum() - lam * (th @ th)
        grad = Xt.T @ (s * sigmoid(-z)) - 2.0 * lam * th
        return obj, grad, z

    obj, grad, z = obj_and_grad(theta)
    for _ in range(NEWTON_MAX_ITER):
        gnorm = np.linalg.norm(grad)
        if gnorm < NEWTON_GRAD_TOL:
            return theta[:k].copy(), float(theta[k])
        sig = sigmoid(z)
        curv = sig * (1.0 - sig)  # sigma(z) sigma(-z)
        H = Xt.T @ (Xt * curv[:, None]) + 2.0 * lam * np.eye(k + 1)
        step = np.linalg.solve(H, grad)
        if grad @ step <= NEWTON_GAIN_ULPS * np.finfo(np.float64).eps * abs(obj):
            theta = theta + step
            return theta[:k].copy(), float(theta[k])
        # backtracking line search: halve until ascent
        t = 1.0
        for _ in range(60):
            cand = theta + t * step
            new_obj, new_grad, new_z = obj_and_grad(cand)
            if new_obj > obj:
                break
            t *= 0.5
        else:
            return theta[:k].copy(), float(theta[k])
        theta, obj, grad, z = cand, new_obj, new_grad, new_z
    warnings.warn(f"Newton ascent hit {NEWTON_MAX_ITER} iterations (|grad|={gnorm:.2e})")
    return theta[:k].copy(), float(theta[k])


def init_node(problem: NodeFitProblem):
    """Initial (w, b): dominant eigenvector of the covariance of the
    per-label aggregate vectors; bias zero."""
    real = ~problem.is_padding()
    aggs = problem.aggregates[real]
    k = aggs.shape[1]
    # labels without training rows (e.g. all of them in the validation
    # split) give all-zero aggregates and nothing to fit
    if aggs.shape[0] < 2 or not problem.counts[real].any():
        return np.eye(k)[0], 0.0
    centered = aggs - aggs.mean(axis=0)
    cov = centered.T @ centered / aggs.shape[0]
    if not np.any(cov):
        warnings.warn("zero covariance of label aggregates; using first basis vector")
        return np.eye(k)[0], 0.0
    lam, vecs = np.linalg.eigh(cov)
    if lam[-1] <= 0:
        warnings.warn("degenerate covariance; using first basis vector")
        return np.eye(k)[0], 0.0
    return vecs[:, -1], 0.0


def fit_node(problem: NodeFitProblem, lam: float):
    """Alternate Newton ascent and balanced re-splitting to a fixed point.

    Returns (w, b, zeta, trace) where ``trace`` lists the regularized
    objective after every half-step; it is nondecreasing.
    """
    w, b = init_node(problem)
    zeta = split_labels(problem, w, b)
    trace = []
    for _ in range(ALTERNATION_GUARD):
        w, b = newton_fit(problem, zeta, lam, w0=w, b0=b)
        trace.append(node_objective(problem, w, b, zeta, lam))
        new_zeta = split_labels(problem, w, b)
        trace.append(node_objective(problem, w, b, new_zeta, lam))
        if np.array_equal(new_zeta, zeta):
            return w, b, zeta, trace
        zeta = new_zeta
    warnings.warn(f"node fit did not reach a split fixed point in {ALTERNATION_GUARD} rounds")
    return w, b, zeta, trace


class AuxiliaryTree:
    """Fitted conditional label distribution p(y | x_reduced)."""

    def __init__(self, node_w, node_b, label_leaf, num_labels, depth):
        self.node_w = np.asarray(node_w, dtype=np.float64)  # (Cp-1, k)
        self.node_b = np.asarray(node_b, dtype=np.float64)  # (Cp-1,)
        self.label_leaf = np.asarray(label_leaf, dtype=np.int64)  # (C,)
        self.num_labels = int(num_labels)
        self.depth = int(depth)
        self.padded_size = Cp = 1 << self.depth
        C = self.num_labels
        if self.node_w.ndim != 2 or self.node_w.shape[0] != Cp - 1:
            raise DataError("node array size does not match depth")
        if self.node_b.shape != (Cp - 1,):
            raise DataError(f"node_b has shape {self.node_b.shape}, want ({Cp - 1},)")
        if not 1 <= C <= Cp:
            raise DataError(f"{C} labels do not fit a tree of depth {self.depth}")
        if self.label_leaf.shape != (C,):
            raise DataError(f"label_leaf has shape {self.label_leaf.shape}, want ({C},)")
        if self.label_leaf.min() < 0 or self.label_leaf.max() >= Cp:
            raise DataError(f"label_leaf points outside [0, {Cp})")
        if np.unique(self.label_leaf).size != C:
            raise DataError("label_leaf maps two labels to one leaf")
        self.leaf_label = np.full(self.padded_size, -1, dtype=np.int64)
        self.leaf_label[self.label_leaf] = np.arange(self.num_labels)

    @property
    def reduced_dim(self) -> int:
        return self.node_w.shape[1]

    def log_prob_all(self, Xr) -> np.ndarray:
        """log p(y | x) for every row of Xr and every real label; (n, C).

        One top-down pass: after level l, column j of the running sums is
        the log-probability of reaching node 2^(l+1) - 1 + j.
        """
        Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
        Z = Xr @ self.node_w.T + self.node_b
        acc = np.zeros((Xr.shape[0], 1))
        for level in range(self.depth):
            z = Z[:, (1 << level) - 1:(2 << level) - 1]
            acc = np.stack([acc + log_sigmoid(-z), acc + log_sigmoid(z)], axis=2)
            acc = acc.reshape(Xr.shape[0], -1)
        return acc[:, self.label_leaf]

    def log_prob_pairs(self, Xr, ys) -> np.ndarray:
        """log p(ys[i] | Xr[i]) for each row; (n,)."""
        Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
        leaves = self.label_leaf[label_array(ys, self.num_labels)]
        node = np.zeros(Xr.shape[0], dtype=np.int64)
        out = np.zeros(Xr.shape[0])
        for level in range(self.depth):
            bit = (leaves >> (self.depth - 1 - level)) & 1
            z = np.einsum("ij,ij->i", Xr, self.node_w[node]) + self.node_b[node]
            out += log_sigmoid(np.where(bit == 1, z, -z))
            node = 2 * node + 1 + bit
        return out

    def sample_batch(self, Xr, rng) -> np.ndarray:
        """Vectorized ancestral sampling, one label per row of Xr."""
        Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
        n = Xr.shape[0]
        node = np.zeros(n, dtype=np.int64)
        for _ in range(self.depth):
            z = np.einsum("ij,ij->i", Xr, self.node_w[node]) + self.node_b[node]
            go_right = rng.random(n) < sigmoid(z)
            node = 2 * node + 1 + go_right
        labels = self.leaf_label[node - (self.padded_size - 1)]
        if np.any(labels < 0):
            raise NumericError("sampled a padding leaf; tree is corrupted")
        return labels

    def save(self, path) -> None:
        np.savez(
            path,
            magic=TREE_MAGIC,
            meta=np.array([self.depth, self.num_labels, self.padded_size]),
            node_w=self.node_w,
            node_b=self.node_b,
            label_leaf=self.label_leaf,
        )

    @classmethod
    def load(cls, path) -> "AuxiliaryTree":
        with _open_npz(path, TREE_MAGIC, ("meta", "node_w", "node_b", "label_leaf")) as z:
            try:
                depth, C, _ = (int(v) for v in z["meta"])
            except (TypeError, ValueError) as exc:
                raise DataError(f"bad tree meta record in {path}: {exc}") from exc
            return cls(z["node_w"], z["node_b"], z["label_leaf"], C, depth)


def fit_tree(Xr, labels, num_labels: int, lam: float = 0.1) -> AuxiliaryTree:
    """Fit the full tree on reduced features Xr (n, k) with labels (n,).

    Pads the label set to a power of two (padding ids appended after the
    real ones), recursively fits every internal node, and pins any node
    with an all-padding child to the sentinel bias so padding mass
    underflows to zero.
    """
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    C = int(num_labels)
    if C < 2:
        raise DataError("need at least 2 labels to build a tree")
    k = Xr.shape[1]
    if k > MAX_REDUCED_DIM:
        raise DataError(f"reduced dimension {k} exceeds the supported maximum {MAX_REDUCED_DIM}")
    depth = int(np.ceil(np.log2(C)))
    Cp = 1 << depth

    rows_by_label = [np.flatnonzero(labels == y) for y in range(C)]

    node_w = np.zeros((Cp - 1, k))
    node_b = np.zeros(Cp - 1)
    label_leaf = np.zeros(C, dtype=np.int64)

    def features_for(ids):
        return [Xr[rows_by_label[y]] if y < C else np.zeros((0, k)) for y in ids]

    def recurse(node, ids, leaf_base):
        if len(ids) == 1:
            y = ids[0]
            if y < C:
                label_leaf[y] = leaf_base
            return
        half = len(ids) // 2
        pad = [y for y in ids if y >= C]
        if len(pad) >= half:
            # route all real labels right; left child is pure padding
            left = sorted(pad, reverse=True)[:half]
            taken = set(left)
            right = [y for y in ids if y not in taken]
            node_b[node] = B_PAD
        else:
            problem = NodeFitProblem(np.array(ids), features_for(ids), C)
            w, b, zeta, _ = fit_node(problem, lam)
            node_w[node] = w
            node_b[node] = b
            right = [y for y, s in zip(ids, zeta) if s > 0]
            left = [y for y, s in zip(ids, zeta) if s < 0]
        recurse(2 * node + 1, left, leaf_base)
        recurse(2 * node + 2, right, leaf_base + half)

    recurse(0, list(range(Cp)), 0)
    return AuxiliaryTree(node_w, node_b, label_leaf, C, depth)
