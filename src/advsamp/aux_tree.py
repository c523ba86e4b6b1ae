"""Balanced probabilistic binary decision tree over labels.

Each internal node nu holds (w_nu, b_nu); a branch decision zeta in {-1, +1}
has probability sigma(zeta * (w_nu . x + b_nu)), with +1 meaning the right
child. Labels live at the leaves of a complete tree of depth
ceil(log2 C); the label set is padded to the next power of two with
uninhabited padding labels whose leaves receive essentially zero mass via
a large bias sentinel.

Fitting is greedy and top-down, one level of the tree at a time: at each
node, alternate Newton ascent on (w, b) with a balanced re-partition of the
node's labels until the partition is a fixed point; the two halves are the
labels of its children on the next level. A level's nodes start from one
stacked ``eigh`` and are alternated in one call to the compiled kernel
(``advsamp.kernel``), as are the tree walks of ``AuxiliaryTree``.

Tree layout: heap order, node i has children 2i+1 (left) and 2i+2 (right);
level l holds the contiguous nodes 2^l - 1 ... 2^(l+1) - 2, and leaf
position j corresponds to heap index (padded_size - 1) + j. The bits of j,
most significant first, are the branch decisions on the way to it, so every
walk is index arithmetic and no per-leaf path table is stored.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernel
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
LINE_SEARCH_HALVINGS = 60
ALTERNATION_GUARD = 50
MAX_REDUCED_DIM = 64
# what _alternate_level counts for each node, in this order: Newton steps,
# alternation rounds, Newton runs stopped at NEWTON_MAX_ITER, and 1 when
# ALTERNATION_GUARD stopped the alternation
NODE_COUNTERS = ("newton_steps", "alternation_rounds", "newton_capped", "guard_hit")


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def log_sigmoid_tail(z):
    """log1p(exp(-|z|)), so that log sigma(z) = min(z, 0) - tail and
    log sigma(-z) = -max(z, 0) - tail. Four passes of numpy's vectorised
    loops into one new array, no temporary."""
    out = np.abs(np.asarray(z, dtype=np.float64))
    np.negative(out, out=out)
    np.exp(out, out=out)
    return np.log1p(out, out=out)


def log_sigmoid(z):
    """log sigma(z) = min(z, 0) - log1p(exp(-|z|)), stable for any z."""
    z = np.asarray(z, dtype=np.float64)
    tail = log_sigmoid_tail(z)
    return np.subtract(np.minimum(z, 0.0), tail, out=tail)


@dataclass
class LevelFitProblem:
    """The fitted nodes of one tree level, stacked as the compiled fit reads
    them: node i has the L labels ``label_ids[i]``, with ``counts[i]`` rows
    that sum to ``aggregates[i]``, and the rows ``rows[row_ptr[i]:row_ptr[i +
    1]]``, each with its label's slot in ``label_ids[i]``. ``label_ids`` may
    include padding ids (>= num_real_labels), which carry no rows and are
    forced to the left half during splitting."""

    label_ids: np.ndarray  # (F, L)
    rows: np.ndarray  # (m, k)
    slots: np.ndarray  # (m,) in [0, L)
    row_ptr: np.ndarray  # (F + 1,)
    num_real_labels: int
    counts: np.ndarray  # (F, L)
    aggregates: np.ndarray  # (F, L, k)


def check_regularizer(lam) -> None:
    """The node objective is strictly concave only for a finite lam > 0."""
    if not 0 < lam < np.inf:
        raise DataError(f"tree regularizer must be finite and positive, not {lam}")


def label_sums(rows, slots, num_slots: int) -> np.ndarray:
    """The sum of the rows in each slot; (num_slots, k). A sum with an
    infinite or NaN term is not finite, so the check sees every such row."""
    sums = np.zeros((num_slots, rows.shape[1]))
    np.add.at(sums, slots, rows)
    if not np.isfinite(sums).all():
        raise NumericError("reduced rows for the tree fit are not finite")
    return sums


def _warn_newton_capped(gnorm):
    warnings.warn(f"Newton ascent hit {NEWTON_MAX_ITER} iterations (|grad|={gnorm:.2e})")


def init_level(level: LevelFitProblem) -> np.ndarray:
    """Each node's initial (w, b), the rows of a (F, k + 1) array: the
    dominant eigenvector of the covariance of its real labels' aggregate
    vectors (a fitted node has at least two), bias zero. The nodes with the
    same number of real labels (L, but in the one node of a level that mixes
    real and padding labels) take one stacked covariance product, and all
    nodes one stacked ``eigh``. A covariance that overflows (rows of scale
    ~1e155 and up) is a NumericError, not an ``eigh`` that fails to
    converge."""
    F, _, k = level.aggregates.shape
    theta = np.zeros((F, k + 1))
    theta[:, 0] = 1.0  # the first basis vector, where there is nothing to fit
    num_real = np.count_nonzero(level.label_ids < level.num_real_labels, axis=1)
    # labels without training rows (e.g. all of them in the validation
    # split) give all-zero aggregates and nothing to fit
    fit = level.counts.any(axis=1)
    cov = np.zeros((F, k, k))
    for n in np.unique(num_real[fit]):
        group = np.flatnonzero(fit & (num_real == n))
        aggs = level.aggregates[group, :n]
        # the sum and division of aggs.mean(axis=1), without its Python layers
        centered = aggs - np.add.reduce(aggs, axis=1, keepdims=True) / n
        with np.errstate(over="ignore"):  # overflow is the NumericError below
            cov[group] = np.matmul(centered.transpose(0, 2, 1), centered) / n
    if not np.isfinite(cov).all():
        raise NumericError("tree node fit gave non-finite parameters (the label-aggregate "
                           "covariance of its start overflows)")
    spread = np.flatnonzero(fit & cov.any(axis=(1, 2)))
    for _ in range(np.count_nonzero(fit) - spread.size):
        warnings.warn("zero covariance of label aggregates; using first basis vector")
    if spread.size:
        lam, vecs = np.linalg.eigh(cov[spread])
        top = lam[:, -1] > 0
        for _ in range(top.size - np.count_nonzero(top)):
            warnings.warn("degenerate covariance; using first basis vector")
        theta[spread[top], :k] = vecs[top, :, -1]
    return theta


def _alternate_level(level: LevelFitProblem, lam, theta):
    """The alternation of every node of ``level`` from its initial (w, b),
    the rows of ``theta`` (F, k + 1), which get the fitted (w, b): Newton
    ascent on the regularized node objective, then a balanced re-split of
    the node's labels, until the split is a fixed point or ALTERNATION_GUARD
    rounds have run, for all nodes in one call to the compiled kernel.
    Returns the splits (F, L) and the nodes' NODE_COUNTERS (F, 4), and
    warns, in node order, for each node stopped by NEWTON_MAX_ITER or
    ALTERNATION_GUARD up to the first node whose fit is not finite, a
    NumericError."""
    F, L, k = level.aggregates.shape
    zeta = np.empty((F, L), dtype=np.int64)
    counters = np.zeros((F, len(NODE_COUNTERS)), dtype=np.int64)
    cap_grad = np.empty((F, ALTERNATION_GUARD))
    status = kernel.load().advsamp_fit_level(
        level.rows.ctypes.data, level.slots.ctypes.data, level.row_ptr.ctypes.data, k,
        level.label_ids.ctypes.data, level.counts.ctypes.data,
        level.aggregates.ctypes.data, F, L, level.num_real_labels,
        lam, NEWTON_GRAD_TOL, NEWTON_GAIN_ULPS, NEWTON_MAX_ITER, LINE_SEARCH_HALVINGS,
        ALTERNATION_GUARD, theta.ctypes.data, zeta.ctypes.data, counters.ctypes.data,
        cap_grad.ctypes.data)
    if status == -2:
        raise MemoryError("no memory for the level fit's scratch arrays")
    if status != -1:
        raise NumericError("tree node fit gave non-finite parameters")
    bad = np.flatnonzero(~np.isfinite(theta).all(axis=1))[:1]
    stop = bad[0] + 1 if bad.size else F
    for i in np.flatnonzero(counters[:stop, 2:].any(axis=1)):
        for gnorm in cap_grad[i, :counters[i, 2]]:
            _warn_newton_capped(gnorm)
        if counters[i, 3]:
            _warn_guard_hit()
    if bad.size:
        raise NumericError("tree node fit gave non-finite parameters")
    return zeta, counters


def _warn_guard_hit():
    warnings.warn(f"node fit did not reach a split fixed point in {ALTERNATION_GUARD} rounds")


def _check_level(level: LevelFitProblem):
    """The compiled fit indexes every array by the shapes, ``row_ptr`` and
    ``slots`` unchecked."""
    (F, L, k), m = level.aggregates.shape, level.slots.size
    if k > MAX_REDUCED_DIM:
        raise DataError(f"reduced dimension {k} exceeds the supported maximum {MAX_REDUCED_DIM}")
    for arr, dtype, shape in ((level.rows, np.float64, (m, k)), (level.slots, np.int64, (m,)),
                              (level.row_ptr, np.int64, (F + 1,)),
                              (level.label_ids, np.int64, (F, L)),
                              (level.counts, np.int64, (F, L)),
                              (level.aggregates, np.float64, (F, L, k))):
        if not (arr.dtype == dtype and arr.shape == shape and arr.flags.c_contiguous):
            raise DataError(f"level fit needs C-contiguous {np.dtype(dtype).name} arrays "
                            f"of shape {shape}")
    ptr = level.row_ptr
    if ptr[0] != 0 or ptr[-1] != m or (ptr[1:] < ptr[:-1]).any():
        raise DataError(f"level fit row_ptr must rise from 0 to {m}")
    if m and (level.slots.min() < 0 or level.slots.max() >= L):
        raise DataError(f"level fit slots must lie in [0, {L})")


class AuxiliaryTree:
    """Fitted conditional label distribution p(y | x_reduced).

    ``fit_report`` is None, or for a tree ``fit_tree`` made, what the fit
    did: the totals of NODE_COUNTERS' first two counters, the heap indices
    of the nodes whose Newton ascent hit NEWTON_MAX_ITER and whose
    alternation hit ALTERNATION_GUARD (ascending), and the seconds spent setting the nodes up (``init_s``: gathers,
    covariances and ``eigh``) and alternating (``alternation_s``).
    """

    fit_report: dict | None = None

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

    def log_prob_all(self, Xr, out=None) -> np.ndarray:
        """log p(y | x) for every row of Xr and every real label; (n, C).

        With ``out`` (a C-contiguous float64 (n, C) array) given, the
        log-probabilities are added into it in place and it is returned.
        One GEMM gives the logits of all Cp - 1 nodes and one in-place pass
        their ``log_sigmoid_tail``; then a top-down walk per row in the
        compiled kernel adds up the log sigma of the branches.
        """
        Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
        n, C = Xr.shape[0], self.num_labels
        if out is None:
            out = np.zeros((n, C))
        elif not (out.shape == (n, C) and out.dtype == np.float64 and out.flags.c_contiguous
                  and out.flags.writeable):
            raise DataError(f"log_prob_all adds into a writeable C-contiguous float64 "
                            f"array of shape {(n, C)}")
        z = Xr @ self.node_w.T
        z += self.node_b
        tail = log_sigmoid_tail(z)
        leaf = self.label_leaf
        # the kernel indexes its scratch by label_leaf unchecked
        if not (leaf.dtype == np.int64 and leaf.shape == (C,) and leaf.flags.c_contiguous
                and leaf.min() >= 0 and leaf.max() < self.padded_size):
            raise DataError(f"label_leaf must be C-contiguous int64 in [0, {self.padded_size})")
        acc = np.empty(2 * self.padded_size)
        kernel.load().advsamp_tree_add_log_probs(z.ctypes.data, tail.ctypes.data, n,
                                                 self.depth, leaf.ctypes.data, C,
                                                 acc.ctypes.data, out.ctypes.data)
        return out

    def _walk_rows(self, Xr) -> np.ndarray:
        """Xr as C-contiguous float64 rows (n, k), with the node arrays
        checked against them: the compiled path walk indexes both unchecked."""
        Xr = np.ascontiguousarray(np.atleast_2d(Xr), dtype=np.float64)
        nodes, k = (1 << self.depth) - 1, self.reduced_dim
        if Xr.ndim != 2 or Xr.shape[1] != k:
            raise DataError(f"tree walk needs rows of {k} reduced features, not {Xr.shape}")
        for arr, shape in ((self.node_w, (nodes, k)), (self.node_b, (nodes,))):
            if not (arr.dtype == np.float64 and arr.shape == shape and arr.flags.c_contiguous):
                raise DataError(f"tree walk needs C-contiguous float64 node arrays of shape "
                                f"{shape}")
        return Xr

    def log_prob_pairs(self, Xr, ys) -> np.ndarray:
        """log p(ys[i] | Xr[i]) for each row; (n,).

        One walk per row along ys[i]'s path, in the compiled kernel, stores
        each level's signed logit in a (depth, n) table; the table's log
        sigma is then summed level by level.
        """
        Xr = self._walk_rows(Xr)
        n = Xr.shape[0]
        leaves = self.label_leaf[label_array(ys, self.num_labels)]
        if leaves.shape != (n,) or leaves.dtype != np.int64:
            raise DataError(f"log_prob_pairs needs one label per row: {np.shape(ys)} labels, "
                            f"{n} rows")
        logits = np.empty((self.depth, n))
        kernel.load().advsamp_tree_walk(Xr.ctypes.data, n, self.reduced_dim,
                                        self.node_w.ctypes.data, self.node_b.ctypes.data,
                                        self.depth, None, leaves.ctypes.data, logits.ctypes.data)
        return np.add.reduce(log_sigmoid(logits), axis=0)

    def sample_batch(self, Xr, rng) -> np.ndarray:
        """Ancestral sampling, one label per row of Xr, with one uniform
        ``rng.random`` per row and level, drawn level by level.

        The compiled walk goes right where logit(u) = log u - log1p(-u) is
        below the node's logit z: the event u < sigma(z), up to rounding.
        """
        Xr = self._walk_rows(Xr)
        n = Xr.shape[0]
        u = rng.random((self.depth, n))
        with np.errstate(divide="ignore"):  # logit(0) = -inf: that branch goes right
            thresholds = np.log(u)
        thresholds -= np.log1p(np.negative(u, out=u), out=u)
        leaves = np.empty(n, dtype=np.int64)
        kernel.load().advsamp_tree_walk(Xr.ctypes.data, n, self.reduced_dim,
                                        self.node_w.ctypes.data, self.node_b.ctypes.data,
                                        self.depth, thresholds.ctypes.data, leaves.ctypes.data,
                                        None)
        labels = self.leaf_label[leaves]
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
    real ones) and fits the tree level by level, from the root down. It
    pins any node with an all-padding child to the sentinel bias so padding
    mass underflows to zero; every other node of a level is fitted, all of
    them in one call to the compiled kernel.
    """
    Xr = np.asarray(Xr, dtype=np.float64)
    C = int(num_labels)
    if C < 2:
        raise DataError("need at least 2 labels to build a tree")
    check_regularizer(lam)
    labels = label_array(labels, C)
    if Xr.ndim != 2 or labels.shape != Xr.shape[:1]:
        raise DataError(f"tree fit needs one label per row: {labels.size} labels, rows {Xr.shape}")
    k = Xr.shape[1]
    if k > MAX_REDUCED_DIM:
        raise DataError(f"reduced dimension {k} exceeds the supported maximum {MAX_REDUCED_DIM}")
    depth = int(np.ceil(np.log2(C)))
    Cp = 1 << depth

    # rows sorted by label once: a label's rows are one run of Xs, the same
    # at every node, and so are its count and row sum
    order = np.argsort(labels, kind="stable")
    Xs, ys = Xr[order], labels[order]
    label_counts = np.bincount(ys, minlength=Cp)
    label_start = np.cumsum(label_counts) - label_counts
    label_aggs = label_sums(Xs, ys, Cp)

    node_w = np.zeros((Cp - 1, k))
    node_b = np.zeros(Cp - 1)
    label_leaf = np.zeros(C, dtype=np.int64)
    report = {"newton_steps": 0, "alternation_rounds": 0, "newton_capped_nodes": [],
              "guard_nodes": [], "init_s": 0.0, "alternation_s": 0.0}
    # row j holds the label ids of the level's node j, ascending; splits are
    # balanced, so every node of a level has as many
    ids = np.arange(Cp)[None]
    for _ in range(depth):
        width, L = ids.shape
        half = L // 2
        first = width - 1  # the level's first heap index
        # padding ids ascend last, so a node whose right half would hold one
        # is pinned: its largest half (all padding) goes left with no rows,
        # the rest right
        zeta = np.tile(np.where(np.arange(L) < half, 1, -1), (width, 1))
        pinned = ids[:, half] >= C
        node_b[first + np.flatnonzero(pinned)] = B_PAD
        fit = np.flatnonzero(~pinned)
        if fit.size:
            t0 = time.perf_counter()
            problem = _gather_level(ids[fit], Xs, label_start, label_counts, label_aggs, C)
            _check_level(problem)
            theta = init_level(problem)
            t1 = time.perf_counter()
            zeta[fit], counters = _alternate_level(problem, lam, theta)
            report["init_s"] += t1 - t0
            report["alternation_s"] += time.perf_counter() - t1
            node_w[first + fit] = theta[:, :k]
            node_b[first + fit] = theta[:, k]
            report["newton_steps"] += int(counters[:, 0].sum())
            report["alternation_rounds"] += int(counters[:, 1].sum())
            report["newton_capped_nodes"] += (first + fit[counters[:, 2] > 0]).tolist()
            report["guard_nodes"] += (first + fit[counters[:, 3] > 0]).tolist()
        # each node's left child takes its ids with zeta -1, in order, and
        # its right child the rest
        ids = np.take_along_axis(ids, np.argsort(zeta, axis=1, kind="stable"), axis=1)
        ids = ids.reshape(2 * width, half)
    leaf_ids = ids[:, 0]
    real = leaf_ids < C
    label_leaf[leaf_ids[real]] = np.flatnonzero(real)
    tree = AuxiliaryTree(node_w, node_b, label_leaf, C, depth)
    tree.fit_report = report
    return tree


def _gather_level(ids, Xs, label_start, label_counts, label_aggs, num_real) -> LevelFitProblem:
    """The nodes with label ids ``ids`` (F, L) as a LevelFitProblem: each
    node's rows are the runs of its labels in the label-sorted Xs, one after
    the other."""
    F, L = ids.shape
    counts = label_counts[ids]
    per_label = counts.ravel()
    row_ptr = np.zeros(F + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1), out=row_ptr[1:])
    # a label's run starts at label_start in Xs and at `at` in the gather
    at = np.cumsum(per_label) - per_label
    index = np.repeat(label_start[ids].ravel() - at, per_label) + np.arange(row_ptr[-1])
    slots = np.repeat(np.tile(np.arange(L), F), per_label)
    return LevelFitProblem(ids, Xs[index], slots, row_ptr, num_real, counts, label_aggs[ids])
