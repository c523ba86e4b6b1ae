"""numpy references for the jobs of the compiled kernel (``_kernel.c``).

The package runs each of these jobs in C only; the tests run the same
inputs through the numpy code below and compare:

- the tree's node fit: ``NodeFitProblem`` (one node of a level, see
  ``level_node``), ``all_deltas``, ``split_labels``, ``newton_fit``,
  ``alternate`` and ``alternate_level``, a drop-in for
  ``aux_tree._alternate_level``; ``fit_tree`` runs ``aux_tree.fit_tree`` on
  it;
- the tree walks: ``log_prob_all``, ``log_prob_pairs`` and
  ``sample_batch``, the ``AuxiliaryTree`` methods of the same names as
  numpy level loops;
- the training steps: ``softmax_loss_and_grad``, ``pair_loss_and_grad``,
  ``adagrad_step`` and ``steps``, a drop-in for ``training._steps``;
  ``train`` runs ``training.train`` on it.

The constants (``aux_tree.NEWTON_MAX_ITER`` and the like) are read from the
package at call time, so a test that patches one patches both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from advsamp import aux_tree, training
from advsamp.aux_tree import LevelFitProblem, log_sigmoid, log_sigmoid_tail, sigmoid
from advsamp.data_io import label_array
from advsamp.errors import DataError, NumericError
from advsamp.training import ADAGRAD_EPSILON, SOFTMAX_LABEL_GUARD

# labels per block of log_prob_all's last level
GATHER_COLUMNS = 64


# --- the tree's node fit ---------------------------------------------------


@dataclass
class NodeFitProblem:
    """One node of a level, as the numpy alternation reads it: the node's
    reduced rows, each row's label slot, and each label's row count and
    row sum.

    ``slots[i]`` is the position in ``label_ids`` of row i's label.
    ``label_ids`` may include padding ids (>= num_real_labels), which carry
    no rows and are forced to the left half during splitting.
    """

    label_ids: np.ndarray  # (L,)
    rows: np.ndarray  # (m, k)
    slots: np.ndarray  # (m,) in [0, L)
    num_real_labels: int
    counts: np.ndarray  # (L,)
    aggregates: np.ndarray  # (L, k)

    def is_padding(self) -> np.ndarray:
        return self.label_ids >= self.num_real_labels


def level_node(level: LevelFitProblem, i) -> NodeFitProblem:
    """Node i of ``level``, its arrays viewed, not copied."""
    lo, hi = level.row_ptr[i], level.row_ptr[i + 1]
    return NodeFitProblem(level.label_ids[i], level.rows[lo:hi], level.slots[lo:hi],
                          level.num_real_labels, level.counts[i], level.aggregates[i])


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


def newton_fit(problem: NodeFitProblem, zeta, lam: float, w0=None, b0=0.0, counters=None):
    """Maximize the regularized node objective over (w, b) by Newton ascent.

    Backtracking halves the step until the objective increases. Once the
    predicted gain grad . step is below the objective's roundoff, no line
    search can see an ascent, so the full Newton step is taken and the
    ascent stops. Requires a finite lam > 0 for strict concavity; a non-finite step
    (rows so large that the Hessian overflows) is a NumericError. Adds its
    steps, and a run stopped at NEWTON_MAX_ITER, to ``counters`` (see
    NODE_COUNTERS).
    """
    aux_tree.check_regularizer(lam)
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
    for _ in range(aux_tree.NEWTON_MAX_ITER):
        gnorm = np.linalg.norm(grad)
        if gnorm < aux_tree.NEWTON_GRAD_TOL:
            return theta[:k].copy(), float(theta[k])
        sig = sigmoid(z)
        curv = sig * (1.0 - sig)  # sigma(z) sigma(-z)
        H = Xt.T @ (Xt * curv[:, None]) + 2.0 * lam * np.eye(k + 1)
        step = np.linalg.solve(H, grad)
        if not np.isfinite(step).all():
            # an overflowed Hessian; the compiled fit's Cholesky meets the same
            raise NumericError("tree node fit gave non-finite parameters")
        if counters is not None:
            counters[0] += 1
        if grad @ step <= aux_tree.NEWTON_GAIN_ULPS * np.finfo(np.float64).eps * abs(obj):
            theta = theta + step
            return theta[:k].copy(), float(theta[k])
        # backtracking line search: halve until ascent
        t = 1.0
        for _ in range(aux_tree.LINE_SEARCH_HALVINGS):
            cand = theta + t * step
            new_obj, new_grad, new_z = obj_and_grad(cand)
            if new_obj > obj:
                break
            t *= 0.5
        else:
            return theta[:k].copy(), float(theta[k])
        theta, obj, grad, z = cand, new_obj, new_grad, new_z
    if counters is not None:
        counters[2] += 1
    aux_tree._warn_newton_capped(gnorm)
    return theta[:k].copy(), float(theta[k])


def alternate(problem, lam, w, b, counters):
    """One node's alternation of Newton ascent and balanced re-splitting
    in numpy, from (w, b) to a fixed point of the split or to
    ALTERNATION_GUARD rounds; returns (w, b, zeta) and fills ``counters``
    (see NODE_COUNTERS). Neither half-step lowers the regularized node
    objective (``tests/test_aux_tree.py`` traces it)."""
    counters[:] = 0
    zeta = split_labels(problem, w, b)
    for _ in range(aux_tree.ALTERNATION_GUARD):
        w, b = newton_fit(problem, zeta, lam, w0=w, b0=b, counters=counters)
        counters[1] += 1
        new_zeta = split_labels(problem, w, b)
        if np.array_equal(new_zeta, zeta):
            return w, b, zeta
        zeta = new_zeta
    counters[3] = 1
    return w, b, zeta


def alternate_level(level: LevelFitProblem, lam, theta):
    """``aux_tree._alternate_level`` node by node in numpy: the same
    arguments, results, warnings and errors."""
    F, L, k = level.aggregates.shape
    zeta = np.empty((F, L), dtype=np.int64)
    counters = np.zeros((F, len(aux_tree.NODE_COUNTERS)), dtype=np.int64)
    for i in range(F):
        w, b, zeta[i] = alternate(level_node(level, i), lam, theta[i, :k], theta[i, k],
                                  counters[i])
        theta[i, :k], theta[i, k] = w, b
        if counters[i, 3]:
            aux_tree._warn_guard_hit()
        if not np.isfinite(theta[i]).all():
            raise NumericError("tree node fit gave non-finite parameters")
    return zeta, counters


def fit_tree(Xr, labels, num_labels, lam=0.1):
    """``aux_tree.fit_tree`` with its levels alternated by ``alternate_level``."""
    with mock.patch.object(aux_tree, "_alternate_level", alternate_level):
        return aux_tree.fit_tree(Xr, labels, num_labels, lam)


# --- the tree walks --------------------------------------------------------


def log_prob_all(tree, Xr, out=None):
    """``tree.log_prob_all`` with the walk as a level loop: after level l,
    column j of the running sums is the log-probability of reaching node
    2^(l+1) - 1 + j. It reads the same logit and tail tables as the kernel
    and adds in the same order. The last level goes straight into ``out``,
    a block of labels at a time, so that no (n, Cp) table of leaves is
    held beside the logits, their tails and ``out``."""
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    n = Xr.shape[0]
    if out is None:
        out = np.zeros((n, tree.num_labels))
    z = Xr @ tree.node_w.T
    z += tree.node_b
    tail = log_sigmoid_tail(z)
    last = tree.depth - 1
    if last < 0:
        return out  # one label, no branch
    acc = np.zeros((n, 1))
    for level in range(last):
        nodes = slice((1 << level) - 1, (2 << level) - 1)
        zl, tl = z[:, nodes], tail[:, nodes]
        children = np.empty((n, 1 << level, 2))
        np.add(acc, np.minimum(zl, 0.0) - tl, out=children[:, :, 1])
        np.add(acc, -np.maximum(zl, 0.0) - tl, out=children[:, :, 0])
        acc = children.reshape(n, -1)
    # leaf j is the right (j odd) or left child of position j >> 1
    zl, tl = z[:, (1 << last) - 1:], tail[:, (1 << last) - 1:]
    for lo in range(0, out.shape[1], GATHER_COLUMNS):
        leaf = tree.label_leaf[lo:lo + GATHER_COLUMNS]
        parent, right = leaf >> 1, (leaf & 1) == 1
        zc = zl[:, parent]
        branch = np.where(right, np.minimum(zc, 0.0), -np.maximum(zc, 0.0)) - tl[:, parent]
        out[:, lo:lo + GATHER_COLUMNS] += acc[:, parent] + branch
    return out


def log_prob_pairs(tree, Xr, ys):
    """``tree.log_prob_pairs`` as a level loop, with the same checks on its
    arguments."""
    Xr = tree._walk_rows(Xr)
    n = Xr.shape[0]
    leaves = tree.label_leaf[label_array(ys, tree.num_labels)]
    if leaves.shape != (n,):
        raise DataError(f"log_prob_pairs needs one label per row: {np.shape(ys)} labels, "
                        f"{n} rows")
    out = np.zeros(n)
    node = np.zeros(n, dtype=np.int64)
    for level in range(tree.depth):
        bit = (leaves >> (tree.depth - 1 - level)) & 1
        z = np.einsum("ij,ij->i", Xr, tree.node_w[node]) + tree.node_b[node]
        out += log_sigmoid(np.where(bit == 1, z, -z))
        node = 2 * node + 1 + bit
    return out


def sample_batch(tree, Xr, rng):
    """``tree.sample_batch`` as a level loop that goes right where
    u < sigma(z), with the same uniforms in the same order."""
    Xr = tree._walk_rows(Xr)
    n = Xr.shape[0]
    node = np.zeros(n, dtype=np.int64)
    for _ in range(tree.depth):
        z = np.einsum("ij,ij->i", Xr, tree.node_w[node]) + tree.node_b[node]
        go_right = rng.random(n) < sigmoid(z)
        node = 2 * node + 1 + go_right
    return tree.leaf_label[node - (tree.padded_size - 1)]


# --- the training steps ----------------------------------------------------


def softmax_loss_and_grad(scores, y: int):
    """Full softmax loss and its gradient over all C scores.

    loss = -xi_y + logsumexp(xi); d loss / d xi_c = softmax(xi)_c - 1[c=y].
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size > SOFTMAX_LABEL_GUARD:
        raise DataError(f"softmax over {scores.size} labels exceeds the guard")
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite scores in softmax loss")
    m = scores.max()
    exps = np.exp(scores - m)
    total = exps.sum()
    loss = -scores[y] + m + np.log(total)
    grad = exps / total
    grad[y] -= 1.0
    return float(loss), grad


def pair_loss_and_grad(xi, labs, lp, lam: float):
    """Negative-sampling loss of one step and its gradient over the scores.

    ``xi[0]`` scores the positive label ``labs[0]``, ``xi[1:]`` the sampled
    negatives: loss = softplus(-xi_0) + sum_j softplus(xi_j), plus
    lam * (xi + log p_n)^2 on every entry when lam > 0, with ``lp`` the
    log p_n of each label. A label drawn more than once takes the summed
    gradient in each of its rows, so its rows all write the same update.
    """
    s = xi.copy()
    s[0] = -s[0]
    terms = np.logaddexp(0.0, s)
    g = 1.0 / (1.0 + np.exp(-s))
    g[0] = -g[0]
    if lam > 0:
        resid = xi + lp
        terms += lam * resid * resid
        g += 2.0 * lam * resid
    return float(terms.sum()), (labs[:, None] == labs) @ g


def adagrad_step(param, accum, cells, value, grad, rho: float, eps: float) -> None:
    """Adagrad on ``param[cells]``, whose current values are ``value``:
    accum += grad^2; param -= rho * grad / (sqrt(accum) + eps). A cell listed
    more than once must carry the same gradient each time."""
    acc = accum[cells] + grad * grad
    accum[cells] = acc
    param[cells] = value - rho * grad / (np.sqrt(acc) + eps)


def steps(run, t0: int, t1: int):
    """Steps t0..t1-1 of the current epoch of ``run`` (a ``training._Run``)
    in numpy. Returns the loss sum and -1, or the sum so far and the first
    step whose scores or loss are not finite (its update not applied)."""
    W, B, AW, AB = run.W, run.B, run.AW, run.AB
    lam = run.lam
    loss_sum = 0.0
    # every label; a slice keeps W[:, idx] a cheap gather for large C
    labs = rows = slice(None)
    for t in range(t0, t1):
        i = run.order[t]
        lo, hi = run.indptr[i], run.indptr[i + 1]
        idx = run.indices[lo:hi]
        vals = run.data[lo:hi]
        if not run.softmax:
            labs = run.step_labels[:, t]
            rows = labs[:, None]
        cells = (rows, idx)
        w, b = W[cells], B[labs]
        xi = w @ vals + b
        if not np.all(np.isfinite(xi)):
            return loss_sum, t
        if run.softmax:
            loss, g = softmax_loss_and_grad(xi, run.labels[i])
        else:
            loss, g = pair_loss_and_grad(xi, labs, run.step_lp[:, t] if lam > 0 else None, lam)
        gw, gb = g[:, None] * vals, g
        if run.softmax and lam > 0:
            # parameter L2 on the touched coordinates
            gw = gw + 2.0 * lam * w
            gb = gb + 2.0 * lam * b
            loss += lam * float((w**2).sum() + (b**2).sum())
        if not math.isfinite(loss):
            return loss_sum, t
        adagrad_step(W, AW, cells, w, gw, run.rho, ADAGRAD_EPSILON)
        adagrad_step(B, AB, labs, b, gb, run.rho, ADAGRAD_EPSILON)
        loss_sum += loss
    return loss_sum, -1


def train(dataset, config, model, noise=None, val_dataset=None):
    """``training.train`` with its steps run by ``steps``."""
    with mock.patch.object(training, "_steps", lambda lib, run, t0, t1: steps(run, t0, t1)):
        return training.train(dataset, config, model, noise, val_dataset)
