"""Bias-corrected prediction and evaluation metrics.

The trained negative-sampling scores xi_y(x) are biased by the noise
distribution; adding log p_n(y|x) recovers softmax-equivalent scores up to
a y-independent constant, which cancels in rankings and in the softmax
readout. ``bias_removal=False`` gives the NCE-style readout that uses the
raw scores.

Evaluation streams over blocks of rows, so its memory is bounded by
``EVAL_BLOCK_BYTES`` rather than by n x C.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data_io import SparseDataset
from .errors import DataError
from .linear_model import LinearClassifier

# bytes one evaluation may hold in its copy of the weights and one block's
# (rows, C) float64 tables; the blocks keep at least half of it, however
# large the copy
EVAL_BLOCK_BYTES = 16 * 2**20
# how many such tables a block holds at its peak: its scores and, inside the
# tree's log_prob_all, the node logits and their log sigma tails, each
# (rows, Cp - 1) with Cp - 1 < 2C nodes
BLOCK_TABLES = 5
# a block with at least this share of nonzero features is multiplied as a
# dense array: at 10% the dense product was 1.6-4.4x faster than scipy's CSR
# one on blocks of 264-1,365 rows, K = 32-5,000 and C = 256-1,024, and at
# 2% 1.2-2.1x slower
DENSE_MIN_DENSITY = 0.1


@dataclass
class PredictionConfig:
    bias_removal: bool = True
    # the dataset's (n, C) noise log-probabilities and its (n, K) dense
    # features, when the caller already holds them (``train`` validates the
    # same rows many times); None computes them block by block
    noise_log_probs: np.ndarray | None = None
    dense_features: np.ndarray | None = None


@dataclass
class EvalReport:
    accuracy: float
    log_likelihood: float  # mean predictive log likelihood per point, nats
    n_points: int
    wall_clock_s: float

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "log_likelihood": self.log_likelihood,
            "n_points": self.n_points,
            "wall_clock_s": self.wall_clock_s,
        }


def block_rows(num_labels: int, reserved: int = 0) -> int:
    """Rows per evaluation block: at least one, else as many as the budget
    fits once ``reserved`` bytes of it are taken."""
    return max(1, (EVAL_BLOCK_BYTES - reserved) // (BLOCK_TABLES * 8 * num_labels))


def is_dense(nnz: int, rows: int, cols: int) -> bool:
    """Whether a (rows, cols) CSR block of nnz nonzeros has enough of them
    for the dense product."""
    return nnz >= DENSE_MIN_DENSITY * rows * cols


def noise_log_probs(noise, features) -> np.ndarray:
    """``noise.log_prob_matrix(noise.prepare(features))``, added block by
    block into one zeroed table so that only the (n, C) result outgrows the
    budget."""
    Z = noise.prepare(features)
    out = np.zeros((Z.shape[0], noise.num_labels))
    step = block_rows(noise.num_labels)
    for lo in range(0, Z.shape[0], step):
        noise.log_prob_matrix(Z[lo:lo + step], out=out[lo:lo + step])
    return out


def check_compatible(model: LinearClassifier, noise, dataset: SparseDataset) -> None:
    """DataError unless the model (and noise, if any) has the dataset's shape."""
    if (model.num_labels, model.num_features) != (dataset.num_labels, dataset.num_features):
        raise DataError(f"model has {model.num_labels} labels x {model.num_features} "
                        f"features, data {dataset.num_labels} x {dataset.num_features}")
    if noise is not None and noise.num_labels != dataset.num_labels:
        raise DataError(f"noise has {noise.num_labels} labels, data {dataset.num_labels}")


def evaluate(model: LinearClassifier, noise, dataset: SparseDataset,
             cfg: PredictionConfig) -> EvalReport:
    """Top-1 accuracy and mean predictive log likelihood (softmax readout).

    Each block of rows gets its dense scores (plus the noise
    log-probabilities, added in place, under bias removal), argmax and
    logsumexp; the per-row results are averaged once at the end. The
    (K, C) weights copy takes its bytes out of ``EVAL_BLOCK_BYTES``, but at
    most half of it, and the blocks are sized by ``block_rows`` in the rest,
    so the peak is at most max(budget, copy + budget / 2). A block at least
    ``DENSE_MIN_DENSITY`` full whose dense copy fits the rest beside its
    scores is multiplied as a dense array.
    """
    n, C = dataset.num_examples, model.num_labels
    if n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    check_compatible(model, noise, dataset)
    start = time.perf_counter()
    correct = cfg.bias_removal and noise is not None
    table = cfg.noise_log_probs if correct else None
    if table is not None and table.shape != (n, C):
        raise DataError(f"noise log-probabilities have shape {table.shape}, want {(n, C)}")
    dense = cfg.dense_features
    K = dataset.num_features
    if dense is not None and dense.shape != (n, K):
        raise DataError(f"dense features have shape {dense.shape}, want {(n, K)}")
    Z = noise.prepare(dataset) if correct and table is None else None
    # C-contiguous once, or every block's CSR product would copy it
    weights_t = np.ascontiguousarray(model.weights.T)
    # a copy larger than the budget would leave one-row blocks
    reserved = min(weights_t.nbytes, EVAL_BLOCK_BYTES // 2)
    budget = EVAL_BLOCK_BYTES - reserved
    hits = np.empty(n, dtype=bool)
    log_lik = np.empty(n)
    step = block_rows(C, reserved)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        labels = dataset.labels[lo:hi]
        if dense is not None:
            scores = dense[lo:hi] @ weights_t
        elif (is_dense(dataset.indptr[hi] - dataset.indptr[lo], hi - lo, K)
                and (hi - lo) * (K + C) * 8 <= budget):
            scores = dataset.dense(lo, hi) @ weights_t
        else:
            scores = dataset.matmul(weights_t, lo, hi)
        scores += model.biases
        if table is not None:
            scores += table[lo:hi]
        elif correct:
            noise.log_prob_matrix(Z[lo:hi], out=scores)
        # np.argmax returns the lowest index among ties, matching the tie-break
        hits[lo:hi] = np.argmax(scores, axis=1) == labels
        true_scores = scores[np.arange(hi - lo), labels]
        # logsumexp in place, as scores is not read again
        row_max = scores.max(axis=1)
        scores -= row_max[:, None]
        log_lik[lo:hi] = true_scores - (np.log(np.exp(scores, out=scores).sum(axis=1)) + row_max)
    return EvalReport(float(np.mean(hits)), float(np.mean(log_lik)), n,
                      time.perf_counter() - start)
