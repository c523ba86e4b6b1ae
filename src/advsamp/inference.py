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

# bytes one evaluation block may hold in (rows, C) float64 tables
EVAL_BLOCK_BYTES = 16 * 2**20
# how many such tables a block holds at its peak: its scores and, inside the
# tree's log_prob_all, level sums and temporaries over 2^depth < 2C leaves
BLOCK_TABLES = 6


@dataclass
class PredictionConfig:
    bias_removal: bool = True
    # the dataset's (n, C) noise log-probabilities when the caller already
    # holds them (``train`` validates the same rows many times); None
    # computes them block by block
    noise_log_probs: np.ndarray | None = None


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


def block_rows(num_labels: int) -> int:
    """Rows per evaluation block: at least one, else as many as the budget fits."""
    return max(1, EVAL_BLOCK_BYTES // (BLOCK_TABLES * 8 * num_labels))


def noise_log_probs(noise, features) -> np.ndarray:
    """``noise.log_prob_matrix(noise.prepare(features))``, filled block by
    block so that only the (n, C) result outgrows the budget."""
    Z = noise.prepare(features)
    out = np.empty((Z.shape[0], noise.num_labels))
    step = block_rows(noise.num_labels)
    for lo in range(0, Z.shape[0], step):
        out[lo:lo + step] = noise.log_prob_matrix(Z[lo:lo + step])
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

    Each block of ``block_rows(C)`` rows gets its dense scores (plus the
    noise log-probabilities under bias removal), argmax and logsumexp; the
    per-row results are averaged once at the end.
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
    Z = noise.prepare(dataset.features) if correct and table is None else None
    # C-contiguous once, or every block's product would copy it
    weights_t = np.ascontiguousarray(model.weights.T)
    hits = np.empty(n, dtype=bool)
    log_lik = np.empty(n)
    step = block_rows(C)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        labels = dataset.labels[lo:hi]
        scores = np.asarray(dataset.features[lo:hi] @ weights_t)
        scores += model.biases
        if correct:
            scores += table[lo:hi] if table is not None else noise.log_prob_matrix(Z[lo:hi])
        # np.argmax returns the lowest index among ties, matching the tie-break
        hits[lo:hi] = np.argmax(scores, axis=1) == labels
        true_scores = scores[np.arange(hi - lo), labels]
        # logsumexp in place, as scores is not read again
        row_max = scores.max(axis=1)
        scores -= row_max[:, None]
        log_lik[lo:hi] = true_scores - (np.log(np.exp(scores, out=scores).sum(axis=1)) + row_max)
    return EvalReport(float(np.mean(hits)), float(np.mean(log_lik)), n,
                      time.perf_counter() - start)
