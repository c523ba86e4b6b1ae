"""Bias-corrected prediction and evaluation metrics.

The trained negative-sampling scores xi_y(x) are biased by the noise
distribution; adding log p_n(y|x) recovers softmax-equivalent scores up to
a y-independent constant, which cancels in rankings and in the softmax
readout. ``bias_removal=False`` gives the NCE-style readout that uses the
raw scores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data_io import SparseDataset
from .errors import DataError
from .linear_model import LinearClassifier


@dataclass
class PredictionConfig:
    bias_removal: bool = True


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


def _score_matrix(model: LinearClassifier, noise, dataset: SparseDataset,
                  bias_removal: bool) -> np.ndarray:
    scores = np.asarray(dataset.features @ model.weights.T) + model.biases
    if bias_removal and noise is not None:
        scores += noise.log_prob_matrix(noise.prepare(dataset.features))
    return scores


def check_compatible(model: LinearClassifier, noise, dataset: SparseDataset) -> None:
    """DataError unless the model (and noise, if any) has the dataset's shape."""
    if (model.num_labels, model.num_features) != (dataset.num_labels, dataset.num_features):
        raise DataError(f"model has {model.num_labels} labels x {model.num_features} "
                        f"features, data {dataset.num_labels} x {dataset.num_features}")
    if noise is not None and noise.num_labels != dataset.num_labels:
        raise DataError(f"noise has {noise.num_labels} labels, data {dataset.num_labels}")


def evaluate(model: LinearClassifier, noise, dataset: SparseDataset,
             cfg: PredictionConfig) -> EvalReport:
    """Top-1 accuracy and mean predictive log likelihood (softmax readout)."""
    if dataset.num_examples == 0:
        raise DataError("cannot evaluate on an empty dataset")
    check_compatible(model, noise, dataset)
    start = time.perf_counter()
    scores = _score_matrix(model, noise, dataset, cfg.bias_removal)
    # np.argmax returns the lowest index among ties, matching the tie-break
    predictions = np.argmax(scores, axis=1)
    accuracy = float(np.mean(predictions == dataset.labels))
    true_scores = scores[np.arange(len(dataset)), dataset.labels]
    # logsumexp in place, as scores is not read again (no (n, C) temporaries)
    row_max = scores.max(axis=1)
    scores -= row_max[:, None]
    log_norm = np.log(np.exp(scores, out=scores).sum(axis=1)) + row_max
    log_lik = float(np.mean(true_scores - log_norm))
    return EvalReport(accuracy, log_lik, dataset.num_examples,
                      time.perf_counter() - start)
