"""Whole-matrix evaluation, the oracle for the streamed ``inference.evaluate``.

It builds the dense (n, C) scores of every row at once, adds the full
(n, C) noise log-probability table under bias removal, and reads accuracy
and the softmax log likelihood off them.
"""

import numpy as np
from scipy.special import logsumexp


def score_matrix(model, noise, dataset, bias_removal):
    """(n, C) scores of every row; with bias removal, plus log p_n(y|x)."""
    scores = np.asarray(dataset.features @ model.weights.T) + model.biases
    if bias_removal and noise is not None:
        scores += noise.log_prob_matrix(noise.prepare(dataset.features))
    return scores


def dense_evaluate(model, noise, dataset, bias_removal):
    """(accuracy, mean log likelihood) from the whole score matrix."""
    scores = score_matrix(model, noise, dataset, bias_removal)
    rows = np.arange(dataset.num_examples)
    accuracy = float(np.mean(np.argmax(scores, axis=1) == dataset.labels))
    log_lik = float(np.mean(scores[rows, dataset.labels] - logsumexp(scores, axis=1)))
    return accuracy, log_lik
