"""Noise distributions for negative sampling.

Three variants behind one batch contract:

- ``prepare(features)`` maps a dataset's CSR arrays (a ``SparseDataset``,
  or any CSR matrix ``data_io.CsrRows`` takes) once to the dense (n, k)
  context the noise conditions on;
- ``sample_batch(Z, rng)`` draws one label per row of a prepared context;
- ``log_prob_matrix(Z, out=None)`` gives the (n, C) log probabilities of
  every label, or adds them in place into a C-contiguous float64 ``out``
  and returns it;
- ``log_prob_pairs(Z, ys)`` gives the (n,) log probabilities of label
  ``ys[i]`` at row i.

The variants are uniform over labels, unconditional empirical label
frequencies (with optional add-s smoothing), and adversarial: conditional
on features through a fitted auxiliary tree on PCA-projected features.
Unconditional noise prepares an (n, 0) context, so gathering rows of any
prepared context (``Z[order]``) is cheap.
"""

from __future__ import annotations

import numpy as np

from .aux_tree import AuxiliaryTree
from .data_io import PcaProjection, apply_pca_matrix, label_array
from .errors import DataError

# ~ log of the smallest positive double; used as a finite floor when
# unsmoothed frequencies hit a zero count
LOG_PROB_FLOOR = -745.0


def _check_out(out, Z, num_labels):
    if out.shape != (Z.shape[0], num_labels):
        raise DataError(f"log_prob_matrix adds into an array of shape {out.shape}, "
                        f"want {(Z.shape[0], num_labels)}")


class UniformNoise:
    def __init__(self, num_labels: int):
        if num_labels < 1:
            raise DataError("need at least one label")
        self.num_labels = int(num_labels)

    def prepare(self, features) -> np.ndarray:
        return np.empty((features.shape[0], 0))

    def sample_batch(self, Z, rng) -> np.ndarray:
        return rng.integers(self.num_labels, size=Z.shape[0])

    def log_prob_matrix(self, Z, out=None) -> np.ndarray:
        if out is None:
            return np.full((Z.shape[0], self.num_labels), -np.log(self.num_labels))
        _check_out(out, Z, self.num_labels)
        out += -np.log(self.num_labels)
        return out

    def log_prob_pairs(self, Z, ys) -> np.ndarray:
        return np.full(len(label_array(ys, self.num_labels)), -np.log(self.num_labels))


class FrequencyNoise:
    """Unconditional noise proportional to (smoothed) label counts."""

    def __init__(self, label_counts, smoothing: float = 1.0):
        counts = np.asarray(label_counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size < 1 or np.any(counts < 0):
            raise DataError("label_counts must be a nonnegative 1-d array")
        if not 0 <= smoothing < np.inf:
            raise DataError("smoothing must be finite and nonnegative")
        self.num_labels = counts.size
        total = counts.sum() + smoothing * counts.size
        if total <= 0:
            raise DataError("all counts zero and no smoothing")
        self.probs = (counts + smoothing) / total
        with np.errstate(divide="ignore"):
            self.log_probs = np.maximum(np.log(self.probs), LOG_PROB_FLOOR)

    def prepare(self, features) -> np.ndarray:
        return np.empty((features.shape[0], 0))

    def sample_batch(self, Z, rng) -> np.ndarray:
        return rng.choice(self.num_labels, size=Z.shape[0], p=self.probs)

    def log_prob_matrix(self, Z, out=None) -> np.ndarray:
        if out is None:
            return np.broadcast_to(self.log_probs, (Z.shape[0], self.num_labels)).copy()
        _check_out(out, Z, self.num_labels)
        out += self.log_probs
        return out

    def log_prob_pairs(self, Z, ys) -> np.ndarray:
        return self.log_probs[label_array(ys, self.num_labels)]


class AdversarialNoise:
    """Conditional noise from an auxiliary tree on PCA-reduced features."""

    def __init__(self, tree: AuxiliaryTree, projection: PcaProjection):
        if tree.reduced_dim != projection.k:
            raise DataError("tree and projection dimensions disagree")
        self.tree = tree
        self.projection = projection
        self.num_labels = tree.num_labels

    def prepare(self, features) -> np.ndarray:
        return apply_pca_matrix(self.projection, features)

    def sample_batch(self, Z, rng) -> np.ndarray:
        return self.tree.sample_batch(Z, rng)

    def log_prob_matrix(self, Z, out=None) -> np.ndarray:
        return self.tree.log_prob_all(Z, out=out)

    def log_prob_pairs(self, Z, ys) -> np.ndarray:
        return self.tree.log_prob_pairs(Z, ys)


def make_noise(kind: str, *, num_labels=None, label_counts=None, smoothing=1.0,
               tree=None, projection=None):
    if kind == "uniform":
        if num_labels is None:
            raise DataError("uniform noise needs num_labels")
        return UniformNoise(num_labels)
    if kind == "frequency":
        if label_counts is None:
            raise DataError("frequency noise needs label_counts")
        return FrequencyNoise(label_counts, smoothing)
    if kind == "adversarial":
        if tree is None or projection is None:
            raise DataError("adversarial noise needs a fitted tree and projection")
        return AdversarialNoise(tree, projection)
    raise DataError(f"unknown noise kind {kind!r}")
