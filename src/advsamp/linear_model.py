"""Per-label affine classifier: parameters, Adagrad accumulators, storage.

Scores are xi_y(x) = x . w_y + b_y. Training (``advsamp.training``) updates
only the labels and feature coordinates involved in one step, so the
per-step cost of negative sampling is independent of the number of labels.
"""

from __future__ import annotations

import numpy as np

from .data_io import _open_npz
from .errors import DataError

MODEL_MAGIC = "advsamp-model-v1"


class LinearClassifier:
    """Dense per-label weights/biases plus Adagrad accumulators."""

    def __init__(self, num_labels: int, num_features: int):
        self.num_labels = int(num_labels)
        self.num_features = int(num_features)
        self.weights = np.zeros((num_labels, num_features))
        self.biases = np.zeros(num_labels)
        self.accum_w = np.zeros((num_labels, num_features))
        self.accum_b = np.zeros(num_labels)

    def save(self, path) -> None:
        """Weights and biases; the Adagrad accumulators are not stored."""
        np.savez(path, magic=MODEL_MAGIC, shape=np.array([self.num_labels, self.num_features]),
                 weights=self.weights, biases=self.biases)

    @classmethod
    def load(cls, path) -> "LinearClassifier":
        with _open_npz(path, MODEL_MAGIC, ("shape", "weights", "biases")) as z:
            shape = z["shape"]
            if shape.shape != (2,) or shape.min() < 0:
                raise DataError(f"bad model shape record {shape}")
            model = cls(*(int(v) for v in shape))
            for name in ("weights", "biases"):
                arr, want = z[name], getattr(model, name).shape
                if arr.shape != want:
                    raise DataError(f"model {name} has shape {arr.shape}, want {want}")
                # kept without a copy where it can be: training updates the
                # parameters in place, through the kernel too
                setattr(model, name, np.ascontiguousarray(arr, dtype=np.float64))
            return model
