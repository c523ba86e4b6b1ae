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

    def save(self, path, include_accumulators: bool = False) -> None:
        payload = {
            "magic": MODEL_MAGIC,
            "shape": np.array([self.num_labels, self.num_features]),
            "weights": self.weights,
            "biases": self.biases,
        }
        if include_accumulators:
            payload["accum_w"] = self.accum_w
            payload["accum_b"] = self.accum_b
        np.savez(path, **payload)

    @classmethod
    def load(cls, path) -> "LinearClassifier":
        with _open_npz(path, MODEL_MAGIC, ("shape", "weights", "biases")) as z:
            shape = z["shape"]
            if shape.shape != (2,) or shape.min() < 0:
                raise DataError(f"bad model shape record {shape}")
            model = cls(*(int(v) for v in shape))
            names = ["weights", "biases"]
            if "accum_w" in z or "accum_b" in z:
                names += ["accum_w", "accum_b"]
            for name in names:
                if name not in z:
                    raise DataError(f"model file lacks {name}")
                # a mismatched array would otherwise broadcast into place
                arr, dest = z[name], getattr(model, name)
                if arr.shape != dest.shape:
                    raise DataError(f"model {name} has shape {arr.shape}, want {dest.shape}")
                dest[:] = arr
            return model
