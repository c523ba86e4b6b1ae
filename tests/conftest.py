import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from advsamp.data_io import SparseDataset

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """Import ``scripts/<name>.py`` by path; the scripts are not a package."""
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csr_row(dense):
    """One-row CSR feature matrix holding ``dense``."""
    return sp.csr_matrix(np.atleast_2d(np.asarray(dense, dtype=np.float64)))


def dataset_from_dense(X, labels, num_labels=None):
    labels = np.asarray(labels, dtype=np.int64)
    if num_labels is None:
        num_labels = int(labels.max()) + 1
    return SparseDataset(sp.csr_matrix(np.asarray(X, dtype=np.float64)),
                         labels, num_labels)


def one_hot_contexts(num_contexts: int, num_labels: int, n: int, seed: int,
                     concentration: float = 1.0, min_prob: float = 0.02):
    """Dataset of one-hot feature vectors with labels drawn from a fixed
    random conditional table; returns (dataset, p_data).

    Examples are spread evenly over contexts so every conditional is well
    sampled. ``min_prob`` floors the conditionals to keep all scores finite.
    """
    rng = np.random.default_rng(seed)
    p_data = rng.dirichlet(np.full(num_labels, concentration), size=num_contexts)
    p_data = np.clip(p_data, min_prob, None)
    p_data /= p_data.sum(axis=1, keepdims=True)

    contexts = np.arange(n) % num_contexts
    labels = np.empty(n, dtype=np.int64)
    for c in range(num_contexts):
        rows = np.flatnonzero(contexts == c)
        labels[rows] = rng.choice(num_labels, size=rows.size, p=p_data[c])
    features = sp.csr_matrix(
        (np.ones(n), (np.arange(n), contexts)), shape=(n, num_contexts)
    )
    return SparseDataset(features, labels, num_labels), p_data


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class CountingRng:
    """Generator stand-in that counts the uniforms drawn through ``random``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.uniforms = 0

    def random(self, size=None):
        out = self._rng.random(size)
        self.uniforms += np.size(out)
        return out
