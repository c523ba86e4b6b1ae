import numpy as np
import pytest
import scipy.sparse as sp

from advsamp.data_io import SparseDataset


def csr_row(dense):
    """One-row CSR feature matrix holding ``dense``."""
    return sp.csr_matrix(np.atleast_2d(np.asarray(dense, dtype=np.float64)))


def dataset_from_dense(X, labels, num_labels=None):
    labels = np.asarray(labels, dtype=np.int64)
    if num_labels is None:
        num_labels = int(labels.max()) + 1
    return SparseDataset(sp.csr_matrix(np.asarray(X, dtype=np.float64)),
                         labels, num_labels)


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
