r"""Dataset loading, multi-label reduction, splitting, and PCA projection.

The on-disk input format is the sparse text format used by the Extreme
Classification Repository: one example per line,

    label[,label...] idx:val idx:val ...

``load_svmlight`` reads an ASCII file as Python's own line-by-line reading
would. Lines end in ``\n``, ``\r\n`` or a lone ``\r``; runs of Python's
ASCII blanks (space, ``\t``, ``\v``, ``\f`` and ``\x1c``-``\x1f``) separate
tokens, and a blank line is skipped. Labels and indices are int64 integers
``[+-]digits``; values are decimal floats, where ``nan``, ``inf`` and
``infinity`` in any case are non-finite. The first token is the
comma-separated label field (empty entries skipped) unless it holds a colon
or the line starts with a space or a tab. A first line of exactly three
integers ``N K C`` is a header whose K is the feature count; without one,
K is the largest index plus one. Within a row indices strictly increase
from 0 or more, and K is at most ``MAX_FEATURES``. Anything else, a
non-ASCII byte or a ``_`` digit separator included, is a ParseError naming
the first bad line.

Cached datasets and PCA projections are stored as ``.npz`` files with a
magic string (see ``save_dataset`` / ``save_pca``).
"""

from __future__ import annotations

import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import kernel
from .errors import DataError, NumericError, ParseError

DATASET_MAGIC = "advsamp-dataset-v1"
PCA_MAGIC = "advsamp-pca-v1"

PCA_ZERO_TOL = 1e-12  # zero level, relative to the mean squared norm E|x|^2
# no float64 vector of more entries can be allocated
MAX_FEATURES = np.iinfo(np.intp).max // 8


class Csr(NamedTuple):
    """A CSR matrix as its arrays and shape, under scipy's attribute names:
    what a dataset is built from without a scipy matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple


class CsrRows:
    """The rows of a CSR feature matrix: C-contiguous int64 ``indptr`` and
    ``indices``, float64 ``data``, and ``num_features`` columns.

    ``features`` is any object with ``indptr``, ``indices``, ``data`` and
    ``shape``: a ``Csr``, another ``CsrRows`` or a scipy CSR matrix. Its
    arrays are checked here, once, and a DataError names the first fault:
    ``indptr`` starts at 0, never decreases and ends at nnz, and the column
    indices lie in [0, K) and strictly increase within each row. The
    compiled kernels index with them unchecked, and a repeated cell would be
    read once but written twice per training step.
    """

    def __init__(self, features):
        n, K = (int(v) for v in features.shape)
        indptr, indices, data = (np.ascontiguousarray(features.indptr, dtype=np.int64),
                                 np.ascontiguousarray(features.indices, dtype=np.int64),
                                 np.ascontiguousarray(features.data, dtype=np.float64))
        _check_csr(indptr, indices, data, n, K)
        self.indptr, self.indices, self.data, self.num_features = indptr, indices, data, K

    @property
    def num_examples(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple:
        return self.num_examples, self.num_features

    @property
    def nnz(self) -> int:
        return self.indices.size

    def take_rows(self, idx) -> Csr:
        """The rows ``idx`` (row numbers in [0, n)), in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_examples):
            raise DataError(f"row numbers must lie in [0, {self.num_examples})")
        starts, sizes = self.indptr[idx], self.indptr[idx + 1] - self.indptr[idx]
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        gather = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], sizes)
        return Csr(indptr, self.indices[gather], self.data[gather],
                   (idx.size, self.num_features))

    def dense(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows lo .. hi-1 as a dense (hi - lo, K) array."""
        hi = self.num_examples if hi is None else hi
        K, a, b = self.num_features, self.indptr[lo], self.indptr[hi]
        out = np.zeros((hi - lo, K))
        # each nonzero's place in the flattened block: its row's start plus its column
        flat = np.repeat(np.arange(hi - lo) * K, np.diff(self.indptr[lo:hi + 1]))
        flat += self.indices[a:b]
        out.ravel()[flat] = self.data[a:b]
        return out

    def matmul(self, b: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows lo .. hi-1 times the (K, k) matrix ``b``, a dense (hi - lo, k)
        array, bit for bit as scipy's CSR product gives it."""
        hi = self.num_examples if hi is None else hi
        b = np.ascontiguousarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != self.num_features or not 0 <= lo <= hi <= self.num_examples:
            raise DataError(f"cannot multiply rows {lo}:{hi} of a {self.shape} CSR matrix "
                            f"by a {b.shape} matrix")
        out = np.empty((hi - lo, b.shape[1]))
        kernel.load().advsamp_csr_matmat(
            self.indptr.ctypes.data, self.indices.ctypes.data, self.data.ctypes.data,
            lo, hi, b.ctypes.data, b.shape[1], out.ctypes.data)
        return out

    @property
    def features(self):
        """A scipy CSR matrix over these arrays, built on each access. scipy is
        imported here, so that the commands that never ask for it (all but
        ``preprocess``) do not load it."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def _check_csr(indptr, indices, data, n: int, K: int) -> None:
    """A DataError unless the arrays are an (n, K) CSR matrix whose column
    indices strictly increase within each row (see ``CsrRows``)."""
    if (min(n, K) < 0 or indptr.shape != (n + 1,) or indices.ndim != 1
            or data.shape != indices.shape
            or indptr[0] != 0 or indptr[-1] != indices.size
            or np.any(indptr[1:] < indptr[:-1])):
        raise DataError("features are not a valid CSR matrix: indptr must start at 0, "
                        "never decrease and end at the nonzero count")
    if indices.size and (indices.min() < 0 or indices.max() >= K):
        raise DataError(f"CSR column indices must lie in [0, {K})")
    # compared, not subtracted: a difference of int64 indices can wrap
    rising = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True  # across rows
    if not rising.all():
        raise DataError("CSR column indices must be sorted and distinct within each row")


class RawDataset(CsrRows):
    """Multi-label dataset as read from disk, before label reduction.

    Row i has the labels ``labels[label_ptr[i]:label_ptr[i + 1]]``, in file
    order, and the CSR feature row i, whose column indices strictly
    increase.
    """

    def __init__(self, features, labels: np.ndarray, label_ptr: np.ndarray):
        super().__init__(features)
        self.labels = labels  # int64
        self.label_ptr = label_ptr  # int64, (rows + 1,)

    @property
    def examples(self) -> range:
        """The row numbers. ``len(raw.examples)`` is the row count, which the
        benchmark's span tracer (``perfbench/spans.py``) reads."""
        return range(self.num_examples)


def label_array(ys, num_labels: int) -> np.ndarray:
    """``ys`` as int64 labels; a DataError when any lies outside [0, C)."""
    ys = np.asarray(ys, dtype=np.int64)
    if ys.size and (ys.min() < 0 or ys.max() >= num_labels):
        raise DataError(f"labels must lie in [0, {num_labels})")
    return ys


class SparseDataset(CsrRows):
    """Immutable single-label dataset: CSR feature rows and a label in
    [0, num_labels) per row."""

    def __init__(self, features, labels: np.ndarray, num_labels: int):
        super().__init__(features)
        labels = np.ascontiguousarray(label_array(labels, num_labels))
        if labels.shape != (self.num_examples,):
            raise DataError("feature/label count mismatch")
        self.labels = labels
        self.num_labels = int(num_labels)
        self.label_counts = np.bincount(labels, minlength=num_labels)

    @classmethod
    def from_dense(cls, X: np.ndarray, labels: np.ndarray, num_labels: int) -> SparseDataset:
        """The dataset of a dense (n, K) feature array, without its exact
        zeros (as scipy's conversion drops them)."""
        X = np.asarray(X, dtype=np.float64)
        nonzero = X != 0
        indptr = np.zeros(X.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
        return cls(Csr(indptr, np.nonzero(nonzero)[1], X[nonzero], X.shape), labels, num_labels)

    def rows(self, idx) -> SparseDataset:
        """The examples ``idx``, in that order."""
        return SparseDataset(self.take_rows(idx), self.labels[idx], self.num_labels)

    def __len__(self) -> int:
        return self.num_examples


# advsamp_parse_svmlight's error codes (see _kernel.c) and their messages;
# tok is the offending token, num (codes 8 and 9) the feature count it gives
_PARSE_ERRORS = {
    1: "non-ASCII byte {tok!a}",
    2: "bad label field {tok!r}",
    3: "bad feature token {tok!r}",
    4: "feature index out of int64 range in {tok!r}",
    5: "non-finite feature value in {tok!r}",
    6: "feature indices not strictly increasing",
    7: "negative feature index",
    8: "{num} features exceed the maximum " + str(MAX_FEATURES),
    9: "feature index exceeds header K={num}",
}


def load_svmlight(path, one_based: bool = False) -> RawDataset:
    """Load a sparse multi-label text file, in the module docstring's
    grammar, in one pass of the compiled kernel. ``one_based`` shifts
    feature indices down by one; an unreadable file is a DataError."""
    try:
        text = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lib = kernel.load()
    # upper bounds: a row per line, a label per comma or row, a feature per colon
    counts = np.empty(3, dtype=np.int64)
    lib.advsamp_count_svmlight(text, len(text), counts.ctypes.data)
    line_ends, commas, colons = counts.tolist()
    label_ptr = np.empty(line_ends + 2, dtype=np.int64)
    indptr = np.empty(line_ends + 2, dtype=np.int64)
    labels = np.empty(commas + line_ends + 1, dtype=np.int64)
    indices = np.empty(colons, dtype=np.int64)
    data = np.empty(colons)
    sizes = np.empty(4, dtype=np.int64)
    code = lib.advsamp_parse_svmlight(
        text, len(text), int(one_based), MAX_FEATURES,
        *(a.ctypes.data for a in (label_ptr, labels, indptr, indices, data, sizes)))
    if code:
        line, start, end, shift = sizes.tolist()
        tok = text[start:end].decode("latin-1")
        num = int(tok) + shift if code >= 8 else None
        raise ParseError(_PARSE_ERRORS[code].format(tok=tok, num=num), line or None)
    rows, nlab, nnz, num_features = sizes.tolist()
    features = Csr(indptr[:rows + 1], indices[:nnz], data[:nnz], (rows, num_features))
    return RawDataset(features, labels[:nlab], label_ptr[:rows + 1])


def reduce_multilabel(raw: RawDataset, policy: str = "smallest_id",
                      label_map: dict | None = None, return_map: bool = False,
                      num_features: int | None = None):
    """Reduce each example to a single label and re-index labels densely.

    ``policy`` is ``smallest_id`` or ``first_listed``. Examples without any
    label are dropped. Passing ``label_map`` (original id -> dense id, e.g.
    from a previous reduction of the training split) applies an existing
    indexing instead of building a fresh one; examples whose chosen label
    is unmapped are dropped. ``return_map`` additionally returns the map.
    """
    if policy not in ("smallest_id", "first_listed"):
        raise DataError(f"unknown multi-label policy {policy!r}")
    starts = raw.label_ptr[:-1]
    rows = np.flatnonzero(raw.label_ptr[1:] > starts)
    # a row's labels run from its start to the next labelled row's start
    chosen = (np.minimum.reduceat(raw.labels, starts[rows]) if policy == "smallest_id"
              else raw.labels[starts[rows]])
    if label_map is None:
        label_map = {lab: i for i, lab in enumerate(np.unique(chosen).tolist())}
    dense = np.array([label_map.get(lab, -1) for lab in chosen.tolist()], dtype=np.int64)
    rows, labels = rows[dense >= 0], dense[dense >= 0]
    if not rows.size:
        raise DataError("no examples with labels remain after reduction")
    num_labels = max(label_map.values()) + 1

    K = max(raw.num_features, num_features or 0)
    dataset = SparseDataset(raw.take_rows(rows)._replace(shape=(rows.size, K)), labels,
                            num_labels)
    return (dataset, label_map) if return_map else dataset


@dataclass(frozen=True)
class PcaProjection:
    """Top-k principal directions of the empirical feature covariance."""

    mean: np.ndarray  # (K,)
    components: np.ndarray  # (k, K), rows orthonormal
    eigenvalues: np.ndarray = field(default=None)  # (k,), nonincreasing

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def fit_pca(dataset: SparseDataset, k: int, seed=0) -> PcaProjection:
    """Top-k PCA by Lanczos iteration (ARPACK through scipy's ``eigsh``).

    The covariance is never formed densely; it is applied to vectors
    through the sparse feature matrix. The start vector is drawn from
    ``seed``, so a seed fixes the result bit for bit. Each component's
    largest-magnitude entry is positive. Rank-deficient data (rank < k) is
    completed with arbitrary orthonormal directions and a warning; a solve
    that does not converge is a NumericError.
    """
    # imported here, so that commands without PCA do not load scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    K = dataset.num_features
    n = dataset.num_examples
    if not 0 < k < K:
        raise DataError(f"require 0 < k < K, got k={k}, K={K}")
    if n < k:
        raise DataError(f"need at least k={k} examples, have {n}")

    X = dataset.features
    mean = np.asarray(X.mean(axis=0)).ravel()
    # eigenvalues at this level are roundoff of the implicit covariance
    # E[x x^T] - mean mean^T
    zero = PCA_ZERO_TOL * (X.data @ X.data) / n

    def cov(V):
        return X.T @ (X @ V) / n - np.multiply.outer(mean, mean @ V)

    op = LinearOperator((K, K), matvec=cov, matmat=cov, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(K)
    try:
        eigs, V = eigsh(op, k, which="LA", v0=v0)
    except ArpackNoConvergence as exc:
        raise NumericError(f"PCA did not converge: {exc}") from exc

    eigs, comps = eigs[::-1].copy(), np.ascontiguousarray(V[:, ::-1].T)
    comps *= np.sign(comps[np.arange(k), np.abs(comps).argmax(axis=1)])[:, None]
    rank = int(np.count_nonzero(eigs > zero))
    if rank < k:
        warnings.warn(
            f"data rank {rank} < k={k}; completing with arbitrary orthonormal directions"
        )
        eigs[rank:] = 0.0
    return PcaProjection(mean, comps, eigs)


def apply_pca_matrix(proj: PcaProjection, features) -> np.ndarray:
    """Project all rows of a dataset (or of any CSR matrix ``CsrRows``
    takes) at once; returns (n, k) dense."""
    if not isinstance(features, CsrRows):
        features = CsrRows(features)
    if features.num_features != proj.input_dim:
        raise DataError("dimension mismatch in batch projection")
    return features.matmul(proj.components.T) - proj.mean @ proj.components.T


def split(dataset: SparseDataset, validation_fraction: float, seed: int):
    """Deterministic disjoint train/validation split."""
    n = dataset.num_examples
    if n < 2:
        raise DataError("need at least 2 examples to split")
    if not 0.0 < validation_fraction < 1.0:
        raise DataError("validation_fraction must be in (0, 1)")
    n_val = int(round(n * validation_fraction))
    if n_val == 0 or n_val == n:
        raise DataError(f"fraction {validation_fraction} leaves an empty side for n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])

    return dataset.rows(train_idx), dataset.rows(val_idx)


def save_dataset(path, dataset: SparseDataset) -> None:
    np.savez(
        path,
        magic=DATASET_MAGIC,
        shape=np.array([dataset.num_examples, dataset.num_features, dataset.num_labels]),
        data=dataset.data,
        indices=dataset.indices,
        indptr=dataset.indptr,
        labels=dataset.labels,
    )


# what numpy raises for a file that is no .npz archive or a damaged member
_NPZ_ERRORS = (OSError, ValueError, EOFError, zipfile.BadZipFile)


@contextmanager
def _open_npz(path, kind: str, keys):
    """The open ``.npz`` cache at ``path``, once it is known to be a readable
    archive whose ``magic`` is ``kind`` and that holds ``keys``. Anything
    else, and an array that cannot be read, is a DataError. The file is
    closed on every way out, a rejected archive's too."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise DataError(f"{path} is not a readable .npz archive: {exc}") from exc
    with fh:
        try:
            z = np.load(fh, allow_pickle=False)
        except _NPZ_ERRORS as exc:
            raise DataError(f"{path} is not a readable .npz archive: {exc}") from exc
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not an .npz archive")
        with z:
            missing = [key for key in ("magic", *keys) if key not in z.files]
            if missing:
                raise DataError(f"{path} lacks {', '.join(missing)}")
            try:
                if str(z["magic"]) != kind:
                    raise DataError(f"{path} is not an {kind} file")
                yield z
            except _NPZ_ERRORS as exc:
                raise DataError(f"corrupt cache {path}: {exc}") from exc


def load_dataset(path) -> SparseDataset:
    """The cached dataset at ``path``, its CSR arrays checked as
    ``CsrRows`` checks them; a DataError names a corrupt cache."""
    with _open_npz(path, DATASET_MAGIC, ("shape", "data", "indices", "indptr", "labels")) as z:
        try:
            n, K, C = (int(v) for v in z["shape"])
            arrays = [z[key] for key in ("indptr", "indices", "data")]
            if not all(a.dtype.kind in kinds for a, kinds in zip(arrays, ("iu", "iu", "iuf"))):
                raise DataError("indptr and indices must be integer arrays, data numeric")
            return SparseDataset(Csr(*arrays, (n, K)), z["labels"], C)
        except (TypeError, ValueError, DataError) as exc:
            raise DataError(f"corrupt dataset cache {path}: {exc}") from exc


def save_pca(path, proj: PcaProjection) -> None:
    np.savez(
        path,
        magic=PCA_MAGIC,
        mean=proj.mean,
        components=proj.components,
        eigenvalues=proj.eigenvalues if proj.eigenvalues is not None else np.zeros(proj.k),
    )


def load_pca(path) -> PcaProjection:
    with _open_npz(path, PCA_MAGIC, ("mean", "components", "eigenvalues")) as z:
        return PcaProjection(z["mean"], z["components"], z["eigenvalues"])
