"""Dataset loading, multi-label reduction, splitting, and PCA projection.

The on-disk input format is the sparse text format used by the Extreme
Classification Repository: one example per line,

    label[,label...] idx:val idx:val ...

An optional first line of exactly three integers ``N K C`` is treated as a
header. Cached datasets and PCA projections are stored as ``.npz`` files
with a magic string (see ``save_dataset`` / ``save_pca``).
"""

from __future__ import annotations

import math
import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import kernel
from .errors import DataError, NumericError, ParseError

DATASET_MAGIC = "advsamp-dataset-v1"
PCA_MAGIC = "advsamp-pca-v1"

PCA_ZERO_TOL = 1e-12  # zero level, relative to the mean squared norm E|x|^2
# no float64 vector of more entries can be allocated
MAX_FEATURES = np.iinfo(np.intp).max // 8


@dataclass
class RawDataset:
    """Multi-label dataset as read from disk, before label reduction.

    Row i has the labels ``labels[label_ptr[i]:label_ptr[i + 1]]``, in file
    order, and the features ``features[i]``, whose column indices strictly
    increase. ``backend`` names the reader that parsed the file: "c" for
    the compiled one, "python" for the line-by-line one.
    """

    features: sp.csr_matrix
    labels: np.ndarray  # int64
    label_ptr: np.ndarray  # int64, (rows + 1,)
    backend: str

    @property
    def num_examples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

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


class SparseDataset:
    """Immutable single-label dataset backed by a CSR feature matrix."""

    def __init__(self, features: sp.csr_matrix, labels: np.ndarray, num_labels: int):
        features = features.tocsr()
        labels = label_array(labels, num_labels)
        if features.shape[0] != labels.shape[0]:
            raise DataError("feature/label count mismatch")
        self.features = features
        self.labels = labels
        self.num_labels = int(num_labels)
        self.label_counts = np.bincount(labels, minlength=num_labels)

    @property
    def num_examples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.num_examples


def _parse_header(line: str) -> tuple[int, int, int] | None:
    toks = line.split()
    if len(toks) != 3:
        return None
    try:
        n, k, c = (int(t) for t in toks)
    except ValueError:
        return None
    return n, k, c


def load_svmlight(path, one_based: bool = False) -> RawDataset:
    """Load a sparse multi-label text file.

    ``one_based`` shifts feature indices down by one. K is taken from a
    three-integer ``N K C`` header if present, otherwise inferred as
    max index + 1. A malformed line, a non-finite value, an index outside
    int64 or a K above ``MAX_FEATURES`` is a ParseError naming the line.

    The compiled reader in ``advsamp.kernel`` parses the file when it keeps
    to its strict ASCII grammar; every other file, including every
    malformed one, is read by ``_load_svmlight_python``, so both give the
    same result and the same errors.
    """
    offset = 1 if one_based else 0
    raw = _load_svmlight_c(kernel.load(), path, offset)
    return raw if raw is not None else _load_svmlight_python(path, offset)


def _load_svmlight_c(lib, path, offset: int) -> RawDataset | None:
    """The file read by the compiled reader, or None when it declines it."""
    text = Path(path).read_bytes()
    # upper bounds, which the parser checks: a row per line, a label per
    # comma or row, a feature per colon
    counts = np.empty(3, dtype=np.int64)
    lib.advsamp_count_svmlight(text, len(text), counts.ctypes.data)
    newlines, commas, colons = counts.tolist()
    max_rows = newlines + 1
    max_labels = commas + max_rows
    max_nnz = colons
    label_ptr = np.empty(max_rows + 1, dtype=np.int64)
    indptr = np.empty(max_rows + 1, dtype=np.int64)
    labels = np.empty(max_labels, dtype=np.int64)
    indices = np.empty(max_nnz, dtype=np.int64)
    data = np.empty(max_nnz)
    sizes = np.empty(4, dtype=np.int64)
    stopped = lib.advsamp_parse_svmlight(
        text, len(text), offset, max_rows, max_labels, max_nnz,
        *(a.ctypes.data for a in (label_ptr, labels, indptr, indices, data, sizes)))
    if stopped >= 0:
        return None
    rows, nlab, nnz, num_features = sizes.tolist()
    if num_features > MAX_FEATURES:
        return None
    features = sp.csr_matrix((data[:nnz], indices[:nnz], indptr[:rows + 1]),
                             shape=(rows, num_features))
    return RawDataset(features, labels[:nlab], label_ptr[:rows + 1], "c")


def _check_feature_count(num_features: int, lineno: int) -> None:
    if num_features > MAX_FEATURES:
        raise ParseError(f"{num_features} features exceed the maximum {MAX_FEATURES}", lineno)


def _load_svmlight_python(path, offset: int) -> RawDataset:
    """The line-by-line reader: the reference for the compiled one, and the
    reader of every file that one declines."""
    labels, label_ptr = [np.empty(0, dtype=np.int64)], [0]
    indices, values, indptr = [np.empty(0, dtype=np.int64)], [np.empty(0)], [0]
    num_features = 0
    header_k = None

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if lineno == 1 and ":" not in stripped and "," not in stripped:
                header = _parse_header(stripped)
                if header is not None:
                    header_k = header[1]
                    _check_feature_count(header_k, lineno)
                    continue
            # A leading feature token means the label field is empty.
            leading_ws = line[0] in " \t"
            toks = stripped.split()
            if leading_ws or ":" in toks[0]:
                label_toks, feat_toks = [], toks
            else:
                label_toks, feat_toks = toks[0].split(","), toks[1:]
            try:
                labs = np.array([int(t) for t in label_toks if t != ""], dtype=np.int64)
            except (ValueError, OverflowError):
                raise ParseError(f"bad label field {toks[0]!r}", lineno)
            idx = np.empty(len(feat_toks), dtype=np.int64)
            val = np.empty(len(feat_toks))
            for j, tok in enumerate(feat_toks):
                head, sep, tail = tok.partition(":")
                if not sep:
                    raise ParseError(f"bad feature token {tok!r}", lineno)
                try:
                    idx[j] = int(head) - offset
                    val[j] = float(tail)
                except ValueError:
                    raise ParseError(f"bad feature token {tok!r}", lineno)
                except OverflowError:
                    raise ParseError(f"feature index out of int64 range in {tok!r}", lineno)
                if not math.isfinite(val[j]):
                    raise ParseError(f"non-finite feature value in {tok!r}", lineno)
            if idx.size:
                if np.any(np.diff(idx) <= 0):
                    raise ParseError("feature indices not strictly increasing", lineno)
                if idx[0] < 0:
                    raise ParseError("negative feature index", lineno)
                num_features = max(num_features, int(idx[-1]) + 1)
                _check_feature_count(num_features, lineno)
            labels.append(labs)
            label_ptr.append(label_ptr[-1] + labs.size)
            indices.append(idx)
            values.append(val)
            indptr.append(indptr[-1] + idx.size)

    if header_k is not None:
        if num_features > header_k:
            raise ParseError(f"feature index exceeds header K={header_k}")
        num_features = header_k
    features = sp.csr_matrix(
        (np.concatenate(values), np.concatenate(indices), np.array(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, num_features))
    return RawDataset(features, np.concatenate(labels), np.array(label_ptr, dtype=np.int64),
                      "python")


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
    kept = raw.features[rows]
    mat = sp.csr_matrix((kept.data, kept.indices, kept.indptr), shape=(rows.size, K))
    dataset = SparseDataset(mat, labels, num_labels)
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


def apply_pca_matrix(proj: PcaProjection, features: sp.csr_matrix) -> np.ndarray:
    """Project all rows of a CSR matrix at once; returns (n, k) dense."""
    if features.shape[1] != proj.input_dim:
        raise DataError("dimension mismatch in batch projection")
    return np.asarray((features @ proj.components.T) - proj.mean @ proj.components.T)


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

    def subset(idx):
        return SparseDataset(dataset.features[idx], dataset.labels[idx], dataset.num_labels)

    return subset(train_idx), subset(val_idx)


def save_dataset(path, dataset: SparseDataset) -> None:
    np.savez(
        path,
        magic=DATASET_MAGIC,
        shape=np.array([dataset.num_examples, dataset.num_features, dataset.num_labels]),
        data=dataset.features.data,
        indices=dataset.features.indices,
        indptr=dataset.features.indptr,
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
    with _open_npz(path, DATASET_MAGIC, ("shape", "data", "indices", "indptr", "labels")) as z:
        labels = z["labels"]
        # a column index >= K or a decreasing indptr would otherwise reach
        # the sparse kernels unchecked
        try:
            n, K, C = (int(v) for v in z["shape"])
            mat = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(n, K))
            mat.check_format(full_check=True)
        except (TypeError, ValueError) as exc:
            raise DataError(f"corrupt dataset cache {path}: {exc}") from exc
        if not mat.has_canonical_format:
            # the parser writes sorted, duplicate-free rows; training relies on it
            raise DataError(f"corrupt dataset cache {path}: unsorted or repeated "
                            "column indices within a row")
        if labels.shape != (n,):
            raise DataError(f"labels have shape {labels.shape}, want ({n},)")
        return SparseDataset(mat, labels, C)


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
