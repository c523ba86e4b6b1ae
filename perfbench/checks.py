"""Output checks and the traced run's reference figures.

The checks read a finished run directory with the package's loaders and
redo the arithmetic in plain numpy, so a fast path in the package is never
trusted on its own. Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

NORMALIZE_ROWS = 200
NORMALIZE_TOL = 1e-9
RECOMPUTE_TOL = 1e-9
NEAR_TIE = 1e-9


def _log_sigmoid(z):
    return -np.logaddexp(0.0, -z)


def _projected(out: Path, features):
    from advsamp.data_io import load_pca

    proj = load_pca(out / "pca.npz")
    return np.asarray(features @ proj.components.T - proj.mean @ proj.components.T)


def tree_log_probs(tree, Xr) -> np.ndarray:
    """(n, C) log p_tree(y | x): walk each label's root-to-leaf path."""
    Z = Xr @ tree.node_w.T + tree.node_b
    leaves = tree.label_leaf
    node = np.zeros_like(leaves)
    out = np.zeros((Xr.shape[0], tree.num_labels))
    for level in range(tree.depth):
        bit = (leaves >> (tree.depth - 1 - level)) & 1
        out += _log_sigmoid(np.where(bit == 1, 1.0, -1.0) * Z[:, node])
        node = 2 * node + 1 + bit
    return out


def _load(out: Path):
    from advsamp.aux_tree import AuxiliaryTree
    from advsamp.data_io import load_dataset
    from advsamp.linear_model import LinearClassifier

    test = load_dataset(out / "test.npz")
    model = LinearClassifier.load(out / "model.npz")
    tree = AuxiliaryTree.load(out / "tree.npz") if (out / "tree.npz").exists() else None
    return test, model, tree


def run_checks(out: Path, accuracy_floor: float) -> list[tuple[str, bool, str]]:
    report = json.loads((out / "eval.json").read_text())
    acc, ll, n = report["accuracy"], report["log_likelihood"], report["n_points"]
    results = [("eval_finite_above_floor",
                math.isfinite(acc) and math.isfinite(ll) and n > 0 and acc >= accuracy_floor,
                f"accuracy={acc} log_lik={ll} n={n} floor={accuracy_floor}")]

    test, model, tree = _load(out)
    scores = np.asarray(test.features @ model.weights.T) + model.biases
    if tree is not None:
        Xr = _projected(out, test.features)
        scores = scores + tree_log_probs(tree, Xr)
        lse = logsumexp(tree.log_prob_all(Xr[:NORMALIZE_ROWS]), axis=1)
        err = float(np.max(np.abs(lse)))
        results.append(("tree_log_prob_all_normalizes", err < NORMALIZE_TOL,
                         f"max |logsumexp| = {err:.3g}"))
    top2 = np.sort(scores, axis=1)[:, -2:]
    near_ties = int(np.sum(top2[:, 1] - top2[:, 0] < NEAR_TIE))
    my_acc = float(np.mean(np.argmax(scores, axis=1) == test.labels))
    my_ll = float(np.mean(scores[np.arange(test.num_examples), test.labels]
                          - logsumexp(scores, axis=1)))
    ok = (test.num_examples == n
          and abs(my_acc - acc) * n <= near_ties
          and abs(my_ll - ll) <= RECOMPUTE_TOL * max(1.0, abs(ll)))
    results.append(("eval_recomputed", ok,
                    f"accuracy {my_acc} vs {acc} ({near_ties} near ties), "
                    f"log_lik {my_ll} vs {ll}"))

    if (out / "sweep.csv").exists():
        margin = eta_margin(out)
        results.append(("eta_margin_nonnegative", margin >= 0, f"eta_margin={margin}"))
    return results


def eta_margin(out: Path) -> float:
    """Matched eta-bar minus the best eta-bar of the swept noise tables."""
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    matched = float(rows[0]["eta_bar"])
    return matched - max(float(r["eta_bar"]) for r in rows[1:])


def eig_rel_err(out: Path, k: int) -> float:
    """Largest relative error of the saved PCA eigenvalues against scipy eigsh
    on the same centred training covariance."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    from advsamp.data_io import load_dataset, load_pca

    X = load_dataset(out / "train.npz").features
    n, K = X.shape
    mean = np.asarray(X.mean(axis=0)).ravel()
    cov = LinearOperator((K, K), dtype=np.float64,
                         matvec=lambda v: X.T @ (X @ v) / n - mean * (mean @ v))
    ref = np.sort(eigsh(cov, k=k, which="LA", return_eigenvectors=False))[::-1]
    got = np.sort(load_pca(out / "pca.npz").eigenvalues)[::-1]
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))


def tree_ll_gain(out: Path, smoothing: float = 1.0) -> float:
    """Mean log p_tree(y|x) minus log p_freq(y) over the test rows, in nats."""
    from advsamp.data_io import load_dataset

    test, _, tree = _load(out)
    counts = np.bincount(load_dataset(out / "train.npz").labels, minlength=tree.num_labels)
    log_freq = np.log((counts + smoothing) / (counts.sum() + smoothing * counts.size))
    lp = tree_log_probs(tree, _projected(out, test.features))
    rows = np.arange(test.num_examples)
    return float(np.mean(lp[rows, test.labels] - log_freq[test.labels]))
