"""Loss functions, exact gradients, and the Adagrad training loop.

Methods:

- ``softmax_full``: the exact multinomial loss, O(C K) per step.
- ``neg_sampling``: binary discrimination of one positive against
  ``negatives_per_positive`` noise-drawn labels, O(K) per step, with an
  optional score regularizer pulling xi_y towards -log p_n(y|x).

Gradients are taken with respect to the scores; the chain rule through
the affine score turns a score gradient g into a weight gradient g*x on
the sparse support of x and a bias gradient g.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .aux_tree import log_sigmoid, sigmoid
from .data_io import SparseDataset, SparseVector
from .errors import DataError, NumericError
from .inference import PredictionConfig, evaluate
from .linear_model import LinearClassifier
from .noise import AdversarialNoise, NoiseModel

SOFTMAX_LABEL_GUARD = 100_000

METRIC_COLUMNS = ("epoch", "steps", "wall_clock_s", "train_loss", "val_log_lik", "val_acc")


@dataclass
class TrainConfig:
    method: str  # softmax_full | neg_sampling
    learning_rate: float
    regularizer: float = 0.0
    epochs: int = 1
    seed: int = 0
    negatives_per_positive: int = 1
    bias_removal_at_eval: bool = True
    adagrad_epsilon: float = 1e-8
    log_every: int = 10_000
    eval_at_log: bool = False  # validation metrics on every fine-grained row

    def __post_init__(self):
        if self.method not in ("softmax_full", "neg_sampling"):
            raise DataError(f"unknown training method {self.method!r}")
        if self.epochs < 0:
            raise DataError("epochs must be nonnegative")
        if self.negatives_per_positive < 1:
            raise DataError("negatives_per_positive must be positive")
        if self.learning_rate <= 0 or self.regularizer < 0:
            raise DataError("learning_rate must be positive, regularizer nonnegative")


def softmax_loss_and_grad(scores, y: int):
    """Full softmax loss and its gradient over all C scores.

    loss = -xi_y + logsumexp(xi); d loss / d xi_c = softmax(xi)_c - 1[c=y].
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size > SOFTMAX_LABEL_GUARD:
        raise DataError(f"softmax over {scores.size} labels exceeds the guard")
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite scores in softmax loss")
    m = scores.max()
    exps = np.exp(scores - m)
    total = exps.sum()
    loss = -scores[y] + m + np.log(total)
    grad = exps / total
    grad[y] -= 1.0
    return float(loss), grad


def neg_sampling_loss_and_grad(model: LinearClassifier, x: SparseVector, y: int,
                               y_neg: int):
    """Pair loss -log sigma(xi_y) - log sigma(-xi_{y'}) and its score
    gradients, returned as {label: d loss / d xi_label}.

    When y_neg == y, both contributions accumulate on the one label.
    """
    xi_y = model.score(x, y)
    xi_n = model.score(x, y_neg)
    loss = float(-log_sigmoid(xi_y) - log_sigmoid(-xi_n))
    grads = {y: float(-sigmoid(-xi_y))}
    grads[y_neg] = grads.get(y_neg, 0.0) + float(sigmoid(xi_n))
    return loss, grads


def regularized_loss_and_grad(model: LinearClassifier, x: SparseVector, y: int,
                              y_neg: int, noise: NoiseModel, lam: float):
    """Pair loss plus lam*(xi + log p_n)^2 on both touched labels."""
    loss, grads = neg_sampling_loss_and_grad(model, x, y, y_neg)
    if lam == 0.0:
        return loss, grads
    for label in {y, y_neg}:
        lp = noise.log_prob(x, label)
        if not np.isfinite(lp):
            raise NumericError(f"non-finite noise log-prob for label {label}")
        mult = 2 if label == y == y_neg else 1
        resid = model.score(x, label) + lp
        loss += mult * lam * resid * resid
        grads[label] += mult * 2.0 * lam * resid
    return loss, grads


@dataclass
class TrainResult:
    model: LinearClassifier
    metrics: list = field(default_factory=list)  # dicts with METRIC_COLUMNS keys

    def write_metrics_csv(self, path, wall_clock_offset_s: float = 0.0) -> None:
        """CSV learning curve; the offset shifts wall-clock (e.g. by the
        auxiliary-model fitting time)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRIC_COLUMNS)
            for row in self.metrics:
                shifted = dict(row)
                shifted["wall_clock_s"] = row["wall_clock_s"] + wall_clock_offset_s
                writer.writerow([shifted[c] for c in METRIC_COLUMNS])


def _draw_negatives(dataset, order, noise, rng, m, projected):
    """(m, N) negative labels for the shuffled epoch, drawn vectorized."""
    if projected is not None:
        return np.stack([noise.tree.sample_batch(projected[order], rng) for _ in range(m)])
    feats = dataset.features[order]
    return np.stack([noise.sample_batch(feats, rng) for _ in range(m)])


def train(dataset: SparseDataset, config: TrainConfig, model: LinearClassifier,
          noise: NoiseModel | None = None, val_dataset: SparseDataset | None = None) -> TrainResult:
    """Seeded, deterministic single-threaded epoch loop with Adagrad."""
    if config.method == "softmax_full":
        if noise is not None:
            raise DataError("softmax_full does not take a noise model")
        return _train_softmax(dataset, config, model, val_dataset)
    if noise is None:
        raise DataError("neg_sampling requires a noise model")
    return _train_neg_sampling(dataset, config, model, noise, val_dataset)


class _LearningCurve:
    """Metric rows of one training run; ``train_loss`` is the mean loss of
    the steps since the previous row."""

    def __init__(self, config: TrainConfig, val_metrics):
        self.eval_at_log = config.eval_at_log
        self.val_metrics = val_metrics  # () -> (val_log_lik, val_acc)
        self.rows = []
        self.start = time.perf_counter()

    def log(self, epoch, steps, loss_sum, epoch_end=False):
        """Append a row; at an epoch end, validation metrics are always
        taken, and an epoch end that falls on a fine-grained row fills that
        row in instead of adding one with no steps behind it."""
        last = self.rows[-1] if self.rows else None
        if epoch_end and last is not None and last["epoch"] == epoch and last["steps"] == steps:
            if last["val_acc"] == "":
                last["val_log_lik"], last["val_acc"] = self.val_metrics()
            return
        if self.eval_at_log or epoch_end:
            vll, vacc = self.val_metrics()
        else:
            vll, vacc = "", ""
        done = last["steps"] if last is not None else 0
        self.rows.append({
            "epoch": epoch, "steps": steps,
            "wall_clock_s": time.perf_counter() - self.start,
            "train_loss": loss_sum / max(steps - done, 1),
            "val_log_lik": vll, "val_acc": vacc,
        })


def _val_metrics(model, noise, val_dataset, config):
    if val_dataset is None:
        return "", ""
    cfg = PredictionConfig(bias_removal=config.bias_removal_at_eval and noise is not None)
    report = evaluate(model, noise, val_dataset, cfg)
    return report.log_likelihood, report.accuracy


def _train_neg_sampling(dataset, config, model, noise, val_dataset):
    rng = np.random.default_rng(config.seed)
    X = dataset.features
    indptr, indices, data = X.indptr, X.indices, X.data
    labels = dataset.labels
    n = dataset.num_examples
    W, B = model.weights, model.biases
    AW, AB = model.accum_w, model.accum_b
    rho, lam, eps = config.learning_rate, config.regularizer, config.adagrad_epsilon
    m = config.negatives_per_positive
    sign = np.ones(m + 1)
    sign[0] = -1.0

    projected = None
    if isinstance(noise, AdversarialNoise):
        from .data_io import apply_pca_matrix

        projected = apply_pca_matrix(noise.projection, X)

    curve = _LearningCurve(config, lambda: _val_metrics(model, noise, val_dataset, config))
    steps = 0
    loss_acc = 0.0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        negs = _draw_negatives(dataset, order, noise, rng, m, projected)
        if lam > 0:
            if projected is not None:
                lp_pos = noise.tree.log_prob_pairs(projected[order], labels[order])
                lp_neg = np.stack([
                    noise.tree.log_prob_pairs(projected[order], negs[j]) for j in range(m)
                ])
            else:
                feats = X[order]
                lp_pos = noise.log_prob_pairs(feats, labels[order])
                lp_neg = np.stack([noise.log_prob_pairs(feats, negs[j]) for j in range(m)])

        # row 0 is the positive label, rows 1..m the negatives of each step
        step_labels = np.vstack([labels[order], negs])
        if lam > 0:
            step_lp = np.vstack([lp_pos, lp_neg])

        for t in range(n):
            i = order[t]
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            vals = data[lo:hi]
            labs = step_labels[:, t]
            cells = (labs[:, None], idx)
            w, b = W[cells], B[labs]

            xi = w @ vals + b
            # softplus(-xi) and -sigma(-xi) for the positive, softplus(xi)
            # and sigma(xi) for the negatives
            s = sign * xi
            terms = np.logaddexp(0.0, s)
            g = sign / (1.0 + np.exp(-s))
            if lam > 0:
                resid = xi + step_lp[:, t]
                terms += lam * resid * resid
                g += 2.0 * lam * resid
            loss = float(terms.sum())
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} step {t}: y={labs[0]}, xi_y={xi[0]}"
                )
            # a label drawn more than once takes the summed gradient, so its
            # repeated rows below all write the same values
            g = (labs[:, None] == labs) @ g
            gw = g[:, None] * vals
            aw = AW[cells] + gw * gw
            ab = AB[labs] + g * g
            AW[cells] = aw
            AB[labs] = ab
            W[cells] = w - rho * gw / (np.sqrt(aw) + eps)
            B[labs] = b - rho * g / (np.sqrt(ab) + eps)

            loss_acc += loss
            steps += 1
            if config.log_every and steps % config.log_every == 0:
                curve.log(epoch, steps, loss_acc)
                loss_acc = 0.0
        curve.log(epoch, steps, loss_acc, epoch_end=True)
        loss_acc = 0.0
    return TrainResult(model, curve.rows)


def _train_softmax(dataset, config, model, val_dataset):
    if dataset.num_labels > SOFTMAX_LABEL_GUARD:
        raise DataError("label set too large for full softmax training")
    rng = np.random.default_rng(config.seed)
    X = dataset.features
    indptr, indices, data = X.indptr, X.indices, X.data
    labels = dataset.labels
    n = dataset.num_examples
    W, B = model.weights, model.biases
    AW, AB = model.accum_w, model.accum_b
    rho, lam, eps = config.learning_rate, config.regularizer, config.adagrad_epsilon

    curve = _LearningCurve(config, lambda: _val_metrics(model, None, val_dataset, config))
    steps = 0
    loss_acc = 0.0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for t in range(n):
            i = order[t]
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            vals = data[lo:hi]
            y = labels[i]
            scores = W[:, idx] @ vals + B
            loss, gscore = softmax_loss_and_grad(scores, y)
            gw = gscore[:, None] * vals[None, :]
            gb = gscore
            if lam > 0:
                # parameter L2 on the touched coordinates
                gw = gw + 2.0 * lam * W[:, idx]
                gb = gb + 2.0 * lam * B
                loss += lam * float((W[:, idx] ** 2).sum() + (B**2).sum())
            AW[:, idx] += gw * gw
            W[:, idx] -= rho * gw / (np.sqrt(AW[:, idx]) + eps)
            AB += gb * gb
            B -= rho * gb / (np.sqrt(AB) + eps)

            loss_acc += loss
            steps += 1
            if config.log_every and steps % config.log_every == 0:
                curve.log(epoch, steps, loss_acc)
                loss_acc = 0.0
        curve.log(epoch, steps, loss_acc, epoch_end=True)
        loss_acc = 0.0
    return TrainResult(model, curve.rows)
