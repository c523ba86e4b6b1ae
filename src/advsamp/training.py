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

from .data_io import SparseDataset
from .errors import DataError, NumericError
from .inference import PredictionConfig, check_compatible, evaluate
from .linear_model import LinearClassifier

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
        if self.learning_rate <= 0 or self.adagrad_epsilon <= 0 or self.regularizer < 0:
            raise DataError("learning_rate and adagrad_epsilon must be positive, "
                            "regularizer nonnegative")


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


def pair_loss_and_grad(xi, labs, lp, lam: float):
    """Negative-sampling loss of one step and its gradient over the scores.

    ``xi[0]`` scores the positive label ``labs[0]``, ``xi[1:]`` the sampled
    negatives: loss = softplus(-xi_0) + sum_j softplus(xi_j), plus
    lam * (xi + log p_n)^2 on every entry when lam > 0, with ``lp`` the
    log p_n of each label. A label drawn more than once takes the summed
    gradient in each of its rows, so its rows all write the same update.
    """
    s = xi.copy()
    s[0] = -s[0]
    terms = np.logaddexp(0.0, s)
    g = 1.0 / (1.0 + np.exp(-s))
    g[0] = -g[0]
    if lam > 0:
        resid = xi + lp
        terms += lam * resid * resid
        g += 2.0 * lam * resid
    return float(terms.sum()), (labs[:, None] == labs) @ g


def adagrad_step(param, accum, cells, value, grad, rho: float, eps: float) -> None:
    """Adagrad on ``param[cells]``, whose current values are ``value``:
    accum += grad^2; param -= rho * grad / (sqrt(accum) + eps). A cell listed
    more than once must carry the same gradient each time."""
    acc = accum[cells] + grad * grad
    accum[cells] = acc
    param[cells] = value - rho * grad / (np.sqrt(acc) + eps)


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


def train(dataset: SparseDataset, config: TrainConfig, model: LinearClassifier,
          noise=None, val_dataset: SparseDataset | None = None) -> TrainResult:
    """Seeded, deterministic single-threaded epoch loop with Adagrad.

    A step scores the labels it touches -- the positive and its m sampled
    negatives for ``neg_sampling``, all C labels for ``softmax_full`` -- on
    the nonzero features of one example, takes the method's loss and score
    gradient, and updates those cells and biases by Adagrad.
    """
    softmax = config.method == "softmax_full"
    if softmax and noise is not None:
        raise DataError("softmax_full does not take a noise model")
    if not softmax and noise is None:
        raise DataError("neg_sampling requires a noise model")
    if softmax and dataset.num_labels > SOFTMAX_LABEL_GUARD:
        raise DataError("label set too large for full softmax training")
    check_compatible(model, noise, dataset)
    rng = np.random.default_rng(config.seed)
    X = dataset.features
    indptr, indices, data = X.indptr, X.indices, X.data
    labels = dataset.labels
    n = dataset.num_examples
    W, B = model.weights, model.biases
    AW, AB = model.accum_w, model.accum_b
    rho, lam, eps = config.learning_rate, config.regularizer, config.adagrad_epsilon
    if softmax:
        # every label; a slice keeps W[:, idx] a cheap gather for large C
        labs = rows = slice(None)
    else:
        Z = noise.prepare(X)

    curve = _LearningCurve(config, lambda: _val_metrics(model, noise, val_dataset, config))
    steps = 0
    loss_acc = 0.0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        if not softmax:
            Zo = Z[order]
            # row 0 holds each step's positive label, rows 1..m its negatives
            step_labels = np.vstack([labels[order]] + [
                noise.sample_batch(Zo, rng) for _ in range(config.negatives_per_positive)
            ])
            if lam > 0:
                step_lp = np.stack([noise.log_prob_pairs(Zo, ys) for ys in step_labels])

        for t in range(n):
            i = order[t]
            lo, hi = indptr[i], indptr[i + 1]
            idx = indices[lo:hi]
            vals = data[lo:hi]
            if not softmax:
                labs = step_labels[:, t]
                rows = labs[:, None]
            cells = (rows, idx)
            w, b = W[cells], B[labs]
            xi = w @ vals + b
            if softmax:
                loss, g = softmax_loss_and_grad(xi, labels[i])
            else:
                loss, g = pair_loss_and_grad(xi, labs, step_lp[:, t] if lam > 0 else None, lam)
            gw, gb = g[:, None] * vals, g
            if softmax and lam > 0:
                # parameter L2 on the touched coordinates
                gw = gw + 2.0 * lam * w
                gb = gb + 2.0 * lam * b
                loss += lam * float((w**2).sum() + (b**2).sum())
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch} step {t}: y={labels[i]}")
            adagrad_step(W, AW, cells, w, gw, rho, eps)
            adagrad_step(B, AB, labs, b, gb, rho, eps)

            loss_acc += loss
            steps += 1
            if config.log_every and steps % config.log_every == 0:
                curve.log(epoch, steps, loss_acc)
                loss_acc = 0.0
        curve.log(epoch, steps, loss_acc, epoch_end=True)
        loss_acc = 0.0
    return TrainResult(model, curve.rows)
