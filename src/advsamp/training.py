"""The Adagrad training loop, whose steps run in the compiled kernel
(``advsamp.kernel``), and its learning curve.

Methods, each with its loss and exact gradient:

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
import ctypes
import time
from dataclasses import dataclass, field

import numpy as np

from . import inference, kernel
from .data_io import SparseDataset
from .errors import DataError, NumericError
from .inference import PredictionConfig, check_compatible, evaluate, noise_log_probs
from .linear_model import LinearClassifier

SOFTMAX_LABEL_GUARD = 100_000
ADAGRAD_EPSILON = 1e-8  # keeps rho * g / (sqrt(accum) + eps) finite where accum is 0

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
    log_every: int = 10_000
    eval_at_log: bool = False  # validation metrics on every fine-grained row

    def __post_init__(self):
        if self.method not in ("softmax_full", "neg_sampling"):
            raise DataError(f"unknown training method {self.method!r}")
        if self.epochs < 0:
            raise DataError("epochs must be nonnegative")
        if self.negatives_per_positive < 1:
            raise DataError("negatives_per_positive must be positive")
        if self.log_every < 0:
            raise DataError("log_every must be nonnegative")
        if not (0 < self.learning_rate < np.inf and 0 <= self.regularizer < np.inf):
            raise DataError("learning_rate must be finite and positive, regularizer finite "
                            "and nonnegative")


@dataclass
class TrainResult:
    model: LinearClassifier
    metrics: list = field(default_factory=list)  # dicts with METRIC_COLUMNS keys
    steps_per_s: float = 0.0  # steps over the time spent in the step loop

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
    """() -> (val_log_lik, val_acc) of the model as it stands. The validation
    rows' noise log-probabilities and, when they are dense enough for the
    dense product, their dense features are the same at every call, so each
    is computed once here when its (n, C) or (n, K) table fits the
    evaluation budget; above it, every call streams them block by block."""
    if val_dataset is None:
        return lambda: ("", "")
    cfg = PredictionConfig(bias_removal=config.bias_removal_at_eval and noise is not None)
    (n, K), C = val_dataset.shape, val_dataset.num_labels
    if cfg.bias_removal and n * C * 8 <= inference.EVAL_BLOCK_BYTES:
        cfg.noise_log_probs = noise_log_probs(noise, val_dataset)
    if inference.is_dense(val_dataset.nnz, n, K) and n * K * 8 <= inference.EVAL_BLOCK_BYTES:
        cfg.dense_features = val_dataset.dense()

    def metrics():
        report = evaluate(model, noise, val_dataset, cfg)
        return report.log_likelihood, report.accuracy

    return metrics


class _Run:
    """What the steps of one training run read and write. The driver sets
    the epoch's ``order`` and, for negative sampling, ``step_labels`` (row 0
    each step's positive label, rows 1..m its negatives) and ``step_lp``
    (their log p_n, None when lam == 0) before it calls the steps."""

    def __init__(self, dataset, config, model):
        # the compiled steps index W and AW with these unchecked: the
        # dataset checked them when it was built
        self.indptr, self.indices, self.data = dataset.indptr, dataset.indices, dataset.data
        self.labels = dataset.labels
        # the steps write these in place, so they are never copied
        self.W, self.B = model.weights, model.biases
        self.AW, self.AB = model.accum_w, model.accum_b
        C, K = dataset.num_labels, dataset.num_features
        for arr, shape in ((self.W, (C, K)), (self.B, (C,)), (self.AW, (C, K)), (self.AB, (C,))):
            if not (arr.shape == shape and arr.dtype == np.float64
                    and arr.flags.c_contiguous and arr.flags.writeable):
                raise DataError(f"model parameters and accumulators must be writeable "
                                f"C-contiguous float64 arrays of shape {shape}")
        self.softmax = config.method == "softmax_full"
        self.rho, self.lam = config.learning_rate, config.regularizer
        self.order = self.step_labels = self.step_lp = None


def _steps(lib, run: _Run, t0: int, t1: int):
    """Steps t0..t1-1 of the current epoch in the compiled kernel ``lib``.
    Returns the loss sum and -1, or the sum so far and the first step whose
    scores or loss are not finite (its update not applied)."""
    def ptr(a):
        return None if a is None else a.ctypes.data

    loss = ctypes.c_double()
    common = (ptr(run.indptr), ptr(run.indices), ptr(run.data), ptr(run.order))
    params = (ptr(run.W), ptr(run.B), ptr(run.AW), ptr(run.AB))
    if run.softmax:
        C, K = run.W.shape
        scratch = np.empty(C)
        bad = lib.advsamp_softmax_steps(*common, ptr(run.labels), t0, t1, *params, C, K,
                                        run.rho, run.lam, ADAGRAD_EPSILON, ptr(scratch),
                                        ctypes.addressof(loss))
    else:
        m1, n = run.step_labels.shape
        scratch = np.empty((2, m1))
        first = np.empty(m1, dtype=np.int64)
        bad = lib.advsamp_neg_steps(*common, ptr(run.step_labels), ptr(run.step_lp),
                                    n, m1, t0, t1, *params, run.W.shape[1],
                                    run.rho, run.lam, ADAGRAD_EPSILON, ptr(scratch[0]),
                                    ptr(scratch[1]), ptr(first), ctypes.addressof(loss))
    return loss.value, bad


def train(dataset: SparseDataset, config: TrainConfig, model: LinearClassifier,
          noise=None, val_dataset: SparseDataset | None = None) -> TrainResult:
    """Seeded, deterministic single-threaded epoch loop with Adagrad.

    A step scores the labels it touches -- the positive and its m sampled
    negatives for ``neg_sampling``, all C labels for ``softmax_full`` -- on
    the nonzero features of one example, takes the method's loss and score
    gradient, and updates those cells and biases by Adagrad. The steps
    between two learning-curve rows run as one call of the compiled kernel
    (``advsamp.kernel``).
    """
    softmax = config.method == "softmax_full"
    if softmax and noise is not None:
        raise DataError("softmax_full does not take a noise model")
    if not softmax and noise is None:
        raise DataError("neg_sampling requires a noise model")
    if softmax and dataset.num_labels > SOFTMAX_LABEL_GUARD:
        raise DataError("label set too large for full softmax training")
    check_compatible(model, noise, dataset)
    run = _Run(dataset, config, model)
    lib = kernel.load()
    rng = np.random.default_rng(config.seed)
    n, C = dataset.num_examples, dataset.num_labels
    if not softmax:
        Z = noise.prepare(dataset)

    curve = _LearningCurve(config, _val_metrics(model, noise, val_dataset, config))
    done = 0
    loss_acc = 0.0
    step_s = 0.0
    log_every = config.log_every

    for epoch in range(1, config.epochs + 1):
        run.order = rng.permutation(n)
        if not softmax:
            Zo = Z[run.order]
            run.step_labels = np.ascontiguousarray(np.vstack([run.labels[run.order]] + [
                noise.sample_batch(Zo, rng) for _ in range(config.negatives_per_positive)
            ]), dtype=np.int64)
            if run.step_labels.min() < 0 or run.step_labels.max() >= C:
                raise DataError("noise drew a label outside [0, C)")
            if run.lam > 0:
                run.step_lp = np.ascontiguousarray(np.stack(
                    [noise.log_prob_pairs(Zo, ys) for ys in run.step_labels]), dtype=np.float64)
                if run.step_lp.shape != run.step_labels.shape:
                    raise DataError("noise log-probabilities do not match its draws")
        t = 0
        while t < n:
            t1 = n if not log_every else min(n, t + log_every - done % log_every)
            start = time.perf_counter()
            loss, bad = _steps(lib, run, t, t1)
            step_s += time.perf_counter() - start
            if bad >= 0:
                raise NumericError(f"non-finite score or loss at epoch {epoch} step {bad}: "
                                   f"y={run.labels[run.order[bad]]}")
            loss_acc += loss
            done += t1 - t
            t = t1
            if log_every and done % log_every == 0:
                curve.log(epoch, done, loss_acc)
                loss_acc = 0.0
        curve.log(epoch, done, loss_acc, epoch_end=True)
        loss_acc = 0.0
    return TrainResult(model, curve.rows, steps_per_s=done / step_s if step_s > 0 else 0.0)
