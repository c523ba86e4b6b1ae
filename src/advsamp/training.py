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
import ctypes
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernel
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
        if self.log_every < 0:
            raise DataError("log_every must be nonnegative")
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
    backend: str = "python"  # "c": the compiled step kernel; "python": the reference loop
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
    if val_dataset is None:
        return "", ""
    cfg = PredictionConfig(bias_removal=config.bias_removal_at_eval and noise is not None)
    report = evaluate(model, noise, val_dataset, cfg)
    return report.log_likelihood, report.accuracy


class _Run:
    """What the steps of one training run read and write. The driver sets
    the epoch's ``order`` and, for negative sampling, ``step_labels`` (row 0
    each step's positive label, rows 1..m its negatives) and ``step_lp``
    (their log p_n, None when lam == 0) before it calls the steps."""

    def __init__(self, dataset, config, model):
        X = dataset.features
        n, K = X.shape
        # int64 once per run: scipy may hold CSR indices as int32
        self.indptr = np.ascontiguousarray(X.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(X.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(X.data, dtype=np.float64)
        self.labels = np.ascontiguousarray(dataset.labels, dtype=np.int64)
        # the compiled steps index W and AW with these unchecked
        ptr, used = self.indptr, self.indices[:self.indptr[-1]]
        if (ptr.size != n + 1 or ptr[0] != 0 or np.any(np.diff(ptr) < 0)
                or used.size != ptr[-1] or self.data.size < ptr[-1]
                or (used.size and (used.min() < 0 or used.max() >= K))):
            raise DataError("feature matrix is not a valid CSR matrix")
        if not X.has_canonical_format:
            # a repeated cell would be read once but written twice per step
            raise DataError("feature rows need sorted, duplicate-free column indices")
        # the steps write these in place, so they are never copied
        self.W, self.B = model.weights, model.biases
        self.AW, self.AB = model.accum_w, model.accum_b
        C = dataset.num_labels
        for arr, shape in ((self.W, (C, K)), (self.B, (C,)), (self.AW, (C, K)), (self.AB, (C,))):
            if not (arr.shape == shape and arr.dtype == np.float64
                    and arr.flags.c_contiguous and arr.flags.writeable):
                raise DataError(f"model parameters and accumulators must be writeable "
                                f"C-contiguous float64 arrays of shape {shape}")
        self.softmax = config.method == "softmax_full"
        self.rho, self.lam, self.eps = (config.learning_rate, config.regularizer,
                                        config.adagrad_epsilon)
        self.order = self.step_labels = self.step_lp = None


def _steps_python(run: _Run, t0: int, t1: int):
    """Steps t0..t1-1 of the current epoch, the reference for the compiled
    kernel. Returns the loss sum and -1, or the sum so far and the first
    step whose scores or loss are not finite (its update not applied)."""
    W, B, AW, AB = run.W, run.B, run.AW, run.AB
    lam = run.lam
    loss_sum = 0.0
    # every label; a slice keeps W[:, idx] a cheap gather for large C
    labs = rows = slice(None)
    for t in range(t0, t1):
        i = run.order[t]
        lo, hi = run.indptr[i], run.indptr[i + 1]
        idx = run.indices[lo:hi]
        vals = run.data[lo:hi]
        if not run.softmax:
            labs = run.step_labels[:, t]
            rows = labs[:, None]
        cells = (rows, idx)
        w, b = W[cells], B[labs]
        xi = w @ vals + b
        if not np.all(np.isfinite(xi)):
            return loss_sum, t
        if run.softmax:
            loss, g = softmax_loss_and_grad(xi, run.labels[i])
        else:
            loss, g = pair_loss_and_grad(xi, labs, run.step_lp[:, t] if lam > 0 else None, lam)
        gw, gb = g[:, None] * vals, g
        if run.softmax and lam > 0:
            # parameter L2 on the touched coordinates
            gw = gw + 2.0 * lam * w
            gb = gb + 2.0 * lam * b
            loss += lam * float((w**2).sum() + (b**2).sum())
        if not math.isfinite(loss):
            return loss_sum, t
        adagrad_step(W, AW, cells, w, gw, run.rho, run.eps)
        adagrad_step(B, AB, labs, b, gb, run.rho, run.eps)
        loss_sum += loss
    return loss_sum, -1


def _steps_c(lib, run: _Run, t0: int, t1: int):
    """``_steps_python`` through the compiled kernel."""
    def ptr(a):
        return None if a is None else a.ctypes.data

    loss = ctypes.c_double()
    common = (ptr(run.indptr), ptr(run.indices), ptr(run.data), ptr(run.order))
    params = (ptr(run.W), ptr(run.B), ptr(run.AW), ptr(run.AB))
    if run.softmax:
        C, K = run.W.shape
        scratch = np.empty(C)
        bad = lib.advsamp_softmax_steps(*common, ptr(run.labels), t0, t1, *params, C, K,
                                        run.rho, run.lam, run.eps, ptr(scratch),
                                        ctypes.addressof(loss))
    else:
        m1, n = run.step_labels.shape
        scratch = np.empty((2, m1))
        first = np.empty(m1, dtype=np.int64)
        bad = lib.advsamp_neg_steps(*common, ptr(run.step_labels), ptr(run.step_lp),
                                    n, m1, t0, t1, *params, run.W.shape[1],
                                    run.rho, run.lam, run.eps, ptr(scratch[0]),
                                    ptr(scratch[1]), ptr(first), ctypes.addressof(loss))
    return loss.value, bad


def train(dataset: SparseDataset, config: TrainConfig, model: LinearClassifier,
          noise=None, val_dataset: SparseDataset | None = None) -> TrainResult:
    """Seeded, deterministic single-threaded epoch loop with Adagrad.

    A step scores the labels it touches -- the positive and its m sampled
    negatives for ``neg_sampling``, all C labels for ``softmax_full`` -- on
    the nonzero features of one example, takes the method's loss and score
    gradient, and updates those cells and biases by Adagrad. The steps
    between two learning-curve rows run as one call, of the compiled kernel
    when it can be built (``advsamp.kernel``) and of ``_steps_python``
    otherwise; ``TrainResult.backend`` says which ran.
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
    # one call runs the steps up to the next curve row
    steps = (functools.partial(_steps_python, run) if lib is None
             else functools.partial(_steps_c, lib, run))
    rng = np.random.default_rng(config.seed)
    n, C = dataset.num_examples, dataset.num_labels
    if not softmax:
        Z = noise.prepare(dataset.features)

    curve = _LearningCurve(config, lambda: _val_metrics(model, noise, val_dataset, config))
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
            loss, bad = steps(t, t1)
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
    return TrainResult(model, curve.rows, backend="python" if lib is None else "c",
                       steps_per_s=done / step_s if step_s > 0 else 0.0)
