"""The optimal-SNR theory on explicit probability tables.

Everything here operates on explicit conditional probability tables over a
small grid of contexts X and labels Y, where the scores are free
parameters (one per (x, y) cell). At the optimum the scores equal
log(p_data / p_noise); there the expected-loss Hessian is diagonal with
entries alpha_{x,y} = p_noise(y|x) * sigma(xi*_{x,y}), the stochastic
gradient covariance is block diagonal with blocks
C_x = N diag(alpha) - 2 N alpha alpha^T, and the scalar signal-to-noise
ratio is eta = 1 / Tr[Cov H^-1] = 1 / (N sum_x (|Y| - 2 sum_y alpha)).

The covariance blocks, eta's trace form and the Monte-Carlo and
reparameterization cross-checks are test oracles (``tests/snr_oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aux_tree import sigmoid
from .errors import DataError, NumericError

ROW_SUM_TOL = 1e-12


def _check_table(table, name):
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise DataError(f"{name} must be a 2-d table")
    if np.any(table <= 0):
        raise DataError(f"{name} must be strictly positive")
    if np.any(np.abs(table.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise DataError(f"rows of {name} must sum to 1 within {ROW_SUM_TOL}")
    return table


@dataclass
class NonparametricProblem:
    """Explicit p_data and p_noise tables over |X| contexts and |Y| labels."""

    p_data: np.ndarray  # (|X|, |Y|)
    p_noise: np.ndarray  # (|X|, |Y|)
    n_scale: int = 1  # dataset-size factor N

    def __post_init__(self):
        self.p_data = _check_table(self.p_data, "p_data")
        self.p_noise = _check_table(self.p_noise, "p_noise")
        if self.p_data.shape != self.p_noise.shape:
            raise DataError("p_data and p_noise shapes differ")
        if self.n_scale < 1:
            raise DataError("n_scale must be a positive integer")


def optimal_scores(problem: NonparametricProblem) -> np.ndarray:
    """xi*_{x,y} = log p_data(y|x) - log p_noise(y|x)."""
    return np.log(problem.p_data) - np.log(problem.p_noise)


def hessian_alpha(problem: NonparametricProblem) -> np.ndarray:
    """Diagonal Hessian entries alpha = p_noise * sigma(xi*) at the optimal scores."""
    return problem.p_noise * sigmoid(optimal_scores(problem))


def _eta(alpha, n_scale):
    """Per-context sums of alpha and the closed-form eta over the last two
    axes of ``alpha``: 1 / (N sum_x (|Y| - 2 sum_y alpha))."""
    if np.any(alpha <= 0):
        raise NumericError("singular Hessian: some alpha entries vanish")
    sums = alpha.sum(axis=-1)
    return sums, 1.0 / (n_scale * (alpha.shape[-1] - 2.0 * sums).sum(axis=-1))


@dataclass
class SnrReport:
    alpha: np.ndarray  # (|X|, |Y|)
    sum_alpha: np.ndarray  # (|X|,)
    eta_bar: float
    n_scale: int

    def to_dict(self):
        return {
            "eta_bar": self.eta_bar,
            "n_scale": self.n_scale,
            "sum_alpha": self.sum_alpha.tolist(),
            "alpha": self.alpha.tolist(),
        }


def snr(problem: NonparametricProblem) -> SnrReport:
    """Scalar SNR eta of one problem, in closed form."""
    alpha = hessian_alpha(problem)
    sums, eta = _eta(alpha, problem.n_scale)
    return SnrReport(alpha=alpha, sum_alpha=sums, eta_bar=float(eta),
                     n_scale=problem.n_scale)


def random_noise_tables(num_contexts: int, num_labels: int, count: int, rng,
                        concentration: float = 1.0) -> np.ndarray:
    """(count, |X|, |Y|) strictly positive candidate noise tables (Dirichlet rows)."""
    tables = rng.dirichlet(np.full(num_labels, concentration),
                           size=(count, num_contexts))
    tables = np.clip(tables, 1e-12, None)
    tables /= tables.sum(axis=-1, keepdims=True)
    return tables


def snr_sweep(p_data, candidates, n_scale: int = 1) -> list[float]:
    """eta for each of a (count, |X|, |Y|) stack of candidate noise tables
    against a fixed p_data, checked and swept as one problem of count * |X| rows."""
    p_data = _check_table(p_data, "p_data")
    try:
        stack = np.asarray(candidates, dtype=np.float64)
    except ValueError as exc:  # tables of different shapes
        raise DataError("p_data and p_noise shapes differ") from exc
    if stack.ndim != 3 or len(stack) == 0:
        raise DataError("candidates must be a non-empty stack of 2-d tables")
    rows = NonparametricProblem(np.tile(p_data, (len(stack), 1)),
                                stack.reshape(-1, stack.shape[-1]), n_scale)
    return _eta(hessian_alpha(rows).reshape(stack.shape), n_scale)[1].tolist()
