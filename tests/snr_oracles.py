"""Reference forms of the SNR theory that tests compare ``advsamp.diagnostics``
against: the expected loss and its gradient, the gradient covariance blocks,
eta as a matrix trace, Monte-Carlo estimates of the gradient moments, and
eta's invariance under a linear reparameterization.
"""

from __future__ import annotations

import numpy as np

from advsamp.aux_tree import log_sigmoid, sigmoid
from advsamp.diagnostics import NonparametricProblem, hessian_alpha, optimal_scores
from advsamp.errors import DataError, NumericError

FORM_AGREEMENT_TOL = 1e-9  # trace form vs closed form of eta, relative


def expected_loss(problem: NonparametricProblem, scores) -> float:
    """Expected pair loss, summed over distinct contexts."""
    scores = np.asarray(scores, dtype=np.float64)
    return float(
        (-problem.p_data * log_sigmoid(scores)
         - problem.p_noise * log_sigmoid(-scores)).sum()
    )


def expected_gradient(problem: NonparametricProblem, scores) -> np.ndarray:
    """d expected_loss / d xi: -p_data sigma(-xi) + p_noise sigma(xi)."""
    scores = np.asarray(scores, dtype=np.float64)
    return -problem.p_data * sigmoid(-scores) + problem.p_noise * sigmoid(scores)


def noise_covariance(problem: NonparametricProblem) -> np.ndarray:
    """Per-context covariance blocks C_x = N diag(alpha) - 2 N a a^T; (|X|, |Y|, |Y|)."""
    alpha = hessian_alpha(problem)
    N = problem.n_scale
    X, Y = alpha.shape
    blocks = np.empty((X, Y, Y))
    for i, a in enumerate(alpha):
        blocks[i] = N * np.diag(a) - 2.0 * N * np.outer(a, a)
    return blocks


def eta_trace(problem: NonparametricProblem) -> float:
    """eta as 1 / sum_x Tr[C_x diag(1/alpha_x)], from the covariance blocks."""
    alpha = hessian_alpha(problem)
    blocks = noise_covariance(problem)
    return 1.0 / sum(
        float(np.trace(blocks[i] @ np.diag(1.0 / alpha[i])))
        for i in range(len(alpha))
    )


def sum_alpha_via_f(problem: NonparametricProblem) -> np.ndarray:
    """Per-context sum of alpha as E_{p_noise}[f(p_data/p_noise)], f(z)=1/(1+1/z)."""
    ratio = problem.p_data / problem.p_noise
    return (problem.p_noise * (1.0 / (1.0 + 1.0 / ratio))).sum(axis=1)


def mc_gradient_covariance(problem: NonparametricProblem, n_samples: int,
                           seed: int = 0) -> np.ndarray:
    """Monte-Carlo estimate of the per-context covariance blocks.

    For each context, draws (y, y') ~ p_data(.|x) p_noise(.|x), forms the
    stochastic gradient restricted to that context's block, and averages
    outer products (the gradient is mean-zero at the optimum, so the
    second moment is the covariance).
    """
    rng = np.random.default_rng(seed)
    xi = optimal_scores(problem)
    N = problem.n_scale
    X, Y = problem.p_data.shape
    out = np.zeros((X, Y, Y))
    for i in range(X):
        ys = rng.choice(Y, size=n_samples, p=problem.p_data[i])
        yn = rng.choice(Y, size=n_samples, p=problem.p_noise[i])
        a = sigmoid(-xi[i, ys])  # positive-term magnitude
        b = sigmoid(xi[i, yn])  # negative-term magnitude
        M = np.zeros((Y, Y))
        np.add.at(M, (ys, ys), a * a)
        np.add.at(M, (yn, yn), b * b)
        np.add.at(M, (ys, yn), -a * b)
        np.add.at(M, (yn, ys), -a * b)
        # ghat = N [-a e_y + b e_y']; block C_x = E[ghat ghat^T] / N
        out[i] = N * M / n_samples
    return out


def mc_gradient_moments(problem: NonparametricProblem, n_samples: int,
                        seed: int = 0):
    """Joint-draw Monte Carlo over the full (|X| |Y|)-dimensional gradient.

    Returns (mean, mean_se, second_moment, second_moment_se) where the
    context x is drawn uniformly. Useful for checking mean-zero gradients
    and cross-context block diagonality.
    """
    rng = np.random.default_rng(seed)
    xi = optimal_scores(problem)
    N = problem.n_scale
    X, Y = problem.p_data.shape
    dim = X * Y

    xs = rng.integers(X, size=n_samples)
    u = rng.random(n_samples)
    cum_d = np.cumsum(problem.p_data, axis=1)
    ys = (u[:, None] > cum_d[xs]).sum(axis=1)
    u2 = rng.random(n_samples)
    cum_n = np.cumsum(problem.p_noise, axis=1)
    yn = (u2[:, None] > cum_n[xs]).sum(axis=1)

    a = N * sigmoid(-xi[xs, ys])
    b = N * sigmoid(xi[xs, yn])
    pos_idx = xs * Y + ys
    neg_idx = xs * Y + yn

    mean = np.zeros(dim)
    np.add.at(mean, pos_idx, -a)
    np.add.at(mean, neg_idx, b)
    mean /= n_samples
    sq = np.zeros(dim)
    np.add.at(sq, pos_idx, a * a)
    np.add.at(sq, neg_idx, b * b)
    np.add.at(sq, pos_idx, np.where(pos_idx == neg_idx, -2 * a * b, 0.0))
    sq /= n_samples
    mean_se = np.sqrt(np.maximum(sq - mean**2, 0.0) / n_samples)

    m2 = np.zeros((dim, dim))
    m2sq = np.zeros((dim, dim))
    for ii, jj, val in (
        (pos_idx, pos_idx, a * a),
        (neg_idx, neg_idx, b * b),
        (pos_idx, neg_idx, -a * b),
        (neg_idx, pos_idx, -a * b),
    ):
        np.add.at(m2, (ii, jj), val)
        np.add.at(m2sq, (ii, jj), val * val)
    m2 /= n_samples
    m2sq /= n_samples
    m2_se = np.sqrt(np.maximum(m2sq - m2**2, 0.0) / n_samples)
    return mean, mean_se, m2, m2_se


def full_hessian(problem: NonparametricProblem) -> np.ndarray:
    return np.diag(hessian_alpha(problem).ravel())


def full_covariance(problem: NonparametricProblem) -> np.ndarray:
    X, Y = problem.p_data.shape
    out = np.zeros((X * Y, X * Y))
    for i, block in enumerate(noise_covariance(problem)):
        out[i * Y : (i + 1) * Y, i * Y : (i + 1) * Y] = block
    return out


def reparameterization_check(problem: NonparametricProblem, jacobian=None,
                             seed: int = 0, rel_tol: float = 1e-8) -> bool:
    """eta is invariant under invertible linear reparameterization.

    Transforms H -> J^T H J and Cov -> J^T Cov J and recomputes
    1/Tr[Cov' H'^-1]; returns True if it matches the untransformed eta.
    """
    dim = problem.p_data.size
    if jacobian is None:
        jacobian = np.random.default_rng(seed).standard_normal((dim, dim))
    J = np.asarray(jacobian, dtype=np.float64)
    if J.shape != (dim, dim):
        raise DataError(f"jacobian must be {dim}x{dim}")
    if np.linalg.cond(J) > 1e6:
        raise NumericError("reparameterization map is ill-conditioned")
    H = full_hessian(problem)
    cov = full_covariance(problem)
    eta_plain = 1.0 / float(np.trace(cov @ np.linalg.inv(H)))
    Ht = J.T @ H @ J
    covt = J.T @ cov @ J
    eta_trans = 1.0 / float(np.trace(covt @ np.linalg.inv(Ht)))
    return abs(eta_trans - eta_plain) <= rel_tol * abs(eta_plain)
