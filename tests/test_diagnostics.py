import numpy as np
import pytest

from advsamp.aux_tree import sigmoid
from advsamp.diagnostics import (
    NonparametricProblem,
    hessian_alpha,
    optimal_scores,
    random_noise_tables,
    snr,
    snr_sweep,
)
from advsamp.errors import DataError, NumericError

from snr_oracles import (
    FORM_AGREEMENT_TOL,
    eta_trace,
    expected_gradient,
    expected_loss,
    full_covariance,
    full_hessian,
    mc_gradient_covariance,
    mc_gradient_moments,
    noise_covariance,
    reparameterization_check,
    sum_alpha_via_f,
)

FD_EPS = 1e-6


def random_problem(rng, X=3, Y=4, n_scale=1):
    p_d = rng.dirichlet(np.ones(Y), size=X)
    p_n = rng.dirichlet(np.ones(Y), size=X)
    return NonparametricProblem(p_d, p_n, n_scale)


def uniform_problem(X=3, Y=4, n_scale=1):
    t = np.full((X, Y), 1.0 / Y)
    return NonparametricProblem(t, t.copy(), n_scale)


class TestProblemValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            NonparametricProblem([[1.0, 0.0]], [[0.5, 0.5]])

    def test_rejects_unnormalized(self):
        with pytest.raises(DataError):
            NonparametricProblem([[0.6, 0.6]], [[0.5, 0.5]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            NonparametricProblem([[0.5, 0.5]], [[0.25, 0.25, 0.25, 0.25]])

    def test_rejects_bad_n_scale(self):
        with pytest.raises(DataError):
            NonparametricProblem([[0.5, 0.5]], [[0.5, 0.5]], n_scale=0)


class TestOptimalScores:
    def test_log_ratio_examples(self):
        prob = NonparametricProblem([[0.4, 0.1, 0.25, 0.25]],
                                    [[0.25, 0.25, 0.25, 0.25]])
        xi = optimal_scores(prob)
        assert xi[0, 0] == pytest.approx(0.4700, abs=5e-5)
        assert xi[0, 1] == pytest.approx(-0.9163, abs=5e-5)

    def test_zero_when_matched(self):
        assert np.allclose(optimal_scores(uniform_problem()), 0.0)

    def test_gradient_vanishes_at_optimum(self, rng):
        prob = random_problem(rng)
        g = expected_gradient(prob, optimal_scores(prob))
        assert np.abs(g).max() < 1e-14


class TestExpectedLoss:
    def test_zero_scores(self):
        prob = uniform_problem(X=3, Y=4)
        # each context contributes (sum_y p_D + sum_y p_n) log 2 = 2 log 2
        assert expected_loss(prob, np.zeros((3, 4))) == pytest.approx(6 * np.log(2))

    def test_optimum_is_a_minimum(self, rng):
        prob = random_problem(rng)
        xi = optimal_scores(prob)
        base = expected_loss(prob, xi)
        for _ in range(20):
            assert expected_loss(prob, xi + 0.1 * rng.standard_normal(xi.shape)) > base

    def test_gradient_finite_difference_oracle(self, rng):
        prob = random_problem(rng)
        xi = rng.standard_normal((3, 4))
        g = expected_gradient(prob, xi)
        for i in range(3):
            for j in range(4):
                e = np.zeros((3, 4))
                e[i, j] = FD_EPS
                fd = (expected_loss(prob, xi + e) - expected_loss(prob, xi - e)) / (2 * FD_EPS)
                assert abs(g[i, j] - fd) < 1e-8


class TestHessian:
    def test_alpha_uniform_matched(self):
        # p_n = p_D uniform over 2 labels: alpha = 0.5 * sigma(0) = 0.25
        prob = uniform_problem(X=1, Y=2)
        assert np.allclose(hessian_alpha(prob), 0.25)

    def test_alpha_harmonic_form(self, rng):
        # alpha = p_D p_n / (p_D + p_n)
        prob = random_problem(rng)
        oracle = prob.p_data * prob.p_noise / (prob.p_data + prob.p_noise)
        assert np.abs(hessian_alpha(prob) - oracle).max() < 1e-14

    @pytest.mark.parametrize("X,Y", [(3, 4), (5, 200)])
    def test_alpha_pre_simplification_form(self, rng, X, Y):
        # (p_D + p_n) sigma(-xi*) sigma(xi*), the form before simplification
        prob = random_problem(rng, X=X, Y=Y)
        xi = optimal_scores(prob)
        raw = (prob.p_data + prob.p_noise) * sigmoid(-xi) * sigmoid(xi)
        assert np.abs(hessian_alpha(prob) - raw).max() <= 1e-12

    def test_diagonal_finite_difference_oracle(self, rng):
        prob = random_problem(rng, X=2, Y=3)
        xi = optimal_scores(prob)
        alpha = hessian_alpha(prob)
        for i in range(2):
            for j in range(3):
                e = np.zeros((2, 3))
                e[i, j] = FD_EPS
                fd = (expected_gradient(prob, xi + e)[i, j]
                      - expected_gradient(prob, xi - e)[i, j]) / (2 * FD_EPS)
                assert abs(alpha[i, j] - fd) < 1e-7

    def test_off_diagonal_vanishes(self, rng):
        # the loss separates per (x, y) cell, so cross terms are exactly zero
        prob = random_problem(rng, X=2, Y=3)
        xi = optimal_scores(prob)
        e = np.zeros((2, 3))
        e[0, 0] = FD_EPS
        fd = (expected_gradient(prob, xi + e) - expected_gradient(prob, xi - e)) / (2 * FD_EPS)
        fd[0, 0] = 0.0
        assert np.abs(fd).max() < 1e-12

    def test_full_hessian_diagonal(self, rng):
        prob = random_problem(rng)
        H = full_hessian(prob)
        assert np.array_equal(np.diag(np.diag(H)), H)


class TestCovariance:
    def test_two_label_matched_example(self):
        prob = uniform_problem(X=1, Y=2)
        C = noise_covariance(prob)[0]
        assert np.allclose(C, [[0.125, -0.125], [-0.125, 0.125]], atol=1e-12)

    def test_n_scale_linearity(self, rng):
        p_d = rng.dirichlet(np.ones(4), size=2)
        p_n = rng.dirichlet(np.ones(4), size=2)
        c1 = noise_covariance(NonparametricProblem(p_d, p_n, 1))
        c5 = noise_covariance(NonparametricProblem(p_d, p_n, 5))
        assert np.allclose(c5, 5 * c1)

    def test_monte_carlo_oracle(self, rng):
        prob = random_problem(rng, X=2, Y=3, n_scale=2)
        exact = noise_covariance(prob)
        mc = mc_gradient_covariance(prob, n_samples=400_000, seed=9)
        assert np.abs(mc - exact).max() < 2e-3 * prob.n_scale

    def test_full_covariance_block_diagonal(self, rng):
        prob = random_problem(rng, X=2, Y=3)
        full = full_covariance(prob)
        blocks = noise_covariance(prob)
        assert np.allclose(full[:3, :3], blocks[0])
        assert np.allclose(full[3:, 3:], blocks[1])
        assert np.all(full[:3, 3:] == 0.0)


class TestMcMoments:
    def test_mean_zero_at_optimum(self, rng):
        prob = random_problem(rng, X=2, Y=3, n_scale=3)
        mean, mean_se, _, _ = mc_gradient_moments(prob, 200_000, seed=4)
        assert np.all(np.abs(mean) <= 4 * mean_se + 1e-12)

    def test_second_moment_matches_scaled_blocks(self, rng):
        # with x drawn uniformly, E[g g^T] = (1/|X|) blockdiag(N C_x)
        prob = random_problem(rng, X=2, Y=3, n_scale=2)
        _, _, m2, m2_se = mc_gradient_moments(prob, 300_000, seed=5)
        expect = full_covariance(prob) * prob.n_scale / len(prob.p_data)
        assert np.all(np.abs(m2 - expect) <= 4 * m2_se + 1e-3)

    def test_cross_context_blocks_exactly_zero(self, rng):
        prob = random_problem(rng, X=3, Y=2)
        _, _, m2, _ = mc_gradient_moments(prob, 10_000, seed=6)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.all(m2[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] == 0.0)


class TestSumAlpha:
    def test_matches_direct_sum(self, rng):
        prob = random_problem(rng)
        direct = hessian_alpha(prob).sum(axis=1)
        assert np.abs(sum_alpha_via_f(prob) - direct).max() < 1e-14

    def test_half_when_matched(self):
        assert np.allclose(sum_alpha_via_f(uniform_problem()), 0.5)

    def test_bounded_by_half(self, rng):
        for _ in range(50):
            assert np.all(sum_alpha_via_f(random_problem(rng, X=1, Y=5)) <= 0.5 + 1e-15)

    def test_grid_argmax_at_p_data(self):
        # 1-d grid over two-label noise tables: the harmonic-mean bound
        # peaks where p_noise equals p_data
        p_d = np.array([[0.3, 0.7]])
        grid = np.arange(0.02, 0.99, 0.01)
        vals = [
            sum_alpha_via_f(NonparametricProblem(p_d, [[p, 1 - p]]))[0] for p in grid
        ]
        best = grid[int(np.argmax(vals))]
        assert abs(best - 0.3) <= 0.02 + 1e-12


class TestSnr:
    def test_matched_uniform_value(self):
        # sum alpha = 1/2 per context: 1/eta = N |X| (|Y| - 1)
        prob = uniform_problem(X=3, Y=4)
        eta = snr(prob).eta_bar
        assert eta == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert abs(eta_trace(prob) - eta) <= FORM_AGREEMENT_TOL * eta

    @pytest.mark.parametrize("X,Y,n_scale", [(1, 2, 1), (3, 4, 1), (2, 7, 5), (4, 40, 2)])
    def test_closed_form_matches_trace_oracle(self, rng, X, Y, n_scale):
        prob = random_problem(rng, X=X, Y=Y, n_scale=n_scale)
        eta = snr(prob).eta_bar
        assert abs(eta_trace(prob) - eta) <= FORM_AGREEMENT_TOL * eta

    def test_n_scale_inverse(self, rng):
        p_d = rng.dirichlet(np.ones(4), size=2)
        p_n = rng.dirichlet(np.ones(4), size=2)
        e1 = snr(NonparametricProblem(p_d, p_n, 1)).eta_bar
        e10 = snr(NonparametricProblem(p_d, p_n, 10)).eta_bar
        assert e10 == pytest.approx(e1 / 10.0, rel=1e-12)

    def test_report_dict(self, rng):
        d = snr(random_problem(rng)).to_dict()
        assert set(d) == {"eta_bar", "n_scale", "sum_alpha", "alpha"}

    def test_matched_noise_maximizes_snr(self, rng):
        # the data distribution itself beats every random candidate
        p_d = rng.dirichlet(np.ones(5), size=3)
        best = snr(NonparametricProblem(p_d, p_d.copy())).eta_bar
        candidates = random_noise_tables(3, 5, 200, rng)
        for eta in snr_sweep(p_d, candidates):
            assert eta <= best + 1e-12

    def test_sweep_length_and_positive(self, rng):
        p_d = rng.dirichlet(np.ones(3), size=2)
        etas = snr_sweep(p_d, random_noise_tables(2, 3, 7, rng))
        assert len(etas) == 7 and all(e > 0 for e in etas)
        with pytest.raises(DataError):
            snr_sweep(p_d, [])

    @pytest.mark.parametrize("X,Y,n_scale", [(3, 4, 1), (2, 100, 3), (5, 200, 1)])
    def test_sweep_equals_per_table_snr(self, rng, X, Y, n_scale):
        # one pass over the stack gives each table's own snr() bit for bit
        p_d = random_noise_tables(X, Y, 1, rng)[0]
        tables = random_noise_tables(X, Y, 60, rng)
        loop = [snr(NonparametricProblem(p_d, t, n_scale)).eta_bar for t in tables]
        assert snr_sweep(p_d, tables, n_scale) == loop
        assert snr_sweep(p_d, list(tables), n_scale) == loop


class TestSweepValidation:
    """The stacked sweep rejects what one NonparametricProblem per table would."""

    P_D = [[0.5, 0.5], [0.25, 0.75]]
    GOOD = [[0.5, 0.5], [0.5, 0.5]]

    @pytest.mark.parametrize("bad", [
        [[1.0, 0.0], [0.5, 0.5]],  # not strictly positive
        [[0.6, 0.6], [0.5, 0.5]],  # a row off 1
        [[0.5, 0.5]],  # one context short
        [[0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]],  # more labels
        [0.5, 0.5],  # not a table
    ])
    def test_rejects_a_bad_candidate(self, bad):
        with pytest.raises(DataError):
            NonparametricProblem(self.P_D, bad)
        with pytest.raises(DataError):
            snr_sweep(self.P_D, [self.GOOD, bad, self.GOOD])

    def test_rejects_bad_p_data(self):
        with pytest.raises(DataError):
            snr_sweep([[0.6, 0.6], [0.5, 0.5]], [self.GOOD])

    def test_rejects_bad_n_scale(self):
        with pytest.raises(DataError):
            snr_sweep(self.P_D, [self.GOOD], n_scale=0)


class TestReparameterization:
    def test_invariant_under_random_linear_map(self, rng):
        prob = random_problem(rng, X=2, Y=3)
        assert reparameterization_check(prob, seed=11)

    def test_invariant_under_scaling(self, rng):
        prob = random_problem(rng, X=2, Y=2)
        J = np.diag([1.0, 2.0, 3.0, 4.0])
        assert reparameterization_check(prob, jacobian=J)

    def test_rejects_singular_map(self, rng):
        prob = random_problem(rng, X=1, Y=2)
        with pytest.raises(NumericError):
            reparameterization_check(prob, jacobian=np.zeros((2, 2)))

    def test_rejects_wrong_shape(self, rng):
        prob = random_problem(rng, X=2, Y=2)
        with pytest.raises(DataError):
            reparameterization_check(prob, jacobian=np.eye(3))


class TestRandomTables:
    def test_valid_rows(self, rng):
        tables = random_noise_tables(4, 6, 5, rng)
        assert len(tables) == 5
        for t in tables:
            assert t.shape == (4, 6)
            assert np.all(t > 0)
            assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("concentration", [1.0, 0.05])
    def test_one_draw_equals_per_table_draws(self, concentration):
        # the stacked draw consumes the generator as one draw per table does
        def per_table(rng):
            tables = []
            for _ in range(40):
                t = rng.dirichlet(np.full(7, concentration), size=3)
                t = np.clip(t, 1e-12, None)
                t /= t.sum(axis=1, keepdims=True)
                tables.append(t)
            return tables, rng.random()

        stacked_rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
        stacked = random_noise_tables(3, 7, 40, stacked_rng, concentration)
        loop, after = per_table(loop_rng)
        assert np.array_equal(stacked, np.array(loop))
        assert stacked_rng.random() == after
