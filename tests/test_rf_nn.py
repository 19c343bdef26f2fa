"""Random-feature networks: features, fits, kernels, DE fixed points, MSE theory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmt_equiv import _kernels
from rmt_equiv import hermite_kernels as hk
from rmt_equiv import rf_nn
from rmt_equiv.errors import DomainError
from rmt_equiv.randgen import sphere_dataset

from oracles import (ACTIVATION_EXPRESSIONS, mc_kernel_expectation,
                     relu_pair_kernel_expression)

GOLDEN = (np.sqrt(5) - 1) / 2


class TestRfFeatures:
    def test_identity(self):
        rng = np.random.default_rng(0)
        W, X = rng.standard_normal((5, 3)), rng.standard_normal((3, 7))
        out = rf_nn.rf_features(W, X, rf_nn.get_activation("identity"))
        assert np.allclose(out, W @ X)

    def test_relu_all_negative(self):
        W = -np.ones((4, 2))
        X = np.ones((2, 6))
        out = rf_nn.rf_features(W, X, rf_nn.get_activation("relu"))
        assert np.all(out == 0.0)

    def test_entrywise_definition(self):
        W = np.array([[1.0, 2.0], [0.5, -1.0]])
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        act = rf_nn.get_activation("tanh")
        out = rf_nn.rf_features(W, X, act)
        assert out[0, 1] == pytest.approx(np.tanh(W[0] @ X[:, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rf_nn.rf_features(np.ones((2, 3)), np.ones((4, 5)),
                              rf_nn.get_activation("relu"))

    @pytest.mark.parametrize("name", ["relu", "tanh", "sign"])
    def test_peak_memory_one_result(self, name):
        rng = np.random.default_rng(3)
        W, X = rng.standard_normal((512, 64)), rng.standard_normal((64, 256))
        act = rf_nn.get_activation(name)
        rf_nn.rf_features(W, X, act)  # warm-up
        tracemalloc.start()
        try:
            rf_nn.rf_features(W, X, act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = 512 * 256 * 8
        assert peak <= 1.1 * result, peak / result


class TestActivations:
    @pytest.mark.parametrize("name", sorted(ACTIVATION_EXPRESSIONS))
    def test_out_form_matches_allocating_expression(self, name):
        t = 3.0 * np.random.default_rng(2).standard_normal((64, 33))
        t[0, :5] = [0.0, -0.0, 1e-310, -1e-310, 40.0]
        before, want = t.copy(), ACTIVATION_EXPRESSIONS[name](t)
        act = rf_nn.get_activation(name)
        assert np.array_equal(act.evaluate(t), want)
        assert np.array_equal(t, before)
        out = t.copy()
        assert act.evaluate(out, out=out) is out
        assert np.array_equal(out, want)


class TestRfFit:
    def test_primal_dual_agree(self):
        rng = np.random.default_rng(1)
        Phi = rng.standard_normal((30, 20))
        y = rng.standard_normal(20)
        gamma = 0.1
        d, n = Phi.shape
        primal = np.linalg.solve(Phi @ Phi.T / n + gamma * np.eye(d), Phi @ y / n)
        dual = Phi @ np.linalg.solve(Phi.T @ Phi / n + gamma * np.eye(n), y) / n
        assert np.abs(primal - dual).max() <= 1e-9
        assert np.abs(rf_nn.rf_fit(Phi, y, gamma) - primal).max() <= 1e-9

    def test_large_gamma_shrinks(self):
        rng = np.random.default_rng(2)
        Phi = rng.standard_normal((8, 12)) * 0.2
        y = rng.standard_normal(12) * 0.2
        beta = rf_nn.rf_fit(Phi, y, 1e8)
        assert np.linalg.norm(beta) <= 1e-6

    def test_interpolation_regime(self):
        # d >= n and consistent targets: tiny-gamma fit drives train MSE to ~0
        rng = np.random.default_rng(3)
        Phi = rng.standard_normal((40, 16))
        beta_true = rng.standard_normal(40)
        y = Phi.T @ beta_true
        beta = rf_nn.rf_fit(Phi, y, 1e-10)
        oracle = np.linalg.pinv(Phi.T) @ y
        assert rf_nn.rf_empirical_mse(beta, Phi, y) <= 1e-6
        assert rf_nn.rf_empirical_mse(oracle, Phi, y) <= 1e-12

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            rf_nn.rf_fit(np.ones((2, 2)), np.ones(2), 0.0)


class TestRfEmpiricalMse:
    def test_exact_fit(self):
        rng = np.random.default_rng(4)
        Phi = rng.standard_normal((6, 4))
        beta = rng.standard_normal(6)
        assert rf_nn.rf_empirical_mse(beta, Phi, Phi.T @ beta) == pytest.approx(0.0)

    def test_zero_coefficients(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rf_nn.rf_empirical_mse(np.zeros(2), np.zeros((2, 3)), y) == \
            pytest.approx(np.sum(y**2) / 3)

    def test_resolvent_derivative_identity(self):
        # E_train = (gamma^2/n) [d/dz y^T Q(z) y at z = -gamma], Q(z) the
        # resolvent of the Gram matrix; central finite difference in z
        rng = np.random.default_rng(5)
        Phi = rng.standard_normal((16, 12))
        y = rng.standard_normal(12)
        gamma, h, n = 0.3, 1e-6, 12

        def quad_form(z):
            Q = np.linalg.inv(Phi.T @ Phi / n - z * np.eye(n))
            return y @ Q @ y

        fd = (quad_form(-gamma + h) - quad_form(-gamma - h)) / (2 * h)
        beta = rf_nn.rf_fit(Phi, y, gamma)
        emp = rf_nn.rf_empirical_mse(beta, Phi, y)
        assert emp == pytest.approx(gamma**2 / n * fd, abs=1e-8)


class TestKernelExpectation:
    def test_identity_both_methods(self):
        X = sphere_dataset(6, 5, 0)
        act = rf_nn.get_activation("identity")
        want = X.entries.T @ X.entries
        assert np.allclose(rf_nn.kernel_expectation(X, X, act), want)
        mc = mc_kernel_expectation(X, X, act, m=200_000, seed=1)
        assert np.abs(mc - want).max() < 0.02

    def test_relu_diagonal_half(self):
        X = sphere_dataset(8, 4, 1)
        K = rf_nn.kernel_expectation(X, X, rf_nn.get_activation("relu"))
        assert np.allclose(np.diag(K), 0.5, atol=1e-12)

    def test_relu_monte_carlo_vs_analytic(self):
        X = sphere_dataset(8, 4, 2)
        act = rf_nn.get_activation("relu")
        exact = rf_nn.kernel_expectation(X, X, act)
        mc = mc_kernel_expectation(X, X, act, m=10**6, seed=3)
        assert np.abs(mc - exact).max() <= 5e-3

    def test_monte_carlo_rate(self):
        # entrywise error shrinks like m^{-1/2}: slope -0.5 +- 0.1 on log-log
        X = sphere_dataset(8, 4, 4)
        act = rf_nn.get_activation("relu")
        exact = rf_nn.kernel_expectation(X, X, act)
        ms = [10**3, 10**4, 10**5, 10**6]
        errs = []
        for m in ms:
            # average the error over independent replicates to tame noise
            reps = [np.abs(mc_kernel_expectation(X, X, act, m=m, seed=100 + r)
                           - exact).max() for r in range(3)]
            errs.append(np.mean(reps))
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.parametrize("name", ["tanh", "sign"])
    def test_monte_carlo_vs_analytic(self, name):
        X = sphere_dataset(8, 4, 2)
        act = rf_nn.get_activation(name)
        for X2 in (X, sphere_dataset(8, 3, 6)):  # a diagonal block and a cross block
            exact = rf_nn.kernel_expectation(X, X2, act)
            mc = mc_kernel_expectation(X, X2, act, m=10**6, seed=3)
            assert np.abs(mc - exact).max() <= 5e-3

    def test_series_matches_relu_closed_form(self):
        # ReLU under another name takes the Mehler series route
        relu = rf_nn.get_activation("relu")
        series = rf_nn.ActivationSpec("relu-series", relu.evaluate, relu.derivative)
        X = sphere_dataset(256, 256, 11)
        exact = rf_nn.kernel_expectation(X, X, relu)
        assert np.abs(rf_nn.kernel_expectation(X, X, series) - exact).max() <= 1e-12

    def test_series_error_within_tail_bound(self):
        # at p = 8 some pairs are nearly parallel, so the truncation shows
        relu = rf_nn.get_activation("relu")
        series = rf_nn.ActivationSpec("relu-series", relu.evaluate, relu.derivative)
        A = sphere_dataset(8, 32, 12).entries * np.linspace(0.5, 2.0, 32)
        norms = np.linalg.norm(A, axis=0)
        rho = np.clip(A.T @ A / np.outer(norms, norms), -1.0, 1.0)
        K, bound = hk.mehler_kernel(series, rho, norms, norms)
        exact = rf_nn.kernel_expectation(A, A, relu)
        scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))  # E[relu(a xi)^2]
        off = ~np.eye(32, dtype=bool)
        err = np.abs(K - exact)[off]
        assert err.max() > 1e-9
        assert np.all(err <= (bound * scale)[off] + 1e-13)
        with pytest.raises(DomainError):
            rf_nn.kernel_expectation(A, A, series)

    def test_kinked_activation_near_parallel_columns_raises(self):
        X = sphere_dataset(3, 12, 5)
        act = rf_nn.ActivationSpec("abs", np.abs, np.sign)
        with pytest.raises(DomainError, match="abs"):
            rf_nn.kernel_expectation(X, X, act)


class TestReluPairKernel:
    @staticmethod
    def assert_matches_expression(A, B):
        gram = A.T @ B
        norms_a, norms_b = np.linalg.norm(A, axis=0), np.linalg.norm(B, axis=0)
        before = gram.copy()
        K = _kernels.relu_pair_kernel(gram, norms_a, norms_b)
        assert np.array_equal(K, relu_pair_kernel_expression(gram, norms_a, norms_b))
        assert np.array_equal(gram, before)

    def test_clamped_parallel_and_antiparallel_columns(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(7)
        A = np.column_stack([a, 3.0 * a, -a, -0.7 * a, rng.standard_normal(7)])
        norms = np.linalg.norm(A, axis=0)
        rho = A.T @ A / np.outer(norms, norms)
        assert rho.max() > 1.0 and rho.min() < -1.0  # the clamp is exercised
        self.assert_matches_expression(A, A)

    def test_cross_block(self):
        # the rectangular train x test block that kernel_triplet forms
        X, X_test = sphere_dataset(48, 96, 3), sphere_dataset(48, 80, 4)
        self.assert_matches_expression(X.entries, X_test.entries)

    def test_random_gram(self):
        X = sphere_dataset(256, 1024, 5)
        self.assert_matches_expression(X.entries, X.entries)

    def test_peak_memory_three_results(self):
        A = sphere_dataset(64, 512, 6).entries
        gram, norms = A.T @ A, np.linalg.norm(A, axis=0)
        _kernels.relu_pair_kernel(gram, norms, norms)  # warm-up
        tracemalloc.start()
        try:
            _kernels.relu_pair_kernel(gram, norms, norms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * gram.nbytes, peak / gram.nbytes


class TestNonlinearDeDelta:
    def test_identity_kernel_golden(self):
        de = rf_nn.nonlinear_de_delta(np.ones(64), 64, 1.0)
        assert de.delta == pytest.approx(GOLDEN, abs=1e-10)
        assert de.residual <= 1e-13

    def test_wide_limit(self):
        de = rf_nn.nonlinear_de_delta(np.ones(32), 32 * 10**6, 1.0)
        assert de.delta <= 1e-5

    def test_empirical_trace_agreement(self):
        n = d = 512
        X = sphere_dataset(256, n, 6)
        act = rf_nn.get_activation("relu")
        K = rf_nn.kernel_expectation(X, X, act)
        lam = np.clip(np.linalg.eigvalsh(K), 0.0, None)
        gamma = 0.1
        de = rf_nn.nonlinear_de_delta(lam, d, gamma)
        qt = 1.0 / (de.k_tilde_scale * lam + gamma)
        rng = np.random.default_rng(7)
        W = rng.standard_normal((d, 256))
        Phi = act.evaluate(W @ X.entries)
        emp = np.mean(1.0 / (np.linalg.eigvalsh(Phi.T @ Phi / n) + gamma))
        assert abs(emp - qt.mean()) <= 5 / np.sqrt(n)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rf_nn.nonlinear_de_delta(np.zeros(4), 4, 1.0)
        with pytest.raises(ValueError):
            rf_nn.nonlinear_de_delta(np.ones(4), 4, 0.0)


class TestNnMseTheory:
    def _setup(self, seed=0, n=48, p=24, n_test=32):
        X = sphere_dataset(p, n, seed)
        Xt = sphere_dataset(p, n_test, seed + 1)
        rng = np.random.default_rng(seed + 2)
        b = rng.standard_normal(p)
        b /= np.linalg.norm(b)
        return X, Xt, X.entries.T @ b, Xt.entries.T @ b

    def test_train_equals_test_on_same_data(self):
        X, _, y, _ = self._setup()
        kernels = rf_nn.kernel_triplet(X, X, rf_nn.get_activation("relu"))
        e_train, e_test = rf_nn.nn_mse_theory(kernels, y, y, 32, 0.25)
        assert e_test == pytest.approx(e_train, abs=1e-10)

    def test_large_gamma_limit(self):
        X, Xt, y, yt = self._setup(1)
        act = rf_nn.get_activation("relu")
        kernels = rf_nn.kernel_triplet(X, Xt, act)
        e_train, _ = rf_nn.nn_mse_theory(kernels, y, yt, 24, 1e6)
        assert e_train == pytest.approx(np.mean(y**2), rel=1e-3)

    @pytest.mark.parametrize("short", ["train", "test"])
    def test_target_lengths_must_match_kernel_blocks(self, short):
        # n and n' are read off the targets, so a target of the wrong length
        # must not reach the formulas
        X, Xt, y, yt = self._setup(4)
        kernels = rf_nn.kernel_triplet(X, Xt, rf_nn.get_activation("relu"))
        y, yt = (y[:-1], yt) if short == "train" else (y, yt[:-1])
        with pytest.raises(ValueError, match="inconsistent with target lengths"):
            rf_nn.nn_mse_theory(kernels, y, yt, 24, 0.25)

    def test_empirical_agreement_single_point(self):
        n, p, d, gamma = 256, 128, 256, 0.1
        X = sphere_dataset(p, n, 10)
        Xt = sphere_dataset(p, 256, 11)
        rng = np.random.default_rng(12)
        b = rng.standard_normal(p)
        b /= np.linalg.norm(b)
        y, yt = X.entries.T @ b, Xt.entries.T @ b
        act = rf_nn.get_activation("relu")
        kernels = rf_nn.kernel_triplet(X, Xt, act)
        th_train, th_test = rf_nn.nn_mse_theory(kernels, y, yt, d, gamma)
        tr, te = [], []
        for t in range(15):
            W = np.random.default_rng(50 + t).standard_normal((d, p))
            feats = rf_nn.rf_features(W, X, act)
            beta = rf_nn.rf_fit(feats, y, gamma)
            tr.append(rf_nn.rf_empirical_mse(beta, feats, y))
            te.append(rf_nn.rf_empirical_mse(
                beta, rf_nn.rf_features(W, Xt, act), yt))
        assert np.mean(tr) == pytest.approx(th_train, rel=0.1)
        assert np.mean(te) == pytest.approx(th_test, rel=0.1)

    def test_widths_share_one_eigendecomposition(self, monkeypatch):
        # oracle: the docstring's formulas with dense K~, Q~ at each width
        X, Xt, y, yt = self._setup(3)
        act = rf_nn.get_activation("relu")
        n, gamma = y.size, 0.2
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(1) or eigh(A))
        kernels = rf_nn.kernel_triplet(X, Xt, act)
        assert len(calls) == 1
        got = [rf_nn.nn_mse_theory(kernels, y, yt, d, gamma) for d in (12, 48, 96)]
        monkeypatch.undo()
        assert len(calls) == 1
        blocks = [rf_nn.kernel_expectation(A, B, act)
                  for A, B in ((X, X), (X, Xt), (Xt, Xt))]
        for d, (e_train, e_test) in zip((12, 48, 96), got):
            lam = np.clip(np.linalg.eigvalsh(blocks[0]), 0.0, None)
            scale = rf_nn.nonlinear_de_delta(lam, d, gamma).k_tilde_scale
            Kt, Kx, Kxx = (scale * K for K in blocks)
            Q = np.linalg.inv(Kt + gamma * np.eye(n))
            denom = d - np.trace(Kt @ Q @ Kt @ Q)
            want_train = gamma**2 / n * y @ Q @ (
                np.trace(Q @ Kt @ Q) / denom * Kt + np.eye(n)) @ Q @ y
            resid = yt - Kx.T @ Q @ y
            want_test = (resid @ resid + (y @ Q @ Kt @ Q @ y / denom) * (
                np.trace(Kxx) - np.trace(Kx.T @ Q @ (np.eye(n) + gamma * Q) @ Kx))
                ) / yt.size
            assert e_train == pytest.approx(want_train, rel=1e-9)
            assert e_test == pytest.approx(want_test, rel=1e-9)

    def test_double_descent_singularity_location(self):
        # theoretical test error at gamma = 1e-5 has an interior max near d = n
        X, Xt, y, yt = self._setup(2, n=64, p=32, n_test=64)
        act = rf_nn.get_activation("relu")
        kernels = rf_nn.kernel_triplet(X, Xt, act)
        ratios = [0.25, 0.5, 1.0, 1.5, 2.0]
        tests = []
        for dn in ratios:
            _, e_test = rf_nn.nn_mse_theory(kernels, y, yt, max(1, int(64 * dn)),
                                            1e-5)
            tests.append(e_test)
        assert np.argmax(tests) == ratios.index(1.0)


class TestThetaFixedPoint:
    def test_identity_half(self):
        assert rf_nn.theta_fixed_point(np.ones(64), 0.5) == pytest.approx(
            0.5, abs=1e-12)

    def test_identity_quarter(self):
        # closed form on K = I: theta = 1 - d/n
        assert rf_nn.theta_fixed_point(np.ones(64), 0.25) == pytest.approx(
            0.75, abs=1e-12)

    def test_monotone_in_width(self):
        k = np.ones(32)
        vals = [rf_nn.theta_fixed_point(k, dn) for dn in (0.2, 0.4, 0.6, 0.8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @given(st.lists(st.floats(1e-3, 1e4), min_size=1, max_size=64),
           st.floats(1e-6, 1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_solves_its_equation(self, k, d_over_n):
        k = np.array(k)
        theta = rf_nn.theta_fixed_point(k, d_over_n)
        assert 0 < theta <= k.max() / d_over_n
        assert np.mean(k / (k + theta / d_over_n)) == pytest.approx(d_over_n, rel=1e-9)

    def test_large_theta_converges(self):
        # theta = 1000, where the float spacing is above 1e-13: the bracket
        # width that ends the bisection is relative to its upper end
        k = np.full(64, 2000.0)
        theta, iterations = _kernels.theta_bisect(k, 0.5, rf_nn.FP_TOL, 10_000)
        assert iterations < 100
        assert theta == pytest.approx(1000.0, rel=1e-12)
        assert np.mean(k / (k + theta / 0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rf_nn.theta_fixed_point(np.ones(8), 1.5)
        with pytest.raises(DomainError):
            rf_nn.theta_fixed_point(np.array([1.0, 0.0]), 0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("n_over_d", [100.0, 1000.0])
    def test_pareto_power_law(self, alpha, n_over_d):
        """theta on a Pareto(alpha) spectrum follows a power law of d/n.

        With P(k > x) = x^-alpha for x >= 1 and M = theta n/d, the fixed point
        is F(M) = E[k/(k + M)] = d/n. Substituting k = M u,

            F(M) = alpha M^-alpha [pi/sin(pi alpha) - int_0^(1/M) u^-alpha/(1+u) du]
                 = A M^-alpha (1 - delta),   A = alpha pi / sin(pi alpha),

        by the Beta integral, with the alternating, decreasing series (M > 1)

            delta = (sin(pi alpha)/pi) sum_j (-1)^j M^(alpha-1-j) / (j+1-alpha)
                  = alpha eps1 (1 - eta),   0 <= eta <= (1-alpha)/((2-alpha) M),
            eps1 = M^(alpha-1) sin(pi alpha) / (pi alpha (1-alpha)).

        The leading term alone gives theta0 = (d/n)^(1-1/alpha) A^(1/alpha),
        and exactly theta/theta0 = (1 - delta)^(1/alpha). That power is convex
        in delta, and for alpha <= 1/2 its second derivative is at most
        (1/alpha)(1/alpha - 1), so

            -eps1 <= theta/theta0 - 1 <= -eps1 + eps1 [(1-alpha) eps1/2 + eta_max].

        The quantile spectrum k_i = (1 - u_i)^(-1/alpha), u_i = (i + 1/2)/N, is
        the midpoint rule for F = int_0^1 ds / (1 + M s^(1/alpha)). Its error at
        the s = 0 end is zeta(-1/alpha, 1/2) M N^(-1-1/alpha) to leading order
        (Navot's Euler-Maclaurin expansion for algebraic end singularities),
        with zeta(-10/3, 1/2) = -0.0053 and zeta(-2, 1/2) = 0; the k = 1 end
        adds O(N^-2/M). Since F ~ M^-alpha, an error e in F moves theta by
        e/(alpha d/n) relative. Add 1e-12 for the bisection (FP_TOL = 1e-13 of
        its bracket) and rounding.
        """
        N = 200_000
        k = (1.0 - (np.arange(N) + 0.5) / N) ** (-1.0 / alpha)
        theta = rf_nn.theta_fixed_point(k, 1 / n_over_d)
        theta0 = n_over_d ** (1 / alpha - 1) * (
            alpha * np.pi / np.sin(np.pi * alpha)) ** (1 / alpha)
        M = theta * n_over_d
        eps1 = M ** (alpha - 1) * np.sin(np.pi * alpha) / (np.pi * alpha * (1 - alpha))
        window = eps1 * ((1 - alpha) * eps1 / 2 + (1 - alpha) / ((2 - alpha) * M))
        floor = 0.01 * M * N ** (-1 - 1 / alpha) * n_over_d / alpha + 1e-12
        assert -eps1 - floor <= theta / theta0 - 1 <= -eps1 + window + floor

    def test_gamma_delta_converges_to_theta(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((128, 128))
        lam = np.clip(np.linalg.eigvalsh(B @ B.T / 128), 1e-9, None)
        n, d = 128, 64
        theta = rf_nn.theta_fixed_point(lam, d / n)
        gaps = []
        for gamma in (1e-2, 1e-4, 1e-6):
            de = rf_nn.nonlinear_de_delta(lam, d, gamma)
            gaps.append(gamma * de.delta - theta)
        assert all(g > 0 for g in gaps)             # approach from above
        assert gaps[0] > gaps[1] > gaps[2]           # monotone
        assert gaps[2] <= 1e-4 * max(1.0, theta)     # converged


class TestScalingLawClosedForm:
    def test_exponential_plug_in(self):
        # alpha = 0.5, n/d = 10: 2 ln(10)/10 + 2 ln(pi) * 0.1
        want = 2 * np.log(10) / 10 + 2 * np.log(np.pi) * 0.1
        got = rf_nn.scaling_law_closed_form("exponential", 0.1, alpha=0.5)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.6894, abs=5e-4)

    def test_exponential_rate_dominates_inverse_n(self):
        # theta * (n/d) / log(n/d) -> 1/alpha
        alpha = 0.5
        vals = []
        for nd in (1e2, 1e4, 1e6):
            th = rf_nn.scaling_law_closed_form("exponential", 1 / nd, alpha=alpha)
            vals.append(th * nd / np.log(nd))
        errs = [abs(v - 1 / alpha) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.2  # the residual C_alpha/log(n/d) vanishes only log-slowly

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_exponential_is_the_pareto_log_lead(self, alpha):
        # the docstring's lead on Pareto(alpha) quantile eigenvalues: the form is
        # (d/n) [log(theta n/d) + log(1/alpha)/alpha] up to O(M^-alpha) terms
        u = (np.arange(200_000) + 0.5) / 200_000
        k = (1.0 - u) ** (-1.0 / alpha)
        for n_over_d in (10.0, 10**1.5, 100.0):
            theta = rf_nn.theta_fixed_point(k, 1 / n_over_d)
            lead = (np.log(theta * n_over_d) + np.log(1 / alpha) / alpha) / n_over_d
            got = rf_nn.scaling_law_closed_form("exponential", 1 / n_over_d,
                                                alpha=alpha)
            assert got == pytest.approx(lead, rel=0.02)

    def test_polynomial_power_law_exponent(self):
        beta = 0.5
        want_exp = 1 + 1 / (2 - beta)
        th1 = rf_nn.scaling_law_closed_form("polynomial", 0.01, beta=beta)
        th2 = rf_nn.scaling_law_closed_form("polynomial", 0.1, beta=beta)
        slope = (np.log(th2) - np.log(th1)) / (np.log(0.1) - np.log(0.01))
        assert slope == pytest.approx(want_exp, rel=1e-12)

    def test_harmonic_exponent_is_two(self):
        # beta -> 1 ("harmonic decay"): theta ~ (d/n)^2
        beta = 1 - 1e-9
        th1 = rf_nn.scaling_law_closed_form("polynomial", 0.01, beta=beta)
        th2 = rf_nn.scaling_law_closed_form("polynomial", 0.1, beta=beta)
        slope = (np.log(th2) - np.log(th1)) / (np.log(0.1) - np.log(0.01))
        assert slope == pytest.approx(2.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rf_nn.scaling_law_closed_form("exponential", 0.1, alpha=1.0)
        with pytest.raises(DomainError):
            rf_nn.scaling_law_closed_form("polynomial", 0.1, beta=2.0)
        with pytest.raises(DomainError):
            rf_nn.scaling_law_closed_form("polynomial", 0.1, beta=1.5)
        with pytest.raises(DomainError):
            rf_nn.scaling_law_closed_form("exponential", 1.5, alpha=0.5)
