"""Random-feature networks: features, fits, kernels, DE fixed points, MSE theory."""

import numpy as np
import pytest

from rmt_equiv import rf_nn
from rmt_equiv.errors import DomainError
from rmt_equiv.randgen import sphere_dataset

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
        assert np.allclose(rf_nn.kernel_expectation(X, X, act, "analytic"), want)
        mc = rf_nn.kernel_expectation(X, X, act, "monte-carlo", m=200_000, seed=1)
        assert np.abs(mc - want).max() < 0.02

    def test_relu_diagonal_half(self):
        X = sphere_dataset(8, 4, 1)
        K = rf_nn.kernel_expectation(X, X, rf_nn.get_activation("relu"))
        assert np.allclose(np.diag(K), 0.5, atol=1e-12)

    def test_relu_monte_carlo_vs_analytic(self):
        X = sphere_dataset(8, 4, 2)
        act = rf_nn.get_activation("relu")
        exact = rf_nn.kernel_expectation(X, X, act, "analytic")
        mc = rf_nn.kernel_expectation(X, X, act, "monte-carlo", m=10**6, seed=3)
        assert np.abs(mc - exact).max() <= 5e-3

    def test_monte_carlo_rate(self):
        # entrywise error shrinks like m^{-1/2}: slope -0.5 +- 0.1 on log-log
        X = sphere_dataset(8, 4, 4)
        act = rf_nn.get_activation("relu")
        exact = rf_nn.kernel_expectation(X, X, act, "analytic")
        ms = [10**3, 10**4, 10**5, 10**6]
        errs = []
        for m in ms:
            # average the error over independent replicates to tame noise
            reps = [np.abs(rf_nn.kernel_expectation(
                X, X, act, "monte-carlo", m=m, seed=100 + r) - exact).max()
                for r in range(3)]
            errs.append(np.mean(reps))
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_unsupported_analytic(self):
        X = sphere_dataset(4, 3, 5)
        with pytest.raises(NotImplementedError):
            rf_nn.kernel_expectation(X, X, rf_nn.get_activation("tanh"), "analytic")


class TestNonlinearDeDelta:
    def test_identity_kernel_golden(self):
        de = rf_nn.nonlinear_de_delta(np.ones(64), 64, 64, 1.0, tol=1e-14)
        assert de.delta == pytest.approx(GOLDEN, abs=1e-10)
        assert de.residual <= 1e-13

    def test_wide_limit(self):
        de = rf_nn.nonlinear_de_delta(np.ones(32), 32, 32 * 10**6, 1.0)
        assert de.delta <= 1e-5

    def test_empirical_trace_agreement(self):
        n = d = 512
        X = sphere_dataset(256, n, 6)
        act = rf_nn.get_activation("relu")
        K = rf_nn.kernel_expectation(X, X, act)
        lam = np.clip(np.linalg.eigvalsh(K), 0.0, None)
        gamma = 0.1
        de = rf_nn.nonlinear_de_delta(lam, n, d, gamma)
        qt = 1.0 / (de.k_tilde_scale * lam + gamma)
        rng = np.random.default_rng(7)
        W = rng.standard_normal((d, 256))
        Phi = act.evaluate(W @ X.entries)
        emp = np.mean(1.0 / (np.linalg.eigvalsh(Phi.T @ Phi / n) + gamma))
        assert abs(emp - qt.mean()) <= 5 / np.sqrt(n)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rf_nn.nonlinear_de_delta(np.zeros(4), 4, 4, 1.0)
        with pytest.raises(ValueError):
            rf_nn.nonlinear_de_delta(np.ones(4), 4, 4, 0.0)


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
        act = rf_nn.get_activation("relu")
        K = rf_nn.kernel_expectation(X, X, act)
        kernels = rf_nn.KernelTriplet(K, K, K)
        e_train, e_test = rf_nn.nn_mse_theory(kernels, y, y, y.size, 32, 0.25)
        assert e_test == pytest.approx(e_train, abs=1e-10)

    def test_large_gamma_limit(self):
        X, Xt, y, yt = self._setup(1)
        act = rf_nn.get_activation("relu")
        kernels = rf_nn.kernel_triplet(X, Xt, act)
        e_train, _ = rf_nn.nn_mse_theory(kernels, y, yt, y.size, 24, 1e6)
        assert e_train == pytest.approx(np.mean(y**2), rel=1e-3)

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
        th_train, th_test = rf_nn.nn_mse_theory(kernels, y, yt, n, d, gamma)
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

    def test_double_descent_singularity_location(self):
        # theoretical test error at gamma = 1e-5 has an interior max near d = n
        X, Xt, y, yt = self._setup(2, n=64, p=32, n_test=64)
        act = rf_nn.get_activation("relu")
        kernels = rf_nn.kernel_triplet(X, Xt, act)
        ratios = [0.25, 0.5, 1.0, 1.5, 2.0]
        tests = []
        for dn in ratios:
            _, e_test = rf_nn.nn_mse_theory(kernels, y, yt, 64,
                                            max(1, int(64 * dn)), 1e-5)
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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rf_nn.theta_fixed_point(np.ones(8), 1.5)
        with pytest.raises(DomainError):
            rf_nn.theta_fixed_point(np.array([1.0, 0.0]), 0.5)

    def test_gamma_delta_converges_to_theta(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((128, 128))
        lam = np.clip(np.linalg.eigvalsh(B @ B.T / 128), 1e-9, None)
        n, d = 128, 64
        theta = rf_nn.theta_fixed_point(lam, d / n)
        gaps = []
        for gamma in (1e-2, 1e-4, 1e-6):
            de = rf_nn.nonlinear_de_delta(lam, n, d, gamma)
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
