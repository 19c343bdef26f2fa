"""Hermite polynomials/coefficients, linear-equivalent kernels, CK and NTK recursions."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from rmt_equiv import hermite_kernels as hk
from rmt_equiv import rf_nn
from rmt_equiv.errors import DomainError
from rmt_equiv.randgen import sphere_dataset

from oracles import mc_kernel_expectation, normalized_expression

SQRT2PI = np.sqrt(2 * np.pi)

# monomial coefficients (constant term first) of the unnormalized probabilists'
# Hermite polynomials He_0 .. He_8, the oracle of the three-term recurrence
HERMITE_MONOMIALS = [
    [1],
    [0, 1],
    [-1, 0, 1],
    [0, -3, 0, 1],
    [3, 0, -6, 0, 1],
    [0, 15, 0, -10, 0, 1],
    [-15, 0, 45, 0, -15, 0, 1],
    [0, -105, 0, 105, 0, -21, 0, 1],
    [105, 0, -420, 0, 210, 0, -28, 0, 1],
]

# half-Gaussian analytic oracle for ReLU: E[relu] = 1/sqrt(2 pi),
# E[xi relu] = 1/2, E[xi^2 relu] = sqrt(2/pi), E[relu^2] = 1/2
RELU_A0 = 1 / SQRT2PI
RELU_A1 = 0.5
RELU_A2 = (np.sqrt(2 / np.pi) - RELU_A0) / np.sqrt(2)   # = 1/(2 sqrt(pi))
RELU_NU = 0.5


class TestHermitePoly:
    def test_constant(self):
        assert hk.hermite_poly(0, 5.0) == 1.0

    def test_degree_two_root(self):
        assert hk.hermite_poly(2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_first_values(self):
        assert hk.hermite_poly(1, 2.5) == 2.5
        assert hk.hermite_poly(2, 2.0) == pytest.approx(3 / np.sqrt(2))

    def test_orthonormality_order_40(self, monkeypatch):
        monkeypatch.setattr(hk, "QUADRATURE_ORDER", 40)
        for i in range(5):
            for j in range(5):
                val = hk.gaussian_expectation(
                    lambda t, i=i, j=j: hk.hermite_poly(i, t) * hk.hermite_poly(j, t))
                assert abs(val - (1.0 if i == j else 0.0)) <= 1e-10

    def test_high_degree_orthonormality(self):
        for i in (7, 8):
            val = hk.gaussian_expectation(lambda t, i=i: hk.hermite_poly(i, t) ** 2)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hk.hermite_poly(-1, 0.0)

    def test_recurrence_matches_monomial_table(self):
        t = np.array([-7.5, -2.0, -0.3, 0.0, 0.8, 1.7, 4.0, 11.0])
        table = hk.hermite_table(8, t)
        for i, coeffs in enumerate(HERMITE_MONOMIALS):
            want = np.polynomial.polynomial.polyval(t, coeffs) / np.sqrt(
                math.factorial(i))
            assert np.allclose(table[i], want, rtol=1e-12, atol=1e-12)
            assert np.array_equal(hk.hermite_poly(i, t), table[i])


class TestHermiteCoeffs:
    def test_identity(self):
        c = hk.hermite_coeffs(rf_nn.get_activation("identity"))
        assert (c.a0, c.a2) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert (c.a1, c.nu) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_tanh_first_coefficient(self):
        c = hk.hermite_coeffs(rf_nn.get_activation("tanh"))
        assert c.a0 == pytest.approx(0.0, abs=1e-12)  # odd function
        assert c.a1 == pytest.approx(0.6057, abs=1e-3)  # CLT slope, ~0.606

    def test_relu_against_half_gaussian_oracle(self):
        c = hk.hermite_coeffs(rf_nn.get_activation("relu"))
        assert c.a0 == pytest.approx(RELU_A0, abs=1e-10)
        assert c.a1 == pytest.approx(RELU_A1, abs=1e-10)
        assert c.a2 == pytest.approx(RELU_A2, abs=1e-10)
        assert c.nu == pytest.approx(RELU_NU, abs=1e-10)

    @pytest.mark.parametrize("name", ["tanh", "relu", "identity", "sign"])
    def test_parseval_partial_sum(self, name):
        c = hk.hermite_coeffs(rf_nn.get_activation(name))
        assert c.a0**2 + c.a1**2 + c.a2**2 <= c.nu + 1e-10

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
           st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_cubic_parseval_identity(self, c0, c1, c2, c3):
        # for a cubic the Parseval slack is exactly a3^2 = 6 c3^2
        act = rf_nn.ActivationSpec(
            "cubic", lambda t: c0 + c1 * t + c2 * t**2 + c3 * t**3,
            lambda t: c1 + 2 * c2 * t + 3 * c3 * t**2)
        c = hk.hermite_coeffs(act)
        slack = c.nu - (c.a0**2 + c.a1**2 + c.a2**2)
        assert slack >= -1e-10
        assert slack == pytest.approx(6 * c3**2, abs=1e-8)

    def test_sign_tail_slack(self):
        # sign has nu = 1 and a1 = sqrt(2/pi); the Parseval slack is its
        # higher-order tail, strictly positive
        c = hk.hermite_coeffs(rf_nn.get_activation("sign"))
        slack = c.nu - (c.a0**2 + c.a1**2 + c.a2**2)
        assert slack > 0.1

    @pytest.mark.parametrize("name", ["tanh", "relu", "identity"])
    def test_quadrature_stability_40_to_80(self, name, monkeypatch):
        act = rf_nn.get_activation(name)
        monkeypatch.setattr(hk, "QUADRATURE_ORDER", 40)
        c40 = hk.hermite_coeffs(act)
        monkeypatch.setattr(hk, "QUADRATURE_ORDER", 80)
        c80 = hk.hermite_coeffs(act)
        for attr in ("a0", "a1", "a2", "nu"):
            assert abs(getattr(c40, attr) - getattr(c80, attr)) <= 1e-8

    def test_stacked_integrands(self):
        stacked = hk.gaussian_expectation(lambda t: np.stack([t * t, np.cosh(t)]))
        assert stacked.shape == (2,)
        assert stacked[0] == hk.gaussian_expectation(lambda t: t * t)
        assert stacked[1] == hk.gaussian_expectation(np.cosh)
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError):
                hk.gaussian_expectation(lambda t: np.stack([t * t, np.exp(t * t)]))

    def test_super_exponential_rejected(self):
        blowup = rf_nn.ActivationSpec("exp-sq", lambda t: np.exp(t * t),
                                      lambda t: 2 * t * np.exp(t * t))
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError):
                hk.hermite_coeffs(blowup)

    def test_sub_gaussian_growth_accepted(self):
        # exp(t) is fine under the Gaussian weight
        act = rf_nn.ActivationSpec("exp", np.exp, np.exp)
        c = hk.hermite_coeffs(act)
        assert c.a0 == pytest.approx(np.exp(0.5), rel=1e-12)
        assert c.nu == pytest.approx(np.exp(2.0), rel=1e-12)


class TestNormalizeActivation:
    def test_idempotent_on_normalized(self):
        norm = hk.normalize_activation(rf_nn.get_activation("tanh"))
        again = hk.normalize_activation(norm)
        t = np.linspace(-3, 3, 31)
        assert np.abs(norm.evaluate(t) - again.evaluate(t)).max() <= 1e-12

    def test_relu_normalized_a1(self):
        norm = hk.normalize_activation(rf_nn.get_activation("relu"))
        c = hk.hermite_coeffs(norm)
        want = 0.5 / np.sqrt(0.5 - 1 / (2 * np.pi))
        assert c.a1 == pytest.approx(want, abs=1e-10)

    def test_construction_contract(self):
        for name in ("relu", "tanh", "sign"):
            c = hk.hermite_coeffs(
                hk.normalize_activation(rf_nn.get_activation(name)))
            assert abs(c.a0) <= 1e-10
            assert abs(c.nu - 1.0) <= 1e-10

    def test_out_form_matches_allocating_expression(self):
        tanh = rf_nn.get_activation("tanh")
        c = hk.hermite_coeffs(tanh)
        want = normalized_expression(np.tanh, c.a0, np.sqrt(c.nu - c.a0**2))
        t = 2.0 * np.random.default_rng(4).standard_normal((40, 25))
        norm = hk.normalize_activation(tanh)
        assert np.array_equal(norm.evaluate(t), want(t))
        out = t.copy()
        assert norm.evaluate(out, out=out) is out
        assert np.array_equal(out, want(t))

    def test_one_argument_custom_activation(self):
        cube = rf_nn.ActivationSpec("cube", lambda t: t**3, lambda t: 3 * t**2)
        norm = hk.normalize_activation(cube)
        c = hk.hermite_coeffs(cube)
        t = np.linspace(-2, 2, 17)
        want = normalized_expression(cube.evaluate, c.a0, np.sqrt(c.nu - c.a0**2))
        assert np.array_equal(norm.evaluate(t), want(t))
        c = hk.hermite_coeffs(norm)
        assert abs(c.a0) <= 1e-10 and abs(c.nu - 1.0) <= 1e-10

    def test_constant_activation_rejected(self):
        const = rf_nn.ActivationSpec("const", lambda t: np.ones_like(t),
                                     lambda t: np.zeros_like(t))
        with pytest.raises(DomainError, match="'const' is constant"):
            hk.normalize_activation(const)


class TestLinearEquivalentKernel:
    def test_identity_coefficients(self):
        X = sphere_dataset(8, 12, 0)
        K = hk.linear_equivalent_kernel(X, hk.HermiteCoeffs(0.0, 1.0, 0.0, 1.0))
        assert np.allclose(K, X.entries.T @ X.entries)

    def test_purely_nonlinear_structure(self):
        X = sphere_dataset(16, 10, 1)
        c = hk.HermiteCoeffs(0.0, 0.0, 0.5, 1.0)
        K = hk.linear_equivalent_kernel(X, c)
        want = 0.25 / 16 * np.ones((10, 10)) + 1.0 * np.eye(10)
        assert np.allclose(K, want)

    def test_relu_monte_carlo_agreement(self):
        act = rf_nn.get_activation("relu")
        coeffs = hk.hermite_coeffs(act)
        gaps = []
        for p in (128, 256):
            X = sphere_dataset(p, p, 100 + p)
            K = mc_kernel_expectation(X, X, act, m=200_000, seed=3)
            Kt = hk.linear_equivalent_kernel(X, coeffs)
            gaps.append(np.linalg.norm(K - Kt, 2) / np.linalg.norm(Kt, 2))
        assert gaps[0] <= 0.15
        assert gaps[1] < gaps[0]


class TestCKAlphas:
    def test_identity_layers(self):
        params = hk.ck_alphas(rf_nn.get_activation("identity"), 3)
        for a1, a2 in params:
            assert a1 == pytest.approx(1.0, abs=1e-12)
            assert a2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_recursion_two_layers(self):
        # (a1, a2) = (0.9649, 0) at both layers -> alpha_{2,1} = 0.9649^2
        a1, a2 = 0.9649, 0.0
        al = [(1.0, 0.0)]
        for _ in range(2):
            p1, p2 = al[-1]
            al.append((a1 * p1, np.sqrt(a1**2 * p2**2 + a2**2 * p1**4)))
        assert al[2][0] == pytest.approx(0.9311, abs=1e-4)
        assert al[2][1] == 0.0

    def test_normalized_tanh_alphas_decrease_geometrically(self):
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        params = hk.ck_alphas(act, 10)
        a1 = hk.hermite_coeffs(act).a1
        ratios = [params[i + 1][0] / params[i][0] for i in range(10)]
        assert np.allclose(ratios, a1, atol=1e-12)
        assert params[10][0] < 0.75 * params[1][0]

    def test_depth_monotonicity(self):
        act = hk.normalize_activation(rf_nn.get_activation("relu"))
        params = hk.ck_alphas(act, 6)
        a1s = [abs(a[0]) for a in params]
        assert all(b < a for a, b in zip(a1s, a1s[1:]))

    def test_unnormalized_rejected_naming_activation(self):
        raw = rf_nn.get_activation("relu")
        with pytest.raises(ValueError, match="activation 'relu' is not normalized"):
            hk.ck_alphas(raw, 2)

    def test_negative_depth_rejected(self):
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        with pytest.raises(ValueError, match="depth -1"):
            hk.ck_alphas(act, -1)
        assert hk.ck_alphas(act, 0) == [(1.0, 0.0)]

    def test_one_quadrature_for_every_layer(self, monkeypatch):
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        c = hk.hermite_coeffs(act)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return c

        monkeypatch.setattr(hk, "hermite_coeffs", counting)
        alphas = hk.ck_alphas(act, 10)
        assert calls == [(act,)]
        want = [(1.0, 0.0)]
        for _ in range(10):
            a1_prev, a2_prev = want[-1]
            want.append((c.a1 * a1_prev,
                         float(np.sqrt(c.a1**2 * a2_prev**2 + c.a2**2 * a1_prev**4))))
        assert alphas == want


class TestCKLinearEquivalent:
    def test_layer_zero_is_gram(self):
        X = sphere_dataset(6, 9, 2)
        params = [(1.0, 0.0)]
        assert np.allclose(hk.ck_linear_equivalent(X, params, 0),
                           X.entries.T @ X.entries)

    def test_alpha_zero_gives_identity(self):
        X = sphere_dataset(6, 9, 3)
        params = [(1.0, 0.0), (0.0, 0.0)]
        assert np.allclose(hk.ck_linear_equivalent(X, params, 1), np.eye(9))

    def test_off_diagonal_shrinks_by_a1_squared(self):
        X = sphere_dataset(32, 16, 4)
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        a1 = hk.hermite_coeffs(act).a1
        params = hk.ck_alphas(act, 3)
        off = ~np.eye(16, dtype=bool)
        for layer in (1, 2):
            K_now = hk.ck_linear_equivalent(X, params, layer)
            K_next = hk.ck_linear_equivalent(X, params, layer + 1)
            ratio = K_next[off] / K_now[off]
            assert np.allclose(ratio, a1**2, atol=1e-12)

    def test_depth_one_matches_shallow_linear_equivalent(self):
        # the CK and shallow formulas coincide for a0 = 0, nu = 1
        X = sphere_dataset(24, 18, 5)
        act = hk.normalize_activation(rf_nn.get_activation("relu"))
        c = hk.hermite_coeffs(act)
        params = hk.ck_alphas(act, 1)
        K_ck = hk.ck_linear_equivalent(X, params, 1)
        K_sh = hk.linear_equivalent_kernel(X, c)
        assert np.abs(K_ck - K_sh).max() <= 1e-12

    def test_layer_out_of_range(self):
        X = sphere_dataset(4, 4, 6)
        params = [(1.0, 0.0)]
        with pytest.raises(ValueError):
            hk.ck_linear_equivalent(X, params, 1)


class TestNTKRecursion:
    def test_single_identity_layer(self):
        X = sphere_dataset(5, 7, 7)
        gram = X.entries.T @ X.entries
        ones = np.ones((7, 7))
        K_ntk = hk.ntk_recursion([gram], [ones], gram)
        assert np.allclose(K_ntk, 2 * gram)

    def test_zero_derivative_collapse(self):
        X = sphere_dataset(5, 7, 8)
        gram = X.entries.T @ X.entries
        zero = np.zeros((7, 7))
        K3 = np.eye(7) * 0.3
        K_ntk = hk.ntk_recursion([gram, K3], [zero, zero], gram)
        assert np.allclose(K_ntk, K3)

    def test_hand_computed_two_by_two(self):
        g0 = np.array([[1.0, 0.5], [0.5, 1.0]])
        K1 = np.array([[1.0, 0.2], [0.2, 1.0]])
        K1p = np.array([[0.6, 0.1], [0.1, 0.6]])
        K2 = np.array([[1.0, 0.05], [0.05, 1.0]])
        K2p = np.array([[0.5, 0.02], [0.02, 0.5]])
        lvl1 = K1 + g0 * K1p
        want = K2 + lvl1 * K2p
        got = hk.ntk_recursion([K1, K2], [K1p, K2p], g0)
        assert np.allclose(got, want)

    def test_psd_within_tolerance(self):
        X = sphere_dataset(20, 15, 9)
        act = hk.normalize_activation(rf_nn.get_activation("tanh"))
        params = hk.ck_alphas(act, 2)
        dcoef = hk.hermite_coeffs(
            rf_nn.ActivationSpec("dtanh", act.derivative, lambda t: t))
        gram = X.entries.T @ X.entries
        cks, ckps, prev = [], [], gram
        for layer in (1, 2):
            K_l = hk.ck_linear_equivalent(X, params, layer)
            ckps.append(hk.gauss_pair_kernel(dcoef, prev))
            cks.append(K_l)
            prev = K_l
        K_ntk = hk.ntk_recursion(cks, ckps, gram)
        lam = np.linalg.eigvalsh((K_ntk + K_ntk.T) / 2)
        assert lam.min() >= -1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hk.ntk_recursion([np.eye(3)], [np.eye(4)], np.eye(3))
