"""MP transform/density and deterministic-equivalent fixed points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from rmt_equiv import det_equiv, ridge
from rmt_equiv.errors import DomainError, SingularityError
from rmt_equiv.randgen import gaussian_matrix, rademacher_matrix

GOLDEN = (np.sqrt(5) - 1) / 2


class TestMPEdges:
    @pytest.mark.parametrize("c, edges", [
        (0.25, (0.25, 2.25)), (1.0, (0.0, 4.0)), (2.25, (0.25, 6.25)), (4.0, (1.0, 9.0)),
    ])
    def test_closed_form(self, c, edges):
        # sqrt(c) is exact at these c, so (1 -+ sqrt c)^2 is too
        assert det_equiv.mp_edges(c) == edges

    @pytest.mark.parametrize("c", [0.0, -0.5, float("nan")])
    def test_nonpositive_ratio_rejected(self, c):
        for call in (lambda: det_equiv.mp_edges(c),
                     lambda: det_equiv.mp_stieltjes(c, -1.0),
                     lambda: det_equiv.mp_density(c, 1.0),
                     lambda: det_equiv.mp_cdf(c),
                     lambda: ridge.risk_theory(0.0, c, 1.0, 0.1),  # ridgeless_limits
                     lambda: ridge.risk_theory(0.1, c, 1.0, 0.1)):
            with pytest.raises(ValueError, match="ratio c must be positive"):
                call()


class TestMPStieltjes:
    def test_golden_ratio_point(self):
        assert det_equiv.mp_stieltjes(1.0, -1.0) == pytest.approx(GOLDEN, abs=1e-12)

    def test_classical_limit(self):
        # c -> 0 recovers m = 1/(1 - z)
        assert det_equiv.mp_stieltjes(1e-8, -1.0) == pytest.approx(0.5, abs=1e-6)

    def test_imaginary_sign_above_support(self):
        m = det_equiv.mp_stieltjes(0.5, 1.0 + 1e-6j)
        assert m.imag > 0

    def test_quadratic_residual(self):
        for c in (0.1, 0.5, 1.0, 2.0):
            for z in (-0.5, -3.0, 0.2 + 1.1j, 9.0):
                m = det_equiv.mp_stieltjes(c, z)
                resid = abs(c * z * m * m - (1 - c - z) * m + 1)
                assert resid <= 1e-10

    def test_inside_support_rejected(self):
        with pytest.raises(DomainError):
            det_equiv.mp_stieltjes(0.5, 1.0)
        with pytest.raises(DomainError):
            det_equiv.mp_stieltjes(2.0, 0.0)

    def test_conjugate_symmetry(self):
        z = 0.4 + 0.9j
        assert det_equiv.mp_stieltjes(0.7, np.conj(z)) == pytest.approx(
            np.conj(det_equiv.mp_stieltjes(0.7, z)))

    def test_half_plane_sign(self):
        for c in (0.3, 1.0, 3.0):
            m = det_equiv.mp_stieltjes(c, 2.0 + 0.5j)
            assert m.imag > 0
            m = det_equiv.mp_stieltjes(c, 2.0 - 0.5j)
            assert m.imag < 0

    def test_large_imaginary_normalization(self):
        y = 1e6
        val = -1j * y * det_equiv.mp_stieltjes(0.5, 1j * y)
        assert abs(val - 1) < 1e-3

    def test_gap_value_small_c(self):
        # in the gap (0, E-) for c < 1 the transform stays positive
        m = det_equiv.mp_stieltjes(0.25, 0.1)
        assert m.real > 0 and m.imag == 0

    @pytest.mark.parametrize("c, x", [
        (c, x) for c in (0.25, 1.0, 4.0)
        for x in (-3.0, -1e-3, 1.5 * det_equiv.mp_edges(c)[1], 40.0)
    ] + [(0.25, 0.1)])
    def test_real_axis_value_is_the_transform(self, c, x):
        # both roots of the quadratic are real here, so the residual cannot tell
        # them apart; the oracle is the defining integral of the law, the
        # c > 1 atom at 0 included, and the limit from the upper half-plane
        bulk, _ = integrate.quad(lambda t: det_equiv.mp_density(c, t) / (t - x),
                                 *det_equiv.mp_edges(c), epsabs=0, epsrel=1e-13,
                                 limit=200)
        m = det_equiv.mp_stieltjes(c, x)
        assert m == pytest.approx(bulk - max(0.0, 1 - 1 / c) / x, rel=1e-10, abs=0)
        above = det_equiv.mp_stieltjes(c, complex(x, 1e-9 * max(1.0, abs(x))))
        assert m == pytest.approx(above.real, rel=1e-10, abs=0)

    @given(st.floats(0.05, 5.0), st.floats(-4.0, 8.0), st.floats(0.05, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_stieltjes_axioms_property(self, c, x, y):
        z = complex(x, y)
        m = det_equiv.mp_stieltjes(c, z)
        assert m.imag * z.imag > 0
        assert det_equiv.mp_stieltjes(c, np.conj(z)) == pytest.approx(np.conj(m))
        assert abs(c * z * m * m - (1 - c - z) * m + 1) <= 1e-10


class TestMPDensity:
    def test_outside_support(self):
        assert det_equiv.mp_density(0.5, 5.0) == 0.0

    def test_edge_zero(self):
        assert det_equiv.mp_density(1.0, 4.0) == 0.0

    def test_unit_mass_c_half(self):
        val, _ = integrate.quad(lambda x: det_equiv.mp_density(0.5, x),
                                *det_equiv.mp_edges(0.5),
                                limit=300)
        assert abs(val - 1.0) < 1e-6

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0])
    def test_mass_plus_atom_is_one(self, c):
        lo, hi = det_equiv.mp_edges(c)
        val, _ = integrate.quad(lambda x: det_equiv.mp_density(c, x),
                                max(lo, 1e-12), hi, limit=600)
        assert abs(val + max(0.0, 1 - 1 / c) - 1.0) < 1e-6

    def test_nonpositive_x_rejected(self):
        with pytest.raises(DomainError):
            det_equiv.mp_density(0.5, 0.0)

    def test_cdf_monotone(self):
        cdf = det_equiv.mp_cdf(2.0)
        xs = np.linspace(-0.5, 6.5, 57)
        vals = cdf(xs)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0])
    def test_cdf_equals_quadrature_of_the_density(self, c):
        # oracle: scipy's adaptive quadrature of mp_density from the lower edge,
        # at 40 bulk points; c = 1 puts the 1/sqrt(x) hard edge at 0
        lo, hi = det_equiv.mp_edges(c)
        atom = max(0.0, 1 - 1 / c)
        xs = np.linspace(lo, hi, 42)[1:-1]
        want = [atom + integrate.quad(lambda t: det_equiv.mp_density(c, t),
                                      lo, x, limit=200)[0] for x in xs]
        np.testing.assert_allclose(det_equiv.mp_cdf(c)(xs), want, rtol=0, atol=1e-9)
        assert det_equiv.mp_cdf(c)([lo - 1.0, -1e-12, lo, hi, hi + 1.0]).tolist() == \
            [0.0, 0.0, atom, 1.0, 1.0]


class TestSolveDeltaSCM:
    def test_identity_matches_mp(self):
        for p, n in ((64, 128), (100, 50), (80, 80)):
            fp = det_equiv.solve_delta_scm(np.ones(p), n, -1.0)
            c = p / n
            want = c * det_equiv.mp_stieltjes(c, -1.0)
            assert abs(fp.delta - want) <= 1e-10

    def test_golden_ratio(self):
        fp = det_equiv.solve_delta_scm(np.ones(128), 128, -1.0)
        assert abs(fp.delta - GOLDEN) <= 1e-10
        assert fp.residual <= 1e-12

    def test_classical_limit(self):
        p, n = 4, 10**6
        fp = det_equiv.solve_delta_scm(np.ones(p), n, -1.0)
        assert fp.delta.real == pytest.approx(p / (2 * n), rel=1e-3)

    def test_residual_satisfies_equation(self):
        rng = np.random.default_rng(0)
        eigs = rng.uniform(0.5, 2.0, 60)
        # off the real axis on both sides of the spectrum, and on the negative axis
        for z in (-0.3 + 0.2j, -1.0, -0.3 + 0.4j, 2.0 + 1.0j):
            fp = det_equiv.solve_delta_scm(eigs, 90, z)
            target = np.mean(eigs / (eigs / (1 + fp.delta) - fp.z)) * 60 / 90
            assert abs(target - fp.delta) <= 1e-12, z

    def test_positive_real_delta_for_negative_z(self):
        rng = np.random.default_rng(1)
        eigs = rng.uniform(0.2, 3.0, 40)
        fp = det_equiv.solve_delta_scm(eigs, 55, -0.7)
        assert fp.delta.imag == 0 and fp.delta.real > 0

    def test_nonpositive_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            det_equiv.solve_delta_scm(np.array([1.0, 0.0]), 4, -1.0)


class TestDEResolvents:
    def test_classical_limit_scm(self):
        p, n, gamma = 4, 10**6, 0.7
        diag, _ = det_equiv.de_resolvents(np.ones(p), n, -gamma)
        assert np.allclose(diag.real, 1 / (1 + gamma), atol=1e-4)

    def test_golden_identity_gram_scalar(self):
        _, s = det_equiv.de_resolvents(np.ones(256), 256, -1.0)
        assert s.real == pytest.approx(GOLDEN, abs=1e-10)  # 1/(1+delta) = delta

    def test_gram_trace_monte_carlo(self):
        n = p = 1024
        X = gaussian_matrix(p, n, 202).entries
        G = X.T @ X / n
        emp = np.mean(1.0 / (np.linalg.eigvalsh(G) + 1.0))
        _, s = det_equiv.de_resolvents(np.ones(p), n, -1.0)
        assert abs(emp - s.real) <= 0.03


    def test_spiked_eigenvector_alignment(self):
        """Beyond eigenvalues: for C = I + l e1 e1^T and S = C^1/2 X X^T C^1/2 / n,
        the top eigenvector u1 of S has E|u1^T e1|^2 = -(1/2 pi i) oint g dz and
        the top eigenvalue is oint z g dz / oint g dz, on a circle around the
        outlier, for g(z) = e1^T Qbar(z) e1 the first diagonal entry of
        ``de_resolvents``. At p = 256, n = 512, l = 2 they are 0.7004 and 3.750
        (asymptotically (1 - c/l^2)/(1 + c/l) = 0.7 and (1 + l)(1 + c/l) = 3.75).

        The circle has center 3.75 and radius 0.5: it clears the bulk edge
        (1 + sqrt c)^2 = 2.91 by 0.34, so 64 trapezoid nodes are converged to
        rounding; the nodes sit at half-offset angles, off the real axis, where
        ``solve_delta_scm`` is defined. The 40 trials are independent, so each
        Monte Carlo mean has standard error sd / sqrt(40) from its sample
        standard deviation (about 0.006 and 0.025). The equivalent's own error
        is O(1/n), about 0.002 for the alignment, under half a standard error.
        So 4 standard errors bound the gap: a correct equivalent misses it with
        probability about 3e-4 (Student t, 39 degrees of freedom).
        """
        p, n, ell, trials, nodes, radius = 256, 512, 2.0, 40, 64, 0.5
        c_eigs = np.ones(p)
        c_eigs[0] += ell
        unit = np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes)
        z = (1 + ell) * (1 + p / n / ell) + radius * unit
        g = np.array([det_equiv.de_resolvents(c_eigs, n, zk)[0][0] for zk in z])
        # -(1/2 pi i) oint f dz, dz = i radius unit dtheta, by the trapezoid rule
        align_de = -(radius / nodes * np.sum(g * unit)).real
        top_de = -(radius / nodes * np.sum(z * g * unit)).real / align_de
        align, top = np.empty(trials), np.empty(trials)
        for t in range(trials):
            X = gaussian_matrix(p, n, 1000 + t).entries
            X[0] *= np.sqrt(1 + ell)
            lam, U = np.linalg.eigh(X @ X.T / n)
            align[t], top[t] = U[0, -1] ** 2, lam[-1]
        for vals, de in ((align, align_de), (top, top_de)):
            se = vals.std(ddof=1) / np.sqrt(trials)
            assert abs(vals.mean() - de) <= 4 * se, (vals.mean(), de, se)


class TestDEAccuracy:
    """Trace- and bilinear-form contracts of the deterministic equivalent."""

    @pytest.mark.parametrize("maker", [gaussian_matrix, rademacher_matrix])
    def test_trace_and_bilinear(self, maker):
        p = n = 512
        gamma = 1.0
        X = maker(p, n, 77).entries
        Chat = X @ X.T / n
        lam, U = np.linalg.eigh(Chat)
        diag, _ = det_equiv.de_resolvents(np.ones(p), n, -gamma)
        trace_emp = np.mean(1.0 / (lam + gamma))
        trace_de = np.mean(diag.real)
        assert abs(trace_emp - trace_de) <= 5 / np.sqrt(p)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(p)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(p)
        b /= np.linalg.norm(b)
        bilinear_emp = a @ (U @ ((U.T @ b) / (lam + gamma)))
        bilinear_de = diag.real[0] * (a @ b)  # DE is a multiple of I for C = I
        assert abs(bilinear_emp - bilinear_de) <= 5 / np.sqrt(p)


class TestMPDerivative:
    def test_classical_limit(self):
        gamma = 0.7
        val = det_equiv.mp_stieltjes_derivative(1e-9, gamma)
        assert val == pytest.approx(1 / (1 + gamma) ** 2, rel=1e-6)

    def test_golden_plug_in(self):
        val = det_equiv.mp_stieltjes_derivative(1.0, 1.0)
        m = GOLDEN
        assert val == pytest.approx(m * (m + 1) / (2 * m + 1), abs=1e-12)
        assert val == pytest.approx(0.4472, abs=5e-5)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_finite_difference(self, c, gamma):
        h = 1e-6
        fd = (det_equiv.mp_stieltjes(c, -gamma + h).real
              - det_equiv.mp_stieltjes(c, -gamma - h).real) / (2 * h)
        assert det_equiv.mp_stieltjes_derivative(c, gamma) == pytest.approx(
            fd, abs=1e-6)

    def test_positive(self):
        for c in (0.2, 1.0, 4.0):
            assert det_equiv.mp_stieltjes_derivative(c, 0.3) > 0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            det_equiv.mp_stieltjes_derivative(1.0, 0.0)
