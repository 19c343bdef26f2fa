"""Spectral core: decompositions, ESDs, resolvents, Stieltjes transforms, contours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmt_equiv import spectral
from rmt_equiv.det_equiv import mp_density, mp_stieltjes
from rmt_equiv.errors import DomainError, SingularityError


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestEigh:
    def test_identity(self):
        lam, _ = spectral.eigh(np.eye(3))
        assert np.allclose(lam, [1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        lam, U = spectral.eigh(np.diag([2.0, -1.0]))
        assert np.allclose(lam, [-1.0, 2.0])
        assert np.allclose(np.abs(U), [[0, 1], [1, 0]])

    def test_reconstruction(self):
        S = random_symmetric(8, 0)
        lam, U = spectral.eigh(S)
        R = U @ np.diag(lam) @ U.T
        assert np.abs(R - S).max() <= 1e-10

    def test_orthonormality(self):
        _, U = spectral.eigh(random_symmetric(12, 1))
        assert np.abs(U.T @ U - np.eye(12)).max() <= 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spectral.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSymmetricNorm:
    def test_negative_extreme_eigenvalue(self):
        S = random_symmetric(10, 2) - 5.0 * np.eye(10)
        lam = np.linalg.eigvalsh(S)
        assert abs(lam[0]) > abs(lam[-1])  # the largest |eigenvalue| is negative
        assert spectral.symmetric_norm(S) == pytest.approx(np.linalg.norm(S, 2),
                                                           rel=1e-12)


class TestEsdHistogram:
    def test_single_atom(self):
        _, masses = spectral.esd_histogram(np.full(5, 0.45), 10, (0, 1))
        assert masses.sum() == 1.0
        assert masses[4] == 1.0

    def test_two_values(self):
        _, masses = spectral.esd_histogram(np.array([0.0, 1.0]), 2, (0, 1))
        assert np.allclose(masses, [0.5, 0.5])

    def test_out_of_range_clipped_to_boundary(self):
        _, masses = spectral.esd_histogram(np.array([-5.0, 0.5, 99.0]), 3, (0, 1))
        assert masses[0] >= 1 / 3 and masses[-1] >= 1 / 3
        assert abs(masses.sum() - 1) < 1e-12

    def test_mp_sample_ks(self):
        rng = np.random.default_rng(0)
        p, n = 1024, 2048
        X = rng.standard_normal((p, n))
        lam = np.linalg.eigvalsh(X @ X.T / n)
        _, masses = spectral.esd_histogram(lam, 50, (0.0, 3.0))
        assert abs(masses.sum() - 1) < 1e-12
        from rmt_equiv.det_equiv import mp_cdf
        assert spectral.ks_distance(lam, mp_cdf(0.5)) <= 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectral.esd_histogram(np.array([]), 4, (0, 1))

    @given(st.integers(min_value=1, max_value=40), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_mass_always_one(self, bins, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=17)
        _, masses = spectral.esd_histogram(vals, bins, (-1, 1))
        assert abs(masses.sum() - 1) < 1e-12


class TestResolvent:
    def test_zero_matrix(self):
        Q = spectral.resolvent(np.zeros((3, 3)), -1.0)
        assert np.allclose(Q, np.eye(3))

    def test_identity_shift(self):
        Q = spectral.resolvent(np.eye(4), -0.5)
        assert np.allclose(Q, np.eye(4) / 1.5)

    def test_residual(self):
        S = random_symmetric(16, 2)
        z = 2j
        Q = spectral.resolvent(S, z)
        assert np.abs((S - z * np.eye(16)) @ Q - np.eye(16)).max() <= 1e-10

    def test_singular_point(self):
        with pytest.raises(SingularityError):
            spectral.resolvent(np.eye(3), 1.0)


class TestEmpiricalStieltjes:
    def test_identity(self):
        assert spectral.empirical_stieltjes(np.eye(5), -1.0) == pytest.approx(0.5)

    def test_diagonal_direct_sum(self):
        val = spectral.empirical_stieltjes(np.diag([0.0, 2.0]), -2.0)
        assert val == pytest.approx(0.375)

    def test_half_plane_sign(self):
        S = random_symmetric(9, 3)
        m = spectral.empirical_stieltjes(S, 0.3 + 0.7j)
        assert m.imag > 0

    def test_conjugate_symmetry(self):
        S = random_symmetric(9, 4)
        z = -0.2 + 1.3j
        assert spectral.empirical_stieltjes(S, np.conj(z)) == pytest.approx(
            np.conj(spectral.empirical_stieltjes(S, z)))

    def test_large_imaginary_normalization(self):
        S = random_symmetric(9, 5)
        y = 1e6
        val = -1j * y * spectral.empirical_stieltjes(S, 1j * y)
        assert abs(val - 1) < 1e-3

    def test_accepts_eigenvalues(self):
        lam = np.array([0.5, 1.5])
        assert spectral.empirical_stieltjes(lam, -1.0) == pytest.approx(
            0.5 * (1 / 1.5 + 1 / 2.5))


class TestStieltjesDensity:
    def test_point_mass_peak(self):
        m = lambda z: 1.0 / (1.0 - z)
        eta = 1e-3
        dens = spectral.stieltjes_density(m, np.array([1.0]), eta)
        assert dens[0] == pytest.approx(1 / (np.pi * eta), rel=1e-9)

    def test_mp_density_recovery(self):
        grid = np.linspace(0.1, 3.9, 200)
        eta = 1e-4
        dens = spectral.stieltjes_density(lambda z: mp_stieltjes(1.0, z), grid, eta)
        assert np.abs(dens - mp_density(1.0, grid)).max() < 0.02

    def test_small_outside_support(self):
        eta = 1e-3
        dens = spectral.stieltjes_density(lambda z: mp_stieltjes(0.25, z),
                                          np.array([4.0, 5.0]), eta)
        assert np.all(dens < 10 * eta)
        assert np.all(dens > -1e-6)

    def test_integrates_to_one(self):
        eta = 1e-3
        grid = np.linspace(-2.0, 6.0, 4001)
        dens = spectral.stieltjes_density(lambda z: mp_stieltjes(0.5, z), grid, eta)
        total = np.trapezoid(dens, grid)
        assert abs(total - 1.0) < 5 * eta


class TestSpectralFunctional:
    def test_completeness(self):
        S = random_symmetric(6, 6)
        a = np.arange(1.0, 7.0)
        val = spectral.spectral_functional(S, lambda lam: np.ones_like(lam),
                                           a, a, range(6))
        assert val == pytest.approx(a @ a / 6)

    def test_diagonal_single_index(self):
        S = np.diag([3.0, 7.0])
        e1 = np.array([1.0, 0.0])
        val = spectral.spectral_functional(S, lambda lam: lam**2, e1, e1, [0])
        assert val == pytest.approx(9.0)

    def test_lss_reduction(self):
        # summing over a = b = u_i reproduces the linear spectral statistic
        S = random_symmetric(5, 7)
        lam, U = spectral.eigh(S)
        f = lambda lam: np.exp(lam)
        total = sum(
            spectral.spectral_functional(S, f, U[:, i], U[:, i], range(5))
            for i in range(5)
        )
        assert total == pytest.approx(np.mean(f(lam)))

    def test_empty_indices(self):
        with pytest.raises(ValueError):
            spectral.spectral_functional(np.eye(2), lambda x: x,
                                         np.ones(2), np.ones(2), [])


class TestContourFunctional:
    def test_matches_oracle_full_spectrum(self):
        S = random_symmetric(32, 8)
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        contour = spectral.enclosing_contour(np.linalg.eigvalsh(S), nodes=512)
        got = spectral.contour_functional(S, lambda z: z**2, a, b, contour)
        want = spectral.spectral_functional(S, lambda lam: lam**2, a, b, range(32))
        assert abs(got - want) <= 1e-8

    def test_constant_function_unit_vectors(self):
        S = random_symmetric(10, 10)
        a = np.zeros(10)
        a[3] = 1.0
        contour = spectral.enclosing_contour(np.linalg.eigvalsh(S), nodes=256)
        got = spectral.contour_functional(S, lambda z: np.ones_like(z), a, a, contour)
        assert got == pytest.approx(1 / 10, abs=1e-10)

    def test_top_eigenvalue_only(self):
        S = np.diag([0.0, 1.0, 5.0])
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        contour = spectral.ContourSpec(center=5.0 + 0j, radius=1.0, nodes=256)
        got = spectral.contour_functional(S, lambda z: np.ones_like(z), a, b, contour)
        assert got == pytest.approx(a[2] * b[2], abs=1e-10)

    def test_quadrature_convergence(self):
        S = random_symmetric(16, 12)
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal(16), rng.standard_normal(16)
        want = spectral.spectral_functional(S, np.exp, a, b, range(16))
        errs = []
        for nodes in (32, 64, 128, 256, 512, 1024):
            contour = spectral.enclosing_contour(np.linalg.eigvalsh(S), nodes=nodes)
            errs.append(abs(
                spectral.contour_functional(S, np.exp, a, b, contour) - want))
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 or e2 < 1e-12

    def test_touching_contour_rejected(self):
        S = np.diag([0.0, 1.0])
        contour = spectral.ContourSpec(center=0.0 + 0j, radius=1.0, nodes=64)
        with pytest.raises(SingularityError):
            spectral.contour_functional(S, lambda z: z, np.ones(2), np.ones(2),
                                        contour)

    def test_empty_contour_rejected(self):
        S = np.diag([5.0, 6.0])
        contour = spectral.ContourSpec(center=0.0 + 0j, radius=1.0, nodes=64)
        with pytest.raises(DomainError, match="encloses no eigenvalue"):
            spectral.contour_functional(S, lambda z: z, np.ones(2), np.ones(2),
                                        contour)
