"""Ridge fits, risk formulas (empirical and closed form), double-descent sweeps."""

import tracemalloc
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rmt_equiv import ridge
from rmt_equiv.errors import SingularityError
from rmt_equiv.randgen import (DataMatrix, GroundTruth, gaussian_matrix, linear_targets,
                               stream)
from rmt_equiv.results import ResultRow

from oracles import thomas_solve

EPS = np.finfo(float).eps


def eigh_min_norm(A, y):
    """The min-norm fit by a truncated eigendecomposition of the smaller Gram,
    with numpy's pinv cut-off lambda_max max(p, n) eps."""
    p, n = A.shape
    lam, U = np.linalg.eigh(A @ A.T if p <= n else A.T @ A)
    keep = lam > lam.max() * max(p, n) * EPS
    U, lam = U[:, keep], lam[keep]
    if p <= n:
        return U @ ((U.T @ (A @ y)) / lam)
    return A @ (U @ ((U.T @ y) / lam))


def spd_tridiagonal(rng, lead, m, gamma):
    """Diagonal and off-diagonal of B B^T + gamma I for a random m x m
    lower-bidiagonal B, one per index of the leading shape ``lead``."""
    a, s = rng.standard_normal(lead + (m,)), rng.standard_normal(lead + (m - 1,))
    d = a * a
    d[..., 1:] += s * s
    return d + gamma, a[..., :-1] * s


def chi_draw_one_trial(spec, n, point, trial):
    """(a, s, b, z) of one sampler trial, drawn from the streams as laid out:
    the design (a, then s), the truth and the noise, each its own key."""
    p = spec.p
    m, k = min(p, n), max(p, n)
    design = stream(spec.seed, 0, point, trial)
    a = np.sqrt(design.chisquare(k - np.arange(m)))
    s = np.sqrt(design.chisquare(np.arange(m - 1, 0, -1)))
    b = stream(spec.seed, 1, point, trial).standard_normal(p)
    b *= np.sqrt(spec.beta_norm2) / np.linalg.norm(b)
    z = stream(spec.seed, 2, point, trial).standard_normal(m)
    return a, s, b, z


def dense_design(a, s, b, z, p, n, sigma2):
    """X = [B 0] (p <= n) or [B; 0] (p > n) and the targets y = X^T b + eps,
    eps = sigma (z, 0) or sigma z: the data the bidiagonal model stands for."""
    m = a.size
    B = np.diag(a) + np.diag(s, -1)
    X = np.zeros((p, n))
    eps = np.zeros(n)
    if p <= n:
        X[:, :m] = B
    else:
        X[:m] = B
    eps[:m] = np.sqrt(sigma2) * z
    return DataMatrix(X), X.T @ b + eps


def per_trial_allocation_sweep(spec):
    """The double-descent sweep with a fresh draw allocated for every trial."""
    rows = []
    for i, (gamma, ratio) in enumerate((g, r) for g in spec.gammas for r in spec.ratios):
        p = spec.p
        n = max(1, int(round(ratio * p)))
        c = p / n
        direction = np.random.default_rng(spec.seed).standard_normal(p)
        bstar = direction / np.linalg.norm(direction) * np.sqrt(spec.beta_norm2)
        truth = GroundTruth(beta_star=bstar, sigma2=spec.sigma2)
        r_in, r_out = np.empty(spec.trials), np.empty(spec.trials)
        base = spec.seed + 100_003 * i
        for t in range(spec.trials):
            X = gaussian_matrix(p, n, base + t)
            y = linear_targets(X, truth, base + t + 50_000_000)
            risks = ridge.empirical_risks(ridge.ridge_fit(X, y, gamma), truth, X)
            r_in[t], r_out[t] = risks.r_in, risks.r_out
        theory = ridge.risk_theory(gamma, c, spec.beta_norm2, spec.sigma2)
        rows += [ResultRow.from_trials(n / p, gamma, metric, vals, th)
                 for metric, vals, th in (("r_in", r_in, theory.r_in),
                                          ("r_out", r_out, theory.r_out))]
    rows.sort(key=lambda row: (row.gamma, row.ratio, row.metric))
    return rows


class TestRidgeFit:
    def test_huge_gamma_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        X = DataMatrix(rng.standard_normal((6, 9)) * 0.3)
        y = rng.standard_normal(9) * 0.3
        beta = ridge.ridge_fit(X, y, 1e8)
        assert np.linalg.norm(beta) <= 1e-6

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(1)
        X = DataMatrix(rng.standard_normal((5, 12)))
        beta_star = rng.standard_normal(5)
        beta = ridge.ridge_fit(X, X.entries.T @ beta_star, 0.0)
        assert np.abs(beta - beta_star).max() <= 1e-8

    def test_primal_dual_identical(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 30))
        y = rng.standard_normal(30)
        gamma = 0.1
        p, n = A.shape
        primal = np.linalg.solve(A @ A.T / n + gamma * np.eye(p), A @ y / n)
        dual = A @ np.linalg.solve(A.T @ A / n + gamma * np.eye(n), y) / n
        assert np.abs(primal - dual).max() <= 1e-10
        beta = ridge.ridge_fit(DataMatrix(A), y, gamma)
        assert np.abs(beta - primal).max() <= 1e-10

    @pytest.mark.parametrize("p, n", [(32, 64), (32, 16), (32, 32)])
    def test_ridgeless_matches_lstsq(self, monkeypatch, p, n):
        # a Gaussian design has a full-rank Gram, so the certified solve runs
        # and the eigendecomposition is never reached
        def no_eigh(*args):
            raise AssertionError("eigh called on a full-rank Gram")

        monkeypatch.setattr(ridge.np.linalg, "eigh", no_eigh)
        rng = np.random.default_rng(4)
        A = rng.standard_normal((p, n))
        y = rng.standard_normal(n)
        want = np.linalg.lstsq(A.T, y, rcond=None)[0]
        got = ridge.ridge_fit(DataMatrix(A), y, 0.0)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("p, n", [(32, 64), (32, 16)])
    def test_ridgeless_rank_deficient_matches_lstsq(self, p, n):
        # a repeated feature and a repeated sample make both Gram matrices
        # singular; a plain solve on either returns a vector that is not a
        # least-squares solution
        rng = np.random.default_rng(5)
        A = rng.standard_normal((p, n))
        A[1] = A[0]
        A[:, 1] = A[:, 0]
        y = rng.standard_normal(n)
        want = np.linalg.lstsq(A.T, y, rcond=None)[0]
        beta = ridge.ridge_fit(DataMatrix(A), y, 0.0)
        assert np.linalg.norm(beta - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("p, n", [(32, 64), (64, 32), (4, 200), (200, 4)])
    @pytest.mark.parametrize("factor", [0.5, 2.0, 1e6])
    def test_ridgeless_matches_eigh_truncation(self, p, n, factor):
        # A = U diag(sqrt(lam)) V^T puts the smallest Gram eigenvalue at
        # `factor` times the pinv cut-off lambda_max max(p, n) eps; below the
        # cut-off it must be dropped, above it kept
        rng = np.random.default_rng(6)
        r = min(p, n)
        U = np.linalg.qr(rng.standard_normal((p, r)))[0]
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        lam = rng.uniform(0.5, 1.0, r)
        lam[0] = 1.0
        lam[-1] = factor * max(p, n) * EPS
        A = (U * np.sqrt(lam)) @ V.T
        y = rng.standard_normal(n)
        want = eigh_min_norm(A, y)
        got = ridge.solve_ridge(A, y, 0.0)
        kept = lam[lam > max(p, n) * EPS]
        kappa = kept.max() / kept.min()
        assert np.linalg.norm(got - want) <= 10 * kappa * EPS * np.linalg.norm(want)

    @pytest.mark.parametrize("m, size", [(32, 64), (4, 200)])
    def test_certificate_keeps_its_margin(self, m, size):
        # (32, 64): the backward-error term of the shift dominates; (4, 200):
        # the cut-off term does. Cholesky of G - s I certifies a smallest
        # eigenvalue at 2 s and refuses one at s / 2.
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        lam = rng.uniform(0.5, 1.0, m)
        lam[-1] = 0.0
        G = (Q * lam) @ Q.T
        shift = (np.linalg.norm(G, np.inf) * size * EPS
                 + m * (m + 1) * EPS * G.diagonal().max())
        for factor, certified in ((2.0, True), (0.5, False)):
            lam[-1] = factor * shift
            G = (Q * lam) @ Q.T
            assert ridge._certified_full_rank(G, size) is certified

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            ridge.ridge_fit(DataMatrix(np.ones((2, 2))), np.ones(2), -0.1)

    def test_minimizes_objective(self):
        # perturbing the solution along random directions never lowers the loss
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 14))
        y = rng.standard_normal(14)
        gamma = 0.2
        beta = ridge.ridge_fit(DataMatrix(A), y, gamma)

        def loss(b):
            r = y - A.T @ b
            return r @ r / 14 + gamma * b @ b

        base = loss(beta)
        for _ in range(10):
            direction = rng.standard_normal(8)
            direction /= np.linalg.norm(direction)
            assert loss(beta + 1e-3 * direction) >= base - 1e-12
            assert loss(beta - 1e-3 * direction) >= base - 1e-12


class TestEmpiricalRisks:
    def test_perfect_solution(self):
        X = gaussian_matrix(4, 8, 0)
        truth = GroundTruth(np.ones(4), 0.0)
        risks = ridge.empirical_risks(np.ones(4), truth, X)
        assert risks.r_in == pytest.approx(0.0) and risks.r_out == pytest.approx(0.0)

    def test_unit_shift_out_of_sample(self):
        X = gaussian_matrix(4, 8, 1)
        truth = GroundTruth(np.zeros(4), 0.0)
        beta = np.zeros(4)
        beta[0] = 1.0
        assert ridge.empirical_risks(beta, truth, X).r_out == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        X = gaussian_matrix(4, 8, 2)
        truth = GroundTruth(np.zeros(4), 0.0)
        for beta in (np.zeros(3), np.zeros(1)):  # (1,) would broadcast
            with pytest.raises(ValueError, match="dimensions disagree"):
                ridge.empirical_risks(beta, truth, X)


class TestRiskTheory:
    def test_proportional_ridgeless_under(self):
        rp = ridge.risk_theory(0.0, 0.5, 1.0, 0.1)
        assert rp.r_in == pytest.approx(0.05)
        assert rp.r_out == pytest.approx(0.1)

    def test_proportional_ridgeless_over(self):
        rp = ridge.risk_theory(0.0, 2.0, 1.0, 0.1)
        assert rp.r_out == pytest.approx(0.6)

    def test_reference_curve_values(self):
        # anchor values from the gamma = 0.1 reference curve
        assert ridge.risk_theory(0.1, 0.5, 1.0, 0.1).r_out == pytest.approx(
            0.091427, abs=5e-7)
        assert ridge.risk_theory(0.1, 2.0, 1.0, 0.1).r_out == pytest.approx(
            0.578293, abs=5e-7)
        assert ridge.risk_theory(0.1, 1 / 2.113281, 1.0, 0.1).r_in == pytest.approx(
            0.046421, abs=5e-7)

    def test_peak_singularity(self):
        with pytest.raises(SingularityError):
            ridge.risk_theory(0.0, 1.0, 1.0, 0.1)

    def test_small_gamma_interpolating_digits(self):
        # for c > 1, m(-gamma) and gamma m'(-gamma) both grow like 1/gamma;
        # the reference evaluates the closed form at 50 digits, where their
        # difference loses none that matter
        for c in np.geomspace(1.05, 20.0, 40):
            with localcontext() as ctx:
                ctx.prec = 50
                g, cd, sigma2 = Decimal(1e-5), Decimal(float(c)), Decimal(0.1)
                k = cd - 1 - g  # m solves c g m^2 - (c - 1 - g) m - 1 = 0 at z = -g
                m = (k + (k * k + 4 * cd * g).sqrt()) / (2 * cd * g)
                mp = m * (cd * m + 1) / (2 * cd * g * m + 1 - cd + g)
                r_in = g * g * (m - g * mp) + sigma2 * cd * (1 - 2 * g * m + g * g * mp)
                r_out = g * g * mp + sigma2 * cd * (m - g * mp)
            got = ridge.risk_theory(1e-5, c, 1.0, 0.1)
            assert got.r_in == pytest.approx(float(r_in), rel=1e-12), c
            assert got.r_out == pytest.approx(float(r_out), rel=1e-12), c

    def test_regime_consistency_small_c(self):
        # as c -> 0 both risks tend to the classical (fixed p, n -> inf) value
        # (gamma^2 ||b*||^2 + c sigma^2) / (1 + gamma)^2
        c = 1e-4
        for gamma in (0.1, 0.5, 2.0):
            prop = ridge.risk_theory(gamma, c, 1.0, 0.1)
            classical = (gamma**2 + c * 0.1) / (1.0 + gamma) ** 2
            assert abs(prop.r_in - classical) < 1e-3
            assert abs(prop.r_out - classical) < 1e-3


class TestRidgelessLimits:
    def test_under_determined(self):
        rp = ridge.ridgeless_limits(0.5, 1.0, 0.1)
        assert (rp.r_in, rp.r_out) == (pytest.approx(0.05), pytest.approx(0.1))

    def test_over_determined(self):
        assert ridge.ridgeless_limits(2.0, 1.0, 0.1).r_out == pytest.approx(0.6)

    @pytest.mark.parametrize("c", [1.25, 2.0, 4.0])
    def test_interpolating_in_sample_is_noise(self, c):
        # the min-norm interpolator gives X^T(beta - beta_*) = noise exactly
        rp = ridge.ridgeless_limits(c, 1.0, 0.1)
        assert rp.r_in == 0.1
        near = ridge.risk_theory(1e-9, c, 1.0, 0.1)
        assert rp.r_in == pytest.approx(near.r_in, abs=1e-6)
        assert rp.r_out == pytest.approx(near.r_out, abs=1e-6)

    def test_noiseless(self):
        rp = ridge.ridgeless_limits(0.5, 1.0, 0.0)
        assert rp.r_in == 0.0 and rp.r_out == 0.0

    def test_peak_rejected(self):
        with pytest.raises(SingularityError):
            ridge.ridgeless_limits(1.0, 1.0, 0.1)


class TestSweep:
    def test_single_point_reproducible(self):
        spec = ridge.SweepSpec(ratios=[2.0], gammas=[0.1], trials=2, p=32,
                               sigma2=0.1, seed=7)
        rows1 = ridge.sweep_double_descent(spec)
        rows2 = ridge.sweep_double_descent(spec)
        assert rows1 == rows2

    def test_only_numerical_trial_failures_recorded(self, monkeypatch):
        # gamma = 0: the trials fitted on direct draws
        spec = ridge.SweepSpec(ratios=[2.0], gammas=[0.0], trials=2, p=16,
                               sigma2=0.1, seed=7)

        def raise_(exc):
            def fit(*args, **kwargs):
                raise exc
            return fit

        monkeypatch.setattr(ridge, "ridge_fit", raise_(np.linalg.LinAlgError("singular")))
        rows = ridge.sweep_double_descent(spec)
        assert [r.status for r in rows] == ["2-trials-failed"] * 2
        assert all(r.trials == 0 and np.isnan(r.empirical_mean) for r in rows)
        # a programming error is not a failed trial
        monkeypatch.setattr(ridge, "ridge_fit", raise_(TypeError("bug")))
        with pytest.raises(TypeError):
            ridge.sweep_double_descent(spec)

    def test_double_descent_shape_small(self):
        # desk-size check: interior peak at ratio 1 for tiny gamma, none at 0.1
        spec = ridge.SweepSpec(ratios=[0.5, 1.0, 2.0], gammas=[1e-5, 1e-1],
                               trials=8, p=128, sigma2=0.1, seed=0)
        rows = ridge.sweep_double_descent(spec)
        out = {(r.gamma, r.ratio): r.empirical_mean
               for r in rows if r.metric == "r_out"}
        assert out[(1e-5, 1.0)] > 5 * out[(1e-5, 2.0)]
        assert out[(1e-1, 0.5)] > out[(1e-1, 1.0)] > out[(1e-1, 2.0)]

    def test_agreement_with_theory(self):
        spec = ridge.SweepSpec(ratios=[0.5, 2.0], gammas=[0.1], trials=12,
                               p=128, sigma2=0.1, seed=3)
        rows = ridge.sweep_double_descent(spec)
        for r in rows:
            assert r.status == "ok"
            assert r.empirical_mean == pytest.approx(r.theory, rel=0.1)

    def test_in_sample_scaling_slope(self):
        # gamma = 0: r_in ~ sigma^2 p / n, slope -1 on log-log
        spec = ridge.SweepSpec(ratios=[2.0, 4.0, 8.0], gammas=[0.0], trials=6,
                               p=64, sigma2=0.1, seed=1)
        rows = [r for r in ridge.sweep_double_descent(spec) if r.metric == "r_in"]
        ns = np.array([r.ratio * 64 for r in rows])
        means = np.array([r.empirical_mean for r in rows])
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_rows_report_simulated_ratio(self):
        # n = round(0.55 * 16) = 9, so the row reports 9 / 16, the ratio the
        # theory uses, not the requested 0.55
        spec = ridge.SweepSpec(ratios=[0.55], gammas=[0.1], trials=2, p=16,
                               sigma2=0.1, seed=2)
        rows = ridge.sweep_double_descent(spec)
        assert [r.ratio for r in rows] == [9 / 16, 9 / 16]
        assert rows[1].theory == ridge.risk_theory(0.1, 16 / 9, 1.0, 0.1).r_out

    def test_shared_draw_buffer_matches_per_trial_allocation(self):
        # gamma = 0, the points that fit on direct draws
        spec = ridge.SweepSpec(ratios=[0.5, 2.0], gammas=[0.0], trials=3, p=32,
                               sigma2=0.1, seed=13)
        got, want = ridge.sweep_double_descent(spec), per_trial_allocation_sweep(spec)
        assert len(got) == len(want) == 4
        for row, ref in zip(got, want):
            assert all(a == b or (a != a and b != b)  # NaN equals NaN
                       for a, b in zip(astuple(row), astuple(ref))), (row, ref)

    def test_sweep_holds_one_draw(self):
        spec = ridge.SweepSpec(ratios=[0.5, 4.0, 16.0], gammas=[0.0, 0.1], trials=3,
                               p=64, sigma2=0.1, seed=5)
        ridge.sweep_double_descent(spec)  # warm-up
        tracemalloc.start()
        try:
            ridge.sweep_double_descent(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest_draw = 64 * 1024 * 8
        assert peak <= 1.5 * largest_draw, peak / largest_draw

    def test_peak_row_flagged(self):
        spec = ridge.SweepSpec(ratios=[1.0], gammas=[0.0], trials=2, p=16,
                               sigma2=0.1, seed=2)
        rows = ridge.sweep_double_descent(spec)
        assert all(r.status == "peak" for r in rows)
        assert all(np.isnan(r.theory) for r in rows)


class TestTridiagonalSolve:
    SIZES = [1, 2, 3, 4, 7, 8, 9, 511, 512, 513]

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    def test_matches_dense_solve(self, m, lead):
        rng = np.random.default_rng(m)
        d, e = spd_tridiagonal(rng, lead, m, 0.1)
        r = rng.standard_normal(lead + (m,))
        x = ridge._tridiagonal_solve(d, e, r)
        assert x.shape == r.shape
        T, i = np.zeros(lead + (m, m)), np.arange(m)
        T[..., i, i] = d
        T[..., i[:-1], i[1:]] = T[..., i[1:], i[:-1]] = e
        x_norm = np.linalg.norm(x, axis=-1)
        # T is SPD: its 2-norm is lam_max and its condition number lam_max / lam_min
        lam = np.linalg.eigvalsh(T)
        resid = np.linalg.norm((T @ x[..., None])[..., 0] - r, axis=-1)
        assert np.all(resid <= 4 * EPS * lam[..., -1] * x_norm)
        want = np.linalg.solve(T, r[..., None])[..., 0]
        err = np.linalg.norm(x - want, axis=-1)
        assert np.all(err <= 4 * EPS * (lam[..., -1] / lam[..., 0]) * x_norm)

    @pytest.mark.parametrize("m", SIZES)
    def test_batched_equals_per_system(self, m):
        rng = np.random.default_rng(100 + m)
        d, e = spd_tridiagonal(rng, (2, 5), m, 0.1)
        r = rng.standard_normal((2, 5, m))
        x = ridge._tridiagonal_solve(d, e, r)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(ridge._tridiagonal_solve(d[idx], e[idx], r[idx]),
                                  x[idx])

    def test_matches_thomas_sweep_on_the_square_sampler_system(self):
        # m = n = 512 at gamma = 1e-5, the worst-conditioned system of the
        # shipped sweep (cond ~ 4e5), built as bidiagonal_risks builds it
        n, gamma = 512, 1e-5
        spec = ridge.SweepSpec(ratios=[1.0], gammas=[gamma], trials=8, p=n, seed=7)
        a, s, b, z = ridge.draw_bidiagonal(spec, n, 0)
        d = a * a
        d[:, 1:] += s * s
        d = d / n + gamma
        Bz = a * z
        Bz[:, 1:] += s * z[:, :-1]
        e, r = a[:, :-1] * s / n, np.sqrt(0.1) / n * Bz - gamma * b
        x, want = ridge._tridiagonal_solve(d, e, r), thomas_solve(d, e, r)
        rel = np.linalg.norm(x - want, axis=1) / np.linalg.norm(want, axis=1)
        assert rel.max() <= 1e-10, rel.max()


class TestBidiagonalSampler:
    @pytest.mark.parametrize("p, n", [(6, 10), (10, 6), (8, 8), (5, 40), (40, 5)])
    @pytest.mark.parametrize("gamma", [1e-5, 0.1])
    def test_matches_dense_fit(self, p, n, gamma):
        # the agreement is bounded by cond(B B^T / n + gamma I) eps, since both
        # sides form that matrix; the square case at gamma = 1e-5 is the worst
        spec = ridge.SweepSpec(ratios=[n / p], gammas=[gamma], trials=1, p=p, seed=0)
        a, s, b, z = chi_draw_one_trial(spec, n, 0, 0)
        X, y = dense_design(a, s, b, z, p, n, 0.1)
        want = ridge.empirical_risks(ridge.ridge_fit(X, y, gamma),
                                     GroundTruth(b, 0.1), X)
        r_in, r_out = ridge.bidiagonal_risks(a, s, b, z, n, gamma, 0.1)
        assert r_in == pytest.approx(want.r_in, rel=1e-12, abs=0)
        assert r_out == pytest.approx(want.r_out, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p, n", [(7, 12), (12, 7)])
    def test_chi_degrees_of_freedom(self, p, n):
        # T = B B^T has the Wishart moments E tr T = mk, E tr T^2 = mk(m + k + 1)
        trials = 4000
        spec = ridge.SweepSpec(ratios=[n / p], gammas=[0.1], trials=trials, p=p,
                               seed=21)
        a, s, _, _ = ridge.draw_bidiagonal(spec, n, 0)
        diag = a**2
        diag[:, 1:] += s**2
        off = a[:, :-1] * s
        tr1 = diag.sum(axis=1)
        tr2 = (diag**2).sum(axis=1) + 2 * (off**2).sum(axis=1)
        m, k = min(p, n), max(p, n)
        for vals, want in ((tr1, m * k), (tr2, m * k * (m + k + 1))):
            se = vals.std(ddof=1) / np.sqrt(trials)
            assert abs(vals.mean() - want) <= 4 * se, (vals.mean(), want, se)

    @pytest.mark.parametrize("n", [16, 48, 128])
    @pytest.mark.parametrize("gamma", [0.05, 0.5])
    def test_agrees_with_direct_draws(self, n, gamma):
        p, trials, sigma2 = 32, 4000, 0.1
        spec = ridge.SweepSpec(ratios=[n / p], gammas=[gamma], trials=trials, p=p,
                               sigma2=sigma2, seed=17)
        sampled = ridge.bidiagonal_risks(*ridge.draw_bidiagonal(spec, n, 0), n, gamma,
                                         sigma2)
        rng = np.random.default_rng(18)
        direct = np.empty((2, trials))
        for t in range(trials):
            bstar = rng.standard_normal(p)
            truth = GroundTruth(bstar / np.linalg.norm(bstar), sigma2)
            X = DataMatrix(rng.standard_normal((p, n)))
            y = X.entries.T @ truth.beta_star + np.sqrt(sigma2) * rng.standard_normal(n)
            risks = ridge.empirical_risks(ridge.ridge_fit(X, y, gamma), truth, X)
            direct[:, t] = risks.r_in, risks.r_out
        for got, want in zip(sampled, direct):
            se = np.hypot(got.std(ddof=1), want.std(ddof=1)) / np.sqrt(trials)
            assert abs(got.mean() - want.mean()) <= 4 * se, (got.mean(), want.mean())

    def test_sweep_rows_follow_the_stream_layout(self):
        # every trial of point i draws from its own (role, i, t) streams, and
        # the sweep's trials solved together equal each trial solved alone
        spec = ridge.SweepSpec(ratios=[0.5, 2.0], gammas=[0.0, 0.1], trials=3, p=16,
                               sigma2=0.1, seed=13)
        rows = {(r.gamma, r.ratio, r.metric): r for r in ridge.sweep_double_descent(spec)}
        for i, ratio in enumerate(spec.ratios, start=len(spec.ratios)):
            n = round(ratio * spec.p)
            vals = np.array([ridge.bidiagonal_risks(*chi_draw_one_trial(spec, n, i, t),
                                                    n, 0.1, spec.sigma2)
                             for t in range(spec.trials)])
            for metric, want in zip(("r_in", "r_out"), vals.T):
                row = rows[(0.1, n / spec.p, metric)]
                ref = ResultRow.from_trials(n / spec.p, 0.1, metric, want, row.theory)
                assert row.empirical_mean == pytest.approx(ref.empirical_mean, rel=1e-14)
                assert row.empirical_stderr == pytest.approx(ref.empirical_stderr,
                                                             rel=1e-12)

    def test_non_finite_trial_recorded(self, monkeypatch):
        spec = ridge.SweepSpec(ratios=[2.0], gammas=[0.1], trials=3, p=16,
                               sigma2=0.1, seed=7)
        real = ridge.bidiagonal_risks

        def one_nan(*args):
            r_in, r_out = real(*args)
            r_out[1] = np.nan
            return r_in, r_out

        monkeypatch.setattr(ridge, "bidiagonal_risks", one_nan)
        rows = ridge.sweep_double_descent(spec)
        assert [r.status for r in rows] == ["1-trials-failed"] * 2
        assert [r.trials for r in rows] == [2, 2]
        assert all(np.isfinite(r.empirical_mean) for r in rows)

    def test_no_draw_buffer_without_a_ridgeless_point(self):
        # p x n = 4e14 doubles: a gamma = 0 point could not allocate its first draw
        spec = ridge.SweepSpec(ratios=[1e6], gammas=[0.1], trials=1, p=20000, seed=1)
        rows = ridge.sweep_double_descent(spec)
        assert [r.status for r in rows] == ["ok", "ok"]
        with pytest.raises(MemoryError):
            ridge.sweep_double_descent(ridge.SweepSpec(
                ratios=[1e6], gammas=[0.0], trials=1, p=20000, seed=1))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gammas"):
            ridge.sweep_double_descent(ridge.SweepSpec(ratios=[2.0], gammas=[-0.1],
                                                       trials=1, p=4))
