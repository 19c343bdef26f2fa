"""Ridge fits, risk formulas (empirical and closed form), double-descent sweeps."""

import numpy as np
import pytest

from rmt_equiv import ridge
from rmt_equiv.errors import SingularityError
from rmt_equiv.randgen import DataMatrix, GroundTruth, gaussian_matrix, linear_targets


class TestRidgeFit:
    def test_huge_gamma_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        X = DataMatrix(rng.standard_normal((6, 9)) * 0.3)
        y = rng.standard_normal(9) * 0.3
        sol = ridge.ridge_fit(X, y, 1e8)
        assert np.linalg.norm(sol.beta) <= 1e-6

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(1)
        X = DataMatrix(rng.standard_normal((5, 12)))
        beta_star = rng.standard_normal(5)
        sol = ridge.ridge_fit(X, X.entries.T @ beta_star, 0.0)
        assert np.abs(sol.beta - beta_star).max() <= 1e-8
        assert sol.solved_via == "pseudoinverse"

    def test_primal_dual_identical(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 30))
        y = rng.standard_normal(30)
        gamma = 0.1
        p, n = A.shape
        primal = np.linalg.solve(A @ A.T / n + gamma * np.eye(p), A @ y / n)
        dual = A @ np.linalg.solve(A.T @ A / n + gamma * np.eye(n), y) / n
        assert np.abs(primal - dual).max() <= 1e-10
        sol = ridge.ridge_fit(DataMatrix(A), y, gamma)
        assert np.abs(sol.beta - primal).max() <= 1e-10

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            ridge.ridge_fit(DataMatrix(np.ones((2, 2))), np.ones(2), -0.1)

    def test_minimizes_objective(self):
        # perturbing the solution along random directions never lowers the loss
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 14))
        y = rng.standard_normal(14)
        gamma = 0.2
        sol = ridge.ridge_fit(DataMatrix(A), y, gamma)

        def loss(b):
            r = y - A.T @ b
            return r @ r / 14 + gamma * b @ b

        base = loss(sol.beta)
        for _ in range(10):
            direction = rng.standard_normal(8)
            direction /= np.linalg.norm(direction)
            assert loss(sol.beta + 1e-3 * direction) >= base - 1e-12
            assert loss(sol.beta - 1e-3 * direction) >= base - 1e-12


class TestEmpiricalRisks:
    def test_perfect_solution(self):
        X = gaussian_matrix(4, 8, 1.0, 0)
        truth = GroundTruth(np.ones(4), 0.0)
        sol = ridge.RidgeSolution(np.ones(4), 0.0, "pseudoinverse")
        risks = ridge.empirical_risks(sol, truth, X)
        assert risks.r_in == pytest.approx(0.0) and risks.r_out == pytest.approx(0.0)

    def test_unit_shift_out_of_sample(self):
        X = gaussian_matrix(4, 8, 1.0, 1)
        truth = GroundTruth(np.zeros(4), 0.0)
        beta = np.zeros(4)
        beta[0] = 1.0
        sol = ridge.RidgeSolution(beta, 0.1, "primal")
        assert ridge.empirical_risks(sol, truth, X).r_out == pytest.approx(1.0)

    def test_test_set_estimate(self):
        X = gaussian_matrix(3, 6, 1.0, 2)
        X_test = gaussian_matrix(3, 500, 1.0, 3)
        truth = GroundTruth(np.zeros(3), 0.0)
        beta = np.array([1.0, 0.0, 0.0])
        sol = ridge.RidgeSolution(beta, 0.1, "primal")
        est = ridge.empirical_risks(sol, truth, X, test=(X_test, None)).r_out
        assert est == pytest.approx(1.0, rel=0.2)  # LLN at n' = 500

    def test_conditional_mode_removes_noise_variance(self):
        p, n, gamma = 64, 128, 0.3
        truth_dir = np.zeros(p)
        truth_dir[0] = 1.0
        truth = GroundTruth(truth_dir, 0.1)
        vals = []
        for seed in range(8):
            X = gaussian_matrix(p, n, 1.0, seed)
            y = linear_targets(X, truth, 1000 + seed)
            sol = ridge.ridge_fit(X, y, gamma)
            vals.append(ridge.empirical_risks(
                sol, truth, X, in_sample_mode="conditional").r_in)
        th = ridge.risk_theory(gamma, p / n, 1.0, 0.1).r_in
        assert np.mean(vals) == pytest.approx(th, rel=0.05)


class TestRiskTheory:
    def test_classical_ridgeless(self):
        rp = ridge.risk_theory(0.0, 0.5, 1.0, 0.1, regime="classical")
        assert (rp.r_in, rp.r_out) == (pytest.approx(0.05), pytest.approx(0.05))

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

    def test_regime_consistency_small_c(self):
        c = 1e-4
        for gamma in (0.1, 0.5, 2.0):
            prop = ridge.risk_theory(gamma, c, 1.0, 0.1)
            clas = ridge.risk_theory(gamma, c, 1.0, 0.1, regime="classical")
            assert abs(prop.r_in - clas.r_in) < 1e-3
            assert abs(prop.r_out - clas.r_out) < 1e-3


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
        spec = ridge.SweepSpec(ratios=[2.0], gammas=[0.1], trials=2, p=16,
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

    def test_peak_row_flagged(self):
        spec = ridge.SweepSpec(ratios=[1.0], gammas=[0.0], trials=2, p=16,
                               sigma2=0.1, seed=2)
        rows = ridge.sweep_double_descent(spec)
        assert all(r.status == "peak" for r in rows)
        assert all(np.isnan(r.theory) for r in rows)
