"""Gradient-flow trajectories, NTK dynamics, and contour-evaluated projections."""

import numpy as np
import pytest

from rmt_equiv import dynamics as dyn
from rmt_equiv import rf_nn
from rmt_equiv.errors import DomainError
from rmt_equiv.randgen import sphere_dataset


def make_flow_instance(d=24, n=40, seed=0):
    X = sphere_dataset(12, n, seed)
    rng = np.random.default_rng(seed + 1)
    W = rng.standard_normal((d, 12))
    feats = rf_nn.rf_features(W, X, rf_nn.get_activation("tanh"))
    y = rng.standard_normal(n)
    beta0 = rng.standard_normal(d) * 0.5
    return feats, y, beta0


class TestGradientFlowBeta:
    def test_time_zero(self):
        feats, y, beta0 = make_flow_instance()
        assert np.allclose(dyn.gradient_flow_beta(feats, y, beta0, 1.0, 0.0), beta0)

    def test_converges_to_ridgeless_minimizer(self):
        feats, y, beta0 = make_flow_instance(seed=1)
        n = y.size
        S = feats @ feats.T / n
        lam = np.linalg.eigvalsh(S)
        eta = 1.0
        t = 40.0 / (eta * lam.min())
        beta_inf = np.linalg.solve(S, feats @ y / n)
        got = dyn.gradient_flow_beta(feats, y, beta0, eta, t)
        assert np.abs(got - beta_inf).max() <= 1e-10

    def test_loss_nonincreasing(self):
        feats, y, beta0 = make_flow_instance(seed=2)
        n = y.size
        lam_max = np.linalg.eigvalsh(feats @ feats.T / n).max()
        eta = 1.0
        times = np.array([0.0, 0.1, 1.0, 10.0]) / (eta * lam_max)
        losses = [dyn.flow_loss(feats, y, dyn.gradient_flow_beta(feats, y, beta0,
                                                                 eta, t))
                  for t in times]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_semigroup_property(self):
        feats, y, beta0 = make_flow_instance(seed=3)
        t1, t2, eta = 0.7, 1.9, 0.8
        direct = dyn.gradient_flow_beta(feats, y, beta0, eta, t1 + t2)
        mid = dyn.gradient_flow_beta(feats, y, beta0, eta, t1)
        restarted = dyn.gradient_flow_beta(feats, y, mid, eta, t2)
        assert np.abs(direct - restarted).max() <= 1e-10

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((10, 6))  # d > n: S is singular
        with pytest.raises(DomainError, match="is singular"):
            dyn.gradient_flow_beta(feats, np.ones(6), np.zeros(10), 1.0, 1.0)


class TestNtkTrajectory:
    def test_time_zero(self):
        K = np.eye(3)
        y = np.array([1.0, -1.0, 0.5])
        samples = dyn.ntk_trajectory(K, y, 1.0, [0.0])
        assert samples[0].loss == pytest.approx(np.mean(y**2))

    def test_positive_definite_converges(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 6))
        K = B @ B.T + np.eye(6)
        y = rng.standard_normal(6)
        samples = dyn.ntk_trajectory(K, y, 1.0, [0.0, 1.0, 100.0])
        assert samples[-1].loss <= 1e-12
        losses = [s.loss for s in samples]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_zero_eigenvalue_freezes_component(self):
        # K with kernel direction e3: that error component never decays
        K = np.diag([2.0, 1.0, 0.0])
        y = np.array([0.0, 0.0, 1.0])
        samples = dyn.ntk_trajectory(K, y, 1.0, [0.0, 5.0, 50.0])
        for s in samples:
            assert s.loss == pytest.approx(1.0 / 3.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            dyn.ntk_trajectory(np.array([[1.0, 1.0], [0.0, 1.0]]),
                               np.ones(2), 1.0, [0.0])


class TestContourProjection:
    def test_matches_direct_solution(self):
        feats, y, beta0 = make_flow_instance(d=24, n=40, seed=6)
        n = y.size
        lam = np.linalg.eigvalsh(feats @ feats.T / n)
        contour = dyn.default_flow_contour(lam.max(), nodes=512)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(24)
        v /= np.linalg.norm(v)
        eta = 1.0
        for t in (0.0, 1.0 / lam.max(), 10.0 / lam.max()):
            direct = float(v @ dyn.gradient_flow_beta(feats, y, beta0, eta, t))
            contoured = dyn.contour_beta_projection(v, feats, y, beta0, eta, t,
                                                    contour)
            assert abs(direct - contoured) <= 1e-7

    def test_time_zero_is_cauchy_formula(self):
        feats, y, beta0 = make_flow_instance(seed=8)
        n = y.size
        lam = np.linalg.eigvalsh(feats @ feats.T / n)
        contour = dyn.default_flow_contour(lam.max(), nodes=256)
        v = np.zeros(24)
        v[5] = 1.0
        got = dyn.contour_beta_projection(v, feats, y, beta0, 1.0, 0.0, contour)
        assert got == pytest.approx(beta0[5], abs=1e-8)

    def test_long_time_limit(self):
        # well-conditioned Gram (d = 16 << n = 400, MP support away from 0), so
        # the quadrature stays accurate out to the converged-time regime
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((16, 400))
        y = rng.standard_normal(400)
        n = y.size
        S = feats @ feats.T / n
        lam = np.linalg.eigvalsh(S)
        contour = dyn.default_flow_contour(lam.max(), nodes=512)
        v = np.full(16, 0.25)
        eta = 1.0
        t = 25.0 / (eta * lam.min())
        want = float(v @ np.linalg.solve(S, feats @ y / n))
        got = dyn.contour_beta_projection(v, feats, y, np.zeros(16), eta, t,
                                          contour)
        assert got == pytest.approx(want, abs=1e-6)

    def test_saturation_warns_and_stays_finite(self):
        rng = np.random.default_rng(10)
        feats = rng.standard_normal((16, 400))
        y = rng.standard_normal(400)
        lam = np.linalg.eigvalsh(feats @ feats.T / 400)
        contour = dyn.default_flow_contour(lam.max(), nodes=256)
        v = np.full(16, 0.25)
        with pytest.warns(RuntimeWarning, match="saturated"):
            got = dyn.contour_beta_projection(v, feats, y, np.zeros(16), 1.0,
                                              1e9, contour)
        assert np.isfinite(got)


class TestArrayOfTimes:
    TIMES = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])

    def test_rows_match_scalar_calls(self):
        feats, y, beta0 = make_flow_instance(seed=11)
        lam = np.linalg.eigvalsh(feats @ feats.T / y.size)
        contour = dyn.default_flow_contour(lam.max(), nodes=512)
        v = np.random.default_rng(12).standard_normal(24)
        betas = dyn.gradient_flow_beta(feats, y, beta0, 1.0, self.TIMES)
        projs = dyn.contour_beta_projection(v, feats, y, beta0, 1.0, self.TIMES,
                                            contour)
        assert betas.shape == (7, 24) and projs.shape == (7,)
        for t, beta, proj in zip(self.TIMES, betas, projs):
            assert np.abs(beta - dyn.gradient_flow_beta(feats, y, beta0, 1.0, t)
                          ).max() <= 1e-12
            assert abs(proj - dyn.contour_beta_projection(v, feats, y, beta0, 1.0, t,
                                                          contour)) <= 1e-12

    def test_resolvent_solved_once_per_call(self, monkeypatch):
        feats, y, beta0 = make_flow_instance(seed=11)
        lam = np.linalg.eigvalsh(feats @ feats.T / y.size)
        contour = dyn.default_flow_contour(lam.max(), nodes=128)
        calls, forms = [], dyn.resolvent_forms
        monkeypatch.setattr(dyn, "resolvent_forms",
                            lambda *args: calls.append(1) or forms(*args))
        dyn.contour_beta_projection(np.ones(24), feats, y, beta0, 1.0, self.TIMES,
                                    contour)
        assert len(calls) == 1

    def test_first_failing_time_is_named(self):
        # at these sizes t = 1000 and t = 16000 each fail alone; the error
        # names the first
        feats, y, beta0 = make_flow_instance(d=24, n=48, seed=13)
        lam = np.linalg.eigvalsh(feats @ feats.T / y.size)
        contour = dyn.default_flow_contour(lam.max(), nodes=512)
        with pytest.raises(DomainError, match="at t=1000 is not accurate"):
            dyn.contour_beta_projection(np.ones(24), feats, y, beta0, 1.0,
                                        [0.0, 1000.0, 16000.0], contour)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        samples = [dyn.TrajectorySample(0.0, 1.0, 0.5),
                   dyn.TrajectorySample(1.0, 0.25, None)]
        path = dyn.write_trajectory(str(tmp_path / "traj.csv"), samples)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "t,loss,projection"
        assert lines[1] == "0,1,0.5"
        assert lines[2] == "1,0.25,"
