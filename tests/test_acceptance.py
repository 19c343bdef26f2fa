"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria follow the
project contract; every tolerance is pinned here, not calibrated elsewhere.
"""

import os
import time

import numpy as np
import pytest

from rmt_equiv import det_equiv, dynamics as dyn, hermite_kernels as hk
from rmt_equiv import rf_nn, ridge, spectral
from rmt_equiv.randgen import (
    GroundTruth,
    gaussian_matrix,
    ingest_dataset,
    linear_targets,
    rademacher_matrix,
    sphere_dataset,
)

GOLDEN = (np.sqrt(5) - 1) / 2


def report(num, name, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ------------------------------------------------------------- shared fixtures

@pytest.fixture(scope="module")
def scm_eigs():
    """Eigenvalues of (1/n) X X^T at p=1024, n=2048 for both entry laws,
    with per-distribution wall time (generation + eigendecomposition)."""
    out = {}
    for name, maker in (("gaussian", lambda: gaussian_matrix(1024, 2048, 31337)),
                        ("rademacher", lambda: rademacher_matrix(1024, 2048, 31338))):
        t0 = time.monotonic()
        X = maker().entries
        lam = np.linalg.eigvalsh(X @ X.T / 2048)
        out[name] = (lam, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def ridge_rows():
    # seed fixes the Monte Carlo instance; the shoulder points (ratio 0.8 and
    # 1.25) have ~2% sampling stderr at 30 trials, so the 5% contract leaves
    # only moderate headroom on any single instance
    spec = ridge.SweepSpec(
        ratios=[0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0],
        gammas=[1e-5, 1e-1], trials=30, p=512, sigma2=0.1, seed=3141,
    )
    t0 = time.monotonic()
    rows = ridge.sweep_double_descent(spec)
    return rows, time.monotonic() - t0


# ------------------------------------------------------------------- criteria

def test_criterion_01_mp_law(scm_eigs):
    lam, gen_time = scm_eigs["gaussian"]
    t0 = time.monotonic()
    ks = spectral.ks_distance(lam, det_equiv.mp_cdf(0.5))
    elapsed = gen_time + time.monotonic() - t0
    report(1, "MP law KS", ks <= 0.03 and elapsed <= 30.0,
           f"KS={ks:.4f} (tol 0.03), end-to-end {elapsed:.1f}s (cap 30s)")


def test_criterion_02_universality(scm_eigs):
    ks_r = spectral.ks_distance(scm_eigs["rademacher"][0], det_equiv.mp_cdf(0.5))
    m = det_equiv.mp_stieltjes(0.5, -1.0).real
    traces = {name: float(np.mean(1.0 / (lam + 1.0)))
              for name, (lam, _) in scm_eigs.items()}
    dev_g = abs(traces["gaussian"] - m)
    dev_r = abs(traces["rademacher"] - m)
    dev_pair = abs(traces["gaussian"] - traces["rademacher"])
    ok = ks_r <= 0.03 and dev_g <= 0.03 and dev_r <= 0.03 and dev_pair <= 0.01
    report(2, "universality", ok,
           f"KS(rademacher)={ks_r:.4f}, |tr-m|: g={dev_g:.5f} r={dev_r:.5f}, "
           f"|g-r|={dev_pair:.5f}")


def test_criterion_03_golden_fixed_point():
    fp = det_equiv.solve_delta_scm(np.ones(512), 512, -1.0)
    dev = abs(fp.delta - GOLDEN)
    ok = dev <= 1e-10 and fp.residual <= 1e-12
    report(3, "golden-ratio fixed point", ok,
           f"|delta - (sqrt5-1)/2| = {dev:.2e}, residual = {fp.residual:.2e}")


def test_criterion_04_ridge_risks(ridge_rows):
    rows, elapsed = ridge_rows
    th0 = ridge.risk_theory(0.0, 0.5, 1.0, 0.1).r_out
    th1 = ridge.risk_theory(0.1, 0.5, 1.0, 0.1).r_out
    anchors_ok = abs(th0 - 0.100000) <= 1e-6 and abs(th1 - 0.091427) <= 1e-6
    worst_rel, worst_sig = 0.0, 0.0
    for r in rows:
        if 0.9 <= r.ratio <= 1.1:
            continue  # contract excludes the peak band of ratios [0.9, 1.1]
        if not (np.isfinite(r.theory) and r.status == "ok"):
            continue
        rel = abs(r.empirical_mean - r.theory) / abs(r.theory)
        sig = abs(r.empirical_mean - r.theory) / (3 * r.empirical_stderr)
        worst_rel, worst_sig = max(worst_rel, rel), max(worst_sig, sig)
    ok = anchors_ok and worst_rel <= 0.05 and worst_sig <= 1.0 and elapsed <= 300
    report(4, "ridge risk agreement", ok,
           f"anchors(0.1/0.091427)={anchors_ok}, worst rel={worst_rel:.3f} "
           f"(tol 0.05), worst |d|/3se={worst_sig:.2f} (tol 1), "
           f"sweep {elapsed:.0f}s (cap 300s)")


def test_criterion_05_double_descent(ridge_rows):
    rows, _ = ridge_rows
    out = {(round(r.gamma, 8), r.ratio): r.empirical_mean
           for r in rows if r.metric == "r_out"}
    ratios = sorted({r.ratio for r in rows})
    near_one = min(ratios, key=lambda x: abs(x - 1.0))
    peaked = out[(1e-5, near_one)] >= 5.0 * out[(1e-5, 2.0)]
    # gamma = 0.1: no interior local maximum above 1.2x the ratio-2 value
    seq = [out[(0.1, r)] for r in ratios]
    interior_max = max(
        (seq[i] for i in range(1, len(seq) - 1)
         if seq[i] > seq[i - 1] and seq[i] > seq[i + 1]),
        default=float("-inf"),
    )
    mitigated = interior_max <= 1.2 * out[(0.1, 2.0)]
    report(5, "double descent", peaked and mitigated,
           f"r_out(ratio~1)/r_out(2) = {out[(1e-5, near_one)] / out[(1e-5, 2.0)]:.1f} "
           f"(need >= 5) at gamma=1e-5; interior max at gamma=0.1: "
           f"{'none' if interior_max == float('-inf') else f'{interior_max:.3f}'}")


def test_criterion_06_in_sample_scaling():
    spec = ridge.SweepSpec(ratios=[2.0, 4.0, 8.0, 16.0], gammas=[0.0],
                           trials=30, p=512, sigma2=0.1, seed=515)
    rows = [r for r in ridge.sweep_double_descent(spec) if r.metric == "r_in"]
    ns = np.array([r.ratio * 512 for r in rows])
    means = np.array([r.empirical_mean for r in rows])
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    ok = abs(slope + 1.0) <= 0.1
    report(6, "in-sample n^-1 scaling", ok, f"log-log slope = {slope:.4f} "
           f"(need -1 +- 0.1)")


def test_criterion_07_contour_oracle():
    fs = [
        (lambda z: z**2, lambda lam: lam**2),
        (np.exp, np.exp),
        (lambda z: z**3 - 2 * z, lambda lam: lam**3 - 2 * lam),
        (lambda z: 1.0 / (z + 20.0), lambda lam: 1.0 / (lam + 20.0)),
    ]
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(7000 + case)
        k = int(rng.integers(6, 27))
        lam = np.sort(np.concatenate([
            rng.uniform(0.0, 4.0, k), rng.uniform(6.0, 10.0, 32 - k)]))
        Q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        S = (Q * lam) @ Q.T
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        which = case % 3
        if which == 0:
            idx = np.arange(32)
            contour = spectral.ContourSpec(complex(5.0), 6.0, 512)
        elif which == 1:
            idx = np.arange(k)
            contour = spectral.ContourSpec(complex(2.0), 2.8, 512)
        else:
            idx = np.arange(k, 32)
            contour = spectral.ContourSpec(complex(8.0), 2.8, 512)
        f_c, f_r = fs[case % len(fs)]
        got = spectral.contour_functional(S, f_c, a, b, contour)
        want = spectral.spectral_functional(S, f_r, a, b, idx)
        worst = max(worst, abs(got - want))
    report(7, "contour vs eigendecomposition oracle", worst <= 1e-8,
           f"worst |contour - direct| over 20 cases = {worst:.2e} (tol 1e-8)")


def test_criterion_08_hermite_coefficients():
    a1_tanh = hk.hermite_coeffs(rf_nn.get_activation("tanh")).a1
    c = hk.hermite_coeffs(rf_nn.get_activation("relu"))
    oracle = (1 / np.sqrt(2 * np.pi), 0.5,
              (np.sqrt(2 / np.pi) - 1 / np.sqrt(2 * np.pi)) / np.sqrt(2), 0.5)
    dev_relu = max(abs(c.a0 - oracle[0]), abs(c.a1 - oracle[1]),
                   abs(c.a2 - oracle[2]), abs(c.nu - oracle[3]))
    ok = abs(a1_tanh - 0.6057) <= 1e-3 and dev_relu <= 1e-10
    report(8, "Hermite coefficients", ok,
           f"a1(tanh) = {a1_tanh:.5f} (0.6057 +- 1e-3), "
           f"max ReLU dev vs half-Gaussian oracle = {dev_relu:.2e} (tol 1e-10)")


def test_criterion_09_kernel_linearization():
    act = rf_nn.get_activation("relu")
    coeffs = hk.hermite_coeffs(act)
    gaps = []
    for p in (128, 256, 512, 1024):
        X = sphere_dataset(p, p, 9000 + p)
        K = rf_nn.kernel_expectation(X, X, act)  # exact expectation over w
        Kt = hk.linear_equivalent_kernel(X, coeffs)
        gaps.append(float(np.linalg.norm(K - Kt, 2) / np.linalg.norm(Kt, 2)))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = gaps[0] <= 0.25 and decreasing
    report(9, "kernel linearization", ok,
           "gaps = " + ", ".join(f"{g:.4f}" for g in gaps)
           + " (first <= 0.25, strictly decreasing)")


def test_criterion_10_rf_mse_theory():
    n, p, n_test, gamma, trials = 512, 256, 512, 0.1, 30
    act = rf_nn.get_activation("relu")
    Xtr = sphere_dataset(p, n, 42)
    Xte = sphere_dataset(p, n_test, 43)
    rng = np.random.default_rng(44)
    bstar = rng.standard_normal(p)
    bstar /= np.linalg.norm(bstar)
    ytr, yte = Xtr.entries.T @ bstar, Xte.entries.T @ bstar
    kernels = rf_nn.kernel_triplet(Xtr, Xte, act)
    worst = 0.0
    details = []
    for i, dn in enumerate((0.25, 0.5, 1.0, 2.0)):
        d = int(dn * n)
        th_tr, th_te = rf_nn.nn_mse_theory(kernels, ytr, yte, d, gamma)
        emp_tr, emp_te = np.empty(trials), np.empty(trials)
        for t in range(trials):
            W = np.random.default_rng(9000 + 1000 * i + t).standard_normal((d, p))
            feats = rf_nn.rf_features(W, Xtr, act)
            beta = rf_nn.rf_fit(feats, ytr, gamma)
            emp_tr[t] = rf_nn.rf_empirical_mse(beta, feats, ytr)
            emp_te[t] = rf_nn.rf_empirical_mse(
                beta, rf_nn.rf_features(W, Xte, act), yte)
        rel_tr = abs(emp_tr.mean() - th_tr) / th_tr
        rel_te = abs(emp_te.mean() - th_te) / th_te
        worst = max(worst, rel_tr, rel_te)
        details.append(f"d/n={dn}: {rel_tr:.3f}/{rel_te:.3f}")
    report(10, "RF-NN MSE theory", worst <= 0.05,
           "train/test rel dev " + "; ".join(details) + " (tol 0.05)")


MNIST_PATH = os.environ.get("RMT_EQUIV_MNIST", "data/mnist_12.csv")


@pytest.mark.skipif(not os.path.exists(MNIST_PATH),
                    reason="optional: local MNIST CSV not present (not gating)")
def test_criterion_10_optional_mnist_reproduction():
    # reproduces the reference protocol: digits {1,2}, n = n' = 1024, ReLU,
    # gamma = 0.1, d/n = 2; reference test-MSE theory value 0.061402
    X_all, y_all = ingest_dataset(MNIST_PATH, {1.0, 2.0})
    n = n_test = 1024
    from rmt_equiv.randgen import DataMatrix
    Xtr = DataMatrix(X_all.entries[:, :n])
    Xte = DataMatrix(X_all.entries[:, n:n + n_test])
    kernels = rf_nn.kernel_triplet(Xtr, Xte, rf_nn.get_activation("relu"))
    _, th_te = rf_nn.nn_mse_theory(kernels, y_all[:n], y_all[n:n + n_test],
                                   2 * n, 0.1)
    print(f"[criterion 10 optional] MNIST test-MSE theory = {th_te:.6f} "
          f"(reference 0.061402)")


def test_criterion_11a_theta_identity():
    theta = rf_nn.theta_fixed_point(np.ones(256), 0.5)
    ok = abs(theta - 0.5) <= 1e-12
    report("11a", "theta on K = I", ok, f"|theta - 0.5| = {abs(theta - 0.5):.2e}")


def test_criterion_11b_gamma_delta_monotone():
    rng = np.random.default_rng(111)
    B = rng.standard_normal((256, 256))
    lam = np.clip(np.linalg.eigvalsh(B @ B.T / 256), 1e-9, None)
    n, d = 256, 128
    theta = rf_nn.theta_fixed_point(lam, d / n)
    gaps = [rf_nn.nonlinear_de_delta(lam, d, g).delta * g - theta
            for g in (1e-2, 1e-4, 1e-6)]
    ok = all(g > 0 for g in gaps) and gaps[0] > gaps[1] > gaps[2]
    report("11b", "gamma*delta -> theta monotone", ok,
           "gaps = " + ", ".join(f"{g:.2e}" for g in gaps))


def test_criterion_11c_exponential_scaling_law():
    # Candidate synthetic spectra kappa_i = alpha^{t_i} for the exponential
    # eigendecay law: t_i on a unit grid (this one matches the closed form at
    # n/d = 10 to ~7%), plus quantile discretizations of the alpha^t measure
    # over values. The contract asks the closed form to track the numerical
    # theta within 15% for every n/d in [10, 100] on one such spectrum.
    alpha = 0.5
    lam_rate = np.log(1.0 / alpha)
    n = 20_000
    q = (np.arange(n) + 0.5) / n
    spectra = {
        "unit-grid": alpha ** q,
        "value-density": -np.log(1.0 - q) / lam_rate,
        "exp-rate-alpha": -np.log(1.0 - q) / alpha,
    }
    points = (10.0, 31.6, 100.0)
    lines = []
    worst_by_spectrum = {}
    for name, kappa in spectra.items():
        rels = []
        for nd in points:
            cf = rf_nn.scaling_law_closed_form("exponential", 1.0 / nd,
                                               alpha=alpha)
            th = rf_nn.theta_fixed_point(kappa, 1.0 / nd)
            rels.append(abs(cf - th) / th)
        worst_by_spectrum[name] = max(rels)
        lines.append(f"{name}: " + ", ".join(
            f"n/d={nd:g}->{r:.2f}" for nd, r in zip(points, rels)))
    ok = min(worst_by_spectrum.values()) <= 0.15
    report("11c", "exponential-decay closed form vs numerical theta", ok,
           "rel devs " + "; ".join(lines)
           + " (tol 0.15 across the range; expected red: the numerical theta "
           "of any fixed spectrum increases with n/d while the closed form "
           "decreases - see README \"Tests\")")


def test_criterion_12_ck_curse_of_depth():
    act = hk.normalize_activation(rf_nn.get_activation("tanh"))
    params = hk.ck_alphas(act, 10)
    a1s = [a[0] for a in params]
    strictly_dec = all(b < a for a, b in zip(a1s[1:], a1s[2:]))
    X = sphere_dataset(256, 256, 77)
    eye = np.eye(256)
    d1 = np.linalg.norm(hk.ck_linear_equivalent(X, params, 1) - eye, 2)
    d10 = np.linalg.norm(hk.ck_linear_equivalent(X, params, 10) - eye, 2)
    rng = np.random.default_rng(1)
    W1 = rng.standard_normal((8192, 256))
    W2 = rng.standard_normal((8192, 8192)) / np.sqrt(8192)
    P2 = act.evaluate(W2 @ act.evaluate(W1 @ X.entries))
    K2t = hk.ck_linear_equivalent(X, params, 2)
    gap = float(np.linalg.norm(P2.T @ P2 / 8192 - K2t, 2) / np.linalg.norm(K2t, 2))
    ok = strictly_dec and d10 < d1 and gap <= 0.2
    report(12, "CK curse of depth", ok,
           f"alpha1 strictly decreasing={strictly_dec}, ||K10-I||={d10:.3f} < "
           f"||K1-I||={d1:.3f}, width-8192 CK gap={gap:.4f} (tol 0.2)")


def test_criterion_13_dynamics():
    rng = np.random.default_rng(13)
    X = sphere_dataset(12, 40, 130)
    W = rng.standard_normal((24, 12))
    feats = rf_nn.rf_features(W, X, rf_nn.get_activation("tanh"))
    y = rng.standard_normal(40)
    beta0 = rng.standard_normal(24) * 0.3
    n = 40
    S = feats @ feats.T / n
    lam = np.linalg.eigvalsh(S)
    eta = 1.0
    # (a) convergence to the ridgeless minimizer at eta t lambda_min = 40
    t_inf = 40.0 / (eta * lam.min())
    beta_inf = np.linalg.solve(S, feats @ y / n)
    dev_inf = np.abs(dyn.gradient_flow_beta(feats, y, beta0, eta, t_inf)
                     - beta_inf).max()
    # (b) contour vs direct projections
    contour = dyn.default_flow_contour(lam.max(), 512)
    v = rng.standard_normal(24)
    v /= np.linalg.norm(v)
    dev_contour = 0.0
    for t in (0.0, 1.0 / (eta * lam.max()), 10.0 / (eta * lam.max())):
        direct = float(v @ dyn.gradient_flow_beta(feats, y, beta0, eta, t))
        dev_contour = max(dev_contour, abs(
            dyn.contour_beta_projection(v, feats, y, beta0, eta, t, contour)
            - direct))
    # (c) NTK trajectory loss monotone nonincreasing
    B = rng.standard_normal((40, 40))
    K_ntk = B @ B.T / 40
    times = [0.0, 0.3, 1.0, 3.0, 10.0]
    losses = [s.loss for s in dyn.ntk_trajectory(K_ntk, y, eta, times)]
    monotone = all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    ok = dev_inf <= 1e-10 and dev_contour <= 1e-7 and monotone
    report(13, "dynamics", ok,
           f"|beta(t_inf) - beta_0+| = {dev_inf:.2e} (tol 1e-10), "
           f"max |contour - direct| = {dev_contour:.2e} (tol 1e-7), "
           f"NTK loss monotone = {monotone}")
