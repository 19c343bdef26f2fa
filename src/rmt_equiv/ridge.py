"""Linear ridge / minimum-norm least squares with empirical and closed-form risks.

Risk conventions (isotropic data, ground truth beta_*, noise variance sigma^2):

  in-sample   R_in  = (1/n) ||X^T beta - X^T beta_*||^2  (+ analytically
              averaged noise-fit term in the conditional mode),
  out-sample  R_out = E[(beta^T x' - beta_*^T x')^2 | X] = ||beta - beta_*||^2.

Closed forms in the proportional regime use the MP transform m(-gamma) and its
z-derivative m'(-gamma):

  R_in  = gamma^2 ||b*||^2 (m - gamma m') + sigma^2 c (1 - 2 gamma m + gamma^2 m')
  R_out = gamma^2 ||b*||^2 m' + sigma^2 c (m - gamma m')

(The signs of the m' terms follow the resolvent identity d/dgamma Q(-gamma) =
-Q^2; they reproduce the reference curve values, e.g. R_out = 0.091427 at
c = 0.5, gamma = 0.1, sigma^2 = 0.1, ||b*|| = 1.)
"""

from dataclasses import dataclass

import numpy as np

from .det_equiv import mp_stieltjes, mp_stieltjes_derivative
from .errors import ConvergenceError, SingularityError
from .randgen import DataMatrix, GroundTruth, gaussian_matrix, linear_targets
from .results import ResultRow

#: |c - 1| below this flags a sweep point as sitting on the interpolation peak
PEAK_RATIO_BAND = 0.02


@dataclass
class RidgeSolution:
    beta: np.ndarray
    gamma: float
    solved_via: str  # 'primal' | 'dual' | 'pseudoinverse'


@dataclass
class RiskPair:
    r_in: float
    r_out: float


def ridge_fit(X: DataMatrix, y, gamma) -> RidgeSolution:
    """beta = (XX^T/n + gamma I)^{-1} X y / n, or the min-norm LS solution at gamma = 0.

    The gamma > 0 system is solved through whichever of the equivalent p x p
    primal / n x n dual forms is smaller.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    A = X.entries
    y = np.asarray(y, dtype=float)
    p, n = A.shape
    if gamma == 0:
        beta, *_ = np.linalg.lstsq(A.T, y, rcond=None)
        return RidgeSolution(beta, 0.0, "pseudoinverse")
    if p <= n:
        M = A @ A.T / n + gamma * np.eye(p)
        beta = np.linalg.solve(M, A @ y / n)
        via = "primal"
    else:
        M = A.T @ A / n + gamma * np.eye(n)
        beta = A @ np.linalg.solve(M, y) / n
        via = "dual"
    return RidgeSolution(beta, float(gamma), via)


def empirical_risks(solution: RidgeSolution, truth: GroundTruth, X: DataMatrix,
                    test=None, in_sample_mode="realized") -> RiskPair:
    """Empirical risk pair for a fitted ridge solution.

    in_sample_mode='realized' evaluates (1/n)||X^T(beta - beta_*)||^2 on the
    drawn data; 'conditional' averages the noise analytically,
    (1/n)||X^T(I - Q Chat) beta_*||^2 + (sigma^2/n) tr(Q Chat Q Chat), which
    removes the noise-realization variance from trial averages.

    r_out defaults to the exact conditional form ||beta - beta_*||^2 for
    isotropic data; passing ``test=(X', y')`` switches to the test-set
    estimate (1/n')||X'^T (beta - beta_*)||^2.
    """
    beta = solution.beta
    bstar = truth.beta_star
    if beta.shape != bstar.shape:
        raise ValueError("solution and truth dimensions disagree")
    A = X.entries
    n = X.n

    if in_sample_mode == "realized":
        resid = A.T @ (beta - bstar)
        r_in = float(resid @ resid) / n
    elif in_sample_mode == "conditional":
        lam, U = np.linalg.eigh(A @ A.T / n)
        lam = np.clip(lam, 0.0, None)
        g = solution.gamma
        if g > 0:
            q_chat = lam / (lam + g)  # eigenvalues of Q Chat
            Qb = U @ ((U.T @ bstar) / (lam + g))
            bias_vec = A.T @ (g * Qb)
            bias = float(bias_vec @ bias_vec) / n
        else:
            # ridgeless: Q Chat -> projection on the column space of X
            tolr = lam.max() * max(A.shape) * np.finfo(float).eps if lam.size else 0.0
            q_chat = (lam > tolr).astype(float)
            bias = 0.0  # X^T (I - proj) = 0 whenever rank = min(p, n)
        r_in = bias + truth.sigma2 * float(np.sum(q_chat * q_chat)) / n
    else:
        raise ValueError(f"unknown in_sample_mode {in_sample_mode!r}")

    diff = beta - bstar
    if test is None:
        r_out = float(diff @ diff)
    else:
        X_test, _ = test
        B = X_test.entries if hasattr(X_test, "entries") else np.asarray(X_test)
        resid = B.T @ diff
        r_out = float(resid @ resid) / B.shape[1]
    return RiskPair(r_in=r_in, r_out=r_out)


def risk_theory(gamma, c, beta_norm2, sigma2, regime="proportional") -> RiskPair:
    """Closed-form asymptotic risks in the classical or proportional regime."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if not c > 0:
        raise ValueError("ratio c must be positive")
    if regime == "classical":
        val = (gamma**2 * beta_norm2 + c * sigma2) / (1.0 + gamma) ** 2
        return RiskPair(val, val)
    if regime != "proportional":
        raise ValueError(f"unknown regime {regime!r}")
    if gamma == 0:
        return ridgeless_limits(c, beta_norm2, sigma2)
    m = mp_stieltjes(c, -gamma).real
    mp = mp_stieltjes_derivative(c, gamma)
    r_in = gamma**2 * beta_norm2 * (m - gamma * mp) \
        + sigma2 * c * (1.0 - 2.0 * gamma * m + gamma**2 * mp)
    r_out = gamma**2 * beta_norm2 * mp + sigma2 * c * (m - gamma * mp)
    return RiskPair(float(r_in), float(r_out))


def ridgeless_limits(c, beta_norm2, sigma2) -> RiskPair:
    """gamma -> 0 risk limits; c = 1 is the double-descent singularity.

    For c > 1 the min-norm solution interpolates, X^T(beta - beta_*) = noise,
    so the in-sample risk is the noise variance sigma^2.
    """
    if c == 1:
        raise SingularityError("ridgeless risks diverge at the peak c = 1")
    if not c > 0:
        raise ValueError("ratio c must be positive")
    if c < 1:
        return RiskPair(sigma2 * c, sigma2 * c / (1.0 - c))
    return RiskPair(sigma2, beta_norm2 * (1.0 - 1.0 / c) + sigma2 / (c - 1.0))


@dataclass
class SweepSpec:
    """Configuration of a double-descent Monte Carlo sweep."""

    ratios: list          # n/p values
    gammas: list
    trials: int = 30
    p: int = 512
    sigma2: float = 0.1
    seed: int = 0
    beta_norm2: float = 1.0


def _sweep_point(spec: SweepSpec, ratio, gamma, point_index):
    p = spec.p
    n = max(1, int(round(ratio * p)))
    c = p / n
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal(p)
    bstar = direction / np.linalg.norm(direction) * np.sqrt(spec.beta_norm2)
    truth = GroundTruth(beta_star=bstar, sigma2=spec.sigma2)

    r_in_vals = np.empty(spec.trials)
    r_out_vals = np.empty(spec.trials)
    status = "peak" if abs(c - 1.0) < PEAK_RATIO_BAND and gamma == 0 else "ok"
    base = spec.seed + 100_003 * point_index
    failures = 0
    for t in range(spec.trials):
        try:
            X = gaussian_matrix(p, n, 1.0, base + t)
            y = linear_targets(X, truth, base + t + 50_000_000)
            sol = ridge_fit(X, y, gamma)
            risks = empirical_risks(sol, truth, X)
            r_in_vals[t], r_out_vals[t] = risks.r_in, risks.r_out
        except (np.linalg.LinAlgError, SingularityError, ConvergenceError):
            # recorded in the row status; never aborts the sweep
            r_in_vals[t] = r_out_vals[t] = np.nan
            failures += 1
    if failures:
        status = f"{failures}-trials-failed"

    try:
        theory = risk_theory(gamma, c, spec.beta_norm2, spec.sigma2, "proportional")
        th_in, th_out = theory.r_in, theory.r_out
    except SingularityError:
        th_in = th_out = float("nan")
        status = "peak"

    return [ResultRow.from_trials(ratio, gamma, metric, vals, th, status)
            for metric, vals, th in (("r_in", r_in_vals, th_in),
                                     ("r_out", r_out_vals, th_out))]


def sweep_double_descent(spec: SweepSpec):
    """Seeded Monte Carlo sweep over (ratio, gamma) grid; rows sorted by (gamma, ratio).

    Trials derive their seeds from the spec seed and the point index.
    """
    if spec.trials < 1:
        raise ValueError("need at least one trial")
    if any(r <= 0 for r in spec.ratios):
        raise ValueError("ratios must be positive")
    points = [(g, r) for g in spec.gammas for r in spec.ratios]
    rows = []
    for i, (g, r) in enumerate(points):
        rows.extend(_sweep_point(spec, r, g, i))
    rows.sort(key=lambda row: (row.gamma, row.ratio, row.metric))
    return rows
