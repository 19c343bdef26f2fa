"""Linear ridge / minimum-norm least squares with empirical and closed-form risks.

Risk conventions (isotropic data, ground truth beta_*, noise variance sigma^2):

  in-sample   R_in  = (1/n) ||X^T beta - X^T beta_*||^2,
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
from .errors import SingularityError
from .randgen import DataMatrix, GroundTruth, gaussian_matrix, laguerre_bidiagonal, \
    linear_targets, sample_count, stream
from .results import ResultRow
from .spectral import block_inverses, rank_tolerance, substitute

#: |c - 1| below this flags a sweep point as sitting on the interpolation peak
PEAK_RATIO_BAND = 0.02


def at_peak(c):
    """True if the simulated ratio c = p/n sits on the interpolation peak."""
    return abs(c - 1.0) < PEAK_RATIO_BAND


@dataclass
class RiskPair:
    r_in: float
    r_out: float


def _certificate(G, size):
    """The Cholesky factor L of G - s I, or None: if it exists, every eigenvalue
    of the symmetric Gram G (of order m) lies above the cut-off lambda_max size
    eps of ``rank_tolerance``. The shift is

        s = ||G||_inf size eps + m (m + 1) eps max(diag G).

    The first term bounds the cut-off from above, as lambda_max <= ||G||_inf.
    The second bounds Cholesky's backward error: the computed factor is exact
    for G - s I + dM with |dM| <= gamma_{m+1} |L||L^T| (Higham, Accuracy and
    Stability of Numerical Algorithms, section 10.1), so ||dM||_2 <=
    m (m + 1) eps max(diag G). If the factorization completes, G - s I + dM is
    positive definite, so lambda_min(G) > s - ||dM||_2 is above the cut-off.
    """
    m = G.shape[0]
    eps = np.finfo(float).eps
    shifted = G.copy()
    shifted.flat[::m + 1] -= (np.linalg.norm(G, np.inf) * size * eps
                              + m * (m + 1) * eps * G.diagonal().max())
    try:
        return np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None


def _refined_solve(G, L, rhs):
    """x with G x = rhs, from the certificate's factor L L^T = G - s I by
    iterative refinement (Higham, chapter 12), or None if the refinement does
    not contract.

    x_0 solves L L^T x_0 = rhs, and each correction d_k solves
    L L^T d_k = rhs - G x_{k-1}. The error is multiplied at each step by
    (L L^T)^{-1} (L L^T - G), which is -s (G - s I)^{-1} for an exact factor,
    of norm the contraction bound s / (lambda_min - s): each correction is at
    most that times the last.
    The refinement stops at the first correction that does not halve the one
    before it (x_0 counts as the first): from there on rounding, not the shift,
    sets the corrections, and that correction is dropped. If already d_1 fails
    to halve x_0, the bound may be 1/2 or more (lambda_min within about 2 s of
    s), the corrections need not converge, and None is returned.
    """
    inverses = block_inverses(L)

    def solve(r):
        return substitute(L, inverses, substitute(L, inverses, r), upper=True)

    x = solve(rhs)
    last, refined = np.linalg.norm(x), False
    while True:
        d = solve(rhs - G @ x)
        size = np.linalg.norm(d)
        if not size < last / 2:
            return x if refined else None
        x += d
        last, refined = size, True


def solve_ridge(A, y, gamma):
    """(A A^T/n + gamma I)^{-1} A y / n for a p x n matrix A and gamma > 0, and
    at gamma = 0 the min-norm minimizer of ||A^T beta - y||, at any rank.

    Both use the smaller Gram matrix G (A A^T if p <= n, else A^T A). At
    gamma > 0, G/n + gamma I is applied by one LU solve. At gamma = 0 the answer
    is G^+ A y if p <= n, else A G^+ y, where eigenvalues at or below
    lambda_max max(p, n) eps count as zero (numpy's pinv cut-off on the Gram
    spectrum). When ``_certificate`` proves that none is cut, G^+ = G^{-1} is
    applied by ``_refined_solve`` on the certificate's own Cholesky factor;
    when it does not, or the refinement does not contract, the
    eigendecomposition of G is truncated at the cut-off.
    """
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    p, n = A.shape
    G = A @ A.T if p <= n else A.T @ A
    scale = n if gamma > 0 else 1
    if gamma > 0:
        G /= n
        G.flat[::G.shape[0] + 1] += gamma
    rhs = A @ y / scale if p <= n else y
    if gamma > 0:
        x = np.linalg.solve(G, rhs)
    else:
        L = _certificate(G, max(p, n))
        x = None if L is None else _refined_solve(G, L, rhs)
    if x is None:
        lam, U = np.linalg.eigh(G)
        keep = lam > rank_tolerance(lam, max(p, n))
        U, lam = U[:, keep], lam[keep]
        x = U @ ((U.T @ rhs) / lam)
    return x if p <= n else A @ x / scale


def ridge_fit(X: DataMatrix, y, gamma):
    """beta = (XX^T/n + gamma I)^{-1} X y / n, or the min-norm LS solution at gamma = 0."""
    return solve_ridge(X.entries, np.asarray(y, dtype=float), gamma)


def empirical_risks(beta, truth: GroundTruth, X: DataMatrix) -> RiskPair:
    """Realized risk pair of a fitted ridge beta on its drawn data:
    r_in = (1/n)||X^T(beta - beta_*)||^2 and r_out = ||beta - beta_*||^2."""
    if beta.shape != truth.beta_star.shape:
        raise ValueError("beta and truth dimensions disagree")
    diff = beta - truth.beta_star
    resid = X.entries.T @ diff
    return RiskPair(r_in=float(resid @ resid) / X.n, r_out=float(diff @ diff))


def risk_theory(gamma, c, beta_norm2, sigma2) -> RiskPair:
    """Closed-form asymptotic risks in the proportional regime."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0:
        return ridgeless_limits(c, beta_norm2, sigma2)
    m = mp_stieltjes(c, -gamma).real
    mp = mp_stieltjes_derivative(c, gamma)
    # m - gamma m' by the MP quadratic at z = -gamma: for c > 1, m and gamma m'
    # both grow like 1/gamma, and their difference would cancel
    m_less = (1.0 - gamma * m) * mp / (m * (c * m + 1.0))
    r_in = gamma**2 * beta_norm2 * m_less \
        + sigma2 * c * (1.0 - 2.0 * gamma * m + gamma**2 * mp)
    r_out = gamma**2 * beta_norm2 * mp + sigma2 * c * m_less
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

    ratios: list          # requested n/p; n = sample_count(ratio, p), rows report n/p
    gammas: list
    trials: int = 30
    p: int = 512
    sigma2: float = 0.1
    seed: int = 0
    beta_norm2: float = 1.0


# stream roles of the gamma > 0 sampler (``randgen.stream``)
DESIGN, TRUTH, NOISE = 0, 1, 2


def draw_bidiagonal(spec: SweepSpec, n, point_index):
    """The random inputs (a, s, b, z) of ``bidiagonal_risks`` for every trial
    of one point with n samples, stacked over trials.

    With m = min(p, n) and k = max(p, n): a (trials x m) and s
    (trials x m-1) stack the chi variables of ``laguerre_bidiagonal(rng, m,
    k)``, b (trials x p) is uniform on the sphere of radius ||beta_*|| and z
    (trials x m) is standard normal. Trial t of point i draws each from its
    own stream ``randgen.stream(seed, role, i, t)``.
    """
    p, trials = spec.p, spec.trials
    m, k = min(p, n), max(p, n)
    a, s = np.empty((trials, m)), np.empty((trials, m - 1))
    b, z = np.empty((trials, p)), np.empty((trials, m))
    for t in range(trials):
        a[t], s[t] = laguerre_bidiagonal(stream(spec.seed, DESIGN, point_index, t),
                                         m, k)
        b[t] = stream(spec.seed, TRUTH, point_index, t).standard_normal(p)
        z[t] = stream(spec.seed, NOISE, point_index, t).standard_normal(m)
    b *= np.sqrt(spec.beta_norm2) / np.linalg.norm(b, axis=1, keepdims=True)
    return a, s, b, z


def _tridiagonal_solve(d, e, r):
    """x with T x = r, for T symmetric positive definite tridiagonal with
    diagonal d and off-diagonal e, by odd-even cyclic reduction (Heller, SIAM
    J. Numer. Anal. 13, 1976). Each array runs along its last axis; leading
    axes are independent systems, solved together.

    A level of odd size 2k + 1 eliminates its k + 1 even-indexed unknowns: each
    odd row meets only the even rows on either side, so the k odd unknowns
    solve a symmetric tridiagonal Schur complement, and the evens follow from
    their own rows. An even size is first padded with the identity equation
    x_m = 0. This is Gaussian elimination on a symmetric permutation of T,
    which is SPD, so it is stable without pivoting; it takes about log2(m)
    levels of whole-array operations.
    """
    m = d.shape[-1]
    if m == 1:
        return r / d
    if m % 2 == 0:
        one, zero = np.ones_like(d[..., :1]), np.zeros_like(d[..., :1])
        d = np.concatenate([d, one], axis=-1)
        e = np.concatenate([e, zero], axis=-1)
        r = np.concatenate([r, zero], axis=-1)
    # odd row i: e[i-1] x[i-1] + d[i] x[i] + e[i] x[i+1] = r[i]
    lo = e[..., 0::2] / d[..., :-1:2]  # e[i-1] / d[i-1]
    hi = e[..., 1::2] / d[..., 2::2]  # e[i] / d[i+1]
    x_odd = _tridiagonal_solve(d[..., 1::2] - lo * e[..., 0::2] - hi * e[..., 1::2],
                               -hi[..., :-1] * e[..., 2::2],
                               r[..., 1::2] - lo * r[..., :-1:2] - hi * r[..., 2::2])
    # even row j: x[j] = (r[j] - e[j-1] x[j-1] - e[j] x[j+1]) / d[j]
    x = r.copy()
    x[..., 1::2] = x_odd
    x[..., 2::2] -= e[..., 1::2] * x_odd
    x[..., :-1:2] -= e[..., 0::2] * x_odd
    x[..., 0::2] /= d[..., 0::2]
    return x[..., :m]


def bidiagonal_risks(a, s, b, z, n, gamma, sigma2):
    """Realized (r_in, r_out) of ridge at gamma > 0 on a Gaussian design,
    simulated from the bidiagonal Laguerre model (Dumitriu & Edelman, J. Math.
    Phys. 43, 2002).

    A p x n standard Gaussian X is U [B 0] V^T (p <= n) or U [B; 0] V^T
    (p > n) for orthogonal U, V and the m x m lower-bidiagonal B with diagonal
    a and subdiagonal s, m = min(p, n). For an isotropic beta_* and noise,
    b = U^T beta_* and z = V^T eps / sigma (first m entries) are independent
    of B, so with w the first m entries of beta - beta_* in that basis,

        (B B^T / n + gamma I) w = sigma B z / n - gamma b[:m],
        r_out = ||w||^2 + ||b[m:]||^2,   r_in = ||B^T w||^2 / n.

    This is the law of ``empirical_risks`` after ``ridge_fit``, in O(m) per
    trial. Arrays run along their last axis; leading axes are trials.
    """
    m = a.shape[-1]
    d = a * a
    d[..., 1:] += s * s
    d /= n
    d += gamma
    Bz = a * z
    Bz[..., 1:] += s * z[..., :-1]
    w = _tridiagonal_solve(d, a[..., :-1] * s / n,
                           np.sqrt(sigma2) / n * Bz - gamma * b[..., :m])
    Btw = a * w
    Btw[..., :-1] += s * w[..., 1:]
    r_in = np.sum(Btw * Btw, axis=-1) / n
    r_out = np.sum(w * w, axis=-1) + np.sum(b[..., m:] ** 2, axis=-1)
    return r_in, r_out


def _direct_trial(p, n, truth, seed):
    """(r_in, r_out) of the min-norm fit on one p x n Gaussian draw, which is
    freed on return."""
    X = gaussian_matrix(p, n, seed)
    y = linear_targets(X, truth, seed + 50_000_000)
    risks = empirical_risks(ridge_fit(X, y, 0.0), truth, X)
    return risks.r_in, risks.r_out


def _direct_trials(spec: SweepSpec, n, point_index):
    """r_in and r_out of the gamma = 0 trials of one point, each fitted on its
    own p x n draw; a trial whose fit fails is NaN."""
    p = spec.p
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal(p)
    bstar = direction / np.linalg.norm(direction) * np.sqrt(spec.beta_norm2)
    truth = GroundTruth(beta_star=bstar, sigma2=spec.sigma2)

    vals = np.empty((2, spec.trials))
    base = spec.seed + 100_003 * point_index
    for t in range(spec.trials):
        try:
            vals[:, t] = _direct_trial(p, n, truth, base + t)
        except np.linalg.LinAlgError:
            vals[:, t] = np.nan
    return vals


def _sweep_point(spec: SweepSpec, ratio, gamma, point_index):
    """The two rows of one (ratio, gamma) point. A gamma > 0 point simulates
    its trials with ``bidiagonal_risks``; a gamma = 0 point fits each trial
    on a direct draw."""
    p = spec.p
    n = sample_count(ratio, p)
    c = p / n
    if gamma > 0:
        r_in_vals, r_out_vals = bidiagonal_risks(
            *draw_bidiagonal(spec, n, point_index), n, gamma, spec.sigma2)
    else:
        r_in_vals, r_out_vals = _direct_trials(spec, n, point_index)
    # a trial whose fit failed or gave a non-finite risk is recorded in the
    # row status; it never aborts the sweep
    failed = ~(np.isfinite(r_in_vals) & np.isfinite(r_out_vals))
    r_in_vals[failed] = r_out_vals[failed] = np.nan
    failures = int(failed.sum())
    status = "peak" if at_peak(c) and gamma == 0 else "ok"
    if failures:
        status = f"{failures}-trials-failed"

    try:
        theory = risk_theory(gamma, c, spec.beta_norm2, spec.sigma2)
        th_in, th_out = theory.r_in, theory.r_out
    except SingularityError:
        th_in = th_out = float("nan")
        status = "peak"

    # the row reports the simulated ratio n/p, which the theory above uses too
    return [ResultRow.from_trials(n / p, gamma, metric, vals, th, status)
            for metric, vals, th in (("r_in", r_in_vals, th_in),
                                     ("r_out", r_out_vals, th_out))]


def sweep_double_descent(spec: SweepSpec):
    """Seeded Monte Carlo sweep over (ratio, gamma) grid; rows sorted by (gamma, ratio).

    Trials derive their streams from the spec seed and the point index.
    gamma > 0 points are simulated from the bidiagonal Laguerre model
    (``bidiagonal_risks``). gamma = 0 points draw each trial afresh and free
    the draw before the next, so the sweep holds one draw at a time.
    """
    if spec.trials < 1:
        raise ValueError("need at least one trial")
    if any(r <= 0 for r in spec.ratios):
        raise ValueError("ratios must be positive")
    if not all(g >= 0 for g in spec.gammas):
        raise ValueError("gammas must be >= 0")
    points = [(g, r) for g in spec.gammas for r in spec.ratios]
    rows = []
    for i, (g, r) in enumerate(points):
        rows.extend(_sweep_point(spec, r, g, i))
    rows.sort(key=lambda row: (row.gamma, row.ratio, row.metric))
    return rows
