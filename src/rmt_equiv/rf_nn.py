"""Random-feature single-hidden-layer networks.

Covers the feature map phi(W X), its ridge regression, empirical MSEs, expected
kernel matrices K = E_w[phi(X^T w) phi(w^T X)], the deterministic equivalent of
the nonlinear Gram resolvent, closed-form train/test MSE predictions, and the
ridgeless theta fixed point with eigendecay scaling laws.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ConvergenceError,
    DomainError,
    NearPhaseTransitionError,
)

MAX_FP_ITERATIONS = 200_000


@dataclass
class ActivationSpec:
    """Entrywise activation with its (possibly a.e.) derivative."""

    name: str
    evaluate: callable
    derivative: callable


def _step(t):
    return (np.asarray(t, dtype=float) > 0).astype(float)


ACTIVATIONS = {
    "identity": ActivationSpec("identity", lambda t: np.asarray(t, dtype=float),
                               lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "relu": ActivationSpec("relu", lambda t: np.maximum(t, 0.0), _step),
    "tanh": ActivationSpec("tanh", np.tanh,
                           lambda t: 1.0 / np.cosh(np.asarray(t, dtype=float)) ** 2),
    "sign": ActivationSpec("sign", np.sign,
                           lambda t: np.zeros_like(np.asarray(t, dtype=float))),
}


def get_activation(name) -> ActivationSpec:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


@dataclass
class KernelTriplet:
    """Train/cross/test blocks of the expected kernel matrix."""

    k_train: np.ndarray
    k_cross: np.ndarray
    k_test: np.ndarray


@dataclass
class NonlinearDE:
    """Solved nonlinear-Gram fixed point delta and the K-tilde scale (d/n)/(1+delta)."""

    delta: float
    k_tilde_scale: float
    residual: float
    iterations: int


def rf_features(W, X, act: ActivationSpec):
    """Entrywise activation of W X (features in rows, samples in columns)."""
    W = np.asarray(W, dtype=float)
    entries = X.entries if hasattr(X, "entries") else np.asarray(X, dtype=float)
    if W.shape[1] != entries.shape[0]:
        raise ValueError(f"inner dimensions disagree: {W.shape} @ {entries.shape}")
    return act.evaluate(W @ entries)


def rf_fit(features, y, gamma):
    """Ridge readout beta = (Phi Phi^T/n + gamma I_d)^{-1} Phi y / n.

    Solved through whichever of the two equivalent forms (d x d primal or
    n x n dual) is smaller.
    """
    if not gamma > 0:
        raise ValueError("rf_fit requires gamma > 0 (ridgeless is a theory limit)")
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    d, n = Phi.shape
    if d <= n:
        A = Phi @ Phi.T / n + gamma * np.eye(d)
        return np.linalg.solve(A, Phi @ y / n)
    B = Phi.T @ Phi / n + gamma * np.eye(n)
    return Phi @ np.linalg.solve(B, y) / n


def rf_empirical_mse(beta, features, y):
    """(1/m) || y - Phi^T beta ||^2."""
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    resid = y - Phi.T @ np.asarray(beta, dtype=float)
    return float(resid @ resid / y.size)


def _entries(X):
    return X.entries if hasattr(X, "entries") else np.asarray(X, dtype=float)


def kernel_method(act: ActivationSpec):
    """'analytic' where ``kernel_expectation`` has a closed form, else 'monte-carlo'."""
    return "analytic" if act.name in ("relu", "identity") else "monte-carlo"


def kernel_expectation(X, X2, act: ActivationSpec, method="analytic",
                       m=100_000, seed=0):
    """Expected kernel block E_w[phi(X^T w) phi(w^T X2)] over w ~ N(0, I_p).

    method='analytic' has closed forms for the identity (X^T X2) and ReLU
    (degree-1 arc-cosine kernel); method='monte-carlo' averages m fresh
    Gaussian draws and is the generic (and oracle-checkable) route.
    """
    A, B = _entries(X), _entries(X2)
    if A.shape[0] != B.shape[0]:
        raise ValueError("X and X2 must share the ambient dimension p")
    if method == "analytic":
        if act.name == "identity":
            return A.T @ B
        if act.name == "relu":
            return _kernels.relu_pair_kernel(
                A.T @ B, np.linalg.norm(A, axis=0), np.linalg.norm(B, axis=0)
            )
        raise NotImplementedError(
            f"no analytic kernel for {act.name!r}; use method='monte-carlo'"
        )
    if method == "monte-carlo":
        if m < 1:
            raise ValueError("monte-carlo sample count m must be >= 1")
        rng = np.random.default_rng(seed)
        # chunk the w draws so memory stays bounded for large m
        out = np.zeros((A.shape[1], B.shape[1]))
        done = 0
        while done < m:
            take = min(m - done, 20_000)
            W = rng.standard_normal((take, A.shape[0]))
            out += act.evaluate(W @ A).T @ act.evaluate(W @ B)
            done += take
        return out / m
    raise ValueError(f"unknown method {method!r}")


def kernel_triplet(X, X_test, act: ActivationSpec, method="analytic",
                   m=100_000, seed=0) -> KernelTriplet:
    """All three kernel blocks with a shared Monte Carlo weight sample.

    Using one weight sample for the three blocks keeps their estimation errors
    consistent, which matters for the trace terms of the test-MSE formula.
    """
    kw = dict(method=method, m=m, seed=seed)
    return KernelTriplet(
        k_train=kernel_expectation(X, X, act, **kw),
        k_cross=kernel_expectation(X, X_test, act, **kw),
        k_test=kernel_expectation(X_test, X_test, act, **kw),
    )


def nonlinear_de_delta(K_eigenvalues, n, d, gamma, tol=1e-13) -> NonlinearDE:
    """Fixed point delta = (1/n) sum_i k_i / ((d/n) k_i/(1+delta) + gamma)."""
    k = np.asarray(K_eigenvalues, dtype=float)
    if np.any(k < 0) or not np.any(k > 0):
        raise ValueError("kernel eigenvalues must be nonnegative and not all zero")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    delta0 = max(np.mean(k) / gamma, 1.0)
    delta, resid, iters, ok = _kernels.delta_gram_iterate(
        k, float(n), float(d), gamma, tol, MAX_FP_ITERATIONS, delta0
    )
    if not ok:
        raise ConvergenceError(
            f"nonlinear DE fixed point did not converge (gamma={gamma})",
            residual=resid, iterations=iters,
        )
    return NonlinearDE(delta=float(delta), k_tilde_scale=(d / n) / (1.0 + delta),
                       residual=float(resid), iterations=iters)


def nn_mse_theory(kernels: KernelTriplet, y, y_test, n, d, gamma, tol=1e-13):
    """Deterministic-equivalent train and test MSEs of the random-feature ridge.

    Evaluates, with K~ = (d/n) K/(1+delta) and Q~ = (K~ + gamma I)^{-1},

      E_train = (gamma^2/n) y^T Q~ [ tr(Q~K~Q~)/(d - tr(K~Q~K~Q~)) K~ + I ] Q~ y
      E_test  = (1/n') ||y' - K~_x^T Q~ y||^2
                + y^T Q~K~Q~ y / (d - tr(K~Q~K~Q~))
                  * (1/n') [ tr K~_xx - tr( K~_x^T Q~ (I + gamma Q~) K~_x ) ]

    through the eigendecomposition of the train block. Raises
    NearPhaseTransitionError if the shared denominator is not positive.
    """
    K = np.asarray(kernels.k_train, dtype=float)
    y = np.asarray(y, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    if K.shape[0] != y.size or kernels.k_test.shape[0] != y_test.size:
        raise ValueError("kernel blocks inconsistent with target lengths")
    lam, U = np.linalg.eigh(K)
    lam = np.clip(lam, 0.0, None)
    de = nonlinear_de_delta(lam, n, d, gamma, tol)
    scale = de.k_tilde_scale
    kt = scale * lam                       # eigenvalues of K~
    qt = 1.0 / (kt + gamma)                # eigenvalues of Q~
    tr_QKQ = float(np.sum(kt * qt * qt))
    tr_KQKQ = float(np.sum((kt * qt) ** 2))
    denom = d - tr_KQKQ
    if not denom > 0:
        raise NearPhaseTransitionError(
            f"d - tr(K~Q~K~Q~) = {denom:.3e} <= 0: width d is at the effective "
            "dimension of the kernel at this gamma"
        )
    yU = U.T @ y
    yQ2y = float(np.sum(yU * yU * qt * qt))
    yQKQy = float(np.sum(yU * yU * kt * qt * qt))
    e_train = gamma**2 / n * ((tr_QKQ / denom) * yQKQy + yQ2y)

    n_test = y_test.size
    Kx = scale * np.asarray(kernels.k_cross, dtype=float)
    Kxx = scale * np.asarray(kernels.k_test, dtype=float)
    Qy = U @ (qt * yU)
    fit_resid = y_test - Kx.T @ Qy
    QKx = U @ ((qt * (1.0 + gamma * qt))[:, None] * (U.T @ Kx))
    trace_term = float(np.trace(Kxx)) - float(np.sum(Kx * QKx))
    e_test = float(fit_resid @ fit_resid) / n_test + (yQKQy / denom) * trace_term / n_test
    return e_train, e_test


def theta_fixed_point(K_eigenvalues, d_over_n, tol=1e-13):
    """Ridgeless limit theta of gamma*delta in the under-parameterized regime.

    Solves (1/n) sum_i k_i / (k_i + theta n/d) = d/n by bisection (the left
    side is monotone in theta, so bisection is unconditionally convergent).
    """
    k = np.asarray(K_eigenvalues, dtype=float)
    if not 0 < d_over_n < 1:
        raise DomainError("theta is defined for d/n in (0, 1)")
    if np.any(k <= 0):
        raise DomainError("theta requires a full-rank kernel (all eigenvalues > 0)")
    theta, _ = _kernels.theta_bisect(k, float(d_over_n), tol, 10_000)
    return float(theta)


def scaling_law_closed_form(kind, d_over_n, *, alpha=None, beta=None):
    """Closed-form theta under exponential or polynomial kernel eigendecay.

    exponential (rate alpha in (0,1)):
        theta = (1/alpha) * log(n/d)/(n/d) + C_alpha * d/n,
        C_alpha = (1/alpha) log(pi / sin(pi alpha))
    polynomial (exponent beta in (0,2)):
        theta = C_beta * (d/n)^(1 + 1/(2-beta)),
        C_beta = (sin(pi beta)/pi)^(1/(2-beta))

    The exponential form is not the large-n/d limit of ``theta_fixed_point``
    for any spectrum fixed in n/d: that theta equals mean(k lam/(k + lam))
    with lam = theta n/d, so it is nondecreasing in n/d and bounded by
    mean(k), while this form falls towards 0. The spectrum model the form
    assumes (for instance one that changes with n and d) is not recorded in
    this repository.
    """
    if not 0 < d_over_n < 1:
        raise DomainError("d/n must lie in (0, 1)")
    if kind == "exponential":
        if alpha is None or not 0 < alpha < 1:
            raise DomainError("exponential decay needs alpha in (0, 1)")
        n_over_d = 1.0 / d_over_n
        C = (1.0 / alpha) * np.log(np.pi / np.sin(np.pi * alpha))
        return (1.0 / alpha) * np.log(n_over_d) / n_over_d + C * d_over_n
    if kind == "polynomial":
        if beta is None or not 0 < beta < 2:
            raise DomainError("polynomial decay needs beta in (0, 2)")
        base = np.sin(np.pi * beta) / np.pi
        if base < 0:
            raise DomainError(
                f"C_beta root of a negative number at beta={beta}; "
                "the closed form is real only for beta in (0, 1]"
            )
        return base ** (1.0 / (2.0 - beta)) * d_over_n ** (1.0 + 1.0 / (2.0 - beta))
    raise ValueError(f"unknown eigendecay kind {kind!r}")
