"""Random-feature single-hidden-layer networks.

Covers the feature map phi(W X), its ridge regression, empirical MSEs, expected
kernel matrices K = E_w[phi(X^T w) phi(w^T X)], the deterministic equivalent of
the nonlinear Gram resolvent, closed-form train/test MSE predictions, and the
ridgeless theta fixed point with eigendecay scaling laws.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import hermite_kernels as hk
from .errors import ConvergenceError, DomainError, SingularityError
from .randgen import as_array
from .ridge import solve_ridge

MAX_FP_ITERATIONS = 200_000
#: stopping tolerance of the delta iteration (absolute step) and of the theta
#: bisection (bracket width relative to its upper end)
FP_TOL = 1e-13
#: largest relative tail bound of ``hk.mehler_kernel`` that kernel_expectation accepts
MEHLER_TAIL_TOL = 1e-6


@dataclass
class ActivationSpec:
    """Entrywise activation with its (possibly a.e.) derivative.

    ``evaluate(t, out=None)`` follows numpy's ``out=`` convention: with an
    ``out`` array (which may be ``t`` itself) it writes phi(t) there and
    returns it. A one-argument ``evaluate`` serves every caller that passes no
    ``out``; ``rf_features`` passes one.
    """

    name: str
    evaluate: callable
    derivative: callable


def _step(t):
    return (np.asarray(t, dtype=float) > 0).astype(float)


ACTIVATIONS = {
    # t * 1.0 is t exactly, and a float even for integer t
    "identity": ActivationSpec("identity",
                               lambda t, out=None: np.multiply(t, 1.0, out=out),
                               lambda t: np.ones_like(np.asarray(t, dtype=float))),
    "relu": ActivationSpec("relu", lambda t, out=None: np.maximum(t, 0.0, out=out),
                           _step),
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
    """Eigenvalues ``lam`` (clipped at 0) and eigenvectors ``U`` of the train
    kernel, the cross kernel in their basis and the test kernel's trace."""

    lam: np.ndarray
    U: np.ndarray
    Ukx: np.ndarray
    test_trace: float


@dataclass
class NonlinearDE:
    """Solved nonlinear-Gram fixed point delta and the K-tilde scale (d/n)/(1+delta)."""

    delta: float
    k_tilde_scale: float
    residual: float
    iterations: int


def rf_features(W, X, act: ActivationSpec):
    """Entrywise activation of W X (features in rows, samples in columns),
    evaluated in place on the product."""
    W = np.asarray(W, dtype=float)
    entries = as_array(X)
    if W.shape[1] != entries.shape[0]:
        raise ValueError(f"inner dimensions disagree: {W.shape} @ {entries.shape}")
    F = W @ entries
    return act.evaluate(F, out=F)


def rf_fit(features, y, gamma):
    """Ridge readout beta = (Phi Phi^T/n + gamma I_d)^{-1} Phi y / n.

    Solved by ``ridge.solve_ridge``, the solver of ``ridge.ridge_fit`` too.
    """
    if not gamma > 0:
        raise ValueError("rf_fit requires gamma > 0 (ridgeless is a theory limit)")
    return solve_ridge(np.asarray(features, dtype=float), np.asarray(y, dtype=float),
                       gamma)


def rf_empirical_mse(beta, features, y):
    """(1/m) || y - Phi^T beta ||^2."""
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    resid = y - Phi.T @ np.asarray(beta, dtype=float)
    return float(resid @ resid / y.size)


def kernel_expectation(X, X2, act: ActivationSpec):
    """Expected kernel block E_w[phi(X^T w) phi(w^T X2)] over w ~ N(0, I_p).

    Exact: closed forms for the identity (X^T X2), ReLU (degree-1 arc-cosine
    kernel) and sign ((2/pi) arcsin rho), else ``hk.mehler_kernel`` at
    rho = cos(x, x'), which raises DomainError where its tail bound exceeds
    MEHLER_TAIL_TOL. The ReLU kernel is formed in the buffer of its A^T B, so
    its block costs two result sizes at most.
    """
    A, B = as_array(X), as_array(X2)
    if A.shape[0] != B.shape[0]:
        raise ValueError("X and X2 must share the ambient dimension p")
    if act.name == "identity":
        return A.T @ B
    norms_a, norms_b = np.linalg.norm(A, axis=0), np.linalg.norm(B, axis=0)
    if act.name == "relu":
        return _kernels.relu_pair_kernel(A.T @ B, norms_a, norms_b)
    rho = np.clip(A.T @ B / np.outer(norms_a, norms_b), -1.0, 1.0)
    if act.name == "sign":
        return (2.0 / np.pi) * np.arcsin(rho)
    K, bound = hk.mehler_kernel(act, rho, norms_a, norms_b, diagonal=X2 is X)
    if bound.max() > MEHLER_TAIL_TOL:
        raise DomainError(f"{act.name!r} kernel: Mehler series tail bound "
                          f"{bound.max():.2e} > {MEHLER_TAIL_TOL:g} of the kernel "
                          "scale; columns too near parallel at these norms")
    return K


def kernel_triplet(X, X_test, act: ActivationSpec) -> KernelTriplet:
    """KernelTriplet of the exact expected kernel, from one eigh of its train block."""
    # test block first, eigh last: each block's transients have at most the
    # cross block alive beside them
    test_trace = float(np.trace(kernel_expectation(X_test, X_test, act)))
    cross = kernel_expectation(X, X_test, act)
    lam, U = np.linalg.eigh(kernel_expectation(X, X, act))
    return KernelTriplet(np.clip(lam, 0.0, None), U, U.T @ cross, test_trace)


def nonlinear_de_delta(K_eigenvalues, d, gamma) -> NonlinearDE:
    """Fixed point delta = (1/n) sum_i k_i / ((d/n) k_i/(1+delta) + gamma), over
    the n eigenvalues k_i of the train kernel."""
    k = np.asarray(K_eigenvalues, dtype=float)
    if np.any(k < 0) or not np.any(k > 0):
        raise ValueError("kernel eigenvalues must be nonnegative and not all zero")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    delta0 = max(np.mean(k) / gamma, 1.0)
    delta, resid, iters, ok = _kernels.delta_gram_iterate(
        k, float(d), gamma, FP_TOL, MAX_FP_ITERATIONS, delta0
    )
    if not ok:
        raise ConvergenceError(f"nonlinear DE fixed point did not converge (gamma="
                               f"{gamma}): residual {resid:.3e} after {iters} iterations")
    return NonlinearDE(delta=float(delta), k_tilde_scale=(d / k.size) / (1.0 + delta),
                       residual=float(resid), iterations=iters)


def nn_mse_theory(kernels: KernelTriplet, y, y_test, d, gamma):
    """Deterministic-equivalent train and test MSEs of the random-feature ridge
    on the n = y.size train and n' = y_test.size test samples.

    Evaluates, with K~ = (d/n) K/(1+delta) and Q~ = (K~ + gamma I)^{-1},

      E_train = (gamma^2/n) y^T Q~ [ tr(Q~K~Q~)/(d - tr(K~Q~K~Q~)) K~ + I ] Q~ y
      E_test  = (1/n') ||y' - K~_x^T Q~ y||^2
                + y^T Q~K~Q~ y / (d - tr(K~Q~K~Q~))
                  * (1/n') [ tr K~_xx - tr( K~_x^T Q~ (I + gamma Q~) K~_x ) ]

    in the train block's eigenvectors, which ``kernels`` holds for every width.
    Raises SingularityError if the shared denominator is not positive.
    """
    y = np.asarray(y, dtype=float)
    y_test = np.asarray(y_test, dtype=float)
    lam, U, Ukx = kernels.lam, kernels.U, kernels.Ukx
    if lam.size != y.size or Ukx.shape[1] != y_test.size:
        raise ValueError("kernel blocks inconsistent with target lengths")
    de = nonlinear_de_delta(lam, d, gamma)
    scale = de.k_tilde_scale
    kt = scale * lam                       # eigenvalues of K~
    qt = 1.0 / (kt + gamma)                # eigenvalues of Q~
    tr_QKQ = float(np.sum(kt * qt * qt))
    tr_KQKQ = float(np.sum((kt * qt) ** 2))
    denom = d - tr_KQKQ
    if not denom > 0:
        raise SingularityError(
            f"d - tr(K~Q~K~Q~) = {denom:.3e} <= 0: width d is at the effective "
            "dimension of the kernel at this gamma"
        )
    yU = U.T @ y
    yQ2y = float(np.sum(yU * yU * qt * qt))
    yQKQy = float(np.sum(yU * yU * kt * qt * qt))
    e_train = gamma**2 / y.size * ((tr_QKQ / denom) * yQKQy + yQ2y)

    n_test = y_test.size
    fit_resid = y_test - scale * (Ukx.T @ (qt * yU))
    # tr K~_x^T Q~ (I + gamma Q~) K~_x, with K~_x = scale U Ukx
    trace_term = scale * kernels.test_trace - scale**2 * float(
        np.sum(qt * (1.0 + gamma * qt) * np.einsum("ij,ij->i", Ukx, Ukx)))
    e_test = float(fit_resid @ fit_resid) / n_test + (yQKQy / denom) * trace_term / n_test
    return e_train, e_test


def theta_fixed_point(K_eigenvalues, d_over_n):
    """Ridgeless limit theta of gamma*delta in the under-parameterized regime.

    Solves (1/n) sum_i k_i / (k_i + theta n/d) = d/n by bisection (the left
    side is monotone in theta, so bisection is unconditionally convergent).
    """
    k = np.asarray(K_eigenvalues, dtype=float)
    if not 0 < d_over_n < 1:
        raise DomainError("theta is defined for d/n in (0, 1)")
    if np.any(k <= 0):
        raise DomainError("theta requires a full-rank kernel (all eigenvalues > 0)")
    theta, _ = _kernels.theta_bisect(k, float(d_over_n), FP_TOL, 10_000)
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
    mean(k), while this form falls towards 0. What it tracks is a log: on a
    Pareto(alpha) spectrum, P(k > x) = x^-alpha for x >= 1 (ln k exponential
    with rate alpha), M = theta n/d grows with n/d and, by the Beta integral
    int_0^inf u^(alpha-1)/(1 + u) du = pi/sin(pi alpha),

        mean(k/(k + M)) -> alpha (pi/sin(pi alpha)) M^-alpha.

    Setting this to d/n and solving for ln M gives, to leading order,

        (1/alpha) log(n/d)/(n/d) + C_alpha d/n
            = (d/n) [log(theta n/d) + log(1/alpha)/alpha].

    So the form is d/n times the log of a power-law-tail solution, not theta
    itself. Whether it is meant as that, or lost an exp on its way to theta,
    is not recorded in this repository.
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
