"""Hot inner loops of the fixed-point solvers and the ReLU kernel, in plain numpy.

Both deterministic-equivalent fixed points run the one damped loop
``_damped_iterate``. The public functions are kept in one module so that they
can be timed and traced as a layer of their own.
"""

import numpy as np


def _damped_iterate(g, delta, tol, max_iter):
    """Damped fixed-point iteration delta <- g(delta) from ``delta``.

    A 0.5 damping factor kicks in permanently once the step direction
    reverses (oscillation). Returns (delta, residual, iterations, converged).
    """
    damping = 1.0
    prev_step = 0.0
    for k in range(max_iter):
        step = g(delta) - delta
        if k > 0 and (step * np.conj(prev_step)).real < 0.0:
            damping = 0.5
        new = delta + damping * step
        if abs(new - delta) <= tol:
            return new, abs(g(new) - new), k + 1, True
        prev_step = step
        delta = new
    return delta, abs(g(delta) - delta), max_iter, False


def delta_scm_iterate(c_eigs, n, z, tol, max_iter, delta0):
    """Sample-covariance DE: delta <- (1/n) sum_i c_i / (c_i/(1+delta) - z)."""
    return _damped_iterate(
        lambda delta: np.sum(c_eigs / (c_eigs / (1.0 + delta) - z)) / n,
        delta0 + 0.0j, tol, max_iter)


def delta_gram_iterate(k_eigs, d, gamma, tol, max_iter, delta0):
    """Nonlinear-Gram DE: delta <- (1/n) sum_i k_i / ((d/n) k_i/(1+delta) + gamma),
    n = k_eigs.size."""
    n = float(k_eigs.size)
    ratio = d / n
    return _damped_iterate(
        lambda delta: np.sum(k_eigs / (ratio * k_eigs / (1.0 + delta) + gamma)) / n,
        delta0, tol, max_iter)


def theta_bisect(k_eigs, d_over_n, tol, max_iter):
    """Bisection for theta: (1/n) sum_i k_i/(k_i + theta/d_over_n) = d_over_n.

    The left side is strictly decreasing in theta, so plain bisection on a
    bracket is unconditionally convergent. It stops once the bracket is
    narrower than ``tol`` times its upper end, a width the float spacing
    allows at any scale of theta. Returns (theta, iterations).
    """
    n = k_eigs.shape[0]
    inv = 1.0 / d_over_n
    lo = 0.0
    # a valid bracket: at hi each term is at most 1/(1 + inv^2), so the left
    # side is at most d^2/(1 + d^2) < d for d = d_over_n > 0
    hi = np.max(k_eigs) * inv
    it = 0
    while hi - lo > tol * hi and it < max_iter:
        mid = 0.5 * (lo + hi)
        g = np.sum(k_eigs / (k_eigs + mid * inv)) / n - d_over_n
        if g > 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi), it


def relu_pair_kernel(gram, norms_a, norms_b):
    """Entrywise degree-1 arc-cosine kernel, computed in ``gram``'s buffer.

    K[i,j] = (|a_i||b_j| / 2pi) * (sqrt(1-rho^2) + (pi - arccos(rho)) rho),
    with rho the cosine of the angle between columns, clamped to [-1, 1].
    Overwrites ``gram`` with K and returns it. The norms' outer product is
    freed after the division and formed again for the final product, so at
    most one more result-sized buffer is held at a time.
    """
    scale = np.outer(norms_a, norms_b)
    rho = gram
    rho /= scale
    del scale
    np.clip(rho, -1.0, 1.0, out=rho)
    ang = np.arccos(rho)
    np.subtract(np.pi, ang, out=ang)
    ang *= rho  # (pi - arccos(rho)) rho
    np.multiply(rho, rho, out=rho)
    np.subtract(1.0, rho, out=rho)
    np.sqrt(rho, out=rho)  # sqrt(1 - rho^2)
    rho += ang
    del ang
    scale = np.outer(norms_a, norms_b)
    scale /= 2.0 * np.pi
    rho *= scale
    return rho
