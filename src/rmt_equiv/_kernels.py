"""Hot inner loops of the fixed-point solvers and the ReLU kernel, in plain numpy.

The four functions are kept in one module so that they can be timed and
traced as a layer of their own.
"""

import numpy as np


def delta_scm_iterate(c_eigs, n, z, tol, max_iter, delta0):
    """Damped fixed-point iteration for the sample-covariance DE.

    Iterates delta <- (1/n) sum_i c_i / (c_i/(1+delta) - z) from delta0.
    A 0.5 damping factor kicks in permanently once the step direction
    reverses (oscillation). Returns (delta, residual, iterations, converged).
    """
    delta = delta0 + 0.0j
    damping = 1.0
    prev_step = 0.0 + 0.0j
    for k in range(max_iter):
        target = np.sum(c_eigs / (c_eigs / (1.0 + delta) - z)) / n
        step = target - delta
        if k > 0 and (step.real * prev_step.real + step.imag * prev_step.imag) < 0.0:
            damping = 0.5
        new = delta + damping * step
        if abs(new - delta) <= tol:
            resid = abs(np.sum(c_eigs / (c_eigs / (1.0 + new) - z)) / n - new)
            return new, resid, k + 1, True
        prev_step = step
        delta = new
    resid = abs(np.sum(c_eigs / (c_eigs / (1.0 + delta) - z)) / n - delta)
    return delta, resid, max_iter, False


def delta_gram_iterate(k_eigs, n, d, gamma, tol, max_iter, delta0):
    """Damped fixed-point iteration for the nonlinear-Gram DE.

    Iterates delta <- (1/n) sum_i k_i / ((d/n) k_i/(1+delta) + gamma).
    Same damping rule as the SCM solver. Returns
    (delta, residual, iterations, converged).
    """
    delta = delta0
    damping = 1.0
    prev_step = 0.0
    ratio = d / n
    for k in range(max_iter):
        target = np.sum(k_eigs / (ratio * k_eigs / (1.0 + delta) + gamma)) / n
        step = target - delta
        if k > 0 and step * prev_step < 0.0:
            damping = 0.5
        new = delta + damping * step
        if abs(new - delta) <= tol:
            resid = abs(
                np.sum(k_eigs / (ratio * k_eigs / (1.0 + new) + gamma)) / n - new
            )
            return new, resid, k + 1, True
        prev_step = step
        delta = new
    resid = abs(np.sum(k_eigs / (ratio * k_eigs / (1.0 + delta) + gamma)) / n - delta)
    return delta, resid, max_iter, False


def theta_bisect(k_eigs, d_over_n, tol, max_iter):
    """Bisection for theta: (1/n) sum_i k_i/(k_i + theta/d_over_n) = d_over_n.

    The left side is strictly decreasing in theta, so plain bisection on a
    bracket is unconditionally convergent. Returns (theta, iterations).
    """
    n = k_eigs.shape[0]
    inv = 1.0 / d_over_n
    lo = 0.0
    hi = np.max(k_eigs) * inv
    # widen until the bracket is valid (cheap; one or two doublings at most)
    for _ in range(200):
        g_hi = np.sum(k_eigs / (k_eigs + hi * inv)) / n - d_over_n
        if g_hi < 0.0:
            break
        hi *= 2.0
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        g = np.sum(k_eigs / (k_eigs + mid * inv)) / n - d_over_n
        if g > 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi), it


def relu_pair_kernel(gram, norms_a, norms_b):
    """Entrywise degree-1 arc-cosine kernel.

    K[i,j] = (|a_i||b_j| / 2pi) * (sqrt(1-rho^2) + (pi - arccos(rho)) rho),
    with rho the cosine of the angle between columns, clamped to [-1, 1].
    """
    scale = norms_a.reshape(-1, 1) * norms_b.reshape(1, -1)
    rho = gram / scale
    rho = np.minimum(np.maximum(rho, -1.0), 1.0)
    ang = np.arccos(rho)
    return (scale / (2.0 * np.pi)) * (np.sqrt(1.0 - rho * rho) + (np.pi - ang) * rho)
