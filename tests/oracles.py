"""Monte Carlo oracles that the tests check the library's closed forms against."""

import numpy as np

from rmt_equiv.randgen import as_array


def mc_kernel_expectation(X, X2, act, m, seed):
    """Monte Carlo estimate of E_w[phi(X^T w) phi(w^T X2)] over w ~ N(0, I_p):
    the average over m fresh Gaussian draws of w from ``default_rng(seed)``,
    the oracle of ``rf_nn.kernel_expectation``."""
    A, B = as_array(X), as_array(X2)
    if A.shape[0] != B.shape[0]:
        raise ValueError("X and X2 must share the ambient dimension p")
    if m < 1:
        raise ValueError("monte-carlo sample count m must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.zeros((A.shape[1], B.shape[1]))
    for done in range(0, m, 20_000):  # chunked: memory stays bounded for large m
        W = rng.standard_normal((min(m - done, 20_000), A.shape[0]))
        out += act.evaluate(W @ A).T @ act.evaluate(W @ B)
    return out / m


def relu_pair_kernel_expression(gram, norms_a, norms_b):
    """The degree-1 arc-cosine kernel as one expression over fresh temporaries,
    the oracle that the in-place ``_kernels.relu_pair_kernel`` must match bit for bit."""
    scale = norms_a.reshape(-1, 1) * norms_b.reshape(1, -1)
    rho = np.minimum(np.maximum(gram / scale, -1.0), 1.0)
    return (scale / (2.0 * np.pi)) * (np.sqrt(1.0 - rho * rho) + (np.pi - np.arccos(rho)) * rho)


#: the allocating expressions of the built-in activations, the oracles that
#: their ``out=`` forms must match bit for bit
ACTIVATION_EXPRESSIONS = {
    "identity": lambda t: np.asarray(t, dtype=float),
    "relu": lambda t: np.maximum(t, 0.0),
    "tanh": np.tanh,
    "sign": np.sign,
}


def normalized_expression(phi, shift, scale):
    """t -> (phi(t) - shift) / scale over fresh temporaries, the oracle of the
    activation that ``hermite_kernels.normalize_activation`` returns."""
    return lambda t: (phi(t) - shift) / scale


def thomas_solve(d, e, r):
    """x with T x = r for T SPD tridiagonal (diagonal d, off-diagonal e) by
    Thomas' sweep T = L D L^T, one row at a time; leading axes are independent
    systems. The reference of ``ridge._tridiagonal_solve``."""
    m = d.shape[-1]
    d = np.moveaxis(d, -1, 0).copy()
    e = np.moveaxis(e, -1, 0)
    x = np.moveaxis(r, -1, 0).copy()
    l = np.empty_like(e)
    for i in range(1, m):
        l[i - 1] = e[i - 1] / d[i - 1]
        d[i] -= l[i - 1] * e[i - 1]
        x[i] -= l[i - 1] * x[i - 1]
    x[m - 1] /= d[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = x[i] / d[i] - l[i] * x[i + 1]
    return np.moveaxis(x, 0, -1)
