"""Normalized Hermite polynomials, activation Hermite coefficients, and the exact
(Mehler series) and linear-equivalent kernels they induce for random networks.

Coefficients are the expansion of an activation against the *normalized*
probabilists' Hermite polynomials under the standard Gaussian measure:

    a_i = E[phi(xi) He_i(xi)],  nu = E[phi(xi)^2],  xi ~ N(0, 1).

Quadrature note: expectations are computed by Gauss-Legendre panels of
``QUADRATURE_ORDER`` nodes on [0, T] and [-T, 0] with the Gaussian weight
written out explicitly. Splitting at zero keeps the rule exponentially
accurate for the piecewise-smooth activations used in practice (ReLU, |t|,
sign all kink at 0); plain Gauss-Hermite stalls near 1e-3 on those no matter
the order.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError
from .randgen import as_array
from .results import write_csv

SQRT2PI = np.sqrt(2.0 * np.pi)
#: integration half-range; exp(-T^2/2) ~ 3e-37 is far below coefficient tolerances
QUAD_HALF_RANGE = 13.0
#: degree K of the Mehler series in ``mehler_kernel``
MEHLER_DEGREE = 40
#: Gauss-Legendre nodes per half line in every coefficient quadrature
QUADRATURE_ORDER = 60


@dataclass
class HermiteCoeffs:
    """Leading Hermite coefficients a0, a1, a2 and the total energy nu = E[phi^2]."""

    a0: float
    a1: float
    a2: float
    nu: float


def hermite_table(degree, t):
    """Normalized Hermite polynomials He_0(t) .. He_degree(t), stacked on axis 0,
    by the recurrence He_{k+1} = (t He_k - sqrt(k) He_{k-1}) / sqrt(k+1)."""
    if degree < 0:
        raise ValueError(f"Hermite degree must be >= 0, got {degree}")
    t = np.asarray(t, dtype=float)
    rows = [np.ones_like(t), t]
    for k in range(1, degree):
        rows.append((t * rows[k] - np.sqrt(k) * rows[k - 1]) / np.sqrt(k + 1))
    return np.stack(rows[:degree + 1])


def hermite_poly(i, t):
    """Normalized Hermite polynomial He_i(t), any degree i >= 0."""
    return hermite_table(i, t)[i]


def _half_line_rule():
    x, w = legendre.leggauss(QUADRATURE_ORDER)
    t = 0.5 * (x + 1.0) * QUAD_HALF_RANGE
    w = 0.5 * QUAD_HALF_RANGE * w * np.exp(-0.5 * t * t) / SQRT2PI
    return t, w


def gaussian_expectation(g):
    """E[g(xi)], xi ~ N(0,1), by zero-split Gauss-Legendre with Gaussian weight.
    ``g`` may stack integrands (nodes on the last axis); each is checked alone."""
    t, w = _half_line_rule()
    weighted = np.concatenate([w, w]) * np.concatenate([g(t), g(-t)], axis=-1)
    if not np.all(np.isfinite(weighted)):
        raise DomainError(
            "quadrature overflow: activation grows faster than the Gaussian decays"
        )
    # the weighted integrand must have decayed at the edge of the window,
    # otherwise the Gaussian integral itself is divergent (super-exponential g)
    edge = np.maximum(abs(weighted[..., len(t) - 1]), abs(weighted[..., -1]))
    if np.any(edge > 1e-10 * np.abs(weighted).sum(axis=-1)):
        raise DomainError(
            "integrand has not decayed at |t| = 13: activation appears to grow "
            "super-exponentially and is not square-integrable under the Gaussian"
        )
    return weighted.sum(axis=-1)


def scaled_coeffs(act, scales, degree):
    """``(c, energy)`` with c[i, k] = E[phi(a_i xi) He_k(xi)] for k = 0..degree
    and energy[i] = E[phi(a_i xi)^2], for each scale a_i, from one quadrature."""
    def integrands(t):
        phi = act.evaluate(np.multiply.outer(scales, t))
        return np.concatenate([hermite_table(degree, t)[:, None] * phi, [phi * phi]])

    values = gaussian_expectation(integrands)
    return values[:-1].T, values[-1]


def hermite_coeffs(act) -> HermiteCoeffs:
    """a0, a1, a2 and nu of an activation under the standard Gaussian measure."""
    c, energy = scaled_coeffs(act, [1.0], 2)
    return HermiteCoeffs(*c[0].tolist(), nu=float(energy[0]))


def normalize_activation(act):
    """Center and scale: t -> (phi(t) - a0)/sqrt(nu - a0^2), so a0 = 0 and nu = 1."""
    c = hermite_coeffs(act)
    var = c.nu - c.a0**2
    if var <= 1e-12:
        raise DomainError(
            f"activation {act.name!r} is constant under the Gaussian measure"
        )
    shift, scale = c.a0, np.sqrt(var)
    phi, dphi = act.evaluate, act.derivative

    def evaluate(t, out=None):
        # (phi(t) - shift) / scale; phi may take one argument when out is None
        out = np.subtract(phi(t) if out is None else phi(t, out=out), shift, out=out)
        out /= scale
        return out

    return replace(act, name=f"{act.name}-normalized", evaluate=evaluate,
                   derivative=lambda t: dphi(t) / scale)


def linear_equivalent_kernel(X, coeffs: HermiteCoeffs):
    """Linear equivalent of the expected kernel on sphere-normalized data.

    K~ = a0^2 11^T + a1^2 X^T X + a2^2 (1/p) 11^T + (nu - a0^2 - a1^2) I.
    """
    entries = as_array(X)
    p, n = entries.shape
    K = entries.T @ entries
    K *= coeffs.a1**2
    K += coeffs.a0**2 + coeffs.a2**2 / p
    K.flat[::n + 1] += coeffs.nu - coeffs.a0**2 - coeffs.a1**2
    return K


def ck_alphas(act, depth):
    """(alpha_1, alpha_2) pairs of the CK linearization at layers 0..depth, every
    layer with activation ``act``, layer 0 = (1, 0).

    alpha_{l,1} = a_1 alpha_{l-1,1},
    alpha_{l,2} = sqrt(a_1^2 alpha_{l-1,2}^2 + a_2^2 alpha_{l-1,1}^4),
    from (alpha_{0,1}, alpha_{0,2}) = (1, 0). The activation must be normalized
    (a0 = 0, nu = 1 within 1e-8).
    """
    if depth < 0:
        raise ValueError(f"depth {depth} must be >= 0")
    c = hermite_coeffs(act)
    if abs(c.a0) > 1e-8 or abs(c.nu - 1.0) > 1e-8:
        raise ValueError(
            f"activation {act.name!r} is not normalized "
            f"(a0={c.a0:.2e}, nu={c.nu:.6f}); apply normalize_activation"
        )
    alphas = [(1.0, 0.0)]
    for _ in range(depth):
        a1_prev, a2_prev = alphas[-1]
        alphas.append((
            c.a1 * a1_prev,
            float(np.sqrt(c.a1**2 * a2_prev**2 + c.a2**2 * a1_prev**4)),
        ))
    return alphas


def ck_linear_equivalent(X, alphas, layer):
    """Linear equivalent of the depth-``layer`` CK matrix on sphere data, for
    the pairs ``alphas`` of ``ck_alphas``.

    K~_l = alpha_{l,1}^2 X^T X + alpha_{l,2}^2 (1/p) 11^T + (1 - alpha_{l,1}^2) I,
    the linear-equivalent kernel of coefficients (0, alpha_{l,1}, alpha_{l,2}, 1).
    """
    if not 0 <= layer < len(alphas):
        raise ValueError(f"layer {layer} out of range")
    a1, a2 = alphas[layer]
    return linear_equivalent_kernel(X, HermiteCoeffs(0.0, a1, a2, 1.0))


def ntk_recursion(ck_list, ck_prime_list, gram0):
    """NTK from CK matrices: K_ntk,l = K_l + K_ntk,l-1 o K'_l, K_ntk,0 = X^T X."""
    if len(ck_list) != len(ck_prime_list) or not ck_list:
        raise ValueError("need equal-length nonempty CK and CK' lists")
    K_ntk = np.asarray(gram0, dtype=float)
    n = K_ntk.shape[0]
    for K_l, Kp_l in zip(ck_list, ck_prime_list):
        K_l = np.asarray(K_l, dtype=float)
        Kp_l = np.asarray(Kp_l, dtype=float)
        if K_l.shape != (n, n) or Kp_l.shape != (n, n):
            raise ValueError("all CK matrices must be n x n")
        K_ntk = K_l + K_ntk * Kp_l
    return K_ntk


def gauss_pair_kernel(coeffs: HermiteCoeffs, corr):
    """Degree-2 truncation of E[phi(u) phi(v)] for unit-variance (u, v) with
    correlation matrix ``corr``:  a0^2 + a1^2 rho + a2^2 rho^2, with the exact
    value nu on the diagonal.

    Used to assemble the K'_l matrices of the NTK recursion from the
    derivative's Hermite coefficients.
    """
    rho = np.asarray(corr, dtype=float)
    out = coeffs.a0**2 + coeffs.a1**2 * rho + coeffs.a2**2 * rho * rho
    if out.ndim == 2 and out.shape[0] == out.shape[1]:
        np.fill_diagonal(out, coeffs.nu)
    return out


def mehler_kernel(act, rho, norms_a, norms_b, diagonal=False):
    """``(K, bound)``: Mehler's series sum_{k <= K} c_k(a_i) c_k(b_j) rho_ij^k of
    E[phi(a_i u) phi(b_j v)], (u, v) standard Gaussians with correlation rho_ij,
    and the Cauchy-Schwarz bound |rho|^(K+1) sqrt(t(a) t(b) / (E(a) E(b))) on its
    tail, with E(a) = E[phi(a xi)^2] and t(a) = E(a) - sum_k c_k(a)^2.
    ``diagonal``: entry (i, i) is a column against itself, so K_ii = E(a_i)."""
    scales, index = np.unique(np.concatenate([norms_a, norms_b]), return_inverse=True)
    c, energy = scaled_coeffs(act, scales, MEHLER_DEGREE)
    ia, ib = index[:len(norms_a)], index[len(norms_a):]
    K = np.outer(c[ia, -1], c[ib, -1])
    for k in range(MEHLER_DEGREE - 1, -1, -1):
        K *= rho
        K += np.outer(c[ia, k], c[ib, k])
    tail = np.sqrt(np.clip(1.0 - np.sum(c * c, axis=1) / energy, 0.0, None))
    bound = np.abs(rho) ** (MEHLER_DEGREE + 1) * np.outer(tail[ia], tail[ib])
    if diagonal:
        np.fill_diagonal(K, energy[ia])
        np.fill_diagonal(bound, 0.0)
    return K, bound


def write_coeff_table(path, named_coeffs):
    """CSV export of coefficient rows: activation,a0,a1,a2,nu."""
    return write_csv(path, "activation,a0,a1,a2,nu",
                     ((name, c.a0, c.a1, c.a2, c.nu) for name, c in named_coeffs))
