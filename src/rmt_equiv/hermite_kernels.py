"""Normalized Hermite polynomials, activation Hermite coefficients, and the
linear-equivalent kernels they induce for shallow and deep random networks.

Coefficients are the expansion of an activation against the *normalized*
probabilists' Hermite polynomials under the standard Gaussian measure:

    a_i = E[phi(xi) He_i(xi)],  nu = E[phi(xi)^2],  xi ~ N(0, 1).

Quadrature note: expectations are computed by Gauss-Legendre panels on
[0, T] and [-T, 0] with the Gaussian weight written out explicitly. Splitting
at zero keeps the rule exponentially accurate for the piecewise-smooth
activations used in practice (ReLU, |t|, sign all kink at 0); plain
Gauss-Hermite stalls near 1e-3 on those no matter the order.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import DegenerateActivationError, DomainError
from .results import write_csv
from .rf_nn import ActivationSpec

SQRT2PI = np.sqrt(2.0 * np.pi)
#: integration half-range; exp(-T^2/2) ~ 3e-37 is far below coefficient tolerances
QUAD_HALF_RANGE = 13.0

_FACTORIAL = [1, 1, 2, 6, 24, 120, 720, 5040, 40320]

# monomial coefficients of the *unnormalized* probabilists' Hermite polynomials
_HERMITE_MONOMIALS = {
    0: [1],
    1: [0, 1],
    2: [-1, 0, 1],
    3: [0, -3, 0, 1],
    4: [3, 0, -6, 0, 1],
    5: [0, 15, 0, -10, 0, 1],
    6: [-15, 0, 45, 0, -15, 0, 1],
    7: [0, -105, 0, 105, 0, -21, 0, 1],
    8: [105, 0, -420, 0, 210, 0, -28, 0, 1],
}


@dataclass
class HermiteCoeffs:
    """Leading Hermite coefficients a0, a1, a2 and the total energy nu = E[phi^2]."""

    a0: float
    a1: float
    a2: float
    nu: float


@dataclass
class CKLayerParams:
    """Per-layer (alpha_1, alpha_2) pairs of the CK linearization, layer 0 = (1, 0)."""

    alphas: list


def hermite_poly(i, t):
    """Normalized Hermite polynomial He_i(t), i <= 8 (hardcoded table)."""
    if not 0 <= i <= 8:
        raise ValueError(f"hermite_poly supports degrees 0..8, got {i}")
    t = np.asarray(t, dtype=float)
    coeffs = _HERMITE_MONOMIALS[i]
    out = np.zeros_like(t)
    for k in range(len(coeffs) - 1, -1, -1):
        out = out * t + coeffs[k]
    return out / np.sqrt(_FACTORIAL[i])


def _half_line_rule(order):
    x, w = legendre.leggauss(order)
    t = 0.5 * (x + 1.0) * QUAD_HALF_RANGE
    w = 0.5 * QUAD_HALF_RANGE * w * np.exp(-0.5 * t * t) / SQRT2PI
    return t, w


def gaussian_expectation(g, order):
    """E[g(xi)], xi ~ N(0,1), by zero-split Gauss-Legendre with Gaussian weight."""
    t, w = _half_line_rule(order)
    weighted = np.concatenate([w, w]) * np.concatenate([g(t), g(-t)])
    if not np.all(np.isfinite(weighted)):
        raise DomainError(
            "quadrature overflow: activation grows faster than the Gaussian decays"
        )
    # the weighted integrand must have decayed at the edge of the window,
    # otherwise the Gaussian integral itself is divergent (super-exponential g)
    edge = max(abs(weighted[order - 1]), abs(weighted[-1]))
    total = np.abs(weighted).sum()
    if total > 0 and edge > 1e-10 * total:
        raise DomainError(
            "integrand has not decayed at |t| = 13: activation appears to grow "
            "super-exponentially and is not square-integrable under the Gaussian"
        )
    return float(weighted.sum())


def hermite_coeffs(act: ActivationSpec, quadrature_order=60) -> HermiteCoeffs:
    """a0, a1, a2 and nu of an activation under the standard Gaussian measure."""
    if quadrature_order < 20:
        raise ValueError("quadrature order must be at least 20")
    phi = act.evaluate
    a0 = gaussian_expectation(phi, quadrature_order)
    a1 = gaussian_expectation(lambda t: phi(t) * t, quadrature_order)
    a2 = gaussian_expectation(
        lambda t: phi(t) * hermite_poly(2, t), quadrature_order
    )
    nu = gaussian_expectation(lambda t: phi(t) ** 2, quadrature_order)
    return HermiteCoeffs(a0=a0, a1=a1, a2=a2, nu=nu)


def normalize_activation(act: ActivationSpec, quadrature_order=60) -> ActivationSpec:
    """Center and scale: t -> (phi(t) - a0)/sqrt(nu - a0^2), so a0 = 0 and nu = 1."""
    c = hermite_coeffs(act, quadrature_order)
    var = c.nu - c.a0**2
    if var <= 1e-12:
        raise DegenerateActivationError(
            f"activation {act.name!r} is constant under the Gaussian measure"
        )
    shift, scale = c.a0, np.sqrt(var)
    phi, dphi = act.evaluate, act.derivative
    return ActivationSpec(
        name=f"{act.name}-normalized",
        evaluate=lambda t: (phi(t) - shift) / scale,
        derivative=lambda t: dphi(t) / scale,
    )


def _ones_outer(n):
    return np.ones((n, n))


def linear_equivalent_kernel(X, coeffs: HermiteCoeffs):
    """Linear equivalent of the expected kernel on sphere-normalized data.

    K~ = a0^2 11^T + a1^2 X^T X + a2^2 (1/p) 11^T + (nu - a0^2 - a1^2) I.
    """
    entries = X.entries if hasattr(X, "entries") else np.asarray(X, dtype=float)
    p, n = entries.shape
    K = coeffs.a1**2 * (entries.T @ entries)
    K += (coeffs.a0**2 + coeffs.a2**2 / p) * _ones_outer(n)
    K += (coeffs.nu - coeffs.a0**2 - coeffs.a1**2) * np.eye(n)
    return K


def ck_alphas(activations, quadrature_order=60) -> CKLayerParams:
    """CK linearization parameters across layers.

    alpha_{l,1} = a_{l;1} alpha_{l-1,1},
    alpha_{l,2} = sqrt(a_{l;1}^2 alpha_{l-1,2}^2 + a_{l;2}^2 alpha_{l-1,1}^4),
    from (alpha_{0,1}, alpha_{0,2}) = (1, 0). Every layer activation must be
    normalized (a0 = 0, nu = 1 within 1e-8).
    """
    alphas = [(1.0, 0.0)]
    for layer, act in enumerate(activations, start=1):
        c = hermite_coeffs(act, quadrature_order)
        if abs(c.a0) > 1e-8 or abs(c.nu - 1.0) > 1e-8:
            raise ValueError(
                f"layer {layer} activation {act.name!r} is not normalized "
                f"(a0={c.a0:.2e}, nu={c.nu:.6f}); apply normalize_activation"
            )
        a1_prev, a2_prev = alphas[-1]
        alphas.append((
            c.a1 * a1_prev,
            float(np.sqrt(c.a1**2 * a2_prev**2 + c.a2**2 * a1_prev**4)),
        ))
    return CKLayerParams(alphas=alphas)


def ck_linear_equivalent(X, layer_params: CKLayerParams, layer):
    """Linear equivalent of the depth-``layer`` CK matrix on sphere data.

    K~_l = alpha_{l,1}^2 X^T X + alpha_{l,2}^2 (1/p) 11^T + (1 - alpha_{l,1}^2) I.
    """
    if not 0 <= layer < len(layer_params.alphas):
        raise ValueError(f"layer {layer} out of range")
    a1, a2 = layer_params.alphas[layer]
    entries = X.entries if hasattr(X, "entries") else np.asarray(X, dtype=float)
    p, n = entries.shape
    K = a1**2 * (entries.T @ entries)
    K += a2**2 / p * _ones_outer(n)
    K += (1.0 - a1**2) * np.eye(n)
    return K


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


def write_coeff_table(path, named_coeffs):
    """CSV export of coefficient rows: activation,a0,a1,a2,nu."""
    return write_csv(path, "activation,a0,a1,a2,nu",
                     ((name, c.a0, c.a1, c.a2, c.nu) for name, c in named_coeffs))
