"""Marchenko-Pastur transform/density and deterministic-equivalent fixed points
for sample-covariance and Gram resolvents.

The MP Stieltjes transform m(z) solves the quadratic

    c z m^2 - (1 - c - z) m + 1 = 0,

with the root selected by the Stieltjes axioms (Im z * Im m > 0 off the real
axis; positive real values for real z < 0). The general-covariance fixed point
delta(z) = (1/n) tr( (C/(1+delta) - zI)^{-1} C ) is solved by damped fixed-point
iteration; for C = I it reduces to delta = (p/n) m(z).
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import _kernels
from .errors import ConvergenceError, DomainError, SingularityError

MAX_FP_ITERATIONS = 10_000


@dataclass
class MPParams:
    """Support data of the Marchenko-Pastur law with ratio c = lim p/n."""

    c: float
    edges: tuple
    atom: float

    @classmethod
    def from_ratio(cls, c):
        if not c > 0:
            raise ValueError("ratio c must be positive")
        sq = np.sqrt(c)
        return cls(c=c, edges=((1 - sq) ** 2, (1 + sq) ** 2), atom=max(0.0, 1 - 1 / c))


@dataclass
class DEFixedPoint:
    """Converged deterministic-equivalent fixed point at a complex point z."""

    z: complex
    delta: complex
    residual: float
    iterations: int


def _quadratic_roots(c, z):
    # c z m^2 - (1-c-z) m + 1 = 0, numerically stable form
    A = c * z
    B = -(1.0 - c - z)
    C = 1.0
    disc = np.sqrt(complex(B * B - 4.0 * A * C))
    # avoid cancellation: q = -(B + sign(B) disc)/2 with complex "sign" choice
    if (np.conj(B) * disc).real >= 0:
        q = -0.5 * (B + disc)
    else:
        q = -0.5 * (B - disc)
    return q / A, C / q


def mp_stieltjes(c, z):
    """Stieltjes transform of the MP law at z off the support.

    Root selection: for Im z != 0 take the root in the same half-plane; for
    real z the root continuous with the upper-half-plane limit.
    """
    if not c > 0:
        raise ValueError("ratio c must be positive")
    z = complex(z)
    params = MPParams.from_ratio(c)
    lo, hi = params.edges
    if z.imag == 0.0:
        x = z.real
        if x == 0.0 or (lo <= x <= hi):
            raise DomainError(f"z={x} lies in the MP support for c={c}")
        # continuity from above: pick the real root nearest the m(x + i eps) branch
        probe = mp_stieltjes(c, complex(x, 1e-9 * max(1.0, abs(x))))
        r1, r2 = _quadratic_roots(c, z)
        root = min((r1, r2), key=lambda r: abs(r - probe))
        m = complex(root).real
    else:
        r1, r2 = _quadratic_roots(c, z)
        m = r1 if (r1.imag * z.imag) > 0 else r2
    resid = abs(c * z * m * m - (1 - c - z) * m + 1.0)
    if resid > 1e-12 * max(1.0, abs(m)) :
        raise ArithmeticError(f"MP quadratic residual {resid:.2e} too large")
    return m


def mp_density(c, x):
    """Continuous part of the MP law at x > 0 (the c>1 atom at 0 is separate)."""
    params = MPParams.from_ratio(c)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("mp_density is defined for x > 0; the atom sits at 0")
    lo, hi = params.edges
    out = np.zeros_like(x)
    mask = (x > lo) & (x < hi)
    xm = x[mask]
    out[mask] = np.sqrt((xm - lo) * (hi - xm)) / (2.0 * np.pi * c * xm)
    return out if out.ndim else float(out)


def mp_cdf(c, grid_points=4001):
    """CDF of the MP law (bulk by quadrature plus the c>1 atom at zero).

    Returns a vectorized callable suitable for KS tests.
    """
    params = MPParams.from_ratio(c)
    lo, hi = params.edges
    xs = np.linspace(lo, hi, grid_points)
    dens = np.zeros_like(xs)
    inner = xs[(xs > 0)]
    dens[(xs > 0)] = mp_density(c, np.maximum(inner, 1e-300))
    bulk = integrate.cumulative_trapezoid(dens, xs, initial=0.0)
    bulk *= (1.0 - params.atom) / bulk[-1]  # exact unit total mass with atom

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, bulk, left=0.0, right=bulk[-1])
        out = out + params.atom * (x >= 0)
        return out if out.ndim else float(out)

    return cdf


def solve_delta_scm(C_eigenvalues, n, z, tol=1e-12) -> DEFixedPoint:
    """Fixed point delta(z) = (1/n) sum_i c_i / (c_i/(1+delta) - z).

    Starts from the correct large-|z| asymptote delta0 = p/(n |z|); a 0.5
    damping factor engages if the iteration oscillates.
    """
    c_eigs = np.asarray(C_eigenvalues, dtype=float)
    if np.any(c_eigs <= 0):
        raise ValueError("C must be positive definite (all eigenvalues > 0)")
    z = complex(z)
    if z.imag == 0.0 and z.real > 0:
        raise DomainError("z on the positive real axis is inside C \\ (0, inf)")
    p = c_eigs.shape[0]
    delta0 = p / (n * abs(z))
    delta, resid, iters, ok = _kernels.delta_scm_iterate(
        c_eigs, float(n), z, tol, MAX_FP_ITERATIONS, delta0
    )
    if not ok:
        raise ConvergenceError(
            f"delta fixed point did not converge at z={z}",
            residual=resid, iterations=iters,
        )
    if z.imag == 0.0:
        delta = complex(delta.real)
    return DEFixedPoint(z=z, delta=delta, residual=float(resid), iterations=iters)


def de_resolvents(C_eigenvalues, n, z, tol=1e-12):
    """Deterministic equivalents of the SCM and Gram resolvents at z.

    Returns the eigenbasis diagonal of (C/(1+delta) - zI)^{-1} together with
    the scalar s such that the Gram equivalent is s * I_n, s = -1/(z(1+delta)).
    """
    c_eigs = np.asarray(C_eigenvalues, dtype=float)
    fp = solve_delta_scm(c_eigs, n, z, tol)
    scm_diag = 1.0 / (c_eigs / (1.0 + fp.delta) - fp.z)
    gram_scalar = -1.0 / (fp.z * (1.0 + fp.delta))
    return scm_diag, gram_scalar


def mp_stieltjes_derivative(c, gamma):
    """d m / d z of the MP transform evaluated at z = -gamma < 0 (positive).

    Closed form from differentiating the MP quadratic:
    m'(-gamma) = m (c m + 1) / (2 c gamma m + 1 - c + gamma).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    m = mp_stieltjes(c, -gamma).real
    denom = 2.0 * c * gamma * m + 1.0 - c + gamma
    if abs(denom) < 1e-14:
        raise SingularityError("MP derivative denominator vanishes")
    return m * (c * m + 1.0) / denom
