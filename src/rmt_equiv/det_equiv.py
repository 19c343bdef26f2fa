"""Marchenko-Pastur transform/density and deterministic-equivalent fixed points
for sample-covariance and Gram resolvents.

The MP Stieltjes transform m(z) is the root of the quadratic

    c z m^2 - (1 - c - z) m + 1 = 0

that the Stieltjes axioms select (Im z * Im m > 0 off the real axis, m ~ -1/z
at infinity); ``mp_stieltjes`` evaluates that branch in closed form, real and
complex z alike. The general-covariance fixed point
delta(z) = (1/n) tr( (C/(1+delta) - zI)^{-1} C ) is solved by damped fixed-point
iteration; for C = I it reduces to delta = (p/n) m(z).
"""

import cmath
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError, DomainError, SingularityError

MAX_FP_ITERATIONS = 10_000
#: stopping tolerance of the delta iteration (absolute step)
FP_TOL = 1e-14


def mp_edges(c):
    """Support edges ((1 - sqrt c)^2, (1 + sqrt c)^2) of the Marchenko-Pastur law
    with ratio c = lim p/n."""
    if not c > 0:
        raise ValueError("ratio c must be positive")
    sq = np.sqrt(c)
    return (1 - sq) ** 2, (1 + sq) ** 2


@dataclass
class DEFixedPoint:
    """Converged deterministic-equivalent fixed point at a complex point z."""

    z: complex
    delta: complex
    residual: float
    iterations: int


def mp_stieltjes(c, z):
    """Stieltjes transform of the MP law at z off the support [E-, E+] (and 0).

    m(z) = (b + R) / (2 c z) = 2 / (b - R),  b = 1 - c - z,
    R(z) = sqrt(z - E-) sqrt(z - E+) with both square roots principal. R is
    analytic off [E-, E+] and R ~ z at infinity, so this is the Stieltjes branch
    at every z off the support, and on the real axis it is the limit from
    above. Of the two equal forms the one without cancellation is evaluated.
    Returns a float for real z.
    """
    lo, hi = mp_edges(c)
    z = complex(z)
    if z.imag == 0.0 and (z.real == 0.0 or lo <= z.real <= hi):
        raise DomainError(f"z={z.real} lies in the MP support for c={c}")
    b = 1.0 - c - z
    R = cmath.sqrt(z - lo) * cmath.sqrt(z - hi)
    m = (b + R) / (2.0 * c * z) if abs(b + R) >= abs(b - R) else 2.0 / (b - R)
    resid = abs(c * z * m * m - b * m + 1.0)
    if resid > 1e-12 * max(1.0, abs(m)):
        raise ArithmeticError(f"MP quadratic residual {resid:.2e} too large")
    return float(m.real) if z.imag == 0.0 else m


def mp_density(c, x):
    """Continuous part of the MP law at x > 0 (the c>1 atom at 0 is separate)."""
    lo, hi = mp_edges(c)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("mp_density is defined for x > 0; the atom sits at 0")
    out = np.zeros_like(x)
    mask = (x > lo) & (x < hi)
    xm = x[mask]
    out[mask] = np.sqrt((xm - lo) * (hi - xm)) / (2.0 * np.pi * c * xm)
    return out if out.ndim else float(out)


def mp_cdf(c):
    """CDF of the MP law in closed form, the c>1 atom at zero included.

    With edges a, b the bulk CDF is (H(x) - H(a)) / (H(b) - H(a)) times the
    bulk mass, for the antiderivative of sqrt((x-a)(b-x)) / x

        H(t) = R + (a+b)/2 arcsin((2t-a-b)/(b-a))
               - sqrt(ab) arcsin(((a+b)t - 2ab)/(t(b-a))),   R = sqrt((t-a)(b-t)).

    Each arcsin is evaluated as atan2 of its argument's numerator and of
    sqrt(1 - argument^2) times its denominator (2R and 2 sqrt(ab) R), which
    stays accurate near the edges, where arcsin of a rounded argument near +-1
    loses half its digits. Returns a vectorized callable suitable for KS tests.
    """
    lo, hi = mp_edges(c)
    atom = max(0.0, 1 - 1 / c)
    root_ab = np.sqrt(lo * hi)  # 0 at c = 1, where the last term drops out

    def H(t):
        R = np.sqrt((t - lo) * (hi - t))
        return (R + (lo + hi) / 2 * np.arctan2(2 * t - lo - hi, 2 * R)
                - root_ab * np.arctan2((lo + hi) * t - 2 * lo * hi, 2 * root_ab * R))

    h_lo = H(lo)
    h_span = H(hi) - h_lo

    def cdf(x):
        x = np.asarray(x, dtype=float)
        bulk = np.clip((H(np.clip(x, lo, hi)) - h_lo) / h_span, 0.0, 1.0)
        out = (1.0 - atom) * bulk + atom * (x >= 0)
        return out if out.ndim else float(out)

    return cdf


def solve_delta_scm(C_eigenvalues, n, z) -> DEFixedPoint:
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
        c_eigs, float(n), z, FP_TOL, MAX_FP_ITERATIONS, delta0
    )
    if not ok:
        raise ConvergenceError(f"delta fixed point did not converge at z={z}: "
                               f"residual {resid:.3e} after {iters} iterations")
    if z.imag == 0.0:
        delta = complex(delta.real)
    return DEFixedPoint(z=z, delta=delta, residual=float(resid), iterations=iters)


def de_resolvents(C_eigenvalues, n, z):
    """Deterministic equivalents of the SCM and Gram resolvents at z.

    Returns the diagonal of (C/(1+delta) - zI)^{-1} in the eigenvectors of C and
    the scalar s such that the Gram equivalent is s * I_n, s = -1/(z(1+delta)).
    """
    c_eigs = np.asarray(C_eigenvalues, dtype=float)
    fp = solve_delta_scm(c_eigs, n, z)
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
