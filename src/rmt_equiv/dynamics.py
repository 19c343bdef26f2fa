"""Closed-form gradient-flow trajectories and their contour-integral evaluation.

Gradient flow on the ridgeless random-feature loss has the explicit solution

    beta(t) = exp(-eta t S) beta0 + (I - exp(-eta t S)) S^{-1} Phi y / n,
    S = Phi Phi^T / n,

and projections v^T beta(t) are scalar eigenspectral functionals of S that can
also be evaluated by contour integration with the weights

    f1(z) = exp(-eta t z)          (initial-condition part)
    f2(z) = (1 - exp(-eta t z))/z  (data part; entire, so z = 0 poses no issue)

Note the data-part weight: written as a residue calculus check, the enclosed
eigenvalue lambda must pick up the factor (1 - e^{-eta t lambda})/lambda that
appears in the direct solution, so the 1/z belongs inside the integrand.

Matrix exponentials go through the symmetric eigendecomposition, never series.
"""

import warnings
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .errors import RankDeficiencyError
from .results import write_csv
from .spectral import ContourSpec, check_contour, circle_nodes

#: exp(-eta t lambda_min) below e^-50 is saturated numerically
TIME_SATURATION = 50.0


@dataclass
class TrajectorySample:
    t: float
    loss: float
    projection: Optional[float] = None


def _flow_spectrum(features, n):
    S = features @ features.T / n
    lam, U = np.linalg.eigh(S)
    tol = lam.max() * S.shape[0] * np.finfo(float).eps if lam.size else 0.0
    if lam.min() <= tol:
        raise RankDeficiencyError(
            "Phi Phi^T / n is singular; gradient_flow_beta needs full row rank "
            "(d <= n with generic features)"
        )
    return lam, U


def gradient_flow_beta(features, y, beta0, eta, t):
    """beta(t) of the gradient flow on the ridgeless random-feature loss."""
    if eta <= 0 or t < 0:
        raise ValueError("need eta > 0 and t >= 0")
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    n = y.size
    lam, U = _flow_spectrum(Phi, n)
    decay = np.exp(-eta * t * lam)
    target = Phi @ y / n
    # beta(t) = U diag(e^{-eta t lam}) U^T beta0 + U diag((1-e^{-eta t lam})/lam) U^T target
    return U @ (decay * (U.T @ beta0)) + U @ ((1.0 - decay) / lam * (U.T @ target))


def flow_loss(features, y, beta):
    Phi = np.asarray(features, dtype=float)
    resid = np.asarray(y, dtype=float) - Phi.T @ beta
    return float(resid @ resid) / resid.size


def ntk_trajectory(k_ntk, y, yhat0, eta, times):
    """NTK-regime output trajectory yhat(t) = e^{-eta t K} yhat0 + (I - e^{-eta t K}) y."""
    K = np.asarray(k_ntk, dtype=float)
    if not np.allclose(K, K.T, atol=1e-10 * max(1.0, np.abs(K).max()), rtol=0.0):
        raise ValueError("NTK matrix must be symmetric")
    y = np.asarray(y, dtype=float)
    yhat0 = np.asarray(yhat0, dtype=float)
    lam, U = np.linalg.eigh(K)
    if lam.min() < -1e-8 * max(1.0, lam.max()):
        raise ValueError("NTK matrix must be positive semidefinite")
    out = []
    r0 = U.T @ (yhat0 - y)
    for t in times:
        if t < 0:
            raise ValueError("times must be nonnegative")
        yhat = y + U @ (np.exp(-eta * t * lam) * r0)
        resid = y - yhat
        out.append(TrajectorySample(t=float(t), loss=float(resid @ resid) / y.size))
    return out


def default_flow_contour(lam_max, nodes=512, margin=0.1) -> ContourSpec:
    """Circle enclosing [0, lam_max] with a relative margin of the spread."""
    half = 0.5 * lam_max
    return ContourSpec(complex(half), half + margin * lam_max, nodes)


def contour_beta_projection(v, features, y, beta0, eta, t, contour: ContourSpec):
    """v^T beta(t) by contour integration of the resolvent of Phi Phi^T / n.

    The contour must enclose the full spectrum with the standard clearance.
    Times beyond the numerical saturation point 50/(eta lambda_min) are capped
    (the trajectory is converged there to machine precision anyway).
    """
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    n = y.size
    S = Phi @ Phi.T / n
    lam = np.linalg.eigvalsh(S)
    if lam.min() <= lam.max() * S.shape[0] * np.finfo(float).eps:
        raise RankDeficiencyError("contour projection needs a full-rank flow matrix")
    inside = check_contour(lam, contour)
    if not inside.all():
        raise ValueError("contour must enclose all eigenvalues of Phi Phi^T / n")

    t_cap = TIME_SATURATION / (eta * lam.min())
    # exp(-eta t z) grows on the part of the circle left of the origin; keep
    # the exponent within float range as well
    excess = max(contour.radius - contour.center.real, 0.0)
    if excess > 0:
        t_cap = min(t_cap, 500.0 / (eta * excess))
    if t > t_cap:
        warnings.warn(
            f"flow time {t:g} saturated to {t_cap:g} (matrix-exponential "
            "quadrature limit)",
            RuntimeWarning,
        )
        t = t_cap

    target = Phi @ y / n
    zs, dz_factors = circle_nodes(contour)
    eye = np.eye(S.shape[0])
    acc = 0.0 + 0.0j
    for z, fac in zip(zs, dz_factors):
        q = np.linalg.solve(S - z * eye, np.stack([beta0, target], axis=1))
        expf = np.exp(-eta * t * z)
        g = expf * (v @ q[:, 0]) - np.expm1(-eta * t * z) / z * (v @ q[:, 1])
        acc += g * fac
    val = -acc / contour.nodes
    if abs(val.imag) > 1e-7 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"non-real contour projection (Im={val.imag:.2e})")
    return float(val.real)


def write_trajectory(path, samples):
    """CSV serialization: t,loss,projection (projection column empty if absent)."""
    return write_csv(path, "t,loss,projection", map(astuple, samples))
