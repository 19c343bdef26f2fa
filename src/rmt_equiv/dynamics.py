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
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

from .errors import DomainError
from .results import write_csv
from .spectral import CONTOUR_MARGIN, ContourSpec, check_contour, circle_nodes, eigh, \
    rank_tolerance, resolvent_forms

#: exp(-eta t lambda_min) below e^-50 is saturated numerically
TIME_SATURATION = 50.0

#: largest contour rounding bound, relative to the a priori size of the
#: projection, that a contour projection may carry
QUADRATURE_ROUNDING_TOL = 1e-9


@dataclass
class TrajectorySample:
    t: float
    loss: float
    projection: Optional[float] = None


def _flow_spectrum(features, n):
    """S = Phi Phi^T / n with its ascending eigenvalues and eigenvectors; raises
    DomainError unless S has full rank."""
    S = features @ features.T / n
    lam, U = np.linalg.eigh(S)
    if lam.min() <= rank_tolerance(lam, S.shape[0]):
        raise DomainError(
            "Phi Phi^T / n is singular; the gradient flow needs full row rank "
            "(d <= n with generic features)"
        )
    return S, lam, U


def gradient_flow_beta(features, y, beta0, eta, t):
    """beta(t) of the gradient flow on the ridgeless random-feature loss.

    ``t`` is a time or an array of times; an array gives one beta per row."""
    t = np.asarray(t, dtype=float)
    if eta <= 0 or np.any(t < 0):
        raise ValueError("need eta > 0 and t >= 0")
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    n = y.size
    _, lam, U = _flow_spectrum(Phi, n)
    decay = np.exp(-eta * t[..., None] * lam)
    target = Phi @ y / n
    # beta(t) = U [diag(e^{-eta t lam}) U^T beta0 + diag((1-e^{-eta t lam})/lam) U^T target]
    return (decay * (U.T @ beta0) + (1.0 - decay) / lam * (U.T @ target)) @ U.T


def flow_loss(features, y, beta):
    Phi = np.asarray(features, dtype=float)
    resid = np.asarray(y, dtype=float) - Phi.T @ beta
    return float(resid @ resid) / resid.size


def ntk_trajectory(k_ntk, y, eta, times):
    """NTK-regime output trajectory yhat(t) = (I - e^{-eta t K}) y, from yhat(0) = 0."""
    y = np.asarray(y, dtype=float)
    lam, U = eigh(k_ntk)
    if lam.min() < -1e-8 * max(1.0, lam.max()):
        raise ValueError("NTK matrix must be positive semidefinite")
    out = []
    r0 = U.T @ -y
    for t in times:
        if t < 0:
            raise ValueError("times must be nonnegative")
        yhat = y + U @ (np.exp(-eta * t * lam) * r0)
        resid = y - yhat
        out.append(TrajectorySample(t=float(t), loss=float(resid @ resid) / y.size))
    return out


def default_flow_contour(lam_max, nodes=512) -> ContourSpec:
    """Circle enclosing [0, lam_max] with a ``CONTOUR_MARGIN`` relative margin
    of the spread."""
    half = 0.5 * lam_max
    return ContourSpec(complex(half), half + CONTOUR_MARGIN * lam_max, nodes)


def contour_beta_projection(v, features, y, beta0, eta, t, contour: ContourSpec):
    """v^T beta(t) by contour integration of the resolvent of Phi Phi^T / n.

    ``t`` is a time or an array of times; the resolvent is solved once at each
    node and shared by every time. The contour must enclose the full spectrum
    with the standard clearance. Times beyond the numerical saturation point
    50/(eta lambda_min) are capped (the trajectory is converged there to
    machine precision anyway).

    exp(-eta t z) grows on the part of the circle left of the origin, so at
    long times the quadrature sums large terms that must cancel. The sum's
    rounding bound eps sum_k |g_k dz_k| / N is compared with the a priori size
    ||v|| (||beta0|| + min(eta t, 1/lambda_min) ||Phi y / n||) of the
    projection; past ``QUADRATURE_ROUNDING_TOL`` of it, DomainError is raised,
    naming the first such time.
    """
    Phi = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    n = y.size
    S, lam, _ = _flow_spectrum(Phi, n)
    if not check_contour(lam, contour).all():
        raise ValueError("contour must enclose all eigenvalues of Phi Phi^T / n")

    t = np.asarray(t, dtype=float)
    t_cap = TIME_SATURATION / (eta * lam.min())
    for t_k in t[t > t_cap]:
        warnings.warn(
            f"flow time {t_k:g} saturated to {t_cap:g} (matrix-exponential "
            "quadrature limit)",
            RuntimeWarning,
        )
    t = np.minimum(t, t_cap)

    zs, dz_factors = circle_nodes(contour)
    target = Phi @ y / n
    forms = resolvent_forms(S, v, np.stack([beta0, target], axis=1), zs)
    etz = eta * t[..., None] * zs
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(-etz) * forms[:, 0] - np.expm1(-etz) / zs * forms[:, 1]
        terms = g * dz_factors
    val = -np.sum(terms, axis=-1) / contour.nodes
    bound = np.finfo(float).eps * np.sum(np.abs(terms), axis=-1) / contour.nodes
    size = np.linalg.norm(v) * (np.linalg.norm(beta0)
                                + np.minimum(eta * t, 1.0 / lam.min())
                                * np.linalg.norm(target))
    for t_k, val_k, bound_k, size_k in zip(*np.atleast_1d(t, val, bound, size)):
        if abs(val_k.imag) > 1e-7 * max(1.0, abs(val_k.real)):
            raise ArithmeticError(
                f"non-real contour projection at t={t_k:g} (Im={val_k.imag:.2e})")
        if not bound_k <= QUADRATURE_ROUNDING_TOL * size_k:
            raise DomainError(
                f"contour projection at t={t_k:g} is not accurate: rounding bound "
                f"{bound_k:.2e} exceeds {QUADRATURE_ROUNDING_TOL:g} of its size "
                f"{size_k:.2e}")
    return val.real if t.ndim else float(val.real)


def write_trajectory(path, samples):
    """CSV serialization: t,loss,projection (projection column empty if absent)."""
    return write_csv(path, "t,loss,projection",
                     map(attrgetter("t", "loss", "projection"), samples))
