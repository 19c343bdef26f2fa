"""Eigendecompositions, empirical spectral distributions, resolvents, Stieltjes
transforms, and contour-integration evaluation of scalar eigenspectral functionals.

The two routes to a scalar eigenspectral functional,

    f(S) = (1/|I|) sum_{i in I} f(lambda_i) (a^T u_i)(u_i^T b),

are ``spectral_functional`` (direct eigendecomposition, the brute-force oracle)
and ``contour_functional`` (trapezoidal quadrature of the resolvent bilinear
form around a circle). They must agree to ~1e-8 whenever the contour cleanly
separates the selected eigenvalues from the rest.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

#: minimum allowed distance between a contour and any eigenvalue
CONTOUR_CLEARANCE = 1e-8
#: fewest trapezoid nodes a contour may have
MIN_CONTOUR_NODES = 16
#: clearance of an enclosing circle beyond the enclosed spread, relative to it
CONTOUR_MARGIN = 0.1


@dataclass
class ContourSpec:
    """Counterclockwise circle ``center + radius * exp(i theta)`` with quadrature nodes."""

    center: complex
    radius: float
    nodes: int = 512

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")
        if self.nodes < MIN_CONTOUR_NODES:
            raise ValueError(
                f"contour needs at least {MIN_CONTOUR_NODES} quadrature nodes")


def eigh(S):
    """(eigenvalues ascending, orthonormal eigenvector columns) of a symmetric
    matrix, after checking its symmetry."""
    S = np.asarray(S, dtype=float)
    scale = np.abs(S).max() if S.size else 0.0
    if not np.allclose(S, S.T, atol=1e-10 * max(scale, 1.0), rtol=0.0):
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    return np.linalg.eigh(S)


def symmetric_norm(S):
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|, no SVD.

    Reads only the lower triangle of ``S``."""
    return float(np.abs(np.linalg.eigvalsh(S)).max())


def rank_tolerance(lam, size):
    """lambda_max * size * eps: eigenvalues at or below it count as zero when
    numerically ranking a symmetric matrix with spectrum ``lam``."""
    return lam.max() * size * np.finfo(float).eps


#: largest order of the diagonal blocks that ``block_inverses`` inverts (a power of 2)
TRIANGULAR_BLOCK = 64


def block_inverses(L):
    """Inverses of the diagonal blocks of a lower-triangular L, stacked k x b x b,
    for ``substitute``. b is the smallest power of two >= the order of L, at most
    ``TRIANGULAR_BLOCK``; a short last block is padded with the identity.

    All blocks are inverted at once by doubling: the inverse of [[A, 0], [C, B]]
    is [[A^-1, 0], [-B^-1 C A^-1, B^-1]], taken for the 2h x 2h diagonal
    sub-blocks at h = 1, 2, ..., b/2. (numpy has no triangular solve, and its
    ``inv`` costs more per 64 x 64 block than this does for all of them.)
    """
    m = len(L)
    b = min(TRIANGULAR_BLOCK, 1 << (m - 1).bit_length())
    k = -(-m // b)
    D = np.zeros((k, b, b))
    D[-1] = np.eye(b)
    for i in range(k):
        block = L[i * b:(i + 1) * b, i * b:(i + 1) * b]
        D[i, :len(block), :len(block)] = block
    inv = np.zeros_like(D)
    diag = np.arange(b)
    inv[:, diag, diag] = 1.0 / D[:, diag, diag]
    h = 1
    while h < b:
        q = np.arange(b // (2 * h))
        Dv = D.reshape(k, len(q), 2 * h, len(q), 2 * h)
        Iv = inv.reshape(Dv.shape)
        Iv[:, q, h:, q, :h] = -(Iv[:, q, h:, q, h:] @ Dv[:, q, h:, q, :h]
                                @ Iv[:, q, :h, q, :h])
        h *= 2
    return inv


def substitute(L, inverses, B, upper=False):
    """X with L X = B, or with L^T X = B if ``upper``, for a lower-triangular L
    and its ``block_inverses``; B is a vector or a matrix of columns.

    Blocked substitution: each block row of X is its block of B, less the
    product with the block rows already solved, times the diagonal block's
    inverse. A product with an explicit inverse is accurate to the block's
    condition number but not backward stable, so a caller that needs a backward
    stable solve refines the result.
    """
    b = inverses.shape[-1]
    X = np.empty_like(B)
    starts = range(0, len(L), b)
    for i in reversed(starts) if upper else starts:
        j = min(i + b, len(L))
        inv = inverses[i // b, :j - i, :j - i]
        if upper:
            X[i:j] = inv.T @ (B[i:j] - L[j:, i:j].T @ X[j:])
        else:
            X[i:j] = inv @ (B[i:j] - L[i:j, :i] @ X[:i])
    return X


def esd_histogram(eigenvalues, bins, range_):
    """Normalized counting measure of eigenvalues on equal-width bins: the
    ascending bin edges and the masses, which sum to one.

    Eigenvalues outside ``range_`` accumulate into the boundary bins. Bins are
    closed-left half-open, with the final bin closed on both ends.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size == 0:
        raise ValueError("empty eigenvalue vector")
    lo, hi = float(range_[0]), float(range_[1])
    if not hi > lo:
        raise ValueError("histogram range must be non-degenerate")
    if bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(lo, hi, bins + 1)
    clipped = np.clip(eigenvalues, lo, hi)  # out-of-range mass -> boundary bins
    counts, _ = np.histogram(clipped, bins=edges)
    return edges, counts / eigenvalues.size


def resolvent(S, z):
    """(S - z I)^{-1} for z off the spectrum of symmetric S."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    A = S.astype(complex) - z * np.eye(n)
    try:
        Q = np.linalg.solve(A, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"z={z} is an eigenvalue of S") from exc
    resid = np.abs(A @ Q - np.eye(n)).max()
    if not resid <= 1e-8:
        raise SingularityError(
            f"resolvent at z={z} ill-conditioned (residual {resid:.2e})"
        )
    return Q


def empirical_stieltjes(S, z):
    """(1/n) tr (S - zI)^{-1}, evaluated from eigenvalues.

    Accepts either a symmetric matrix or a precomputed 1-d eigenvalue array.
    """
    S = np.asarray(S)
    lam = S if S.ndim == 1 else np.linalg.eigvalsh(S.astype(float))
    diffs = lam - z
    if np.abs(diffs).min() <= 1e-12:
        raise SingularityError(f"z={z} is within 1e-12 of an eigenvalue")
    return np.mean(1.0 / diffs)

def stieltjes_density(m, grid, eta):
    """Inverse Stieltjes transform at finite imaginary offset.

    Returns (1/pi) Im m(x + i eta) on the grid; the bias of the finite-eta
    smoothing is O(eta).
    """
    if not 0 < eta <= 0.1:
        raise ValueError("eta must lie in (0, 0.1]")
    grid = np.asarray(grid, dtype=float)
    vals = np.array([m(complex(x, eta)) for x in grid])
    return np.imag(vals) / np.pi


def spectral_functional(S, f, a, b, indices):
    """Direct-eigendecomposition evaluation of a scalar eigenspectral functional.

    This is the brute-force oracle against which ``contour_functional`` is
    checked.
    """
    indices = np.asarray(list(indices), dtype=int)
    if indices.size == 0:
        raise ValueError("index set must be nonempty")
    lam, U = eigh(S)
    lam, U = lam[indices], U[:, indices]
    av = np.asarray(a, dtype=float) @ U
    bv = U.T @ np.asarray(b, dtype=float)
    return float(np.sum(f(lam) * av * bv) / indices.size)


def circle_nodes(contour: ContourSpec):
    """Quadrature nodes z_k on the circle and the factors radius*exp(i theta_k)."""
    theta = 2.0 * np.pi * np.arange(contour.nodes) / contour.nodes
    unit = np.exp(1j * theta)
    return contour.center + contour.radius * unit, contour.radius * unit


def check_contour(eigenvalues, contour: ContourSpec):
    """Validate clearance and return the mask of enclosed eigenvalues."""
    dist_to_circle = np.abs(np.abs(eigenvalues - contour.center) - contour.radius)
    if dist_to_circle.min() < CONTOUR_CLEARANCE:
        raise SingularityError(
            "contour passes within 1e-8 of an eigenvalue; move or resize it"
        )
    inside = np.abs(eigenvalues - contour.center) < contour.radius
    if not np.any(inside):
        raise DomainError("contour encloses no eigenvalue")
    return inside


def resolvent_forms(S, a, B, zs):
    """a^T (S - z I)^{-1} B at each node z of ``zs``, stacked along the first axis.

    One solve per node: a stacked solve over all nodes would hold
    nodes x n^2 complex entries at once.
    """
    eye = np.eye(S.shape[0])
    return np.array([a @ np.linalg.solve(S - z * eye, B) for z in zs])


def contour_functional(S, f, a, b, contour: ContourSpec):
    """Contour-integration evaluation of a scalar eigenspectral functional.

    Computes -(1/(2 pi i |I|)) \\oint f(z) a^T (S - zI)^{-1} b dz by the
    trapezoidal rule on the circle (spectrally accurate for periodic
    integrands), where I is the set of eigenvalues the circle encloses.
    """
    S = np.asarray(S, dtype=float)
    lam = np.linalg.eigvalsh(S)
    inside = check_contour(lam, contour)
    n_inside = int(inside.sum())
    zs, dz_factors = circle_nodes(contour)
    vals = resolvent_forms(S, np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                           zs)
    # oint g(z) dz  ~  (2 pi / N) sum_k g(z_k) * i * radius * e^{i theta_k};
    # the -1/(2 pi i) prefactor cancels to -(1/N) sum_k g(z_k) radius e^{i theta_k}
    total = -np.sum(f(zs) * vals * dz_factors) / (contour.nodes * n_inside)
    if abs(total.imag) > 1e-8:
        raise ArithmeticError(
            f"contour integral has non-real value (Im={total.imag:.2e}); "
            "is f real-analytic and the contour clear of eigenvalues?"
        )
    return float(total.real)


def enclosing_contour(eigenvalues, nodes=512) -> ContourSpec:
    """Circle around the whole spectrum with a relative margin.

    The margin, ``CONTOUR_MARGIN``, is relative to the enclosed spread (or to
    1 for a single point).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    center = 0.5 * (lam.min() + lam.max())
    spread = 0.5 * (lam.max() - lam.min())
    radius = spread + CONTOUR_MARGIN * max(spread, 1.0)
    return ContourSpec(complex(center), radius, nodes)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between a sample and a reference CDF callable.

    ``cdf`` must accept an array and return the CDF at each entry (``mp_cdf``
    does). Handles ties in the sample and atoms in the reference law: at each
    unique sample value the empirical CDF is compared with the law both at the
    value and just below it.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    uniq, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts) / n
    below = cum - counts / n
    F = np.asarray(cdf(uniq), dtype=float)
    eps = 1e-9 * np.maximum(1.0, np.abs(uniq))
    F_minus = np.asarray(cdf(uniq - eps), dtype=float)
    return float(max(np.abs(cum - F).max(), np.abs(below - F_minus).max()))
