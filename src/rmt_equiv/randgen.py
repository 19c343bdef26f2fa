"""Seeded generation of random data matrices, regression targets, and CSV ingestion.

All generators are pure functions of their arguments (including the seed), so
identical calls produce bitwise-identical output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DatasetError


@dataclass
class DataMatrix:
    """Real p x n matrix whose columns are samples."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")

    @property
    def p(self):
        return self.entries.shape[0]

    @property
    def n(self):
        return self.entries.shape[1]


def as_array(X):
    """The entries of a DataMatrix, or X itself as a float array."""
    return X.entries if isinstance(X, DataMatrix) else np.asarray(X, dtype=float)


@dataclass
class GroundTruth:
    """Deterministic regression ground truth: coefficient vector and noise variance."""

    beta_star: np.ndarray
    sigma2: float

    def __post_init__(self):
        self.beta_star = np.asarray(self.beta_star, dtype=float)
        if self.beta_star.ndim != 1 or not np.all(np.isfinite(self.beta_star)):
            raise ValueError("beta_star must be a finite vector")
        if not (self.sigma2 >= 0):
            raise ValueError("sigma2 must be >= 0")


def _check_dims(rows, cols):
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")


def gaussian_matrix(rows, cols, seed) -> DataMatrix:
    """i.i.d. standard Gaussian matrix (zero mean, unit variance)."""
    _check_dims(rows, cols)
    return DataMatrix(np.random.default_rng(seed).standard_normal((rows, cols)))


def sample_count(ratio, size):
    """The count a sweep simulates for a requested ratio of it to ``size``:
    ratio * size rounded, at least 1. Each sweep's theory and rows use the
    simulated ratio, count / size, which can differ from the requested one."""
    return max(1, int(round(ratio * size)))


def stream(seed, role, point, trial):
    """The Generator of one random quantity: ``role`` names the quantity (the
    caller's numbering), ``point`` the sweep point and ``trial`` the Monte
    Carlo trial. Distinct (seed, role, point, trial) keys give independent
    streams, derived by ``SeedSequence`` spawn keys (NEP 19)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(role, point, trial)))


#: the most rows of a Gaussian factor that ``gaussian_product`` holds at once
PRODUCT_BLOCK_ROWS = 512


def gaussian_product(rng, rows, M):
    """``rng.standard_normal((rows, len(M))) @ M``, drawn in row blocks.

    The factor is drawn in ceil(rows / PRODUCT_BLOCK_ROWS) blocks of equal
    size (within one row), so the whole rows x len(M) factor is never held
    and no block has a single row unless ``rows`` is 1. The draws come from
    ``rng`` in the same order, so the product has the same law as the direct
    one everywhere. It has the same bits at the shapes that the tests check;
    in general BLAS may round a block's product differently from the whole.
    """
    out = np.empty((rows, M.shape[1]))
    blocks = -(-rows // PRODUCT_BLOCK_ROWS)
    bounds = [rows * b // blocks for b in range(blocks + 1)]
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        np.matmul(rng.standard_normal((r1 - r0, len(M))), M, out=out[r0:r1])
    return out


def laguerre_bidiagonal(rng, m, k):
    """Diagonal a_i = chi_(k - i), i < m, then subdiagonal s_i = chi_(m - 1 - i),
    i < m - 1, drawn from ``rng``: the m x m lower-bidiagonal B for which B B^T
    has the eigenvalues of X X^T, X an m x k standard Gaussian with k >= m
    (Dumitriu & Edelman, J. Math. Phys. 43, 2002)."""
    return (np.sqrt(rng.chisquare(k - np.arange(m))),
            np.sqrt(rng.chisquare(np.arange(m - 1, 0, -1))))


def rademacher_matrix(rows, cols, seed) -> DataMatrix:
    """i.i.d. +-1 matrix (zero mean, unit variance)."""
    _check_dims(rows, cols)
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, 2, size=(rows, cols)).astype(float) * 2.0 - 1.0
    return DataMatrix(entries)


def sphere_dataset(p, n, seed) -> DataMatrix:
    """n columns drawn i.i.d. uniformly from the unit sphere in R^p.

    Sampling is a standard Gaussian draw with each column scaled to unit norm,
    which is exact for the uniform spherical law.
    """
    if p < 2:
        raise ValueError("sphere dimension p must be >= 2")
    if n < 1:
        raise ValueError("sample count n must be >= 1")
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((p, n))
    entries /= np.linalg.norm(entries, axis=0)
    return DataMatrix(entries)


def linear_targets(X: DataMatrix, truth: GroundTruth, seed) -> np.ndarray:
    """Noisy linear targets y_i = beta_*^T x_i + eps_i, eps_i ~ N(0, sigma2).

    The noise stream is drawn from its own generator, independent of whatever
    generator produced X.
    """
    if truth.beta_star.shape[0] != X.p:
        raise ValueError(
            f"beta_star has length {truth.beta_star.shape[0]}, expected {X.p}"
        )
    rng = np.random.default_rng(seed)
    y = X.entries.T @ truth.beta_star
    if truth.sigma2 > 0:
        y = y + rng.normal(0.0, np.sqrt(truth.sigma2), size=X.n)
    return y


def ingest_dataset(path, label_filter, *, header=False):
    """Read a label-first CSV (``label,f1,...,fp`` per line) into a DataMatrix
    whose columns, the retained samples, are scaled to unit norm.

    Keeps only rows whose label is in ``label_filter`` and maps the (at most
    two) retained labels to -1/+1 regression targets, smaller label first.
    Every retained sample must be finite with a nonzero norm, so that it can
    be scaled. Returns (DataMatrix, targets).
    """
    labels_keep = sorted(set(label_filter))
    if len(labels_keep) > 2:
        raise ValueError("at most two labels are supported for +-1 targets")
    cols = []
    labels = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for idx, line in enumerate(fh, start=1):
            if header and idx == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                lab = float(parts[0])
                feats = np.array([float(v) for v in parts[1:]], dtype=float)
            except ValueError as exc:
                raise DatasetError(f"row {idx}: {exc}") from exc
            if feats.size == 0:
                raise DatasetError(f"row {idx}: no features")
            if width is None:
                width = feats.size
            elif feats.size != width:
                raise DatasetError(f"row {idx}: expected {width} features, "
                                   f"got {feats.size}")
            if lab in labels_keep:
                # unlike generated data, a file may hold a NaN or an infinity
                if not np.all(np.isfinite(feats)):
                    raise DatasetError(f"row {idx}: non-finite feature")
                cols.append(feats)
                labels.append(lab)
    if not cols:
        raise DatasetError(f"no rows with labels {labels_keep} in {path}")
    entries = np.stack(cols, axis=1)
    norms = np.linalg.norm(entries, axis=0)
    if not norms.all():
        raise DatasetError(f"filtered sample {np.argmin(norms)} (0-based) has norm 0")
    entries /= norms
    if len(labels_keep) == 2:
        lo = labels_keep[0]
        y = np.array([-1.0 if lab == lo else 1.0 for lab in labels])
    else:
        y = np.ones(len(labels))
    return DataMatrix(entries), y
