"""Deterministic equivalents for random matrix models of linear and neural
networks, verified against seeded Monte Carlo simulation at desk scale."""

from .det_equiv import (
    DEFixedPoint,
    MPParams,
    de_resolvents,
    mp_cdf,
    mp_density,
    mp_stieltjes,
    mp_stieltjes_derivative,
    solve_delta_scm,
)
from .dynamics import (
    TrajectorySample,
    contour_beta_projection,
    gradient_flow_beta,
    ntk_trajectory,
)
from .hermite_kernels import (
    CKLayerParams,
    HermiteCoeffs,
    ck_alphas,
    ck_linear_equivalent,
    hermite_coeffs,
    hermite_poly,
    linear_equivalent_kernel,
    normalize_activation,
    ntk_recursion,
)
from .randgen import (
    DataMatrix,
    GroundTruth,
    gaussian_matrix,
    ingest_dataset,
    linear_targets,
    rademacher_matrix,
    sphere_dataset,
)
from .results import ResultRow, write_rows
from .rf_nn import (
    ACTIVATIONS,
    ActivationSpec,
    KernelTriplet,
    NonlinearDE,
    get_activation,
    kernel_expectation,
    kernel_triplet,
    nn_mse_theory,
    nonlinear_de_delta,
    rf_empirical_mse,
    rf_features,
    rf_fit,
    scaling_law_closed_form,
    theta_fixed_point,
)
from .ridge import (
    RidgeSolution,
    RiskPair,
    SweepSpec,
    empirical_risks,
    ridge_fit,
    ridgeless_limits,
    risk_theory,
    sweep_double_descent,
)
from .spectral import (
    ContourSpec,
    EmpiricalMeasure,
    SpectralDecomposition,
    contour_functional,
    eigh,
    empirical_stieltjes,
    enclosing_contour,
    esd_histogram,
    ks_distance,
    resolvent,
    spectral_functional,
    stieltjes_density,
)

__version__ = "0.1.0"

# Always False: the hot loops are plain numpy. perfbench/worker.py:env_record
# reads it into the environment record of each benchmark run.
HAS_NUMBA = False
