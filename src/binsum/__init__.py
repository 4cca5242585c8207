"""Exact evaluation, explicit asymptotics, and nonvanishing certificates for
the alternating binomial sums S(l1, l2) = sum_j (-1)**j C(l1,j) C(l2,j)."""

from .asymptotics import (
    NearDiagonalBound,
    Prediction,
    Regime,
    RegimeError,
    SaddleData,
    classify,
    cos_lower_bound,
    critical_boundary_constants,
    gamma_angles,
    gamma_cubic_bounds,
    near_diagonal_error_bound,
    normalized_residual,
    oscillatory_error_bound,
    predict,
    saddle_data,
    supercritical_error_bound,
    supercritical_error_bound_refined,
)
from .certifier import (
    AllUpToRule,
    Certificate,
    CertificateKind,
    CFExpansion,
    DiffRule,
    DifferenceWindow,
    ExceptionCount,
    ListRule,
    RatioRule,
    ScanReport,
    certify,
    certify_by_term_growth,
    continued_fraction,
    difference_windows,
    exception_count_bound,
    scan_range,
)
from .exact import (
    ExactValue,
    PartitionPair,
    Route,
    binomial,
    eval_diagonal,
    eval_direct,
    eval_reduced,
    eval_row,
    evaluate,
    normalized_I,
    row_step,
)
from .numerics import SLACK, Comparison, certified_compare, to_real
from .polynomials import IntPolynomial, c_poly, factor_linear, integer_roots, tilde_poly
from .validators import LemmaReport, validate_inequality

__version__ = "0.1.0"
