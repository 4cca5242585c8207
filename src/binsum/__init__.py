"""Exact evaluation, explicit asymptotics, and nonvanishing certificates for
the alternating binomial sums S(l1, l2) = sum_j (-1)**j C(l1,j) C(l2,j).

The public names load on first use (PEP 562): `binsum.certify` imports
`binsum.certifier`, and a process imports only the submodules it touches."""

import importlib

# each public name, by the submodule that defines it
_EXPORTS = {
    "asymptotics": (
        "NearDiagonalBound",
        "Prediction",
        "Regime",
        "RegimeError",
        "SaddleData",
        "classify",
        "cos_lower_bound",
        "critical_boundary_constants",
        "gamma_angles",
        "gamma_cubic_bounds",
        "half_phase_angle",
        "near_diagonal_error_bound",
        "normalized_residual",
        "oscillatory_error_bound",
        "predict",
        "saddle_data",
        "supercritical_error_bound",
        "supercritical_error_bound_refined",
    ),
    "certifier": (
        "AllUpToRule",
        "Certificate",
        "CertificateKind",
        "DiffRule",
        "DifferenceWindow",
        "ListRule",
        "RatioRule",
        "ScanReport",
        "certify",
        "certify_by_term_growth",
        "difference_windows",
        "scan_range",
    ),
    "exact": (
        "ExactValue",
        "PartitionPair",
        "Route",
        "binomial",
        "eval_diagonal",
        "eval_direct",
        "eval_reduced",
        "eval_row",
        "evaluate",
        "normalized_I",
        "row_step",
    ),
    "exceptions": ("CFExpansion", "ExceptionCount", "continued_fraction", "exception_count_bound"),
    "numerics": ("SLACK", "Comparison", "certified_compare", "to_real"),
    "polynomials": ("IntPolynomial", "c_poly", "factor_linear", "integer_roots", "tilde_poly"),
    "validators": ("LemmaReport", "validate_inequality"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# a star import binds the submodules too, as it did when this package
# imported them all up front
__all__ = [*_SOURCE, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, or a public name read from its submodule on every access:
    nothing is cached here, so a patch of the submodule's attribute shows."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
