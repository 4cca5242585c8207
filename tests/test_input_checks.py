"""Library entry points reject bad input with a ValueError before any work."""

import pytest

from binsum.asymptotics import (
    cos_lower_bound,
    near_diagonal_error_bound,
    oscillatory_error_bound,
    supercritical_error_bound_refined,
)
from binsum.certifier import DiffRule, difference_windows, scan_range
from binsum.exact import PartitionPair, eval_diagonal
from binsum.polynomials import IntPolynomial, c_poly, integer_roots
from binsum.validators import validate_inequality

CHECKS = {
    "windows-lambda2-0": (lambda: difference_windows(0), "lambda2 must be >= 1"),
    "scan-parallelism-0": (lambda: scan_range((1, 3), DiffRule(1), parallelism=0), "parallelism must be >= 1"),
    "refined-subcritical": (lambda: supercritical_error_bound_refined(2, 10, 0.5), r"requires r > 3 \+ 2\*sqrt\(2\)"),
    "oscillatory-lambda-0": (lambda: oscillatory_error_bound(2, 0), "lambda must be >= 1"),
    "near-diagonal-supercritical": (
        lambda: near_diagonal_error_bound(PartitionPair(6000, 800)),
        "requires a subcritical ratio",
    ),
    "cos-lower-diagonal": (lambda: cos_lower_bound(PartitionPair(5, 5)), "requires r > 1"),
    "diagonal-negative": (lambda: eval_diagonal(-1), "lambda must be nonnegative"),
    "polynomial-empty": (lambda: IntPolynomial(()), "coefficient list must be nonempty"),
    "roots-negative-bound": (lambda: integer_roots(c_poly(3), -1), "search bound must be nonnegative"),
    "validate-outside-range": (
        lambda: validate_inequality("super-g-strict", r_grid=[8]),
        "inequality requires r <= 7686899/1000000",
    ),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_library_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
