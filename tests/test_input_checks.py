"""Library entry points reject bad input with a ValueError before any work,
and the command line turns it into exit code 2 and one line."""

import pytest

from binsum import cli, validators
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


def _no_work(*args, **kwargs):
    raise AssertionError("a region or saddle constant was computed")


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"grid_size": (8, 0)}, "grid size must be at least 1x1, got 8x0"),
        ({"grid_size": (0, 8)}, "grid size must be at least 1x1, got 0x8"),
        ({"r_grid": []}, "empty grid"),
        ({"r_grid": [2], "theta_grid": []}, "empty grid"),
    ],
)
def test_validate_rejects_an_empty_grid_before_any_work(monkeypatch, grid, message):
    monkeypatch.setattr(validators, "_theta_region", _no_work)
    monkeypatch.setattr(validators, "saddle_data", _no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_inequality("sub-g-decay", **grid)


@pytest.mark.parametrize("grid", ["ax5", "8xa", "8x0", "0x8", "8", "8x", "x8", "8x-1", "8x5x2", "+8x5", "8.0x5", " 8x5", "8x²"])
def test_validate_rejects_a_grid_not_of_the_form_nrxnt_in_one_line(monkeypatch, capsys, grid):
    # exit 2 with one line naming --grid and its form, before any region or
    # saddle constant is computed
    monkeypatch.setattr(validators, "_theta_region", _no_work)
    monkeypatch.setattr(validators, "saddle_data", _no_work)
    assert cli.main(["validate", "--lemma", "sub-g-decay", "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --grid must be NRxNT with both counts integers >= 1, got {grid!r}\n"
