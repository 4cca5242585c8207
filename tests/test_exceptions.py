"""The report that `binsum exceptions` prints.  The tests of continued
fractions and of the exception-count bound are in test_certifier.py."""

from fractions import Fraction

import pytest

from binsum import exceptions
from binsum.exceptions import exception_report


@pytest.mark.parametrize("r, x", [(Fraction(2), 0.5), (Fraction(2), float("nan")), (Fraction(1, 2), 1e6)])
def test_exception_report_checks_the_bound_before_any_angle_work(monkeypatch, r, x):
    def no_angle(*args):
        raise AssertionError("angle computed before the bound's checks")

    monkeypatch.setattr(exceptions, "gamma_angles", no_angle)
    with pytest.raises(ValueError):
        exception_report(r, x, 20, 53)

