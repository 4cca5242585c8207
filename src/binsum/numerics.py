"""High-precision real arithmetic contract shared by every floating computation.

All numeric routines in this package run under an explicit binary working
precision (bits) via mpmath and never rely on the ambient global context.
mpmath rounds basic arithmetic correctly and keeps transcendental functions
within a couple of ulps of the true value, so a chain of k operations at
precision p carries an absolute error of order k * 2**(1-p) * |result|.
Decisions are never taken on raw floating comparisons: `certified_compare`
demands an explicit additive slack from the caller that must dominate the
accumulated rounding error of both operands.  Throughout the package the
decision slack is `SLACK` = 2**-40, vastly above 128-bit rounding noise and
still 2**37 times the unit 2**-(MIN_PRECISION + GUARD_BITS) of the coarsest
formula chain.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from mpmath import mp, mpf, workprec
from mpmath.libmp import to_rational

DEFAULT_PRECISION = 128
MIN_PRECISION = 53

# extra bits used inside formula chains so that results are good to the
# requested precision even after a few dozen operations
GUARD_BITS = 24

# the additive margin of every certified decision in the package
SLACK = mpf(2) ** -40


class Comparison(enum.Enum):
    """Outcome of a slack-aware comparison."""

    CERTIFIED_LESS = "certified_less"
    CERTIFIED_GREATER = "certified_greater"
    INDETERMINATE = "indeterminate"


def check_precision(prec: int) -> int:
    if prec < MIN_PRECISION:
        raise ValueError(f"working precision must be >= {MIN_PRECISION} bits, got {prec}")
    return prec


def to_real(n: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """Round an arbitrary-precision integer to `prec` bits.

    The result is within one ulp of n; the sign is preserved exactly
    (rounding an integer never crosses zero).
    """
    check_precision(prec)
    with workprec(prec):
        return mpf(n)


def rational_to_real(q: Fraction, prec: int = DEFAULT_PRECISION) -> mpf:
    """Round an exact rational to `prec` bits (one division, <= 2 ulp)."""
    check_precision(prec)
    with workprec(prec + GUARD_BITS):
        return mpf(q.numerator) / mpf(q.denominator)


@functools.lru_cache(maxsize=128)
def decimal_constant(text: str, prec: int) -> mpf:
    """The decimal `text` rounded to `prec` bits, the same mpf as `mpf(text)`
    under `workprec(prec)`, parsed once per (text, prec) instead of per use.
    The bound formulas ask for a few dozen constants at one or two
    precisions, so the cache stays far below its size."""
    with workprec(prec):
        return mpf(text)


def exact_fraction(x) -> Fraction:
    """The exact rational value of an int, float, Fraction, or mpf.

    Never re-rounds: mpf and float values are dyadic rationals and convert
    losslessly.  Raises for non-finite values.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert non-finite value {x!r} to a fraction")
        return Fraction(x)
    if not mp.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x!r} to a fraction")
    p, q = to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def _exact_or_none(x) -> Fraction | None:
    try:
        return exact_fraction(x)
    except ValueError:
        return None


# SLACK as an exact rational, converted once rather than on every comparison
_EXACT_SLACK = exact_fraction(SLACK)


def certified_compare(a, b, slack) -> Comparison:
    """Compare a and b, certifying an order only beyond the given slack.

    Returns CERTIFIED_LESS only if a + slack < b, CERTIFIED_GREATER only if
    a - slack > b, and INDETERMINATE otherwise.  The comparison is performed
    exactly on the operands' dyadic values (no rounding of its own), so the
    only errors in play are the ones the caller already budgeted into
    `slack`.  Non-finite operands are INDETERMINATE.
    """
    es = _EXACT_SLACK if slack is SLACK else exact_fraction(slack)
    if es < 0:
        raise ValueError("slack must be nonnegative")
    ea = _exact_or_none(a)
    eb = _exact_or_none(b)
    if ea is None or eb is None:
        return Comparison.INDETERMINATE
    if ea + es < eb:
        return Comparison.CERTIFIED_LESS
    if ea - es > eb:
        return Comparison.CERTIFIED_GREATER
    return Comparison.INDETERMINATE
