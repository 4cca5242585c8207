"""High-precision real arithmetic contract shared by every floating computation.

All numeric routines in this package run under an explicit binary working
precision (bits) via mpmath and never rely on the ambient global context.
mpmath rounds basic arithmetic correctly and keeps transcendental functions
within a couple of ulps of the true value, so a chain of k operations at
precision p carries an absolute error of order k * 2**(1-p) * |result|.
Decisions are never taken on raw floating comparisons: `certified_compare`
demands an explicit additive slack from the caller that must dominate the
accumulated rounding error of both operands, and decides exactly.  Its
operands are ints, floats and mpfs, all dyadic rationals man * 2**exp; it
takes their difference with mpmath's unrounded (precision 0) subtraction
and compares it with -slack and +slack by `mpf_cmp`, so no step rounds.
`dyadic_compare` is that comparison alone, for arithmetic that already
holds raw tuples, and `raw_rational` rounds an exact rational as
`rational_to_real` does, raw.  Throughout the package the decision slack is
`SLACK` = 2**-SLACK_BITS = 2**-40 (`RAW_SLACK` raw), vastly above 128-bit
rounding noise and still 2**37 times the unit 2**-(MIN_PRECISION +
GUARD_BITS) of the coarsest formula chain; the fixed-point and integer
arithmetic elsewhere derives its slack from `SLACK_BITS`.  Every printed
margin is a difference of raw values rounded to `MARGIN_PRECISION` = 53
bits by `rounded_margin`, and `certified_margin` gives it only where the
difference is certified beyond `SLACK`.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_float, from_int, mpf_cmp, mpf_div, mpf_neg, mpf_sub, round_nearest, to_float

DEFAULT_PRECISION = 128
MIN_PRECISION = 53

# extra bits used inside formula chains so that results are good to the
# requested precision even after a few dozen operations
GUARD_BITS = 24

# the additive margin of every certified decision in the package
SLACK_BITS = 40
SLACK = mpf(2) ** -SLACK_BITS
RAW_SLACK = SLACK._mpf_

# printed margins are rounded at 53 bits, mpmath's default precision,
# whatever precision the caller has set
MARGIN_PRECISION = 53

# the format of every float printed: 17 significant digits round-trip a
# float losslessly
FLOAT_SPEC = ".17g"

# pi lies in [PI_FLOOR, PI_FLOOR + 1] / 2**PI_BITS, an enclosure of width
# 2**-96 for integer arithmetic
PI_BITS = 96
PI_FLOOR = 248902613312231085230521944622


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
    return mp.make_mpf(raw_rational(q.numerator, q.denominator, prec))


def raw_rational(n: int, m: int, prec: int) -> tuple:
    """n/m for m > 0, raw, as `rational_to_real(Fraction(n, m), prec)` rounds
    it: numerator and denominator in lowest terms, each rounded to
    prec + GUARD_BITS bits, then divided at that precision."""
    g, wp = math.gcd(n, m), prec + GUARD_BITS
    return mpf_div(from_int(n // g, wp, round_nearest), from_int(m // g, wp, round_nearest), wp, round_nearest)


@functools.lru_cache(maxsize=128)
def decimal_constant(text: str, prec: int) -> mpf:
    """The decimal `text` rounded to `prec` bits, the same mpf as `mpf(text)`
    under `workprec(prec)`, parsed once per (text, prec) instead of per use.
    The bound formulas ask for a few dozen constants at one or two
    precisions, so the cache stays far below its size."""
    with workprec(prec):
        return mpf(text)


def _exact_form(x) -> tuple:
    """x without rounding: an mpf, int or float as its raw mpf tuple (sign,
    mantissa, exponent, bit count), whose value is (-1)**sign * mantissa *
    2**exponent.  nan and the infinities map to mpmath's special values, the
    only raw mpfs with a zero mantissa and a nonzero exponent."""
    if isinstance(x, mpf):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, float):
        return from_float(x)
    raise TypeError(f"cannot compare {type(x).__name__} values exactly")


def _is_finite(form: tuple) -> bool:
    return bool(form[1]) or not form[2]


def certified_compare(a, b, slack) -> Comparison:
    """Compare a and b, certifying an order only beyond the given slack.

    Returns CERTIFIED_LESS only if a + slack < b, CERTIFIED_GREATER only if
    a - slack > b, and INDETERMINATE otherwise, so operands exactly `slack`
    apart are INDETERMINATE.  Operands and slack may be ints, floats or
    mpfs; any other type, a Fraction included, raises TypeError.  Both tests
    compare the one difference a - b with -slack and +slack, exactly: a - b
    is an mpmath subtraction at precision 0, which never rounds, compared by
    `mpf_cmp` (`dyadic_compare`).  So the only errors in play are the ones
    the caller already budgeted into `slack`.  Non-finite operands are
    INDETERMINATE; a negative or non-finite slack raises ValueError.
    """
    fa, fb, fs = map(_exact_form, (a, b, slack))
    if not _is_finite(fs) or fs[0]:
        raise ValueError(f"slack must be finite and nonnegative, got {slack!r}")
    if not (_is_finite(fa) and _is_finite(fb)):
        return Comparison.INDETERMINATE
    return dyadic_compare(fa, fb, fs)


def dyadic_compare(a: tuple, b: tuple, slack: tuple) -> Comparison:
    """`certified_compare` of finite raw mpf tuples (`mpf._mpf_`), with a
    nonnegative slack, unchecked: the raw-tuple arithmetic of the cascade
    decides through this one comparison."""
    gap = mpf_sub(a, b)  # a - b; precision 0 never rounds
    if mpf_cmp(gap, mpf_neg(slack)) < 0:  # a + slack < b
        return Comparison.CERTIFIED_LESS
    if mpf_cmp(gap, slack) > 0:  # a - slack > b
        return Comparison.CERTIFIED_GREATER
    return Comparison.INDETERMINATE


def rounded_margin(a: tuple, b: tuple) -> float:
    """a - b of two raw mpf tuples, rounded to `MARGIN_PRECISION` bits, as a float."""
    return to_float(mpf_sub(a, b, MARGIN_PRECISION, round_nearest))


def certified_margin(a: tuple, b: tuple) -> float | None:
    """`rounded_margin(a, b)` when a exceeds b by more than `SLACK`
    (`dyadic_compare`), else None: the verdict of a kernel's raw values."""
    if dyadic_compare(a, b, RAW_SLACK) is not Comparison.CERTIFIED_GREATER:
        return None
    return rounded_margin(a, b)


def format_float(x, spec: str = FLOAT_SPEC) -> str:
    """A float or mpf as its float formatted by spec: by default at 17
    significant digits, which round-trips a float losslessly, and with spec
    "" as its shortest repr, as json.dumps writes a float.  An mpf past the
    double range is its own decimal at 17 significant digits instead, a
    number in JSON and CSV alike where its float would print as inf.  Empty
    for a missing value (CSV cell)."""
    if x is None:
        return ""
    value = float(x)
    return mp.nstr(x, 17) if math.isinf(value) and mp.isfinite(x) else format(value, spec)
