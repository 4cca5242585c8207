import math
import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_add, mpf_sub, to_rational

from binsum.asymptotics import WINDOW_CLAUSES
from binsum.numerics import (
    GUARD_BITS,
    MIN_PRECISION,
    RAW_SLACK,
    SLACK,
    Comparison,
    certified_compare,
    certified_margin,
    decimal_constant,
    dyadic_compare,
    rational_to_real,
    rounded_margin,
    to_real,
)
from binsum.asymptotics import NEAR_DIAGONAL_FLAT, NEAR_DIAGONAL_ROWS, supercritical_error_bound


def exact_fraction(x) -> Fraction:
    """The exact rational value of a finite int, float, Fraction or mpf."""
    if isinstance(x, (int, float, Fraction)):
        return Fraction(x)
    p, q = to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def test_to_real_exact_small_values():
    assert to_real(0, 128) == 0
    assert to_real(-7, 128) == -7
    assert to_real(12345, 53) == 12345


def test_to_real_power_of_two_exact_at_low_precision():
    # 2**100 is exactly representable at any precision
    assert to_real(2**100, 64) == mpf(2) ** 100
    assert to_real(-(2**100), 64) == -(mpf(2) ** 100)


def test_to_real_one_ulp_and_sign():
    n = 2**100 + 1
    x = to_real(n, 64)
    assert abs(exact_fraction(x) - n) <= Fraction(2) ** (100 - 63)
    assert x > 0
    assert to_real(-n, 64) < 0


def test_to_real_monotone_rounding():
    rng = random.Random(7)
    values = sorted(rng.randrange(-(10**40), 10**40) for _ in range(200))
    for prec in (53, 64, 128):
        images = [to_real(v, prec) for v in values]
        assert all(a <= b for a, b in zip(images, images[1:]))


def test_to_real_rejects_tiny_precision():
    with pytest.raises(ValueError):
        to_real(1, 16)


def test_certified_compare_trivial_cases():
    s = mpf("0.1")
    assert certified_compare(1, 2, s) is Comparison.CERTIFIED_LESS
    assert certified_compare(2, 1, s) is Comparison.CERTIFIED_GREATER
    assert certified_compare(1, 1, s) is Comparison.INDETERMINATE


def test_certified_compare_tight_threshold_value():
    assert certified_compare(mpf("0.9999978502"), 1, mpf("1e-9")) is Comparison.CERTIFIED_LESS


def test_certified_compare_negative_slack_rejected():
    # and a non-finite one, in every operand type
    for slack in (-1, -0.5, -SLACK, math.inf, math.nan, mpf("inf"), mpf("nan")):
        with pytest.raises(ValueError):
            certified_compare(1, 2, slack)
        with pytest.raises(ValueError):
            certified_compare(mpf(1) / 3, 2.5, slack)


@pytest.mark.parametrize("a, b, slack", [
    (Fraction(1, 3), mpf(2), SLACK),
    (1, Fraction(1, 3), 0),
    (1, 2, Fraction(1, 3)),
    (Fraction(1), Fraction(1), Fraction(0)),
])
def test_certified_compare_rejects_fractions(a, b, slack):
    # a Fraction is an unsupported type, also when its value is dyadic
    with pytest.raises(TypeError):
        certified_compare(a, b, slack)


def test_certified_compare_never_contradicts_itself():
    rng = random.Random(11)
    for _ in range(300):
        a = mpf(rng.uniform(-5, 5))
        b = mpf(rng.uniform(-5, 5))
        s = mpf(rng.uniform(0, 1))
        forward = certified_compare(a, b, s)
        backward = certified_compare(b, a, s)
        if forward is Comparison.CERTIFIED_LESS:
            assert backward is Comparison.CERTIFIED_GREATER
        if forward is Comparison.CERTIFIED_GREATER:
            assert backward is Comparison.CERTIFIED_LESS


def test_certified_compare_is_exact_on_dyadics():
    # gap below the slack on either side must be indeterminate, never certified
    a = mpf(1)
    slack = mpf(2) ** -40
    just_above = a + mpf(2) ** -41
    assert certified_compare(a, just_above, slack) is Comparison.INDETERMINATE
    well_above = a + mpf(2) ** -39
    assert certified_compare(a, well_above, slack) is Comparison.CERTIFIED_LESS


def test_the_decision_slack_dominates_the_coarsest_rounding_unit():
    # the soundness precondition of every certified decision: 2**-40, with
    # a factor 2**32 to spare above the unit of a chain at the least precision
    assert SLACK == mpf(2) ** -40
    assert SLACK > 2**32 * mpf(2) ** -(MIN_PRECISION + GUARD_BITS)


def test_doubling_precision_never_flips_verdicts():
    for r_num in (6, 7, 13):
        r = Fraction(r_num)
        low = supercritical_error_bound(r, 241, 64)
        high = supercritical_error_bound(r, 241, 256)
        v_low = certified_compare(low, 1, SLACK)
        v_high = certified_compare(high, 1, SLACK)
        assert v_low is v_high is Comparison.CERTIFIED_LESS


def test_rational_to_real_accuracy():
    q = Fraction(1, 3)
    x = rational_to_real(q, 128)
    assert abs(exact_fraction(x) - q) < Fraction(1, 2**126)


def test_decimal_constants_are_rounded_once_and_bit_identical():
    ends = [end[2] for clauses in WINDOW_CLAUSES for _, lo, hi in clauses for end in (lo, hi) if end is not None]
    # the window ends, the class2-a floor 2.0582 * l2**0.25 and the
    # near-diagonal constants
    texts = [*ends, "2.0582", "0.25", *NEAR_DIAGONAL_ROWS, NEAR_DIAGONAL_FLAT]
    assert len(set(ends)) == 12
    for prec in (53, 128, 200):
        wp = prec + GUARD_BITS
        for text in texts:
            cached = decimal_constant(text, wp)
            assert cached is decimal_constant(text, wp)
            with workprec(wp):
                assert cached._mpf_ == mpf(text)._mpf_, (text, prec)


# ---------------------------------------------------------------------------
# certified_compare against a Fraction reference
# ---------------------------------------------------------------------------

def _reference_compare(a, b, slack) -> Comparison:
    """`certified_compare` on exact Fractions: a + slack < b, a - slack > b."""
    if not all(isinstance(x, Fraction) or mp.isfinite(x) for x in (a, b)):
        return Comparison.INDETERMINATE
    ea, eb, es = exact_fraction(a), exact_fraction(b), exact_fraction(slack)
    if ea + es < eb:
        return Comparison.CERTIFIED_LESS
    if ea - es > eb:
        return Comparison.CERTIFIED_GREATER
    return Comparison.INDETERMINATE


def _mpf_exactly(q: Fraction) -> mpf:
    """The dyadic rational q (denominator a power of two) as an mpf, unrounded."""
    shift = q.denominator.bit_length() - 1
    assert q.denominator == 1 << shift
    with workprec(max(53, abs(q.numerator).bit_length())):
        return mpf((q.numerator, -shift))


@st.composite
def _mpfs(draw):
    """An mpf of 53 to 400 bits with a binary exponent in about -2000..2000."""
    prec = draw(st.integers(53, 400))
    man = draw(st.integers(-(2**prec) + 1, 2**prec - 1))
    exp = draw(st.integers(-2000 - prec, 2000 - prec))
    with workprec(prec):
        return mpf((man, exp))


_FINITE = st.one_of(
    _mpfs(),
    st.integers(-(2**3000), 2**3000),
    st.floats(allow_nan=False, allow_infinity=False),
)
_NON_FINITE = st.sampled_from([mpf("inf"), mpf("-inf"), mpf("nan"), math.inf, -math.inf, math.nan])
_SLACKS = st.one_of(
    st.just(0),
    st.just(SLACK),
    _mpfs().map(abs),
    st.floats(min_value=0, allow_infinity=False),
)


@given(a=_FINITE | _NON_FINITE, b=_FINITE | _NON_FINITE, slack=_SLACKS)
@example(a=mpf(1), b=mpf(1) + SLACK, slack=SLACK)
@example(a=mpf(1) / 3, b=mpf(1) / 3, slack=0)
@example(a=mpf("inf"), b=mpf("inf"), slack=0)
@settings(max_examples=1000, deadline=None)
def test_certified_compare_matches_a_fraction_reference(a, b, slack):
    assert certified_compare(a, b, slack) is _reference_compare(a, b, slack)


@given(a=_mpfs(), b=_mpfs(), slack=st.just(SLACK) | _mpfs().map(abs), apart=st.booleans())
@example(a=mpf(1), b=mpf(1) + SLACK, slack=SLACK, apart=False)
@settings(max_examples=500, deadline=None)
def test_raw_tuples_compare_as_their_mpfs(a, b, slack, apart):
    # the cascade's raw arithmetic decides by `dyadic_compare`; operands
    # exactly the slack apart must stay indeterminate there too
    if apart:
        b = mp.make_mpf(mpf_add(a._mpf_, slack._mpf_))  # precision 0: exact
    got = dyadic_compare(a._mpf_, b._mpf_, slack._mpf_)
    assert got is certified_compare(a, b, slack) is _reference_compare(a, b, slack)
    assert not apart or got is Comparison.INDETERMINATE


@given(a=_FINITE, slack=_SLACKS, below=st.booleans())
@settings(max_examples=500, deadline=None)
def test_operands_exactly_the_slack_apart_are_indeterminate(a, slack, below):
    # b = a + slack (or a - slack) exactly, an mpf, since a and the slack are
    # both dyadic
    b = _mpf_exactly(exact_fraction(a) + exact_fraction(slack) if below else exact_fraction(a) - exact_fraction(slack))
    assert certified_compare(a, b, slack) is Comparison.INDETERMINATE
    assert certified_compare(b, a, slack) is Comparison.INDETERMINATE
    # `certified_margin` of raw operands exactly `SLACK` apart, or less,
    # gives None; just beyond it, the rounded margin
    low, tiny = _mpf_exactly(exact_fraction(a))._mpf_, from_man_exp(1, -200)
    on = mpf_add(low, RAW_SLACK)  # precision 0: exact
    assert certified_margin(on, low) is None
    assert certified_margin(mpf_sub(on, tiny), low) is None
    beyond = mpf_add(on, tiny)
    assert certified_margin(beyond, low) == rounded_margin(beyond, low) > 0
