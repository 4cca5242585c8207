"""Saddle-point constants, asymptotic main terms, and explicit error bounds.

For a pair (l1, l2) with exact ratio r = l1/l2 > 1, the sum S(l1, l2) equals
(up to the sign (-1)**l2) a contour integral of exp(l2 * f(z)) / (2*pi*i*z)
with

    f(z) = r*log(1+z) + log(1-z) - log(z),

taken over a circle |z| = rho.  The sign of r**2 - 6r + 1 decides the
geometry and hence the shape of the asymptotics:

  * supercritical (r > 3 + 2*sqrt(2)): one real saddle, Gaussian main term,
    the scaled integral tends to 1 with a fully explicit error bound;
  * subcritical (1 < r < 3 + 2*sqrt(2)): two conjugate saddles on the
    circle, oscillating cosine main term, explicit 1/sqrt(lambda) bound;
  * near the diagonal (r close to 1, equivalently small l1 - l2): a
    sharper windowed bound on the same cosine main term without the
    half-phase correction.

Regime classification is the sign of one exact rational, `negated_discriminant`
(6r - 1 - r**2), read off the integer 6ab - a**2 - b**2 for r = a/b
(`ratio_regime`, which takes a pair's lambda1 and lambda2 as they are);
floating arithmetic enters only the constants.  Normalizers
of the form 2**((r+1)*lambda/2) overflow any fixed-exponent float, so all
scalings are combined in the log domain and exponentiated once.

Each per-pair formula of the certification cascade is one raw kernel on
libmp tuples (`_mpf_`) instead of mpf objects: `_supercritical_bound` (the
exponential tail, rarely evaluated, stays in mpf arithmetic),
`_oscillatory_bound`, `_reduced_cosine`, `_near_diagonal_bound`,
`_cos_lower_bound`, and the lambda2-only edges log(lambda2) and
sqrt(k*pi*lambda2) of `window_edge`.
Each step is the `mpf_*` call that the mpf expression it replaces makes: the
same operation, on the same operands, in the same order, at the same
precision, rounding to nearest (a division by 4 that is exact may be an
`mpf_shift`, which gives the same tuple).  So every value equals the mpf expression's
bit for bit, and none depends on the ambient mpmath precision.

Each constant is built once, by the code that reads it, and what depends
only on the ratio lives in one object, a `RatioLine` of the ratio at one
precision.  Its saddle (`RatioLine.saddle`) is rho and the curvature M of a
supercritical ratio, which its bounds read, or rho and the saddle angle
alpha of a subcritical one, which the validators read; its phase angles
gamma1, gamma2 and the half phase gamma3 come from `RatioLine.angles`.
Each of them but the subcritical rho = 1/sqrt(r) is a closed form in
r = a/b and one square root, that of the integer numerator
N = 6ab - a**2 - b**2 of `negated_discriminant`, which the line takes once
per working precision: a quotient of positive terms or an atan2, with no
arccosine of a quotient that tends to 1 and no difference that cancels, so
each keeps the working precision up to 3 + 2*sqrt(2).  The line also keeps
the factors of the bounds and the phase constants gamma1, gamma2, gamma3
and 2*pi at the cosine's raised precision, each computed on first use.
`predict` builds f(rho), the exponent of its supercritical normalizer; the
factors of the supercritical bound that depend on the precision alone are
kept per working precision (`_supercritical_constants`).  The validity
threshold of the oscillatory bound, which no step of the cascade reads, is
computed by `oscillatory_error_bound` alone.

`ratio_line` keeps the lines of the last few ratios, the one cache of a
ratio's constants.  The public functions read it: `saddle_data` is a
checked view of its saddle, and `supercritical_error_bound`,
`supercritical_error_bound_refined`, `oscillatory_error_bound` and
`oscillation_cosine` wrap its kernels' results in an mpf, where the cascade
takes them raw.  `gamma_angles` and `half_phase_angle` read the angles of
a line of their own.  `certify` and the scans other than ratio scans run
each pair on a line of its own, which touches no shared cache.
`require_regime` is the one check of a ratio's regime.  The two
kernels that read the pair alone, `_near_diagonal_bound` and
`_cos_lower_bound`, are the cascade's where the enclosures of a
`DiffLine` leave its near-diagonal step open.

A `RatioLine` also decides the cascade's two saddle steps.  It first
encloses its kernels' outcome in integer arithmetic.  Past a per-line tail
cutoff, the supercritical bound is a fixed chain of five correctly rounded
operations on the exact dyadic K/lambda, K = c1/(256*M**2) + c2/(24*M**3)
of the kept factors.  The oscillatory bound is four operations on
16336/(sqrt(lambda)*nd_power).  The cosine's angle lambda1*gamma1 +
lambda2*gamma2 + gamma3 is an exact dyadic of the kept phase constants, so
it is reduced by the kernel's own 2*pi in exact integers, and its cosine
taken by a Taylor series in fixed point (`_fixed_cos`).  Each enclosure's
width counts the roundings of the kernel's chain at the kernel's precision
(Payne and Hanek, SIGNUM Newsletter 18, 1983, for the exact reduction;
Brent and Zimmermann for the rounding counts).  Where the enclosures put
the comparison with `SLACK` on one side and every 53-bit rounding of the
margin strictly between two midpoints of the grid, that is the step's
outcome (`_enclosed_margin`); elsewhere the line runs the kernels and
compares their values (`numerics.certified_margin`).  So every verdict and
margin is the kernels', bit for bit.

A `DiffLine` decides the window and near-diagonal steps of one difference
d = l1 - l2 >= 702, and the oscillatory gate of its pairs, and `diff_line`
keeps one per difference and precision in a process.  Those steps compare
d with window ends m*sqrt(k*pi*l2) -+ c of the window table
(`WINDOW_CLAUSES`, which `difference_windows` prints) and row edges
sqrt(k*pi*l2), computed by chains of correctly rounded libmp operations, so
nondecreasing in l2, and the cosine lower bound compares q = d*d/(4*l2)
with multiples of pi/4 and with the low end of its second window, each
comparison switching once along the line.  A `DiffLine` bounds each
computed value's error and turns each comparison into two lambda2
thresholds in exact integers: below the one its outcome is certainly one
way, above the other certainly the other, whatever the rounding.  So the
window step's clause, the near-diagonal bound's row and the cosine lower
bound's window follow from the thresholds, and the near-diagonal step
decides from integer enclosures of its two kernels' values
(`DiffLine.near_diagonal_margin`): the row value by one `isqrt`, the
cosines in fixed point.  A pair between two thresholds, or whose
enclosures reach across the slack or across a midpoint of the 53-bit grid,
runs the per-pair functions and kernels themselves, so every verdict and
margin is the one they give.  Per pair there remain the floor of clause
class2-a past lambda2 = `CLASS2_FLOOR_702`, edge 0 of the near-diagonal
bound at lambda2 of more than 1000 bits (where the step runs its kernels),
and the enclosures and the margin in integers.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    fhalf,
    fone,
    from_int,
    ftwo,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_ceil,
    mpf_cos,
    mpf_div,
    mpf_floor,
    mpf_ge,
    mpf_gt,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pi,
    mpf_pow,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_int,
)

from .exact import PartitionPair, evaluate
from .numerics import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    MARGIN_PRECISION,
    PI_BITS,
    PI_FLOOR,
    RAW_SLACK,
    SLACK,
    SLACK_BITS,
    Comparison,
    certified_compare,
    certified_margin,
    check_precision,
    dyadic_compare,
    decimal_constant,
    rational_to_real,
    raw_rational,
    rounded_margin,
)

# exact checkpoints used by the windowed bounds (decimal constants are exact
# rationals, so the regime/window tests below never round)
REFINED_BOUND_MAX_RATIO = Fraction(7686899, 1000000)
CUBIC_WINDOW_MAX_RATIO_SQUARED = Fraction(73)  # r <= (9 + sqrt(73))/4
NEAR_DIAGONAL_MIN_DIFFERENCE = 702
# the near-diagonal gate d*d < NEAR_DIAGONAL_GATE * l2: every window-table
# window and every near-diagonal row ends below d = sqrt(8*pi*l2) < sqrt(26*l2)
NEAR_DIAGONAL_GATE = 26

# constants of the windowed near-diagonal bound: rows k = 1..8 bound
# sqrt(l2) * residual when the difference lies in [sqrt((k-1)*pi*l2),
# sqrt(k*pi*l2)] (row 1 starts at log(l2) instead), plus one flat bound
# valid on the whole range difference <= sqrt(8*pi*l2)
NEAR_DIAGONAL_ROWS = (
    "1.05882",
    "1.30775",
    "1.50929",
    "1.68876",
    "1.85482",
    "2.01189",
    "2.1626",
    "2.30865",
)
NEAR_DIAGONAL_FLAT = "0.0165"

OSCILLATORY_BOUND_CONSTANT = 16336

# the rounding of every mpf operation under mpmath's default context
_RND = round_nearest

# entries kept by `ratio_line`, the one per-ratio cache, keyed by
# (a, b, prec).  A ratio scan, a validator or a public function needs one
# live key at a time (a line keeps the raised precisions of
# `oscillation_cosine` itself); the bound only keeps a long-running process
# from growing without limit.
RATIO_CACHE_SIZE = 32


class Regime(enum.Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    DEGENERATE = "degenerate"


class RegimeError(ValueError):
    """Raised when an operation is applied outside its regime."""


def negated_discriminant(r: Fraction) -> Fraction:
    """6r - 1 - r**2 exactly, as (6ab - a**2 - b**2)/b**2 (lowest terms) for r = a/b: positive
    below 3 + 2*sqrt(2), negative above, never zero (its roots are irrational)."""
    a, b = r.numerator, r.denominator
    return Fraction(6 * a * b - a * a - b * b, b * b)


def ratio_regime(a: int, b: int) -> Regime:
    """The regime of r = a/b for integers a >= 0 and b > 0, in any terms (a
    pair's lambda1 and lambda2 will do): DEGENERATE for a <= b, else
    SUPERCRITICAL or SUBCRITICAL as 6ab - a**2 - b**2, which is
    b**2 * `negated_discriminant(a/b)`, is negative or positive."""
    if a <= b:
        return Regime.DEGENERATE
    return Regime.SUPERCRITICAL if 6 * a * b < a * a + b * b else Regime.SUBCRITICAL


def classify(r: Fraction) -> Regime:
    """Classify the exact rational ratio against the threshold 3 + 2*sqrt(2):
    DEGENERATE for r <= 1, else SUPERCRITICAL or SUBCRITICAL as
    `negated_discriminant(r)` is negative or positive, decided on its
    integer numerator by `ratio_regime`."""
    r = Fraction(r)
    return ratio_regime(r.numerator, r.denominator)


class SaddleData(NamedTuple):
    """The saddle of one ratio r > 1, at a recorded precision, as
    `RatioLine.saddle` keeps it.

    Supercritical fields: rho (the real saddle) and the curvature
    M = rho**2 f''(rho) > 0.  Subcritical fields: rho = 1/sqrt(r) and the
    saddle angle alpha.  Fields of the other regime are None.  The
    constants built from these are built by the code that reads them (see
    the module docstring).
    """

    r: Fraction
    regime: Regime
    prec: int
    rho: mpf
    M: mpf | None = None
    alpha: mpf | None = None


# the regimes of r > 1, and each regime alone, as `require_regime` reads them
SADDLE_REGIMES = (Regime.SUPERCRITICAL, Regime.SUBCRITICAL)
SUPERCRITICAL_ONLY = (Regime.SUPERCRITICAL,)
SUBCRITICAL_ONLY = (Regime.SUBCRITICAL,)


def require_regime(r, regimes: tuple[Regime, ...], requirement: str, prec: int | None = None) -> Regime:
    """The regime of the ratio r, one of `regimes`, after `check_precision`
    of prec when one is given; any other regime raises
    RegimeError("<requirement>, got r = <r in lowest terms>")."""
    if prec is not None:
        check_precision(prec)
    r = Fraction(r)
    regime = ratio_regime(r.numerator, r.denominator)
    if regime not in regimes:
        raise RegimeError(f"{requirement}, got r = {r}")
    return regime


def _oscillation_ratio(r: Fraction, prec: int) -> Fraction:
    """r as a Fraction, after checking prec and that 1 <= r <= 3 + 2*sqrt(2)."""
    check_precision(prec)
    r = Fraction(r)
    if r != 1:
        require_regime(r, SUBCRITICAL_ONLY, "oscillation angles require 1 <= r <= 3 + 2*sqrt(2)")
    return r


def gamma_angles(r: Fraction, prec: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """The oscillation angles gamma1 = arccos((3r-1)/(2*sqrt(2)*r)) and
    gamma2 = -arccos((r-3)/(2*sqrt(2))), defined for 1 <= r <= 3 + 2*sqrt(2),
    as `RatioLine.angles` builds them."""
    r = _oscillation_ratio(r, prec)
    return RatioLine(r.numerator, r.denominator, prec).angles(prec)[:2]


def half_phase_angle(r: Fraction, prec: int = DEFAULT_PRECISION) -> mpf:
    """The half phase gamma3 = beta/2 of the subcritical main term, defined
    where `gamma_angles` is, as `RatioLine.angles` builds it."""
    r = _oscillation_ratio(r, prec)
    return RatioLine(r.numerator, r.denominator, prec).angles(prec)[2]


def saddle_data(r: Fraction, prec: int = DEFAULT_PRECISION) -> SaddleData:
    """The saddle of the regime of r (r > 1): rho and M, or rho and alpha,
    the `RatioLine.saddle` of the line of r that `ratio_line` keeps."""
    require_regime(r, SADDLE_REGIMES, "saddle data requires r > 1", prec)
    r = Fraction(r)
    return ratio_line(r.numerator, r.denominator, prec).saddle


def critical_boundary_constants(prec: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """The boundary values rho = sqrt(2) - 1, M = 0 at r = 3 + 2*sqrt(2).

    Probe constants for continuity tests; the critical asymptotic itself is
    unsupported (the ratio of two integers never hits the threshold).
    """
    check_precision(prec)
    with workprec(prec + GUARD_BITS):
        return mp.sqrt(mpf(2)) - 1, mpf(0)


def _supercritical_bound(factors: tuple, lam: int, wp: int) -> tuple:
    """`supercritical_error_bound` at lam >= 1 from its raw
    `RatioLine.supercritical_factors`, rounded at wp bits, as a raw tuple."""
    m_val, c1, m_sq, c2, m_cube, sqrt2, pi_sq, pi_15 = factors
    # c1/(256*lam*M**2) + c2/(24*lam*M**3), lam*M and x = lam*M*pi**2/2, as
    # the mpf expressions round them at wp bits
    lamf = from_int(lam, wp, _RND)
    head = mpf_add(
        mpf_div(c1, mpf_mul(mpf_mul_int(lamf, 256, wp, _RND), m_sq, wp, _RND), wp, _RND),
        mpf_div(c2, mpf_mul(mpf_mul_int(lamf, 24, wp, _RND), m_cube, wp, _RND), wp, _RND),
        wp,
        _RND,
    )
    lam_m = mpf_mul(lamf, m_val, wp, _RND)
    x = mpf_div(mpf_mul(lam_m, pi_sq, wp, _RND), ftwo, wp, _RND)
    # The sum head lies in [2**(E-1), 2**E) for E = mag(head), its exponent
    # plus its bit count, so half an ulp of it at wp bits is 2**(E-wp-1).
    # With lam*M >= 1 the prefactor sqrt(2)/(pi**1.5*sqrt(lam*M)) is below
    # 0.26 and exp(-x) < 2**-x, so the tail as computed here is below
    # 2**-x < 2**(E-wp-16) (Brent and Zimmermann, Modern Computer Arithmetic,
    # 2010, section 3.1: a term below half an ulp leaves a round-to-nearest
    # sum unchanged).
    if mpf_ge(lam_m, fone) and mpf_gt(x, from_int(wp + 16 - head[2] - head[3])):
        return head
    with workprec(wp):
        head, x, lam_m, sqrt2, pi_15 = map(mp.make_mpf, (head, x, lam_m, sqrt2, pi_15))
        return (head + sqrt2 * mp.exp(-x) / (pi_15 * mp.sqrt(lam_m)))._mpf_


def supercritical_error_bound(r: Fraction, lam: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """The explicit bound Phi1(r, lam) on |sqrt(2*pi*lam*M) * I / exp(lam*f(rho)) - 1|:

        3*(3+2*sqrt(2))*pi**5 / (256*lam*M**2)
      + 5*(3+2*sqrt(2)) / (24*lam*M**3)
      + sqrt(2)*exp(-lam*M*pi**2/2) / (pi**(3/2)*sqrt(lam*M))

    Decreasing in both r and lam.  The sum is rounded to prec + GUARD_BITS
    bits, and the third term is not evaluated once it provably cannot move
    the last of them: when lam*M >= 1 and x = lam*M*pi**2/2 exceeds that
    precision plus a margin of 16 bits, minus the binary exponent of the
    sum of the first two terms, the third term is below 2**-x, far under
    half an ulp of that sum, so adding it and rounding to nearest gives
    back the sum bit for bit.  At lam near 1e5 this skips an exp of about
    10**-80000.
    """
    require_regime(r, SUPERCRITICAL_ONLY, "bound requires r > 3 + 2*sqrt(2)", prec)
    r = Fraction(r)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    return mp.make_mpf(ratio_line(r.numerator, r.denominator, prec).supercritical_bound(lam))


def quartic_kernel(rho: tuple, wp: int) -> Callable[[tuple], tuple]:
    """c -> C_g(r, c), raw at wp bits: |g(theta) - g(0) + M*theta**2/2| <=
    C_g * theta**4 for cos(theta) >= c, as max(first, head + rho/(4*(1 -
    rho**2)*(1 + rho**2 + 2*rho*c))).  The terms in rho alone are rounded
    once, here."""
    one_plus, one_minus, rho2 = mpf_add(rho, fone, wp, _RND), mpf_sub(fone, rho, wp, _RND), mpf_pow_int(rho, 2, wp, _RND)
    denominator = mpf_mul_int(one_plus, 24, wp, _RND)
    # first = (1 - 2*rho - rho**2)/(24*(1+rho)*(1-rho)**2), M/24 by a numerator
    # that cancels near 3 + 2*sqrt(2); there it tends to 0 while the other term
    # stays above head, which tends to 0.364, so first is the maximum only
    # where it is not small, and there its numerator does not cancel
    first = mpf_div(
        mpf_sub(mpf_sub(fone, mpf_mul_int(rho, 2, wp, _RND), wp, _RND), rho2, wp, _RND),
        mpf_mul(denominator, mpf_pow_int(one_minus, 2, wp, _RND), wp, _RND),
        wp,
        _RND,
    )
    # head = (rho**4 + 6*rho**3 + 2*rho**2 + 4*rho - 1)/(24*(1+rho)*(1-rho)**4)
    numerator = mpf_add(mpf_pow_int(rho, 4, wp, _RND), mpf_mul_int(mpf_pow_int(rho, 3, wp, _RND), 6, wp, _RND), wp, _RND)
    numerator = mpf_add(numerator, mpf_mul_int(rho2, 2, wp, _RND), wp, _RND)
    numerator = mpf_sub(mpf_add(numerator, mpf_mul_int(rho, 4, wp, _RND), wp, _RND), fone, wp, _RND)
    head = mpf_div(numerator, mpf_mul(denominator, mpf_pow_int(one_minus, 4, wp, _RND), wp, _RND), wp, _RND)
    scale = mpf_mul_int(mpf_sub(fone, rho2, wp, _RND), 4, wp, _RND)
    base, two_rho = mpf_add(rho2, fone, wp, _RND), mpf_mul_int(rho, 2, wp, _RND)

    def coefficient(c: tuple) -> tuple:
        x = mpf_mul(scale, mpf_add(base, mpf_mul(two_rho, c, wp, _RND), wp, _RND), wp, _RND)
        value = mpf_add(head, mpf_div(rho, x, wp, _RND), wp, _RND)
        return value if mpf_gt(value, first) else first

    return coefficient


def cubic_kernel(rho: tuple, wp: int) -> Callable[[tuple], tuple]:
    """c -> C_h(r, c), raw at wp bits: |h(theta)| <= C_h * |theta|**3 for
    cos(theta) >= c, as the largest of f1, f2(c) and 0, with the terms in
    rho alone rounded once, as in `quartic_kernel`."""
    rho2 = mpf_pow_int(rho, 2, wp, _RND)
    base, two_rho, one_minus = mpf_add(rho2, fone, wp, _RND), mpf_mul_int(rho, 2, wp, _RND), mpf_sub(fone, rho, wp, _RND)
    # f1 = (1 + rho**2)*(rho**2 + 4*rho - 1)/(6*(1-rho)**3*(1+rho)**2)
    f1 = mpf_div(
        mpf_mul(base, mpf_sub(mpf_add(rho2, mpf_mul_int(rho, 4, wp, _RND), wp, _RND), fone, wp, _RND), wp, _RND),
        mpf_mul(
            mpf_mul_int(mpf_pow_int(one_minus, 3, wp, _RND), 6, wp, _RND),
            mpf_pow_int(mpf_add(rho, fone, wp, _RND), 2, wp, _RND),
            wp,
            _RND,
        ),
        wp,
        _RND,
    )
    scale, base2, four_rho2 = mpf_mul_int(one_minus, 6, wp, _RND), mpf_pow_int(base, 2, wp, _RND), mpf_mul_int(rho2, 4, wp, _RND)

    def coefficient(c: tuple) -> tuple:
        # f2 = base*(1 - 2*rho*(1 + c) - rho**2)/(6*(1-rho)*(base**2 - 4*rho**2*c**2))
        numerator = mpf_sub(fone, mpf_mul(two_rho, mpf_add(c, fone, wp, _RND), wp, _RND), wp, _RND)
        numerator = mpf_mul(base, mpf_sub(numerator, rho2, wp, _RND), wp, _RND)
        x = mpf_sub(base2, mpf_mul(four_rho2, mpf_pow_int(c, 2, wp, _RND), wp, _RND), wp, _RND)
        f2 = mpf_div(numerator, mpf_mul(scale, x, wp, _RND), wp, _RND)
        largest = f2 if mpf_gt(f2, f1) else f1
        return fzero if mpf_gt(fzero, largest) else largest

    return coefficient


def check_delta(delta, prec: int = DEFAULT_PRECISION) -> mpf:
    """The split angle of the refined bound at the working precision; raises
    ValueError unless 0 < delta <= pi/3 (so also for nan and infinities)."""
    with workprec(prec + GUARD_BITS):
        d = mpf(delta)
        if not 0 < d <= mp.pi / 3 * (1 + SLACK):
            raise ValueError(f"delta must lie in (0, pi/3], got {delta}")
        return d


def supercritical_error_bound_refined(
    r: Fraction, lam: int, delta, prec: int = DEFAULT_PRECISION
) -> mpf:
    """The sharper bound Phi2(r, lam, delta) with the integration split at delta:

        3*C_g(r, cos(delta)) / (lam*M**2)
      + 15*C_h(r, cos(delta))**2 / (2*lam*M**3)
      + (sqrt(2)/(delta*sqrt(pi*lam*M)) + (1 - delta/pi)*sqrt(2*pi*lam*M)) * exp(-lam*M*delta**2/2)

    Valid for delta <= pi/3 and r <= 7.686899 (the window where the central
    quadratic decay of g holds with constant 1).  Monotone decreasing in r
    and lam only when lam*M*delta**2 >= 1; callers exploiting monotonicity
    must check that themselves.
    """
    require_regime(r, SUPERCRITICAL_ONLY, "bound requires r > 3 + 2*sqrt(2)", prec)
    r = Fraction(r)
    if r > REFINED_BOUND_MAX_RATIO:
        raise ValueError(f"refined bound requires r <= {REFINED_BOUND_MAX_RATIO}, got {r}")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    check_delta(delta, prec)
    return ratio_line(r.numerator, r.denominator, prec).refined_bound(lam, delta)


def _oscillatory_bound(nd_power: tuple, lam: int, wp: int) -> tuple:
    """16336 / (sqrt(lam) * nd_power) at wp bits, raw, for the raw
    (-r**2+6r-1)**(11/4) of `RatioLine.nd_power`."""
    root = mpf_sqrt(from_int(lam, wp, _RND), wp, _RND)
    return mpf_rdiv_int(OSCILLATORY_BOUND_CONSTANT, mpf_mul(root, nd_power, wp, _RND), wp, _RND)


def _oscillatory_reach(a: int, b: int) -> int:
    """`oscillatory_bound_reach` of the subcritical r = a/b, in any terms: with
    nd = (6ab - a**2 - b**2)/b**2, lam**2 <= 16336**4 / nd**11 is one exact
    rational inequality, whatever the common factor of a and b."""
    return math.isqrt(OSCILLATORY_BOUND_CONSTANT**4 * (b * b) ** 11 // (6 * a * b - a * a - b * b) ** 11)


def oscillatory_bound_reach(r: Fraction) -> int:
    """The largest lam at which the bound of `oscillatory_error_bound` is
    still >= 1, decided in exact integers.

    With `negated_discriminant(r)` = nd = N/b**2, the bound is >= 1 exactly
    when lam**2 <= 16336**4 * b**22 / N**11.  Up to this lam the bound cannot
    exceed |cos| <= 1, so the oscillatory stage cannot decide a pair.  The
    reach implies the bound's validity threshold: reach ~ 16336**2/nd**5.5 and
    nd <= 8 put every lam above it past 61 times the threshold, for every r.
    """
    require_regime(r, SUBCRITICAL_ONLY, "bound requires 1 < r < 3 + 2*sqrt(2)")
    r = Fraction(r)
    return _oscillatory_reach(r.numerator, r.denominator)


def oscillatory_error_bound(
    r: Fraction, lam: int, prec: int = DEFAULT_PRECISION
) -> tuple[mpf, mpf]:
    """The subcritical bound 16336 / (sqrt(lam) * (-r**2+6r-1)**(11/4)) and
    the smallest lam at which it is proved:

        lam >= 512 * r**(3/2) / ((r+1) * (-r**2+6r-1)**(3/2)).

    Returns (bound, validity_threshold); the bound value is meaningful only
    at or above the threshold.
    """
    require_regime(r, SUBCRITICAL_ONLY, "bound requires 1 < r < 3 + 2*sqrt(2)", prec)
    r = Fraction(r)
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    line = ratio_line(r.numerator, r.denominator, prec)
    with workprec(line.wp):
        nd, rm = rational_to_real(negated_discriminant(r), line.wp), rational_to_real(r, line.wp)
        threshold = 512 * rm ** mpf("1.5") / ((rm + 1) * nd ** mpf("1.5"))
    return mp.make_mpf(line.oscillatory_bound(lam)), threshold


def window_edge(lambda2: int, k: int, wp: int) -> tuple:
    """Edge k of the near-diagonal rows and of the difference windows at
    lambda2, as a raw tuple rounded as mpf arithmetic under workprec(wp)
    rounds it: log(mpf(lambda2)) for k = 0, else
    sqrt(k * pi * mpf(lambda2)) for k = 1..8.  `difference_windows`, the
    near-diagonal bound and a `DiffLine` comparison that falls in its band
    share them."""
    l2 = from_int(lambda2, wp, _RND)
    if k == 0:
        return mpf_log(l2, wp, _RND)
    return mpf_sqrt(mpf_mul(mpf_mul_int(mpf_pi(wp, _RND), k, wp, _RND), l2, wp, _RND), wp, _RND)


class NearDiagonalBound(NamedTuple):
    """Outcome of the windowed near-diagonal bound for one pair."""

    value: mpf | None
    valid: bool
    detail: str


def near_diagonal_error_bound(pair: PartitionPair, prec: int = DEFAULT_PRECISION) -> NearDiagonalBound:
    """Bound on |sqrt(pi*l2)/2**((l1+l2+1)/2) * I - cos(l1*gamma1 + l2*gamma2)|.

    Requires difference d = l1 - l2 >= 702.  The flat bound 0.0165 applies
    whenever d <= sqrt(8*pi*l2); when additionally log(l2) <= d, the row
    constant of the window sqrt((k-1)*pi*l2) <= d <= sqrt(k*pi*l2) divided
    by sqrt(l2) applies as well.  The minimum of all applicable bounds is
    returned (every row is a proved bound, so the minimum is sharpest; at an
    exact window boundary both adjacent rows apply).  Window membership is
    decided by certified comparisons; an indeterminate row is dropped, which
    only ever weakens the result.
    """
    check_precision(prec)
    d = pair.difference
    l2 = pair.lambda2
    if d < NEAR_DIAGONAL_MIN_DIFFERENCE:
        raise ValueError(
            f"near-diagonal bound requires lambda1 - lambda2 >= {NEAR_DIAGONAL_MIN_DIFFERENCE}, got {d}"
        )
    require_regime(pair.ratio, SUBCRITICAL_ONLY, "near-diagonal bound requires a subcritical ratio")
    value, detail = _near_diagonal_bound(d, l2, prec + GUARD_BITS)
    if value is None:
        return NearDiagonalBound(None, False, detail)
    return NearDiagonalBound(mp.make_mpf(value), True, detail)


def _edge_compare(d: int, l2: int, wp: int, k: int) -> Comparison:
    """d against edge k of `window_edge` at l2 and wp bits, beyond `SLACK`."""
    return dyadic_compare(from_int(d, wp, _RND), window_edge(l2, k, wp), RAW_SLACK)


def _near_diagonal_bound(d: int, l2: int, wp: int) -> tuple[tuple | None, str]:
    """(raw value, detail) of `near_diagonal_error_bound` at wp bits, value
    None outside every proved window.

    Row k spans [edge k-1, edge k] of `window_edge`, and edge 8 is also the
    edge of the flat bound.  The computed edges are nondecreasing in k (each
    rounded operation is monotone, and log(l2) < sqrt(pi*l2) by far more
    than the rounding), so once d is certified below edge k it is below
    every later one: the flat bound applies, row k applies when d is
    certified above edge k-1, and no later row can.  The edges past k are
    neither computed nor compared."""
    above = False  # d certified above the previous edge
    for k in range(len(NEAR_DIAGONAL_ROWS) + 1):
        side = _edge_compare(d, l2, wp, k)
        if side is Comparison.CERTIFIED_LESS:
            break
        above = side is Comparison.CERTIFIED_GREATER
    else:
        return None, "difference outside every proved window"
    flat = decimal_constant(NEAR_DIAGONAL_FLAT, wp)._mpf_
    if above:
        sqrt_l2 = mpf_sqrt(from_int(l2, wp, _RND), wp, _RND)
        row = mpf_div(decimal_constant(NEAR_DIAGONAL_ROWS[k - 1], wp)._mpf_, sqrt_l2, wp, _RND)
        # the smaller bound is the sharper; the flat one on a tie
        if mpf_lt(row, flat):
            return row, f"row{k}"
    return flat, "flat"


def _two_pi(p_eff: int) -> tuple:
    """2*pi rounded at p_eff + GUARD_BITS bits, raw, the 2*pi of `oscillation_cosine`."""
    wp = p_eff + GUARD_BITS
    return mpf_mul_int(mpf_pi(wp, _RND), 2, wp, _RND)


def oscillation_cosine(
    pair: PartitionPair, prec: int = DEFAULT_PRECISION, half_phase: bool = True
) -> tuple[mpf, mpf]:
    """cos(l1*gamma1 + l2*gamma2 [+ gamma3]) with the angle reduced mod 2*pi.

    The working precision is raised with the bit length of the pair so that
    the reduced angle carries an absolute error below 2**-64: the raw angle
    grows linearly in lambda and the cancellation in the reduction is the
    dominant hazard.  Returns (cosine, reduced_angle).
    """
    r, p_eff = pair.ratio, _phase_precision(prec, pair.lambda1)
    if half_phase:
        require_regime(r, SADDLE_REGIMES, "saddle data requires r > 1")
    _oscillation_ratio(r, p_eff)
    g1, g2, g3, two_pi = ratio_line(r.numerator, r.denominator, prec).phase(p_eff)[0]
    phase = g1, g2, g3 if half_phase else None, two_pi
    cosv, angle = _reduced_cosine(phase, pair.lambda1, pair.lambda2, p_eff + GUARD_BITS)
    return mp.make_mpf(cosv), mp.make_mpf(angle)


def _phase_precision(prec: int, lambda1: int) -> int:
    """The p_eff of `oscillation_cosine`: prec, raised with lambda1's bit length."""
    return max(prec, 96 + lambda1.bit_length() + 32)


def _reduced_cosine(phase: tuple, lambda1: int, lambda2: int, wp: int) -> tuple[tuple, tuple]:
    """Raw (cosine, reduced angle) of `oscillation_cosine` from the raw
    phase constants (gamma1, gamma2, gamma3, 2*pi) at p_eff = wp - GUARD_BITS
    (raw in `RatioLine.phase`), with the half phase exactly when gamma3 is not None."""
    g1, g2, g3, two_pi = phase
    angle = mpf_add(mpf_mul_int(g1, lambda1, wp, _RND), mpf_mul_int(g2, lambda2, wp, _RND), wp, _RND)
    if g3 is not None:
        angle = mpf_add(angle, g3, wp, _RND)
    # angle - 2*pi * floor(angle/(2*pi) + 1/2)
    turns = mpf_floor(mpf_add(mpf_div(angle, two_pi, wp, _RND), fhalf, wp, _RND), wp, _RND)
    angle = mpf_sub(angle, mpf_mul(two_pi, turns, wp, _RND), wp, _RND)
    return mpf_cos(angle, wp, _RND), angle


# --------------------------------------------------------------------------
# fixed-point enclosures of the cascade's kernels
# --------------------------------------------------------------------------

# the scale of the enclosures, that of the enclosure of pi: a value y is
# held as integers in units of 2**-FIXED_BITS
FIXED_BITS = PI_BITS

_FIXED_SLACK = 1 << (FIXED_BITS - SLACK_BITS)  # `SLACK` in units of 2**-FIXED_BITS

# pi/2 lies in [_HALF_PI, _HALF_PI + 1] units
_HALF_PI = PI_FLOOR >> 1


def _widening(x: int, ops: int, wp: int) -> int:
    """An upper bound, in the units of x >= 0, of the rounding error of a
    chain of `ops` products, quotients, square roots and sums of positive
    terms at wp bits, each rounding to nearest, whose exact result is below
    x + 1.  Each operation multiplies or divides its value by some 1 + e
    with |e| <= u = 2**-wp, so the result is within
    ops*u/(1 - ops*u) < (ops + 1)*u of exact, relatively, for ops <= 10 and
    wp >= 53 (Brent and Zimmermann, Modern Computer Arithmetic, 2010,
    sections 2.1 and 3.1)."""
    return ((ops + 1) * (x + 1) >> wp) + 1


def _taylor_terms(odd: int) -> tuple[int, ...]:
    """2**FIXED_BITS / n!, rounded to nearest, for n = 2k + odd from the
    highest k down to 0: enough terms that the first one left out,
    y**n / n! at |y| <= 0.79 > pi/4, is below one unit."""
    terms, n = [], odd
    while 79**n << FIXED_BITS >= math.factorial(n) * 100**n:
        f = math.factorial(n)
        terms.append(((1 << FIXED_BITS) + f // 2) // f)
        n += 2
    return tuple(reversed(terms))


_COS_TERMS, _SIN_TERMS = _taylor_terms(0), _taylor_terms(1)

# The error of `_fixed_cos`, in units: a Horner step truncates its product
# (< 1) after multiplying the previous error by y*y < 0.63 and its value
# (< 1) by the truncated y*y (< 1 unit off), and its coefficient is 1/2 off,
# so each step adds less than 3; then 1 for the terms left out, 1 for the
# last product of the sine, and 2 for y, which subtracts k <= 2 multiples of
# the enclosure's lower end from x where pi/2 may be up to one unit larger.
_COS_WIDTH = 3 * max(len(_COS_TERMS), len(_SIN_TERMS)) + 4


def _horner(terms: tuple[int, ...], y: int) -> int:
    """sum_k (-1)**k * terms[-1-k] * y**(2k), in units, of y in units."""
    square = y * y >> FIXED_BITS
    acc = 0
    for term in terms:
        acc = term - (acc * square >> FIXED_BITS)
    return acc


def _fixed_cos(x: int) -> int:
    """cos(x) within `_COS_WIDTH` units, of x in units with |x| < 5*pi/4:
    cos of the distance y from the nearest multiple k*pi/2, |y| <= pi/4,
    by Taylor series, as cos(y), -sin(y) or -cos(y) for k = 0, 1, 2."""
    x = abs(x)
    k = (2 * x + _HALF_PI) // (2 * _HALF_PI)
    y = x - k * _HALF_PI
    if k == 1:
        return -(y * _horner(_SIN_TERMS, y) >> FIXED_BITS)
    c = _horner(_COS_TERMS, y)
    return -c if k else c


def _rounded53(lo: int, hi: int) -> int | None:
    """The rounding to `MARGIN_PRECISION` = 53 significant bits of every
    value of [lo, hi], 2**53 <= lo <= hi, when both ends lie strictly between
    the same two neighbouring midpoints of the 53-bit grid at lo's
    magnitude, else None.  No value there is a tie, so libmp's rounding to
    nearest takes each to the one grid point between those midpoints."""
    shift = lo.bit_length() - MARGIN_PRECISION
    half = 1 << (shift - 1)
    point = (lo + half) >> shift
    if (hi + half) >> shift != point or not (lo + half) & ((1 << shift) - 1):
        return None
    return point << shift


def _exceeds_slack(lo: int, hi: int) -> bool | None:
    """Whether y > SLACK for every y in [lo, hi]: True when lo is beyond it,
    False when hi is not, None when the enclosure straddles it or lo sits on
    it."""
    if lo > _FIXED_SLACK:
        return True
    return False if hi <= _FIXED_SLACK else None


def _enclosed_margin(lo: int, hi: int) -> float | bool | None:
    """The verdict of an enclosure [lo, hi] of a margin y, in units: the
    53-bit rounding of y as a float when y > SLACK for every y in it and
    `_rounded53` fixes its rounding, False when y > SLACK nowhere in it,
    None when it leaves either open and the kernels must decide."""
    # False or None from `_exceeds_slack` passes through, as does None from
    # `_rounded53`, whose grid point is never 0
    margin = _exceeds_slack(lo, hi) and _rounded53(lo, hi)
    return math.ldexp(margin, -FIXED_BITS) if margin else margin


def _scaled_quotient(a: tuple, b: tuple, k: int, bits: int) -> int:
    """floor(a / (k*b) * 2**bits) of raw a, b > 0 and an integer k > 0."""
    shift = a[2] - b[2] + bits
    if shift >= 0:
        return (a[1] << shift) // (k * b[1])
    return a[1] // (k * b[1] << -shift)


def _head_constants(factors: tuple, wp: int) -> tuple[int, int | None]:
    """(head, tail) of the raw `RatioLine.supercritical_factors` at wp bits.

    K = c1/(256*M**2) + c2/(24*M**3) is an exact rational of the raw
    factors, and head <= K * 2**FIXED_BITS < head + 2.  From lam = tail on,
    `_supercritical_bound` drops its exponential term, so it returns
    c1/(256*lam*M**2) + c2/(24*lam*M**3) computed by five operations from
    lam (from_int, a product by 256 or 24, a product, a quotient, the sum),
    within 6u of K/lam.  It drops the term when lam*M >= 1 and
    x = lam*M*pi**2/2 exceeds wp + 16 - E, E the binary exponent of that
    sum.  x after its three roundings is at least lam * rate for the rate
    below, and E > log2(K*(1 - 6u)/lam) >= -c - log2(lam).  So the term is
    dropped wherever lam * rate >= wp + 16 + c + log2(lam) and lam*M >= 2.
    lam * rate - log2(lam) grows from lam * rate >= 2 > 1/log(2) on, so the
    first lam that meets both with log2(lam) raised to its bit length is a
    cutoff for every larger lam.  tail is None when M is below one unit of
    the scale.  Otherwise head and rate are 1 or more too: M < 1, as
    (r + 1 + s)**2 >= 4(r + 1)s, puts K above 20, and M >= 2**-FIXED_BITS
    puts rate at 3 or more after its widening."""
    m_val, c1, m_sq, c2, m_cube, _, pi_sq, _ = factors
    head = _scaled_quotient(c1, m_sq, 256, FIXED_BITS) + _scaled_quotient(c2, m_cube, 24, FIXED_BITS)
    rate = _scaled_quotient(mpf_mul(m_val, pi_sq), ftwo, 1, FIXED_BITS)
    rate -= _widening(rate, 3, wp)
    m_units = _scaled_quotient(m_val, fone, 1, FIXED_BITS)
    if m_units < 1:
        return head, None
    # c >= -log2(K * (1 - 6u)), for K >= head * 2**-FIXED_BITS and 6u < 1/2
    c = FIXED_BITS - head.bit_length() + 2
    tail = -((-2 << FIXED_BITS) // m_units)
    while True:
        need = max(wp + 16 + c + tail.bit_length(), 2) << FIXED_BITS
        if tail * rate >= need:
            return head, tail
        tail = -(-need // rate)


def _fixed_phase(phase: tuple) -> tuple[int, ...]:
    """(g1, g2, g3, two_pi, z) of raw phase constants (gamma1, gamma2,
    gamma3, 2*pi), as exact integers in units of 2**-z, z >= FIXED_BITS."""
    z = max((FIXED_BITS, *(-x[2] for x in phase if x[1])))
    return (*((-x[1] if x[0] else x[1]) << (x[2] + z) for x in phase), z)


@functools.lru_cache(maxsize=16)
def _supercritical_constants(wp: int) -> tuple:
    """What `supercritical_error_bound` reads of its precision alone, raw
    at wp bits: 3*crit*pi**5 and 5*crit for crit = 3 + 2*sqrt(2), sqrt(2),
    pi**2 and pi**1.5."""
    with workprec(wp):
        crit = 3 + 2 * mp.sqrt(mpf(2))
        factors = 3 * crit * mp.pi**5, 5 * crit, mp.sqrt(mpf(2)), mp.pi**2, mp.pi ** mpf("1.5")
        return tuple(f._mpf_ for f in factors)


class RatioLine:
    """The one object of a ratio r = a/b > 1 (a and b in any terms) at one
    working precision: the constants that depend on r alone, the raw
    kernels that read them, and the verdict and margin of each saddle step
    of the certification cascade.

    The regime is exact and set here, and the line checks nothing else:
    call each bound, the saddle and the angles only on a line of their
    regime (`require_regime` checks a public function's ratio).  Every
    other constant is computed on first use and then kept: the root
    sqrt(|N|) of each working precision (`_root`, taken once per precision
    and shared by the saddle and the angles), the saddle, for a
    subcritical ratio the exact reach of `oscillatory_bound_reach` (the
    oscillatory gate of a pair near the diagonal reads its `DiffLine`
    instead, so that pair's line never computes it), the raw factors of the
    two bounds, the integer constants of the enclosures (each converted
    from a raw tuple by `_scaled_quotient`), and the half-phase constants of
    each p_eff that the line reaches (one or two, as p_eff steps with
    lambda1's bit length).  `ratio_line` keeps the lines of the last few
    ratios, which the public functions and the ratio scans read; `certify`
    and the other scans build a line of each pair, whose ratio is its own
    and which touches no shared cache.  So a pair of a line pays
    for no Fraction, cache lookup or mpf object: each kernel method is one
    call of the raw kernel of its formula, and returns a raw tuple, rounded
    at prec + GUARD_BITS bits (the cosine at p_eff + GUARD_BITS).  `delta`,
    when given, is the split angle of the refined supercritical bound
    (`refined_bound`), which `certify` passes on.

    `supercritical_margin` and `oscillatory_margin` decide a saddle step's
    comparison and its 53-bit margin.  They read integer enclosures (in
    units of 2**-FIXED_BITS) of what the kernels return first:
    `head_enclosure`, `bound_enclosure` and `cosine_enclosure`.  The widths
    count the correctly rounded operations of each kernel's chain at its
    precision (`_widening`), and trust what the kernels do: libmp's +, -, *,
    / and sqrt round correctly, `mpf_pi` within 2 ulp (it rounds pi
    computed with 20 extra bits), and `mpf_cos` within 2 ulp, as `numerics`
    assumes.  Where an enclosure leaves the outcome open, they run the
    kernels.
    """

    def __init__(self, a: int, b: int, prec: int = DEFAULT_PRECISION, delta=None) -> None:
        self.a, self.b, self.prec, self.wp, self.delta = a, b, prec, prec + GUARD_BITS, delta
        self.regime = ratio_regime(a, b)
        self._roots: dict[int, mpf] = {}
        self._phases: dict[int, tuple[tuple, tuple]] = {}

    @functools.cached_property
    def reach(self) -> int | None:
        """`oscillatory_bound_reach` of a subcritical ratio, else None."""
        return _oscillatory_reach(self.a, self.b) if self.regime is Regime.SUBCRITICAL else None

    @functools.cached_property
    def ratio(self) -> Fraction:
        """r in lowest terms."""
        return Fraction(self.a, self.b)

    def _root(self, wp: int) -> mpf:
        """sqrt(|N|) at wp bits, taken once per wp, for the numerator
        N = 6ab - a**2 - b**2 of `negated_discriminant` of r = a/b in lowest
        terms (N and b are coprime, as a and b are), so that the square root
        of nd, or of -nd above 3 + 2*sqrt(2), is sqrt(|N|)/b."""
        if wp not in self._roots:
            with workprec(wp):
                self._roots[wp] = mp.sqrt(abs(negated_discriminant(self.ratio).numerator))
        return self._roots[wp]

    @functools.cached_property
    def saddle(self) -> SaddleData:
        """The saddle of a line with r > 1, at the line's precision.

        Each but the subcritical rho = 1/sqrt(r) is a closed form in r = a/b
        (lowest terms) and the root of `_root` whose terms are all positive,
        so nothing cancels and each keeps the working precision up to
        3 + 2*sqrt(2).  Above it, with s = sqrt(-nd) = sqrt(|N|)/b:
        rho = (r - 1 - s)/(2r) = 2/(r - 1 + s), as (r - 1)**2 - s**2 = 4r, and
        M = (1 - 2*rho - rho**2)/((1 + rho)*(1 - rho)**2) = 4rs/(r + 1 + s)**2,
        as 1 - 2*rho - rho**2 = s*(3r - 1 - s)/(2r**2) and
        (1 + rho)*(1 - rho)**2 = (3r - 1 - s)*(r + 1 + s)**2/(8r**3).  Below
        it, with t = sqrt(nd), 2*sqrt(r)*(cos(alpha), sin(alpha)) = (r - 1, t),
        so alpha = atan2(t, r - 1)."""
        r = self.ratio
        a, b, root = r.numerator, r.denominator, self._root(self.wp)
        with workprec(self.wp):
            if self.regime is Regime.SUPERCRITICAL:
                rho, m_val = 2 * b / (a - b + root), 4 * a * root / (a + b + root) ** 2
                return SaddleData(r=r, regime=self.regime, prec=self.prec, rho=rho, M=m_val)
            rho = 1 / mp.sqrt(mpf(a) / mpf(b))
            return SaddleData(r=r, regime=self.regime, prec=self.prec, rho=rho, alpha=mp.atan2(root, a - b))

    def angles(self, p: int) -> tuple[mpf, mpf, mpf]:
        """gamma1, gamma2 and gamma3 at p + GUARD_BITS bits, for
        1 <= r <= 3 + 2*sqrt(2), unchecked.

        With t = sqrt(nd), nd = 6r - 1 - r**2, the sines of the arccosines
        gamma1 = arccos((3r-1)/(2*sqrt(2)*r)) and
        gamma2 = -arccos((r-3)/(2*sqrt(2))) are t/(2*sqrt(2)*r) and
        t/(2*sqrt(2)), so gamma1 = atan2(t, 3r - 1) and
        gamma2 = -atan2(t, r - 3); scaled by b for r = a/b, the arguments are
        the integers 3a - b and a - 3b and the root of `_root`.  The half
        phase gamma3 = beta/2 of the subcritical main term, for the curvature
        phase beta of 4r*(cos(beta), sin(beta)) = ((r+1)*sqrt(nd), (r-1)**2),
        is atan2((a-b)**2, (a+b)*sqrt(N))/2.  Each argument is within two
        roundings of exact, and atan2 is well conditioned in both, so the
        angles keep the working precision up to 3 + 2*sqrt(2), where an
        arccosine of a quotient that tends to 1 would lose its bits."""
        a, b, root = self.ratio.numerator, self.ratio.denominator, self._root(p + GUARD_BITS)
        with workprec(p + GUARD_BITS):
            return mp.atan2(root, 3 * a - b), -mp.atan2(root, a - 3 * b), mp.atan2((a - b) ** 2, (a + b) * root) / 2

    @functools.cached_property
    def supercritical_factors(self) -> tuple:
        """The lambda-independent factors of `supercritical_error_bound`, raw:
        M, 3*crit*pi**5, M**2, 5*crit, M**3, sqrt(2), pi**2 and pi**1.5, each
        rounded exactly as the bound's formula rounds it."""
        m_val = self.saddle.M
        c1, c2, sqrt2, pi_sq, pi_15 = _supercritical_constants(self.wp)
        with workprec(self.wp):
            return m_val._mpf_, c1, (m_val**2)._mpf_, c2, (m_val**3)._mpf_, sqrt2, pi_sq, pi_15

    @functools.cached_property
    def nd_power(self) -> tuple:
        """Raw (-r**2+6r-1)**(11/4), the factor of `oscillatory_bound`."""
        with workprec(self.wp):
            return (rational_to_real(negated_discriminant(self.ratio), self.wp) ** (mpf(11) / 4))._mpf_

    @functools.cached_property
    def _head(self) -> tuple[int, int | None]:
        return _head_constants(self.supercritical_factors, self.wp)

    @functools.cached_property
    def _quotient(self) -> int:
        """floor(Q**2 * 2**(2*FIXED_BITS)) for Q = 16336/nd_power, exact."""
        nd_square = mpf_mul(self.nd_power, self.nd_power)
        return _scaled_quotient(from_int(OSCILLATORY_BOUND_CONSTANT**2), nd_square, 1, 2 * FIXED_BITS)

    def phase(self, p_eff: int) -> tuple[tuple, tuple]:
        """The phase constants of `oscillation_cosine` with the half phase at
        p_eff: raw (gamma1, gamma2, gamma3, 2*pi), with 2*pi rounded at
        p_eff + GUARD_BITS bits, and the same as exact integers
        (`_fixed_phase`)."""
        phase = self._phases.get(p_eff)
        if phase is None:
            raw = (*(g._mpf_ for g in self.angles(p_eff)), _two_pi(p_eff))
            phase = self._phases[p_eff] = raw, _fixed_phase(raw)
        return phase

    def supercritical_bound(self, lam: int) -> tuple:
        """`supercritical_error_bound(r, lam, prec)`, raw."""
        return _supercritical_bound(self.supercritical_factors, lam, self.wp)

    def refined_bound(self, lam: int, delta) -> mpf:
        """`supercritical_error_bound_refined(r, lam, delta, prec)`, unchecked."""
        sd = self.saddle
        with workprec(self.wp):
            m_val, lamf, d = sd.M, mpf(lam), mpf(delta)
            c = mp.cos(d)
            cg = mp.make_mpf(quartic_kernel(sd.rho._mpf_, mp.prec)(c._mpf_))
            ch = mp.make_mpf(cubic_kernel(sd.rho._mpf_, mp.prec)(c._mpf_))
            t1 = 3 * cg / (lamf * m_val**2)
            t2 = 15 * ch**2 / (2 * lamf * m_val**3)
            tail = (mp.sqrt(mpf(2)) / (d * mp.sqrt(mp.pi * lamf * m_val)) + (1 - d / mp.pi) * mp.sqrt(2 * mp.pi * lamf * m_val)) * mp.exp(
                -lamf * m_val * d**2 / 2
            )
            return t1 + t2 + tail

    def oscillatory_bound(self, lam: int) -> tuple:
        """The bound of `oscillatory_error_bound(r, lam, prec)`, raw."""
        return _oscillatory_bound(self.nd_power, lam, self.wp)

    def cosine(self, lambda1: int, lambda2: int) -> tuple:
        """The cosine of `oscillation_cosine` with the half phase, raw, for a
        pair (lambda1, lambda2) of the line."""
        p_eff = _phase_precision(self.prec, lambda1)
        return _reduced_cosine(self.phase(p_eff)[0], lambda1, lambda2, p_eff + GUARD_BITS)[0]

    def head_enclosure(self, lam: int) -> tuple[int, int] | None:
        """(lo, hi) around `supercritical_bound(lam)`, or None below the
        line's tail cutoff (`_head_constants`), where the kernel may add its
        exponential term."""
        head, tail = self._head
        if tail is None or lam < tail:
            return None
        # K * 2**FIXED_BITS / lam lies in [h, h + 2)
        h = head // lam
        width = _widening(h + 2, 5, self.wp)
        return h - width, h + 2 + width

    def bound_enclosure(self, lam: int) -> tuple[int, int]:
        """(lo, hi) around `oscillatory_bound(lam)`.  With Q = 16336/nd_power
        exact and q = floor(Q**2 * 2**(2*FIXED_BITS)), isqrt(q // lam) <=
        Q/sqrt(lam) * 2**FIXED_BITS < isqrt(q // lam) + 1; the kernel's four
        operations (from_int, sqrt, product, quotient) put its result within
        5u of Q/sqrt(lam)."""
        b = math.isqrt(self._quotient // lam)
        width = _widening(b + 1, 4, self.wp)
        return b - width, b + 1 + width

    def cosine_enclosure(self, lambda1: int, lambda2: int) -> tuple[int, int]:
        """(lo, hi) around `cosine(lambda1, lambda2)`.

        The kernel rounds the exact dyadic A = lambda1*g1 + lambda2*g2 + g3
        of its phase constants, reduces it by its 2*pi (the dyadic two_pi),
        and takes `mpf_cos` at wp = p_eff + GUARD_BITS bits.  Here A is
        exact, and so is theta = A - n*two_pi for the nearest turn n.  The
        kernel's turn count is n or n -+ 1, which moves its angle by two_pi,
        and cos(x + two_pi) differs from cos(x) by at most
        |two_pi - 2*pi| <= 3u*two_pi, u = 2**-wp.  Its angle is within
        4u*(|lambda1*g1| + |lambda2*g2| + |g3|) + u*two_pi*(|n| + 3) of that
        exact angle plus the turns (the four roundings of the sum, the
        product by the turns and the difference), and its cosine within
        4u of the cosine of its angle.  theta truncated to FIXED_BITS is off
        by less than one unit, and `_fixed_cos` adds `_COS_WIDTH`; cos is
        1-Lipschitz."""
        p_eff = _phase_precision(self.prec, lambda1)
        g1, g2, g3, two_pi, z = self.phase(p_eff)[1]
        angle = g1 * lambda1 + g2 * lambda2 + g3
        turns = (2 * angle + two_pi) // (2 * two_pi)
        kernel = 4 * (abs(g1) * lambda1 + abs(g2) * lambda2 + abs(g3)) + two_pi * (abs(turns) + 6) + (4 << z)
        shift = z - FIXED_BITS
        c = _fixed_cos((angle - turns * two_pi) >> shift)
        width = (kernel >> (p_eff + GUARD_BITS + shift)) + 2 + _COS_WIDTH
        return c - width, c + width

    def supercritical_margin(self, lam: int) -> float | None:
        """The supercritical step's verdict on `supercritical_bound(lam)`:
        the margin 1 - bound rounded to 53 bits when the bound is certified
        below 1 - SLACK, else None.  `head_enclosure` decides when it fixes
        both; the kernel runs where it does not."""
        head = self.head_enclosure(lam)
        if head is not None:
            one = 1 << FIXED_BITS
            margin = _enclosed_margin(one - head[1], one - head[0])
            if margin is not None:
                return margin or None
        return certified_margin(fone, self.supercritical_bound(lam))

    def oscillatory_margin(self, lambda1: int, lambda2: int) -> float | None:
        """The oscillatory step's verdict on the pair: the 53-bit rounding of
        |cosine| minus `oscillatory_bound(lambda2)`, rounded to 53 bits, when
        |cosine| is certified above the bound + SLACK, else None.  The
        enclosures decide when they fix the outcome and both roundings; the
        kernels run where they do not.  Call it only above the reach, where
        lambda2 lies far past the bound's validity threshold."""
        lo, hi = self.cosine_enclosure(lambda1, lambda2)
        if lo < 0:
            lo, hi = (-hi, -lo) if hi <= 0 else (0, max(hi, -lo))
        b_lo, b_hi = self.bound_enclosure(lambda2)
        accept = _exceeds_slack(lo - b_hi, hi - b_lo)
        if accept is False:
            return None
        # the printed margin is the rounded |cosine| minus the bound; where
        # its enclosure does not lie beyond SLACK, the kernels word it
        rounded = accept and _rounded53(lo, hi)
        margin = rounded and _enclosed_margin(rounded - b_hi, rounded - b_lo)
        if margin:
            return margin
        bound = self.oscillatory_bound(lambda2)
        cosv = mpf_abs(self.cosine(lambda1, lambda2))
        # decide on |cos| exactly; the printed margin rounds it to 53 bits first
        if dyadic_compare(cosv, bound, RAW_SLACK) is not Comparison.CERTIFIED_GREATER:
            return None
        return rounded_margin(mpf_abs(cosv, MARGIN_PRECISION, _RND), bound)


# the `RatioLine` of r = a/b in lowest terms at prec, kept for the last few
# ratios: what the public functions and the ratio scans read of r
ratio_line = functools.lru_cache(maxsize=RATIO_CACHE_SIZE)(RatioLine)


# --------------------------------------------------------------------------
# certified difference windows (lambda1 intervals per congruence class),
# and the `DiffLine` of one difference that the cascade reads
# --------------------------------------------------------------------------

class DifferenceWindow(NamedTuple):
    """One certified integer interval of lambda1 values for a fixed lambda2.

    Only integers with (lambda1 + lambda2) mod 4 == residue_class inside
    [lo, hi] are covered by the clause.  `basis` is "window-table" for the
    proved interval machinery (needs lambda1 - lambda2 >= 702) and
    "small-difference" for the portion covered by the small-difference
    families result instead.
    """

    residue_class: int
    clause: str
    lo: int
    hi: int
    basis: str


def _int_above(x: tuple, wp: int) -> int:
    """Smallest integer certifiedly > x (inward rounding of a lower endpoint),
    for a raw x, with x + SLACK rounded at wp bits."""
    return to_int(mpf_floor(mpf_add(x, RAW_SLACK, wp, round_nearest), wp, round_nearest)) + 1


def _int_below(x: tuple, wp: int) -> int:
    """Largest integer certifiedly < x (inward rounding of an upper endpoint),
    for a raw x, with x - SLACK rounded at wp bits."""
    return to_int(mpf_ceil(mpf_sub(x, RAW_SLACK, wp, round_nearest), wp, round_nearest)) - 1


# the proved windows of each congruence class, in order: (clause, lower end,
# upper end) of lambda1 - lambda2, an end (m, k, c) standing for
# m*sqrt(k*pi*lambda2) + c at the lower and m*sqrt(k*pi*lambda2) - c at the
# upper end; a lower end None is the floor of the class (1, or for class 2
# the larger of 702 and CLASS2_FLOOR_FACTOR * lambda2**(1/4))
WINDOW_CLAUSES = (
    (("class0-a", None, (1, 2, "1.0443")), ("class0-b", (1, 2, "3.1407"), (1, 6, "0.9275"))),
    (("class1-a", None, (1, 3, "0.984")), ("class1-b", (1, 3, "3.8433"), (1, 7, "0.9231"))),
    (("class2-a", None, (1, 2, "0.9535")), ("class2-b", (2, 1, "4.5938"), (2, 2, "0.9218"))),
    (("class3-a", None, (1, 1, "1.1958")), ("class3-b", (1, 1, "2.5913"), (1, 5, "0.9367"))),
)
CLASS2_FLOOR_FACTOR = "2.0582"


def _class2_floor(lambda2: int, wp: int) -> int:
    """The least difference of clause class2-a: 702, or the first integer
    above `CLASS2_FLOOR_FACTOR` * lambda2**(1/4) once that is not certifiedly
    smaller (lambda2 and the constants at `wp` bits): 703 where the two tie
    within `SLACK`."""
    quarter_root = mpf_mul(
        decimal_constant(CLASS2_FLOOR_FACTOR, wp)._mpf_,
        mpf_pow(from_int(lambda2, wp, round_nearest), decimal_constant("0.25", wp)._mpf_, wp, round_nearest),
        wp,
        round_nearest,
    )
    versus_702 = dyadic_compare(quarter_root, from_int(NEAR_DIAGONAL_MIN_DIFFERENCE), RAW_SLACK)
    if versus_702 is Comparison.CERTIFIED_LESS:
        return NEAR_DIAGONAL_MIN_DIFFERENCE
    return _int_above(quarter_root, wp)


def _clause_end(lambda2: int, wp: int, end: tuple, add) -> tuple:
    """m * sqrt(k*pi*lambda2) + c (add = mpf_add) or - c (mpf_sub) of an end
    (m, k, c) of `WINDOW_CLAUSES`, rounded as the mpf expression at wp bits."""
    m, k, c = end
    root = mpf_mul_int(window_edge(lambda2, k, wp), m, wp, round_nearest)
    return add(root, decimal_constant(c, wp)._mpf_, wp, round_nearest)


def _least_difference(lambda2: int, wp: int, cls: int, lo: tuple | None) -> int:
    """The least difference of a window clause of class `cls` with lower end
    `lo` at lambda2, computed at wp bits and rounded inward."""
    if lo is None:
        return _class2_floor(lambda2, wp) if cls == 2 else 1
    return _int_above(_clause_end(lambda2, wp, lo, mpf_add), wp)


def _largest_difference(lambda2: int, wp: int, hi: tuple) -> int:
    """The largest difference of a window clause with upper end `hi` at
    lambda2, computed at wp bits and rounded inward."""
    return _int_below(_clause_end(lambda2, wp, hi, mpf_sub), wp)


# The enclosure [PI_FLOOR, PI_FLOOR + 1] / 2**PI_BITS of pi (`numerics`)
# widens each band of a `DiffLine` by l2 * 2**-96 / pi, so by at most 5.1
# values of lambda2 up to lambda2 = 2**100.

# offsets from d of the targets that a `DiffLine` compares, as integers in
# units of 2**-SLACK_BITS / 10**4: the slack `SLACK` = 2**-SLACK_BITS is
# _SLACK_UNITS, and a decimal constant c of at most four places is
# c * 10**4 * 2**SLACK_BITS units
_SLACK_UNITS = 10**4


def _edge_cut(d: int, wp: int, mmk: int, offset: int) -> tuple[int, int]:
    """(below, above) for m*sqrt(k*pi*l2) against v = d + offset units with
    m*m*k = mmk: m*sqrt(k*pi*l2) < v - mu at every l2 <= below and > v + mu
    at every l2 >= above, for mu = (d + 8) * 2**(6 - wp) (see `DiffLine`).
    Exact integers, scaled by D = 10**4 * 2**wp."""
    v = (d * (_SLACK_UNITS << SLACK_BITS) + offset) << (wp - SLACK_BITS)
    mu = (d + 8) * _SLACK_UNITS << 6
    low, high = max(v - mu, 0), v + mu
    den = mmk * (_SLACK_UNITS << wp) ** 2
    return ((low * low << PI_BITS) - 1) // (den * (PI_FLOOR + 1)), (high * high << PI_BITS) // (den * PI_FLOOR) + 1


def _error_units(wp: int) -> int:
    """2**(6 - wp) in units of 2**-FIXED_BITS, rounded up: a bound on the
    rounding error of every value that `_cos_lower_bound` compares or
    returns at wp bits (see `DiffLine`)."""
    return ((1 << FIXED_BITS + 6) >> wp) + 1


def _quarter_pi_cut(d: int, wp: int, c: int) -> tuple[int, int]:
    """(below, above) for the comparison q + SLACK < c*pi/4 of
    `_cos_lower_bound`, q = d*d/(4*l2): it certainly fails at every
    l2 <= below, where q >= c*pi/4 - SLACK + E, and certainly holds at every
    l2 >= above, where q < c*pi/4 - SLACK - E, for E = 2**(6 - wp).  Exact
    integers in units of 2**-FIXED_BITS."""
    e, square = _error_units(wp), d * d << FIXED_BITS
    fails = square // (c * (PI_FLOOR + 1) - 4 * (_FIXED_SLACK - e))
    return fails, square // (c * PI_FLOOR - 4 * (_FIXED_SLACK + e)) + 1


def _low_end_last(d: int, c: int, t: int) -> int:
    """The largest l2 >= d at which c/(2*(3 - r)) + t < q, for r = (l2 + d)/l2,
    q = d*d/(4*l2), and c, t > 0, given in units of 2**-FIXED_BITS, with
    2*c + 4*t < d.  Multiplied by 2*l2*l2 > 0, the test is
    P(l2) = (2*c + 8*t)*l2**2 - (4*t*d + 2*d*d)*l2 + d**3 < 0, and
    P(d) = d*d*(2*c + 4*t - d) < 0, so it holds from l2 = d up to the larger
    root x of P, exclusive.  As the middle coefficient is an integer, the
    floors of `isqrt` and of the quotient give floor(x) exactly; that is x
    itself when P vanishes there, and then x - 1 >= d is the last l2."""
    a, b, c0 = 2 * c + 8 * t, 4 * t * d + (d * d << FIXED_BITS + 1), d**3 << FIXED_BITS
    l2 = (b + math.isqrt(b * b - 4 * a * c0)) // (2 * a)
    return l2 if (a * l2 - b) * l2 + c0 < 0 else l2 - 1


def _low_cut(d: int, wp: int, k: int) -> tuple[int, int]:
    """(below, above) for the comparison low + SLACK < q of the second
    window of `_cos_lower_bound` around k*pi/4, low = (k - 2)*pi/(2*(3 - r)),
    q = d*d/(4*l2): from l2 = d on it certainly holds at every l2 <= below,
    where low + SLACK + E < q, and certainly fails at every l2 >= above,
    where low + SLACK - E >= q, for E = 2**(6 - wp).  Exact integers in
    units of 2**-FIXED_BITS."""
    e = _error_units(wp)
    holds = _low_end_last(d, (k - 2) * (PI_FLOOR + 1), _FIXED_SLACK + e)
    return holds, _low_end_last(d, (k - 2) * PI_FLOOR, _FIXED_SLACK - e) + 1


def _reach_cut(d: int, wp: int) -> tuple[int, int]:
    """(T - 1, T) for the least l2 = T inside the gate (d*d < 26*l2) above
    the reach of r = (l2 + d)/l2, `oscillatory_bound_reach` (see
    `DiffLine`).  There nd > 4, so the reach is below 16336**2 / 4**5.5
    < 130306, and l2 meets it where l2 = 16336**2 / nd**5.5: a few
    fixed-point steps in floats from 130305 guess T, and a walk up over the
    exact reach fixes it.  From d = 1841 on, first > 130306 lies above the
    reach, and the guess is first, which is T; below, the guess lies at most
    0.03 above T (the tests check every d), so its integer part is never
    past T."""
    first = d * d // NEAR_DIAGONAL_GATE + 1
    guess = float(max(first, 130305))
    for _ in range(5):
        y = d / guess
        guess = max(first, OSCILLATORY_BOUND_CONSTANT**2 / (4 + 4 * y - y * y) ** 5.5)
    t = int(guess)
    while t <= _oscillatory_reach(t + d, t):
        t += 1
    return t - 1, t


def _edge_key(end: tuple, sign: int) -> tuple:
    """The `DiffLine` key (_edge_cut, m*m*k, offset) of a clause end (m, k, c)
    compared with d: the upper end (sign 1) admits d when m*sqrt(k*pi*l2)
    exceeds d + c + SLACK, the lower end (sign -1) when it falls below
    d - c - SLACK."""
    m, k, c = end
    return _edge_cut, m * m * k, sign * ((int(Fraction(c) * 10**4) << SLACK_BITS) + _SLACK_UNITS)


# per congruence class, the (lower, upper) end keys of each clause of
# `WINDOW_CLAUSES`, a lower end None being the floor of the class
_WINDOW_KEYS = tuple(
    tuple((lo and _edge_key(lo, -1), _edge_key(hi, 1)) for _, lo, hi in clauses) for clauses in WINDOW_CLAUSES
)

# the largest lambda2 at which the floor of clause class2-a is certainly 702:
# below ((702 - 2**-20) / CLASS2_FLOOR_FACTOR)**4, where
# CLASS2_FLOOR_FACTOR * lambda2**(1/4) < 702 - 2**-20, far below 702 - SLACK
# after the few ulps of error of `mpf_pow` at wp >= 77 bits
CLASS2_FLOOR_702 = math.ceil(((NEAR_DIAGONAL_MIN_DIFFERENCE - Fraction(1, 2**20)) / Fraction(CLASS2_FLOOR_FACTOR)) ** 4) - 1

# per row k = 1..8 of the near-diagonal bound, the keys of edge k against
# d + SLACK and against d - SLACK
_ROW_KEYS = tuple(((_edge_cut, k, _SLACK_UNITS), (_edge_cut, k, -_SLACK_UNITS)) for k in range(1, len(NEAR_DIAGONAL_ROWS) + 1))
# per congruence class, the keys of `_cos_lower_bound`'s three window tests:
# q against the end (2, 3, 4, 1)*pi/4 of the first window and the end
# (k + 2)*pi/4 of the second, and the second's low end, for its centre
# k*pi/4, k = (4, 5, 6, 3); then the centre's k
_COSINE_KEYS = tuple(
    ((_quarter_pi_cut, end), (_quarter_pi_cut, k + 2), (_low_cut, k), k) for end, k in zip((2, 3, 4, 1), (4, 5, 6, 3))
)
_REACH_KEY = (_reach_cut,)

# an enclosure that leaves every outcome open: it reaches across every
# bound, cosine and slack, so the margin runs the kernels
_OPEN = (-2 << FIXED_BITS, 2 << FIXED_BITS)


@functools.lru_cache(maxsize=16)
def _near_diagonal_constants(wp: int) -> tuple:
    """What the enclosures of a `DiffLine` at wp bits read of its precision
    alone: the flat bound and 1/sqrt(2) of the kernels rounded down to units
    of 2**-FIXED_BITS, per row q_k = floor(C_k**2 * 2**(2*FIXED_BITS)) of
    the kernel's constant C_k, and the width of a cosine enclosure."""
    flat = decimal_constant(NEAR_DIAGONAL_FLAT, wp)._mpf_
    rows = tuple(decimal_constant(c, wp)._mpf_ for c in NEAR_DIAGONAL_ROWS)
    inverse_root = mpf_rdiv_int(1, mpf_sqrt(ftwo, wp, round_nearest), wp, round_nearest)
    # _fixed_cos, the angle within 3 units, the kernel within 2**(6 - wp)
    width = _COS_WIDTH + 3 + _error_units(wp)
    squares = tuple(_scaled_quotient(mpf_mul(x, x), fone, 1, 2 * FIXED_BITS) for x in rows)
    return _scaled_quotient(flat, fone, 1, FIXED_BITS), squares, _scaled_quotient(inverse_root, fone, 1, FIXED_BITS), width


class DiffLine:
    """What the window and near-diagonal steps read of one difference line
    (l2 + d, l2), d >= 702, at wp working bits, built once per process
    (`diff_line`) and shared by every pair of the difference: the lambda2
    thresholds of their comparisons, and the near-diagonal step's verdict
    and margin.

    Edges.  Each quantity that those steps compare with d is a window-clause
    end m*sqrt(k*pi*l2) -+ c or a row edge sqrt(k*pi*l2), computed by a fixed
    chain of libmp operations that each round to nearest: `mpf_sqrt`
    documents correct rounding, `from_int`, `mpf_mul`, `mpf_mul_int`,
    `mpf_add` and `mpf_sub` round exact results, and `mpf_pi` rounds pi
    computed with 20 extra bits.  So the computed value is nondecreasing in
    l2, and each comparison with d switches once along the line.  With
    u = 2**-wp the chain is within 4u of the edge relatively (pi 2u; l2, the
    product by k and by l2, and the square root u each; halved under the
    root), the multiple by m within 6u, the end after subtracting or adding
    c (rounded within u) within 8u*(M + c), and the end minus or plus the
    slack within 10u*(M + c + 1) of its exact value, M the exact multiple.
    A step's comparison of such a value with d is "M against a target
    v = d +- c +- SLACK", and for mu = (d + 8) * 2**(6 - wp) its outcome is
    certain, whatever the rounding, at every l2 where M > v + mu or
    M < v - mu: there the margin exceeds 10u*(M + 11) with c < 5.  In exact
    integers, with an enclosure [PI_FLOOR, PI_FLOOR + 1] / 2**PI_BITS of pi,
    that holds for l2 below or above a threshold (`_edge_cut`).  The walk of
    `_near_diagonal_bound` reads one outcome per edge, so the row that it
    takes (or the flat bound alone, or none) follows from the thresholds of
    the edges it reaches (`_row`).

    Cosine windows.  `_cos_lower_bound` picks its window by comparing
    q = d*d/(4*l2) with c*pi/4, c = (2, 3, 4, 1) or k + 2, and the second
    window's low end (k - 2)*pi/(2*(3 - r)) with q, k = (4, 5, 6, 3) by
    class.  At fixed d, q falls as l2 grows, so each of the first two
    comparisons switches once along the line, and the third holds from
    l2 = d up to one root of a quadratic in l2 and fails beyond it
    (`_low_end_last`), so it switches once inside the gate too.  Each
    compared value is within 24u of exact: q within u/2**19 (three
    roundings at wp + 24 bits of a value below 7), c*pi/4 within 2.8*c*u
    (`mpf_pi` within 2 ulp, as `RatioLine` trusts it, and one product),
    and the low end within 20u (six roundings of a value below 3.3).  So
    beyond E = 2**(6 - wp) on either side of a comparison's target its
    outcome is certain, which the pi enclosure turns into two thresholds
    (`_quarter_pi_cut`, `_low_cut`).

    Oscillatory gate.  In the gate r = 1 + y, y = d/l2 < 26/d < 0.04, so the
    ratio is subcritical and l2 lies above its reach exactly when
    l2**2 * nd**11 > 16336**4, nd = 4 + 4*y - y*y (`oscillatory_bound_reach`
    with b = l2).  Its logarithmic derivative in l2 is
    (2 - 11*y*(4 - 2*y)/nd)/l2 > (2 - 0.44)/l2 > 0, so the test switches
    once along the line, at the least l2 that passes it, kept as
    `_reach_cut`.  The oscillatory gate reads it instead of the pair's
    reach, which its one-pair line then never computes.

    A pair decides each comparison with two integer compares, except in the
    band between two thresholds, a few lambda2 wide at most unless l2 is
    huge and wp small.  There the window step runs `_largest_difference`
    and `_least_difference` itself, and the near-diagonal step's enclosures
    are open (`_OPEN`).  All thresholds are computed lazily in plain
    integers, once per line.

    Margin.  `near_diagonal_margin` encloses, in units of 2**-FIXED_BITS,
    the near-diagonal bound (`bound_enclosure`: the flat bound, and the row
    value C_k/sqrt(l2) by one `isqrt`, within its kernel's three roundings)
    and the cosine lower bound (`lower_enclosure`: `_fixed_cos` of the exact
    q and (3 - r)/2*q against the pi enclosure, the kernel within
    2**(6 - wp) of the cosine of its exact angle: up to 17u for the centre,
    14u for (3 - r)/2*q, 2u for the difference and 4u for `mpf_cos`), and
    decides the comparison and the 53-bit margin as `RatioLine` does.
    Where an enclosure is open, or leaves the outcome or the rounding open,
    it runs `_near_diagonal_bound`, `_cos_lower_bound` and `dyadic_compare`
    itself: so every verdict and margin is the kernels'.  Per pair there
    remain: the floor of clause class2-a past `CLASS2_FLOOR_702` (an
    `mpf_pow`, not correctly rounded); edge 0, log(l2), when l2 has more
    than 1000 bits (below that it is < 694, which d >= 702 exceeds by far
    more than the slack), where the bound's enclosure is open; and the
    cosine values, the row value and the margin in integers.
    """

    __slots__ = ("d", "wp", "_cuts", "_constants")

    def __init__(self, d: int, wp: int) -> None:
        self.d, self.wp = d, wp
        self._cuts: dict[tuple, tuple[int, int]] = {}
        self._constants = _near_diagonal_constants(wp)

    def _side(self, key: tuple, l2: int) -> int:
        """1 at every l2 from the upper threshold of key on, -1 up to its
        lower threshold, 0 in the band between.  key = (cut, *args), and
        cut(d, wp, *args) gives the thresholds: for an `_edge_cut` key,
        1 where m*sqrt(k*pi*l2) certainly exceeds its target after rounding;
        for `_quarter_pi_cut`, where the kernel's comparison certainly
        holds; for `_low_cut`, where it certainly fails; for `_reach_cut`,
        where l2 lies above the reach."""
        cut = self._cuts.get(key)
        if cut is None:
            cut = self._cuts[key] = key[0](self.d, self.wp, *key[1:])
        if l2 >= cut[1]:
            return 1
        return -1 if l2 <= cut[0] else 0

    def past_reach(self, l2: int) -> bool:
        """Whether l2 lies above the reach of r = (l2 + d)/l2, for a pair in the gate."""
        return self._side(_REACH_KEY, l2) > 0

    def window_clause(self, l2: int, cls: int) -> str | None:
        """The clause of `_window_step` for the pair at l2 of class cls, or None."""
        d, wp = self.d, self.wp
        for (clause, lo, hi), (lo_key, hi_key) in zip(WINDOW_CLAUSES[cls], _WINDOW_KEYS[cls]):
            side = self._side(hi_key, l2)
            if side < 0 or (side == 0 and _largest_difference(l2, wp, hi) < d):
                continue
            if lo is None:
                if cls != 2 or l2 <= CLASS2_FLOOR_702 or _class2_floor(l2, wp) <= d:
                    return clause
                continue
            side = self._side(lo_key, l2)
            if side < 0 or (side == 0 and _least_difference(l2, wp, cls, lo) <= d):
                return clause
        return None

    def _row(self, l2: int) -> int | None:
        """The row that the walk of `_near_diagonal_bound` takes at l2: k when
        d lies certainly above edge k - 1 and below edge k, so that row k
        and the flat bound apply; 0 for the flat bound alone; None outside
        every proved window; -1 where a threshold or edge 0 leaves it open."""
        if l2.bit_length() > 1000:
            return -1
        above = True  # d against edge 0, log(l2) < 694
        for k, (less, greater) in enumerate(_ROW_KEYS, 1):
            side = self._side(less, l2)  # edge k against d + SLACK
            if side > 0:
                return k if above else 0
            if side == 0:
                return -1
            side = self._side(greater, l2)  # edge k against d - SLACK
            if side == 0:
                return -1
            above = side < 0
        return None

    def bound_enclosure(self, l2: int) -> tuple[int, int] | None:
        """(lo, hi) around `_near_diagonal_bound(d, l2, wp)`, None where it is
        certainly None, `_OPEN` where the thresholds leave its row open.
        The kernel takes the lesser of the row and the flat bound, so this
        is the lesser of their enclosures: the flat bound is exact, and
        isqrt(q_k // l2) lies within one unit below C_k/sqrt(l2) for
        q_k = floor(C_k**2 * 2**(2*FIXED_BITS)) of the kernel's constant
        C_k (floor(floor(x)/l2) = floor(x/l2)), whose three roundings
        (from_int, sqrt, quotient) put its row within 4u of that."""
        row = self._row(l2)
        if row is None:
            return None
        if row < 0:
            return _OPEN
        flat = self._constants[0]
        if not row:
            return flat, flat + 1
        b = math.isqrt(self._constants[1][row - 1] // l2)
        width = _widening(b + 1, 3, self.wp)
        return min(b - width, flat), min(b + 1 + width, flat + 1)

    def lower_enclosure(self, l1: int, l2: int) -> tuple[int, int] | None:
        """(lo, hi) around `_cos_lower_bound(l1, l2, wp)`, None where it is
        certainly None, `_OPEN` where a threshold leaves its window open.
        The kernel takes cos(q), min(1/sqrt(2), cos(pi/4 - q)), the lesser
        of cos(c - q) and cos(c - (3 - r)/2*q) about the centre c = pi/2, or
        cos(pi/4 + q), in the first window of class 0, 1, 2 or 3, and that
        lesser about c = k*pi/4 in the second.  Each angle here is exact but
        for the units of q and (3 - r)/2*q rounded down and for the centre
        from the lower end of the pi enclosure, so within 3 units, and so is
        the larger of two |angles|."""
        cls = (l1 + l2) % 4
        first, upper, low, k = _COSINE_KEYS[cls]
        side = self._side(first, l2)
        if side < 0:
            # the second window needs both its tests to hold
            held = min(-self._side(low, l2), self._side(upper, l2))
            if held < 0:
                return None
            if held == 0:
                return _OPEN
        elif side == 0:
            return _OPEN
        else:
            k = 2 if cls == 2 else None  # class 2's first window is about pi/2
        d = self.d
        q = (d * d << FIXED_BITS) // (4 * l2)
        _, _, inverse_root, width = self._constants
        if k is not None:
            # both angles lie within pi/2 of 0, where cos falls as |angle|
            # grows, so the lesser cosine is that of the larger |angle|
            centre = (k * PI_FLOOR) >> 2
            shrunk = (d * d * (2 * l2 - d) << FIXED_BITS) // (8 * l2 * l2)
            c = _fixed_cos(max(abs(centre - q), abs(centre - shrunk)))
        elif cls == 0:
            c = _fixed_cos(q)
        elif cls == 3:
            c = _fixed_cos((PI_FLOOR >> 2) + q)
        else:
            c = _fixed_cos((PI_FLOOR >> 2) - q)
            return min(inverse_root, c - width), min(inverse_root + 1, c + width)
        return c - width, c + width

    def near_diagonal_margin(self, l1: int, l2: int) -> float | None:
        """The near-diagonal step's verdict on the pair (l1, l2) of the line:
        the margin `_cos_lower_bound` - `_near_diagonal_bound`, rounded to
        53 bits, when the bound exists and the cosine lower bound exceeds it
        by more than SLACK, else None.  The enclosures decide when they fix
        the outcome and the rounding; the kernels run where they do not."""
        lower = self.lower_enclosure(l1, l2)
        # the bound is positive where it exists, so a cosine lower bound
        # that cannot exceed SLACK decides the pair without it
        if lower is None or lower[1] <= _FIXED_SLACK:
            return None
        bound = self.bound_enclosure(l2)
        if bound is None:
            return None
        margin = _enclosed_margin(lower[0] - bound[1], lower[1] - bound[0])
        if margin is not None:
            return margin or None
        bound = _near_diagonal_bound(self.d, l2, self.wp)[0]
        # No pair reaches this return.  The kernel finds no window only where
        # d is not certifiedly below the flat edge sqrt(8*pi*l2), so where
        # q = d*d/(4*l2) > 2*pi - 4*pi*SLACK/d, less roundings far below
        # SLACK.  For d >= 702 that lies above 2*pi - SLACK, where every
        # window of the cosine lower bound has ended and every band of its
        # thresholds lies below, so `lower_enclosure` was None.
        if bound is None:
            return None
        lower = _cos_lower_bound(l1, l2, self.wp)
        return None if lower is None else certified_margin(lower, bound)


# the `DiffLine` of difference d at wp bits, built once in a process and
# shared by every pair of that difference, whatever made the pair.  An
# all-up-to row passes every difference from 702 to about
# sqrt(26*lambda2) through the window step, 911 of them at lambda2 = 10**5
# and 4,096 up to lambda2 ~ 8.8*10**5, and the next row passes them again:
# a smaller bound would evict each line before the next row reads it, so
# every row would rebuild them all.  A `DiffLine` holds at most 29 pairs
# of thresholds (a line's pairs fall in two congruence classes), 4.5 KB, and
# on the all-up-to scan of the rows lambda2 = 10**5..10**5 + 3 its lines
# take 1.7 KB on average with their cache entries (tracemalloc, CPython
# 3.11), so the cache stays below about 19 MB and near 7 MB at that mix.
diff_line = functools.lru_cache(maxsize=4096)(DiffLine)


def difference_windows(
    lambda2: int,
    prec: int = DEFAULT_PRECISION,
    *,
    residue_class: int | None = None,
) -> list[DifferenceWindow]:
    """The certified lambda1 windows for one lambda2, per congruence class
    (only those of `residue_class` when it is given).

    Endpoints are computed at the working precision and rounded inward by
    the decision slack `SLACK` = 2**-40, so every emitted integer lies
    strictly inside the real window (the one exact-integer endpoint, the 702
    floor of the class-2 clause, is kept inclusively).  Windows are split at
    difference 702: the part below is emitted with basis "small-difference",
    the rest with "window-table".
    """
    check_precision(prec)
    if lambda2 < 1:
        raise ValueError("lambda2 must be >= 1")
    out: list[DifferenceWindow] = []
    classes = range(len(WINDOW_CLAUSES)) if residue_class is None else (residue_class,)
    wp = prec + GUARD_BITS
    clauses = [
        (cls, clause, _least_difference(lambda2, wp, cls, lo), _largest_difference(lambda2, wp, hi))
        for cls in classes
        for clause, lo, hi in WINDOW_CLAUSES[cls]
    ]
    for cls, clause, d_lo, d_hi in clauses:
        cut = NEAR_DIAGONAL_MIN_DIFFERENCE
        if d_lo <= min(d_hi, cut - 1):
            out.append(
                DifferenceWindow(cls, clause, lambda2 + d_lo, lambda2 + min(d_hi, cut - 1), "small-difference")
            )
        if max(d_lo, cut) <= d_hi:
            out.append(
                DifferenceWindow(cls, clause, lambda2 + max(d_lo, cut), lambda2 + d_hi, "window-table")
            )
    return out


class Prediction(NamedTuple):
    """Normalized main term, rigorous error bound, and validity for one pair.

    `normalized_main` is the regime's target: the constant 1 in the
    supercritical regime, cos((r*gamma1+gamma2)*lam + gamma3) in the
    subcritical one, and cos(l1*gamma1 + l2*gamma2) in the near-diagonal
    window.  `log_normalizer` is the natural log of the scaling applied to
    the exact value I so the product is comparable to the main term;
    `normalizer` describes the same scaling for reports.
    """

    pair: PartitionPair
    regime: Regime
    normalized_main: mpf
    error_bound: mpf
    valid: bool
    normalizer: str
    log_normalizer: mpf
    threshold: mpf | None = None
    detail: str = ""


def predict(pair: PartitionPair, prec: int = DEFAULT_PRECISION) -> Prediction:
    """Select the applicable regime bound and assemble the prediction.

    In the subcritical regime the near-diagonal bound is used instead of the
    general oscillatory one when its window applies and it is sharper.
    """
    check_precision(prec)
    if pair.lambda2 < 1:
        raise ValueError("prediction requires lambda2 >= 1")
    r = pair.ratio
    regime = require_regime(r, SADDLE_REGIMES, "prediction requires r > 1")
    lam = pair.lambda2
    if regime is Regime.SUPERCRITICAL:
        sd = saddle_data(r, prec)
        bound = supercritical_error_bound(r, lam, prec)
        with workprec(prec + GUARD_BITS):
            f_rho = rational_to_real(r, prec + GUARD_BITS) * mp.log(1 + sd.rho) + mp.log(1 - sd.rho) - mp.log(sd.rho)
            log_norm = mp.log(2 * mp.pi * lam * sd.M) / 2 - lam * f_rho
        return Prediction(pair, regime, mpf(1), bound, True, "sqrt(2*pi*lam*M) / exp(lam*f(rho))", log_norm)
    bound, threshold = oscillatory_error_bound(r, lam, prec)
    osc_valid = certified_compare(lam, threshold, SLACK) is Comparison.CERTIFIED_GREATER
    near = None
    if pair.difference >= NEAR_DIAGONAL_MIN_DIFFERENCE:
        near = near_diagonal_error_bound(pair, prec)
    use_near = near is not None and near.valid and (not osc_valid or near.value < bound)
    main, _ = oscillation_cosine(pair, prec, half_phase=not use_near)
    with workprec(prec + GUARD_BITS):
        if use_near:
            log_norm = mp.log(mp.pi * lam) / 2 - mpf(pair.lambda1 + pair.lambda2 + 1) / 2 * mp.log(mpf(2))
            normalizer = "sqrt(pi*lam2) / 2**((lam1+lam2+1)/2)"
            return Prediction(pair, regime, main, near.value, True, normalizer, log_norm, None, f"near-diagonal {near.detail}")
        nd = rational_to_real(negated_discriminant(r), prec + GUARD_BITS)
        log_norm = mp.log(nd) / 4 + mp.log(mp.pi * lam) / 2 - (1 + mpf(pair.lambda1 + pair.lambda2) / 2) * mp.log(mpf(2))
    normalizer = "(6r-1-r**2)**(1/4) * sqrt(pi*lam) / 2**(1+(r+1)*lam/2)"
    return Prediction(pair, regime, main, bound, osc_valid, normalizer, log_norm, threshold)


def scaled_exact_value(pair: PartitionPair, prediction: Prediction, prec: int = DEFAULT_PRECISION) -> mpf:
    """exp(log_normalizer) * I computed in the log domain (sign carried exactly)."""
    value = evaluate(pair).value
    if pair.lambda2 % 2:
        value = -value
    # no test reaches this: a zero at r > 1 would be a counterexample to the
    # conjecture that the certificates test
    if value == 0:
        return mpf(0)
    with workprec(prec + GUARD_BITS):
        magnitude = mp.exp(prediction.log_normalizer + mp.log(abs(mpf(value))))
        return magnitude if value > 0 else -magnitude


def normalized_residual(
    pair: PartitionPair, prec: int = DEFAULT_PRECISION
) -> tuple[mpf, Prediction, mpf]:
    """|scaled I - main term| together with the prediction and the scaled value."""
    prediction = predict(pair, prec)
    scaled = scaled_exact_value(pair, prediction, prec)
    with workprec(prec + GUARD_BITS):
        return abs(scaled - prediction.normalized_main), prediction, scaled


def gamma_cubic_bounds(r: Fraction, prec: int = DEFAULT_PRECISION) -> tuple[mpf, mpf, mpf]:
    """The cubic window 0 <= r*gamma1 + gamma2 - (r-3)*pi/4 + (r-1)**2/4 <= (r-1)**3/8.

    Valid for 1 <= r <= (9 + sqrt(73))/4.  Returns (lo, hi, middle) where
    lo = 0, hi = (r-1)**3/8 and middle is the quantity being sandwiched.
    """
    check_precision(prec)
    r = Fraction(r)
    if r < 1 or (4 * r > 9 and (4 * r - 9) ** 2 > CUBIC_WINDOW_MAX_RATIO_SQUARED):
        raise ValueError(f"cubic window requires 1 <= r <= (9+sqrt(73))/4, got r = {r}")
    g1, g2 = gamma_angles(r, prec)
    with workprec(prec + GUARD_BITS):
        rm = rational_to_real(r, prec + GUARD_BITS)
        middle = rm * g1 + g2 - (rm - 3) * mp.pi / 4 + rational_to_real((r - 1) ** 2, prec + GUARD_BITS) / 4
        hi = rational_to_real((r - 1) ** 3, prec + GUARD_BITS) / 8
        return mpf(0), hi, middle


def cos_lower_bound(pair: PartitionPair, prec: int = DEFAULT_PRECISION) -> tuple[mpf | None, bool]:
    """Certified lower bound on |cos(l1*gamma1 + l2*gamma2)| for 1 < r <= 3.

    Dispatches on (l1 + l2) mod 4 and on the window containing the exact
    rational q = l2*(r-1)**2/4 = d**2/(4*l2).  Between the proved windows the
    result is (None, False); window membership is decided with certified
    comparisons and an indeterminate endpoint makes the window inapplicable.
    """
    check_precision(prec)
    r = pair.ratio
    if r > 3:
        raise ValueError(f"cosine lower bound requires r <= 3, got r = {r}")
    if r <= 1:
        raise ValueError(f"cosine lower bound requires r > 1, got r = {r}")
    value = _cos_lower_bound(pair.lambda1, pair.lambda2, prec + GUARD_BITS)
    return (None, False) if value is None else (mp.make_mpf(value), True)


def _cos_lower_bound(l1: int, l2: int, wp: int) -> tuple | None:
    """The bound of `cos_lower_bound` at wp bits, raw, for 1 < l1/l2 <= 3,
    or None between the proved windows.  q and 3 - r are rounded from their
    lowest terms as `rational_to_real` rounds them, and every multiple of pi
    is rounded once and then scaled by a power of two, which is exact."""
    d, cls, less = l1 - l2, (l1 + l2) % 4, Comparison.CERTIFIED_LESS
    qm = raw_rational(d * d, 4 * l2, wp)
    three_minus_r = raw_rational(3 * l2 - l1, l2, wp)
    pi = mpf_pi(wp, _RND)

    def quarter_pi(k: int) -> tuple:
        return mpf_shift(mpf_mul_int(pi, k, wp, _RND), -2)

    def cos_minus(centre: tuple, x: tuple) -> tuple:
        return mpf_cos(mpf_sub(centre, x, wp, _RND), wp, _RND)

    def lesser(x: tuple, y: tuple) -> tuple:
        return y if mpf_lt(y, x) else x  # the first on a tie, as `min`

    def both_ends(centre: tuple) -> tuple:
        # the eta window is [-q, -(3-r)/2 * q]
        halfshrink = mpf_div(three_minus_r, ftwo, wp, _RND)
        return lesser(cos_minus(centre, qm), cos_minus(centre, mpf_mul(halfshrink, qm, wp, _RND)))

    # the first window of each class ends at (2, 3, 4, 1)*pi/4
    if dyadic_compare(qm, quarter_pi((2, 3, 4, 1)[cls]), RAW_SLACK) is less:
        if cls == 0:
            return mpf_cos(qm, wp, _RND)
        if cls == 1:
            return lesser(mpf_rdiv_int(1, mpf_sqrt(ftwo, wp, _RND), wp, _RND), cos_minus(quarter_pi(1), qm))
        if cls == 2:
            return both_ends(quarter_pi(2))
        return mpf_cos(mpf_add(quarter_pi(1), qm, wp, _RND), wp, _RND)
    # the second window is 2*(c - pi/2)/(3 - r) <= q <= c + pi/2 around the
    # centre c = k*pi/4, k = (4, 5, 6, 3), and empty at r = 3
    k = (4, 5, 6, 3)[cls]
    if 3 * l2 != l1:
        low = mpf_div(mpf_mul_int(pi, k - 2, wp, _RND), mpf_mul_int(three_minus_r, 2, wp, _RND), wp, _RND)
        if dyadic_compare(low, qm, RAW_SLACK) is less and dyadic_compare(qm, quarter_pi(k + 2), RAW_SLACK) is less:
            return both_ends(quarter_pi(k))
    return None
