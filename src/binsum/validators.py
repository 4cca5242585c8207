"""Numeric grid validators for the supporting inequalities of the error bounds.

The saddle-point bounds rest on eight inequalities for
f(z) = r*log(1+z) + log(1-z) - log(z) on the circle z = rho*e^(i*t), through
g(t) = Re f and h(t) = Im f.  Every lemma has 0 < rho < 1, so
Re(1 +- z) >= 1 - rho > 0: both log(1 +- z) are principal logs of points in
the right half-plane, with real part log|1 +- z| and imaginary part an
atan2.  And log z = log(rho) + i*t for -pi < t <= pi (at t = -pi the
principal log has i*pi instead, which flips only the sign of h = pi, and h
enters its lemma as |h|).  So, exactly,

  g(t) = (r*log(1 + 2*rho*cos t + rho**2) + log(1 - 2*rho*cos t + rho**2))/2 - log(rho)
  h(t) = r*atan2(rho*sin t, 1 + rho*cos t) + atan2(-rho*sin t, 1 - rho*cos t) - t

with log(rho) computed once per ratio and no complex log.  A lemma on g
never computes h, and h takes its cosine and sine from one `mpf_cos_sin`.

Each lemma is one row (F, c, Q, side, R2, R3, R4) of one margin form, a
centre c, a quadratic model Q and a polynomial remainder in u = t - c:

  margin(t) = side(F(t) - F(c) + Q*u**2) - (R2*u**2 + R3*|u|**3 + R4*u**4)

with F one of g, h and f = g + i*h, and side abs or the identity.  The
margin is the left side minus the right side of the inequality, so it
should be <= 0 (up to the decision slack) at every point of the
hypothesis region.  F(c) comes from the same F as F(t), so every margin is
exactly 0 at t = c.  `validate_inequality` asserts it pointwise on an
(r, theta) grid and reports the worst margin.  The validators check
consequences only; the helper functions used inside the proofs are not
exported.

The margin is one raw kernel on libmp tuples (`_mpf_`), at
wp = prec + GUARD_BITS bits with round_nearest: a fixed chain of `mpf_*`
calls, each taking its precision and rounding explicitly, so none depends
on the ambient mpmath precision.  Per grid point, g is `mpf_cos`, two
`mpf_log` and `mpf_mul`, `mpf_add` and `mpf_sub` around them; h is
`mpf_cos_sin`, two `mpf_atan2` and the same arithmetic; the margin form
adds `mpf_abs` of u, `mpf_pow_int` for u**n, the model and remainder terms
by `mpf_mul` and `mpf_add` in the order written above, and the side as
`mpf_pos`, `mpf_abs` or, for f, the modulus `mpf_hypot`.  The complex
parts of f are taken one at a time, as `mpc_sub`, `mpc_mul_mpf` and
`mpc_add` take them.  The remainder coefficients C_g and C_h are the raw
kernels `asymptotics.quartic_kernel` and `cubic_kernel`.  Halvings and
quarterings are `mpf_shift`, which is exact.  Each call is the one that
the mpf expression of the same formula makes, on the same operands, so
every margin equals that expression's bit for bit; the tests keep the mpf
form as the reference.  What the margin trusts is libmp's rounding of each
call: correct rounding of +, -, *, / and sqrt, and of `mpf_pow_int` while
the exact power has fewer than 1000 bits (u**4 up to wp = 249), and
mpmath's accuracy of a few ulp for cos, sin, log, atan2, pi, hypot and
larger powers.  So an enclosure can run the same chain with directed
rounding, one bound per call.  The per-ratio constants (rho, M and a
from `saddle_data`, r and nd, and the row's Q and remainder constants) are
computed once per ratio, the row's in the same raw form, and only for a
ratio that holds a candidate of the screen off the centre: the margin at
theta = c is an exact 0 without them, and under first wins a later tie at
that 0 cannot become the worst point.

The screen.  The raw chain costs 30-110 us a point, most of it in
`mpf_log`, `mpf_atan2` and `mpf_cos_sin`, and a report names one point.
So `validate_inequality` first takes every grid point's margin m in IEEE
doubles (`_Floats`, `_screen`), with a bound E(theta) on |m - raw margin|,
and runs `_margin` only on the candidates.  A point is not a candidate
when m + E < max(m' - E') over the whole grid: then its raw margin lies
below that of another point, so it is neither the worst point nor tied
with it.  Rounding is monotone, so the test on the rounded sums implies
the one on the exact ones.  The candidates run in grid order under the
first-wins `mpf_gt` rule, so `max_margin`, `worst_r`, `worst_theta` and
`passed` are the kernel's bit for bit, and `points` counts the whole grid.
Every point of a ratio is a candidate when its double pass cannot run
(float(r) overflows, a log argument is not positive, a divisor is 0), and
a point is one when its E is not below 2**-20.

Doubles, and not a cheaper mpmath or a fixed-point twin (measured on a
2-core Xeon, CPython 3.11.7, mpmath 1.3.0): a double margin with its bound
takes 4-7 us a point as written here, the f values about 2 us of it;
mpmath at 53 bits is only about 1.5x cheaper than at 152 (`log` 2.9 vs
4.1 us, `atan2` 4.8 vs 6.2 us, `cos_sin` 3.9 vs 7.1 us); and a twin in
the manner of `asymptotics._fixed_cos`, 13 Horner steps at 96 bits, would
cost 10-20 us.

What E trusts, with eta = 2**-47: that IEEE +, -, *, / and sqrt round to
nearest (relative error 2**-53), as float() of a Fraction and to_float of
an mpf do; that libm's log, log1p, atan2, cos and sin, and math.hypot,
are each within eta of their exact results, 32 ulp, far looser than the
few ulp that glibc's manual lists for them; and that each libmp
call of the raw chain is within eta_r = 2**(4 - wp) (16 ulp at wp bits).
E bounds the first-order error terms of both chains against the margin
taken exactly at the raw chain's inputs (rho, M, a and theta as rounded
at wp bits, r exact).  A second-order term is a product of two
first-order relative errors, each below E < 2**-20 of its scale, so the
factor 2 in E covers them, and E's own roundings.  Every bound below is
absolute, with A+- = |1 +- z|**2 = 1 +- 2*rho*cos t + rho**2 >=
(1 - rho)**2 > 0 taken per point, and P = rho*(r/A+ + 1/A-):

- theta: a grid theta is within 4*eta of its raw twin (`_cells` sums and
  multiplies doubles within 2**-51 of lo, the width and the cell
  fraction, all below 8), an explicit theta and the centre c within
  eta/16; so u = |t - c| is within 16*eta (u < 8), and cos t and sin t
  within 5*eta.
- g: the pass leaves out the -log(rho) of g, which cancels in
  g(t) - g(c), and takes log(A+-) as log1p(rho*(rho +- 2*cos t)), whose
  argument is within 20*rho*eta.  So log(A+-) is within
  20*rho*eta/A+- + eta*|log(A+-)|, and (r*log(A+) + log(A-))/2 within
  eta*(10*P + 3*L), L = r*|log(A+)| + |log(A-)|, with the share of the
  subtraction of its value at c.
- h: atan2(Y, X) has the gradient (X, -Y)/A.  Y = rho*sin t is within
  7*rho*eta, X = 1 +- rho*cos t within 7*rho*eta + eta*|X|, and |X|,
  |Y| <= sqrt(A) <= 2, so atan2 is within eta*(22*rho/A + |atan2|), and
  r*atan2+ + atan2- - t within eta*(22*P + 6*L' + 2*|t| + 4),
  L' = r*|atan2+| + |atan2-|, with the share of the subtraction at c.
- model: a row constant is at most 8 roundings from r, nd and r - 1 (each
  converted from its exact Fraction), rho and M, so it is within 16*eta
  relative; q*u**2 is within eta*|q|*(32*u + 18*u**2), and each sum and
  the side add eta times their size (pos and abs add nothing).
- remainder: u**n, by n - 1 products, is within eta*(16*n*u**(n-1) +
  (n-1)*u**n), so R*u**n is within eta*|R|*(16*n*u**(n-1) + n*u**n) +
  e_R*u**n, with e_R = 16*eta*|R| for a constant and 256*eta for C_g and
  C_h: for rho < sqrt(2) - 1 each of their numerators is below 4 in size,
  each divisor above 1 and |dC/dc| below 2, so their twenty-odd roundings
  and the error of cos t stay well inside it.  Each sum adds eta*|sum|,
  and m = left - right adds eta*|m|.
- raw: the raw chain's errors are these terms with eta_r for eta, at most
  2**-26 of them and so inside the factor 2, but for two that the double
  pass does not share: it takes log(A) of a rounded A (within
  12*eta_r), which r multiplies without the factor rho, and it subtracts
  log(rho) twice.  Both lie below eta_r*(32*(r+1)/(1 - rho)**2 +
  4*|log(rho)|) per ratio, to which 2**-1000 is added in eta_r: a double
  that underflows loses at most 2**-1075, and r/(1 - rho)**2 bounds what
  any such loss is multiplied by.

E is twice the sum of these terms.  A test checks |m - raw margin| <= E
at random points and precisions, and that E stays below 2**-30 inside
each lemma's default ranges, so that the screen prunes; on the grids of
the proof-check workload at most a few points per lemma run the chain.

`_LEMMAS` is the registry: one entry per lemma id, holding its default
ratio range, its theta region and its row, raw and in doubles.  The rows,
with M and the saddle angle a from `saddle_data`, nd = 6r - 1 - r**2, and
the hypothesis region in brackets:

  super-g-decay    (g, 0, 2M/pi**2, id, 0, 0, 0)        [r > 3+2*sqrt(2), |t| <= pi]
  super-g-strict   (g, 0, M/2, id, 0, 0, 0)             [3+2*sqrt(2) < r <= 7.686899, |t| <= pi/3]
  super-g-quartic  (g, 0, M/2, abs, 0, 0, C_g(cos t))   [r > 3+2*sqrt(2), |t| <= pi]
  super-h-cubic    (h, 0, 0, abs, 0, C_h(cos t), 0)     [same region]
  sub-f-cubic      (f, a, ((r+1)*nd - i*sqrt(nd)*(r-1)**2)/(16r), abs, 0, 0.33846*(r+1)**2/r**2, 0)
                                                        [1 < r < 3+2*sqrt(2), a/2 <= t <= pi-a/2]
  sub-g-decay      (g, a, (r+1)*nd/(16r), id, 0, (r+1)/4, 0)   [same region]
  near1-f-cubic    (f, a, 1/2, abs, (r-1)/4, 1/3, 0)    [1 <= r <= 2.282, |t-a| <= sqrt(r-1)]
  near1-g-decay    (g, a, 1/2, id, 0, 1/2, 0)           [1 < r <= 2.11952, a/2 <= t <= 3a/2]

So super-g-decay reads g(t) - g(0) <= -(2/pi**2)*M*t**2, and sub-f-cubic
bounds |f(t) - f(a) - quadratic saddle model| by a cubic in |t - a|.  Its Q
is sqrt(nd)/4*e^(-i*beta) for the curvature phase beta of
4r*(cos(beta), sin(beta)) = ((r+1)*sqrt(nd), (r-1)**2), in closed form, and
its real part is the Q of sub-g-decay.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import pos
from typing import Callable, NamedTuple, Sequence

from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    fhalf,
    fone,
    from_int,
    from_str,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_atan2,
    mpf_cos,
    mpf_cos_sin,
    mpf_div,
    mpf_gt,
    mpf_hypot,
    mpf_le,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

from .asymptotics import (
    REFINED_BOUND_MAX_RATIO,
    SUBCRITICAL_ONLY,
    SUPERCRITICAL_ONLY,
    SaddleData,
    cubic_kernel,
    negated_discriminant,
    quartic_kernel,
    require_regime,
    saddle_data,
)
from .lemmas import LEMMA_IDS
from .numerics import DEFAULT_PRECISION, GUARD_BITS, RAW_SLACK, check_precision, rational_to_real, raw_rational

_RND = round_nearest

_NEAR1_F_MAX_RATIO = Fraction(2282, 1000)
_NEAR1_G_MAX_RATIO = Fraction(211952, 100000)

# tolerance for deciding that a grid point sits inside its hypothesis region
_REGION_TOL = mpf(2) ** -38


class LemmaReport(NamedTuple):
    lemma_id: str
    points: int
    max_margin: float
    worst_r: Fraction | None
    worst_theta: float | None
    passed: bool


_SUPER_REQUIREMENT = "inequality requires r > 3 + 2*sqrt(2)"


def _super_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    require_regime(r, SUPERCRITICAL_ONLY, _SUPER_REQUIREMENT)
    return -mp.pi, mp.pi


def _super_strict_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    require_regime(r, SUPERCRITICAL_ONLY, _SUPER_REQUIREMENT)
    if r > REFINED_BOUND_MAX_RATIO:
        raise ValueError(f"inequality requires r <= {REFINED_BOUND_MAX_RATIO}, got r = {r}")
    return -mp.pi / 3, mp.pi / 3


def _sub_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    require_regime(r, SUBCRITICAL_ONLY, "inequality requires 1 < r < 3 + 2*sqrt(2)")
    alpha = saddle_data(r, prec).alpha
    return alpha / 2, mp.pi - alpha / 2


def _near1_f_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    if not 1 <= r <= _NEAR1_F_MAX_RATIO:
        raise ValueError(f"inequality requires 1 <= r <= {_NEAR1_F_MAX_RATIO}, got r = {r}")
    if r == 1:
        alpha = mp.pi / 2
        return alpha, alpha
    alpha = saddle_data(r, prec).alpha
    w = mp.sqrt(rational_to_real(r - 1, prec))
    return alpha - w, alpha + w


def _near1_g_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    if not 1 < r <= _NEAR1_G_MAX_RATIO:
        raise ValueError(f"inequality requires 1 < r <= {_NEAR1_G_MAX_RATIO}, got r = {r}")
    alpha = saddle_data(r, prec).alpha
    return alpha / 2, 3 * alpha / 2


def _centre(sd: SaddleData) -> tuple:
    """The raw centre c of every row at the ratio of `sd`: the saddle angle
    alpha of a subcritical ratio, 0 for a supercritical one, which has none."""
    return fzero if sd.alpha is None else sd.alpha._mpf_


class _Circle:
    """g, h and f = g + i*h at z = rho*e^(i*theta) for the ratio of `sd`, raw
    at wp = sd.prec + GUARD_BITS, with the real constants of the ratio
    computed once and the rows' centre from `_centre`.  Each takes a raw
    theta and returns its value as a tuple of parts, (g,), (h,) or (g, h),
    and the cos(theta) it took."""

    def __init__(self, sd: SaddleData):
        wp = self.wp = sd.prec + GUARD_BITS
        self.M, self.centre = None if sd.M is None else sd.M._mpf_, _centre(sd)
        rho = self.rho = sd.rho._mpf_
        nd = negated_discriminant(sd.r)
        self.r = raw_rational(sd.r.numerator, sd.r.denominator, wp)
        self.nd = raw_rational(nd.numerator, nd.denominator, wp)
        self._two_rho, self._rho2 = mpf_mul_int(rho, 2, wp, _RND), mpf_pow_int(rho, 2, wp, _RND)
        self._neg_rho, self._log_rho = mpf_neg(rho), mpf_log(rho, wp, _RND)

    def _g(self, c: tuple) -> tuple:
        wp, rho2 = self.wp, self._rho2
        x = mpf_mul(self._two_rho, c, wp, _RND)  # 1 +- x + rho**2 = |1 +- z|**2
        plus = mpf_log(mpf_add(mpf_add(x, fone, wp, _RND), rho2, wp, _RND), wp, _RND)
        minus = mpf_log(mpf_add(mpf_sub(fone, x, wp, _RND), rho2, wp, _RND), wp, _RND)
        # the halving is exact
        return mpf_sub(mpf_shift(mpf_add(mpf_mul(self.r, plus, wp, _RND), minus, wp, _RND), -1), self._log_rho, wp, _RND)

    def _h(self, t: tuple, c: tuple, s: tuple) -> tuple:
        wp, rho = self.wp, self.rho
        rho_c = mpf_mul(rho, c, wp, _RND)
        plus = mpf_atan2(mpf_mul(rho, s, wp, _RND), mpf_add(rho_c, fone, wp, _RND), wp, _RND)
        minus = mpf_atan2(mpf_mul(self._neg_rho, s, wp, _RND), mpf_sub(fone, rho_c, wp, _RND), wp, _RND)
        return mpf_sub(mpf_add(mpf_mul(self.r, plus, wp, _RND), minus, wp, _RND), t, wp, _RND)

    def g(self, t: tuple) -> tuple[tuple, tuple]:
        c = mpf_cos(t, self.wp, _RND)
        return (self._g(c),), c

    def h(self, t: tuple) -> tuple[tuple, tuple]:
        c, s = mpf_cos_sin(t, self.wp, _RND)
        return (self._h(t, c, s),), c

    def f(self, t: tuple) -> tuple[tuple, tuple]:
        c, s = mpf_cos_sin(t, self.wp, _RND)
        return (self._g(c), self._h(t, c, s)), c


def _margin(wp: int, F: Callable, c: tuple, Q: tuple, side: Callable, R2, R3, R4) -> Callable[[tuple], tuple]:
    """theta -> side(F(theta) - F(c) + Q*u**2) - (R2*u**2 + R3*|u|**3 + R4*u**4)
    with u = theta - c, raw at wp bits: the left side minus the right side of
    one lemma.  F(theta) and Q are tuples of parts, real or (real, imaginary),
    taken one at a time as mpmath's complex arithmetic takes them; a real Q
    moves the real part alone.  `side` maps the parts to one real:
    `mpf_pos`, `mpf_abs`, or `mpf_hypot`, the modulus.  A remainder
    coefficient is None (no term), a raw number, or a kernel of cos(theta),
    which F returns next to its value.  F(c) comes from F itself, so the
    margin at theta = c is exactly 0, and there it is returned without the
    chain."""
    F_c = F(c)[0]
    terms = [(n, R) for n, R in ((2, R2), (3, R3), (4, R4)) if R is not None]

    def margin(t: tuple) -> tuple:
        if t == c:
            return fzero
        u = mpf_abs(mpf_sub(t, c, wp, _RND), wp, _RND)
        value, cos_t = F(t)
        step = [mpf_sub(v, v_c, wp, _RND) for v, v_c in zip(value, F_c)]
        if Q:
            u2 = mpf_pow_int(u, 2, wp, _RND)
            for i, q in enumerate(Q):
                step[i] = mpf_add(step[i], mpf_mul(q, u2, wp, _RND), wp, _RND)
        left, right = side(*step, wp, _RND), None
        for n, R in terms:
            term = mpf_mul(R(cos_t) if callable(R) else R, mpf_pow_int(u, n, wp, _RND), wp, _RND)
            right = term if right is None else mpf_add(right, term, wp, _RND)
        return left if right is None else mpf_sub(left, right, wp, _RND)

    return margin


# The screen's error model (module docstring): each double operation,
# conversion and libm call is within a relative error _ETA of its exact
# result; a bound E at or past _SCREEN_LIMIT proves nothing, and such a point
# is a candidate, as is one whose double pass cannot run.
_ETA = 2.0**-47
_SCREEN_LIMIT = 2.0**-20
_UNSCREENED = (-math.inf, math.inf)


def _to_double(x: mpf) -> float:
    return to_float(x._mpf_, rnd=_RND)


class _Floats:
    """The double twin of `_Circle`: g, h and f at z = rho*e^(i*theta) for
    the ratio of `sd`, each at a double theta, returning its value parts,
    their absolute error bounds and the cos(theta) it took.  g leaves out
    its -log(rho), which cancels in F(theta) - F(c).  Building it raises
    OverflowError, ValueError or ZeroDivisionError where the ratio's
    constants leave the double range."""

    def __init__(self, sd: SaddleData):
        self.r = float(sd.r)
        rho = self.rho = _to_double(sd.rho)
        self.M, self.alpha = (None if v is None else _to_double(v) for v in (sd.M, sd.alpha))
        self.r_minus_1, self.nd = float(sd.r - 1), float(negated_discriminant(sd.r))
        # the raw chain's error beyond its share of the terms of this one
        self.raw = (2.0 ** (4 - sd.prec - GUARD_BITS) + 2.0**-1000) * (
            32 * (self.r + 1) / ((1 - rho) * (1 - rho)) + 4 * abs(math.log(rho))
        )

    def _g(self, c: float) -> tuple[float, float]:
        r, rho = self.r, self.rho
        plus, minus = rho * (rho + 2 * c), rho * (rho - 2 * c)  # |1 +- z|**2 - 1
        log_plus, log_minus = math.log1p(plus), math.log1p(minus)
        p = rho * (r / (1 + plus) + 1 / (1 + minus))
        return (r * log_plus + log_minus) / 2, _ETA * (10 * p + 3 * (r * abs(log_plus) + abs(log_minus)))

    def _h(self, t: float, c: float, s: float) -> tuple[float, float]:
        r, rho = self.r, self.rho
        y, x_plus, x_minus = rho * s, 1 + rho * c, 1 - rho * c
        plus, minus = math.atan2(y, x_plus), math.atan2(-y, x_minus)
        p = rho * (r / (x_plus * x_plus + y * y) + 1 / (x_minus * x_minus + y * y))
        return r * plus + minus - t, _ETA * (22 * p + 6 * (r * abs(plus) + abs(minus)) + 2 * abs(t) + 4)

    def g(self, t: float) -> tuple:
        c = math.cos(t)
        value, err = self._g(c)
        return (value,), (err,), c

    def h(self, t: float) -> tuple:
        c = math.cos(t)
        value, err = self._h(t, c, math.sin(t))
        return (value,), (err,), c

    def f(self, t: float) -> tuple:
        c = math.cos(t)
        (g, g_err), (h, h_err) = self._g(c), self._h(t, c, math.sin(t))
        return (g, h), (g_err, h_err), c


def _quartic_floats(rho: float) -> Callable[[float], tuple[float, float]]:
    """c -> (C_g(r, c), its error bound) in doubles, as
    `asymptotics.quartic_kernel` forms it."""
    rho2, one_minus2 = rho * rho, (1 - rho) * (1 - rho)
    denominator = 24 * (1 + rho) * one_minus2
    first = (1 - 2 * rho - rho2) / denominator
    head = (rho2 * rho2 + 6 * rho2 * rho + 2 * rho2 + 4 * rho - 1) / (denominator * one_minus2)
    scale, base = 4 * (1 - rho2), 1 + rho2

    def coefficient(c: float) -> tuple[float, float]:
        return max(first, head + rho / (scale * (base + 2 * rho * c))), 256 * _ETA

    return coefficient


def _cubic_floats(rho: float) -> Callable[[float], tuple[float, float]]:
    """c -> (C_h(r, c), its error bound) in doubles, as
    `asymptotics.cubic_kernel` forms it."""
    rho2, one_minus = rho * rho, 1 - rho
    base = 1 + rho2
    f1 = base * (rho2 + 4 * rho - 1) / (6 * one_minus * one_minus * one_minus * (1 + rho) * (1 + rho))
    scale, base2, four_rho2 = 6 * one_minus, base * base, 4 * rho2

    def coefficient(c: float) -> tuple[float, float]:
        f2 = base * (1 - 2 * rho * (1 + c) - rho2) / (scale * (base2 - four_rho2 * c * c))
        return max(f1, f2, 0.0), 256 * _ETA

    return coefficient


def _screen(d: _Floats, F: Callable, c: float, Q: tuple, side: Callable, R2, R3, R4) -> Callable:
    """theta -> (m - E, m + E) for the double margin m of one lemma at a
    double theta and its bound E (module docstring), which encloses the raw
    `_margin` of the same row; `_UNSCREENED` where E is not below
    `_SCREEN_LIMIT` (inf and nan included).  The arguments are those of `_margin` in doubles, with
    F from `_Floats` and a remainder kernel returning its error bound next
    to its value."""
    F_c, err_c, _ = F(c)
    terms = [(n, R) for n, R in ((2, R2), (3, R3), (4, R4)) if R is not None]

    def bounds(t: float) -> tuple[float, float]:
        u = abs(t - c)
        value, err, cos_t = F(t)
        step = [v - v_c for v, v_c in zip(value, F_c)]
        errs = [e + e_c for e, e_c in zip(err, err_c)]
        powers = (1.0, u, u * u, u * u * u, u * u * u * u)
        for i, q in enumerate(Q):
            step[i] += q * powers[2]
            errs[i] += _ETA * (abs(q) * (32 * u + 18 * powers[2]) + abs(step[i]))
        left = side(*step)
        e = errs[0] if len(step) == 1 else errs[0] + errs[1] + _ETA * left
        right = 0.0
        for n, R in terms:
            value, e_R = R(cos_t) if callable(R) else (R, 16 * _ETA * abs(R))
            right += value * powers[n]
            e += _ETA * abs(value) * (16 * n * powers[n - 1] + n * powers[n]) + e_R * powers[n] + _ETA * abs(right)
        m = left - right
        bound = 2 * (e + _ETA * abs(m) + d.raw)
        return (m - bound, m + bound) if bound < _SCREEN_LIMIT else _UNSCREENED

    return bounds


def _screen_line(floats_row: Callable, sd: SaddleData, thetas: list[float]) -> list[tuple[float, float]]:
    """The `_screen` bounds of one ratio's double thetas, all `_UNSCREENED`
    where the double pass cannot run: the ratio's constants leave the double
    range, or a log argument or a divisor comes out 0 or less (none does
    inside the regions while they fit)."""
    try:
        d = _Floats(sd)
        bounds = _screen(d, *floats_row(d))
        return [bounds(t) for t in thetas]
    except (ArithmeticError, ValueError):
        return [_UNSCREENED] * len(thetas)


_SUPER = ((Fraction(584, 100), Fraction(12)), _super_region)
_SUPER_STRICT = ((Fraction(584, 100), Fraction(76868, 10000)), _super_strict_region)
_SUB = ((Fraction(105, 100), Fraction(580, 100)), _sub_region)
_NEAR1_F = ((Fraction(101, 100), Fraction(228, 100)), _near1_f_region)
_NEAR1_G = ((Fraction(101, 100), Fraction(211, 100)), _near1_g_region)

def _super_decay_row(k: _Circle) -> tuple:
    # Q = 2/pi**2 * M
    q = mpf_mul(mpf_rdiv_int(2, mpf_pow_int(mpf_pi(k.wp, _RND), 2, k.wp, _RND), k.wp, _RND), k.M, k.wp, _RND)
    return k.g, k.centre, (q,), mpf_pos, None, None, None


def _sub_f_row(k: _Circle) -> tuple:
    # Q = ((r+1)*nd - i*sqrt(nd)*(r-1)**2)/(16r), its real part that of
    # sub-g-decay, and R3 = 0.33846*(r+1)**2/r**2
    wp = k.wp
    imag = mpf_mul(mpf_sqrt(k.nd, wp, _RND), mpf_pow_int(mpf_sub(k.r, fone, wp, _RND), 2, wp, _RND), wp, _RND)
    Q = _sub_g_row(k)[2][0], mpf_neg(mpf_div(imag, mpf_mul_int(k.r, 16, wp, _RND), wp, _RND))
    R3 = mpf_mul(from_str("0.33846", wp, _RND), mpf_pow_int(mpf_add(k.r, fone, wp, _RND), 2, wp, _RND), wp, _RND)
    return k.f, k.centre, Q, mpf_hypot, None, mpf_div(R3, mpf_pow_int(k.r, 2, wp, _RND), wp, _RND), None


def _sub_g_row(k: _Circle) -> tuple:
    # Q = (r+1)*nd/(16r) and R3 = (r+1)/4; the division by 4 is exact
    wp = k.wp
    r_plus_1 = mpf_add(k.r, fone, wp, _RND)
    q = mpf_div(mpf_mul(r_plus_1, k.nd, wp, _RND), mpf_mul_int(k.r, 16, wp, _RND), wp, _RND)
    return k.g, k.centre, (q,), mpf_pos, None, mpf_shift(r_plus_1, -2), None


def _near1_f_row(k: _Circle) -> tuple:
    # R2 = (r-1)/4, exactly a quarter of the rounded r - 1, and R3 = 1/3
    R2 = mpf_shift(mpf_sub(k.r, fone, k.wp, _RND), -2)
    return k.f, k.centre, (fhalf,), mpf_hypot, R2, mpf_div(fone, from_int(3), k.wp, _RND), None


def _sub_f_floats(d: _Floats) -> tuple:
    r, r_plus_1 = d.r, d.r + 1
    Q = _sub_g_floats(d)[2][0], -(math.sqrt(d.nd) * (d.r_minus_1 * d.r_minus_1) / (16 * r))
    return d.f, d.alpha, Q, math.hypot, None, 0.33846 * (r_plus_1 * r_plus_1) / (r * r), None


def _sub_g_floats(d: _Floats) -> tuple:
    r_plus_1 = d.r + 1
    return d.g, d.alpha, (r_plus_1 * d.nd / (16 * d.r),), pos, None, r_plus_1 / 4, None


# The registry: lemma id -> (default ratio range, theta region of the
# hypothesis at (r, prec), row, double row), one entry per id of
# `LEMMA_IDS` in its order, which is that of the table above.  A region
# function runs under workprec(prec + GUARD_BITS) and raises ValueError for
# an r outside the hypothesis.  A row maps the _Circle k of one ratio to the
# raw arguments (F, c, Q, side, R2, R3, R4) of `_margin`; M/2 is an exact
# halving.  A double row maps the _Floats d of the ratio to the same
# arguments in doubles, those of `_screen`.
_LEMMAS: dict[str, tuple[tuple[Fraction, Fraction], Callable, Callable, Callable]] = dict(
    zip(
        LEMMA_IDS,
        (
            (*_SUPER, _super_decay_row, lambda d: (d.g, 0.0, (2 * d.M / (math.pi * math.pi),), pos, None, None, None)),
            (
                *_SUPER_STRICT,
                lambda k: (k.g, k.centre, (mpf_shift(k.M, -1),), mpf_pos, None, None, None),
                lambda d: (d.g, 0.0, (d.M / 2,), pos, None, None, None),
            ),
            (
                *_SUPER,
                lambda k: (k.g, k.centre, (mpf_shift(k.M, -1),), mpf_abs, None, None, quartic_kernel(k.rho, k.wp)),
                lambda d: (d.g, 0.0, (d.M / 2,), abs, None, None, _quartic_floats(d.rho)),
            ),
            (
                *_SUPER,
                lambda k: (k.h, k.centre, (), mpf_abs, None, cubic_kernel(k.rho, k.wp), None),
                lambda d: (d.h, 0.0, (), abs, None, _cubic_floats(d.rho), None),
            ),
            (*_SUB, _sub_f_row, _sub_f_floats),
            (*_SUB, _sub_g_row, _sub_g_floats),
            (*_NEAR1_F, _near1_f_row, lambda d: (d.f, d.alpha, (0.5,), math.hypot, d.r_minus_1 / 4, 1 / 3, None)),
            (
                *_NEAR1_G,
                lambda k: (k.g, k.centre, (fhalf,), mpf_pos, None, fhalf, None),
                lambda d: (d.g, d.alpha, (0.5,), pos, None, 0.5, None),
            ),
        ),
        strict=True,
    )
)


def _lemma(lemma_id: str) -> tuple:
    """The registry entry of `lemma_id`; ValueError for an unknown id."""
    try:
        return _LEMMAS[lemma_id]
    except KeyError:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}") from None


def _theta_region(region: Callable, r: Fraction, prec: int) -> tuple[mpf, mpf]:
    """The closed theta interval that `region` gives for r."""
    with workprec(prec + GUARD_BITS):
        return region(r, prec)


def default_r_grid(lemma_id: str, n_r: int) -> list[Fraction]:
    """n_r exact rationals spanning the lemma's default ratio range."""
    lo, hi = _lemma(lemma_id)[0]
    if n_r == 1:
        return [lo]
    step = (hi - lo) / (n_r - 1)
    return [lo + i * step for i in range(n_r)]


def region_theta_grid(lemma_id: str, r: Fraction, n_theta: int, prec: int = DEFAULT_PRECISION) -> list[mpf]:
    """n_theta angles strictly inside the lemma's theta region for this r."""
    doubles, midpoint = _cells(*_theta_region(_lemma(lemma_id)[1], r, prec), n_theta, prec)
    return [mp.make_mpf(midpoint(j)) for j in range(len(doubles))]


def _cells(lo: mpf, hi: mpf, n_theta: int, prec: int) -> tuple[list[float], Callable[[int], tuple]]:
    """The n_theta cell midpoints lo + (2j+1)/(2*n_theta)*(hi - lo) of
    [lo, hi], or lo alone for a degenerate interval: as doubles, each within
    2**-48 of its raw twin, and as j -> the raw midpoint at prec +
    GUARD_BITS bits."""
    wp = prec + GUARD_BITS
    with workprec(wp):
        lo, hi = lo._mpf_, hi._mpf_  # an end such as mp.pi takes its bits here
    width = mpf_sub(hi, lo, wp, _RND)
    if width == fzero:
        return [to_float(lo, rnd=_RND)], lambda j: lo
    cells = from_int(2 * n_theta)

    def midpoint(j: int) -> tuple:
        return mpf_add(lo, mpf_mul(mpf_div(from_int(2 * j + 1), cells, wp, _RND), width, wp, _RND), wp, _RND)

    lo_f, width_f = to_float(lo, rnd=_RND), to_float(width, rnd=_RND)
    return [lo_f + (2 * j + 1) / (2 * n_theta) * width_f for j in range(n_theta)], midpoint


def validate_inequality(
    lemma_id: str,
    r_grid: Sequence[Fraction] | None = None,
    theta_grid: Sequence | None = None,
    prec: int = DEFAULT_PRECISION,
    grid_size: tuple[int, int] = (50, 50),
) -> LemmaReport:
    """Assert one registered inequality pointwise on a grid.

    With `r_grid` or `theta_grid` omitted, a default grid of `grid_size`
    points strictly inside the hypothesis region is generated (theta chosen
    per r, since the admissible angles depend on r).  Explicitly supplied
    grid points are checked against the hypothesis region and rejected with
    an argument error when outside; that is not a lemma violation.  Every
    point is screened in doubles first, and the raw margin runs only where
    the worst point can be (module docstring).
    """
    check_precision(prec)
    _, region, row, floats_row = _lemma(lemma_id)
    n_r, n_theta = grid_size
    if n_r < 1 or n_theta < 1:
        raise ValueError(f"grid size must be at least 1x1, got {n_r}x{n_theta}")
    rs = [Fraction(r) for r in r_grid] if r_grid is not None else default_r_grid(lemma_id, n_r)
    if not rs or (theta_grid is not None and len(theta_grid) == 0):
        raise ValueError("empty grid")
    lines = []
    for r in rs:
        lo, hi = _theta_region(region, r, prec)
        if theta_grid is None:
            doubles, theta = _cells(lo, hi, n_theta, prec)
        else:
            with workprec(prec + GUARD_BITS):
                thetas = [mpf(t) for t in theta_grid]
            for t in thetas:
                if t < lo - _REGION_TOL or t > hi + _REGION_TOL:
                    raise ValueError(
                        f"theta = {t} outside the hypothesis region [{lo}, {hi}] of {lemma_id} at r = {r}"
                    )
            thetas = [t._mpf_ for t in thetas]
            doubles, theta = [to_float(t, rnd=_RND) for t in thetas], thetas.__getitem__
        sd = saddle_data(r, prec)
        lines.append((r, sd, theta, _screen_line(floats_row, sd, doubles)))
    # No point whose upper bound lies below some point's lower bound can be
    # the worst, nor tie with it; the rest run the kernel in grid order.
    floor = max(lower for *_, bounds in lines for lower, _ in bounds)
    worst = None
    points = 0
    # The margin at the centre is an exact 0 (`_margin`), so a ratio builds
    # its raw row only for a candidate off the centre.
    for r, sd, theta, bounds in lines:
        points += len(bounds)
        centre, margin = _centre(sd), None
        for j, (_, upper) in enumerate(bounds):
            if upper < floor:
                continue
            t = theta(j)
            if t == centre:
                m = fzero
            else:
                if margin is None:
                    k = _Circle(sd)
                    margin = _margin(k.wp, *row(k))
                m = margin(t)
            if worst is None or mpf_gt(m, worst[0]):
                worst = (m, r, t)
    max_margin, worst_r, worst_theta = worst
    return LemmaReport(
        lemma_id=lemma_id,
        points=points,
        max_margin=to_float(max_margin, rnd=_RND),
        worst_r=worst_r,
        worst_theta=to_float(worst_theta, rnd=_RND),
        passed=mpf_le(max_margin, RAW_SLACK),
    )
