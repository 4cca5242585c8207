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
computed once per ratio, the row's in the same raw form.

`_LEMMAS` is the registry: one entry per lemma id, holding its default
ratio range, its theta region and its row.  The rows, with M and the
saddle angle a from `saddle_data`, nd = 6r - 1 - r**2, and the hypothesis
region in brackets:

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

from fractions import Fraction
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


class _Circle:
    """g, h and f = g + i*h at z = rho*e^(i*theta) for the ratio of `sd`, raw
    at wp = sd.prec + GUARD_BITS, with the real constants of the ratio
    computed once.  Each takes a raw theta and returns its value as a tuple
    of parts, (g,), (h,) or (g, h), and the cos(theta) it took."""

    def __init__(self, sd: SaddleData):
        wp = self.wp = sd.prec + GUARD_BITS
        self.M, self.alpha = (None if v is None else v._mpf_ for v in (sd.M, sd.alpha))
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
    margin at theta = c is exactly 0."""
    F_c = F(c)[0]
    terms = [(n, R) for n, R in ((2, R2), (3, R3), (4, R4)) if R is not None]

    def margin(t: tuple) -> tuple:
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


_SUPER = ((Fraction(584, 100), Fraction(12)), _super_region)
_SUPER_STRICT = ((Fraction(584, 100), Fraction(76868, 10000)), _super_strict_region)
_SUB = ((Fraction(105, 100), Fraction(580, 100)), _sub_region)
_NEAR1_F = ((Fraction(101, 100), Fraction(228, 100)), _near1_f_region)
_NEAR1_G = ((Fraction(101, 100), Fraction(211, 100)), _near1_g_region)

def _super_decay_row(k: _Circle) -> tuple:
    # Q = 2/pi**2 * M
    q = mpf_mul(mpf_rdiv_int(2, mpf_pow_int(mpf_pi(k.wp, _RND), 2, k.wp, _RND), k.wp, _RND), k.M, k.wp, _RND)
    return k.g, fzero, (q,), mpf_pos, None, None, None


def _sub_f_row(k: _Circle) -> tuple:
    # Q = ((r+1)*nd - i*sqrt(nd)*(r-1)**2)/(16r), its real part that of
    # sub-g-decay, and R3 = 0.33846*(r+1)**2/r**2
    wp = k.wp
    imag = mpf_mul(mpf_sqrt(k.nd, wp, _RND), mpf_pow_int(mpf_sub(k.r, fone, wp, _RND), 2, wp, _RND), wp, _RND)
    Q = _sub_g_row(k)[2][0], mpf_neg(mpf_div(imag, mpf_mul_int(k.r, 16, wp, _RND), wp, _RND))
    R3 = mpf_mul(from_str("0.33846", wp, _RND), mpf_pow_int(mpf_add(k.r, fone, wp, _RND), 2, wp, _RND), wp, _RND)
    return k.f, k.alpha, Q, mpf_hypot, None, mpf_div(R3, mpf_pow_int(k.r, 2, wp, _RND), wp, _RND), None


def _sub_g_row(k: _Circle) -> tuple:
    # Q = (r+1)*nd/(16r) and R3 = (r+1)/4; the division by 4 is exact
    wp = k.wp
    r_plus_1 = mpf_add(k.r, fone, wp, _RND)
    q = mpf_div(mpf_mul(r_plus_1, k.nd, wp, _RND), mpf_mul_int(k.r, 16, wp, _RND), wp, _RND)
    return k.g, k.alpha, (q,), mpf_pos, None, mpf_shift(r_plus_1, -2), None


def _near1_f_row(k: _Circle) -> tuple:
    # R2 = (r-1)/4, exactly a quarter of the rounded r - 1, and R3 = 1/3
    R2 = mpf_shift(mpf_sub(k.r, fone, k.wp, _RND), -2)
    return k.f, k.alpha, (fhalf,), mpf_hypot, R2, mpf_div(fone, from_int(3), k.wp, _RND), None


# The registry: lemma id -> (default ratio range, theta region of the
# hypothesis at (r, prec), row), one entry per id of `LEMMA_IDS` in its
# order, which is that of the table above.  A region function runs under
# workprec(prec + GUARD_BITS) and raises ValueError for an r outside the
# hypothesis.  A row maps the _Circle k of one ratio to the raw arguments
# (F, c, Q, side, R2, R3, R4) of `_margin`; M/2 is an exact halving.
_LEMMAS: dict[str, tuple[tuple[Fraction, Fraction], Callable, Callable]] = dict(
    zip(
        LEMMA_IDS,
        (
            (*_SUPER, _super_decay_row),
            (*_SUPER_STRICT, lambda k: (k.g, fzero, (mpf_shift(k.M, -1),), mpf_pos, None, None, None)),
            (*_SUPER, lambda k: (k.g, fzero, (mpf_shift(k.M, -1),), mpf_abs, None, None, quartic_kernel(k.rho, k.wp))),
            (*_SUPER, lambda k: (k.h, fzero, (), mpf_abs, None, cubic_kernel(k.rho, k.wp), None)),
            (*_SUB, _sub_f_row),
            (*_SUB, _sub_g_row),
            (*_NEAR1_F, _near1_f_row),
            (*_NEAR1_G, lambda k: (k.g, k.alpha, (fhalf,), mpf_pos, None, fhalf, None)),
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
    return [mp.make_mpf(t) for t in _spread(*_theta_region(_lemma(lemma_id)[1], r, prec), n_theta, prec)]


def _spread(lo: mpf, hi: mpf, n_theta: int, prec: int) -> list[tuple]:
    """n_theta cell midpoints lo + (2j+1)/(2*n_theta)*(hi - lo) of [lo, hi],
    raw at prec + GUARD_BITS bits, or [lo] for a degenerate interval."""
    wp = prec + GUARD_BITS
    with workprec(wp):
        lo, hi = lo._mpf_, hi._mpf_  # an end such as mp.pi takes its bits here
    width = mpf_sub(hi, lo, wp, _RND)
    if width == fzero:
        return [lo]
    cells = from_int(2 * n_theta)
    return [
        mpf_add(lo, mpf_mul(mpf_div(from_int(2 * j + 1), cells, wp, _RND), width, wp, _RND), wp, _RND)
        for j in range(n_theta)
    ]


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
    an argument error when outside; that is not a lemma violation.
    """
    check_precision(prec)
    _, region, row = _lemma(lemma_id)
    n_r, n_theta = grid_size
    if n_r < 1 or n_theta < 1:
        raise ValueError(f"grid size must be at least 1x1, got {n_r}x{n_theta}")
    rs = [Fraction(r) for r in r_grid] if r_grid is not None else default_r_grid(lemma_id, n_r)
    if not rs or (theta_grid is not None and len(theta_grid) == 0):
        raise ValueError("empty grid")
    worst = None
    points = 0
    for r in rs:
        lo, hi = _theta_region(region, r, prec)
        if theta_grid is None:
            thetas = _spread(lo, hi, n_theta, prec)
        else:
            with workprec(prec + GUARD_BITS):
                thetas = [mpf(t) for t in theta_grid]
            for t in thetas:
                if t < lo - _REGION_TOL or t > hi + _REGION_TOL:
                    raise ValueError(
                        f"theta = {t} outside the hypothesis region [{lo}, {hi}] of {lemma_id} at r = {r}"
                    )
            thetas = [t._mpf_ for t in thetas]
        k = _Circle(saddle_data(r, prec))
        margin = _margin(k.wp, *row(k))
        for t in thetas:
            m = margin(t)
            points += 1
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
