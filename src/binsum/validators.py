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
never computes h, and h takes its cosine and sine from one `mp.cos_sin`.

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

`_LEMMAS` is the registry: one entry per lemma id, holding its default
ratio range, its theta region and its row.  The rows, with M, the saddle
angle a and the phase beta from `saddle_data`, nd = 6r - 1 - r**2, and the
hypothesis region in brackets:

  super-g-decay    (g, 0, 2M/pi**2, id, 0, 0, 0)        [r > 3+2*sqrt(2), |t| <= pi]
  super-g-strict   (g, 0, M/2, id, 0, 0, 0)             [3+2*sqrt(2) < r <= 7.686899, |t| <= pi/3]
  super-g-quartic  (g, 0, M/2, abs, 0, 0, C_g(cos t))   [r > 3+2*sqrt(2), |t| <= pi]
  super-h-cubic    (h, 0, 0, abs, 0, C_h(cos t), 0)     [same region]
  sub-f-cubic      (f, a, sqrt(nd)/4*e^(-i*beta), abs, 0, 0.33846*(r+1)**2/r**2, 0)
                                                        [1 < r < 3+2*sqrt(2), a/2 <= t <= pi-a/2]
  sub-g-decay      (g, a, (r+1)*nd/(16r), id, 0, (r+1)/4, 0)   [same region]
  near1-f-cubic    (f, a, 1/2, abs, (r-1)/4, 1/3, 0)    [1 <= r <= 2.282, |t-a| <= sqrt(r-1)]
  near1-g-decay    (g, a, 1/2, id, 0, 1/2, 0)           [1 < r <= 2.11952, a/2 <= t <= 3a/2]

So super-g-decay reads g(t) - g(0) <= -(2/pi**2)*M*t**2, and sub-f-cubic
bounds |f(t) - f(a) - quadratic saddle model| by a cubic in |t - a|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import pos
from typing import Callable, Sequence

from mpmath import mp, mpf, workprec

from .asymptotics import (
    REFINED_BOUND_MAX_RATIO,
    Regime,
    SaddleData,
    classify,
    negated_discriminant,
    saddle_data,
    _cubic_coefficient,
    _quartic_coefficient,
)
from .numerics import DEFAULT_PRECISION, GUARD_BITS, SLACK, check_precision, rational_to_real

_NEAR1_F_MAX_RATIO = Fraction(2282, 1000)
_NEAR1_G_MAX_RATIO = Fraction(211952, 100000)

# tolerance for deciding that a grid point sits inside its hypothesis region
_REGION_TOL = mpf(2) ** -38


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    points: int
    max_margin: float
    worst_r: Fraction | None
    worst_theta: float | None
    passed: bool


def _require_supercritical(r: Fraction) -> None:
    if classify(r) is not Regime.SUPERCRITICAL:
        raise ValueError(f"inequality requires r > 3 + 2*sqrt(2), got r = {r}")


def _require_subcritical(r: Fraction) -> None:
    if classify(r) is not Regime.SUBCRITICAL:
        raise ValueError(f"inequality requires 1 < r < 3 + 2*sqrt(2), got r = {r}")


def _super_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    _require_supercritical(r)
    return -mp.pi, mp.pi


def _super_strict_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    _require_supercritical(r)
    if r > REFINED_BOUND_MAX_RATIO:
        raise ValueError(f"inequality requires r <= {REFINED_BOUND_MAX_RATIO}, got r = {r}")
    return -mp.pi / 3, mp.pi / 3


def _sub_region(r: Fraction, prec: int) -> tuple[mpf, mpf]:
    _require_subcritical(r)
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
    """g, h and f = g + i*h at z = rho*e^(i*theta) for the ratio of `sd`,
    with the real constants of the ratio computed once.  Each returns its
    value and the cos(theta) it took.  Build and call it under
    workprec(sd.prec + GUARD_BITS)."""

    def __init__(self, sd: SaddleData):
        self.rho, self.M, self.alpha, self.beta = sd.rho, sd.M, sd.alpha, sd.beta
        self.r = rational_to_real(sd.r, sd.prec + GUARD_BITS)
        self.nd = rational_to_real(negated_discriminant(sd.r), sd.prec + GUARD_BITS)
        self._two_rho, self._rho2, self._log_rho = 2 * sd.rho, sd.rho**2, mp.log(sd.rho)

    def _g(self, c: mpf) -> mpf:
        x = self._two_rho * c  # 1 +- x + rho**2 = |1 +- z|**2
        return (self.r * mp.log(1 + x + self._rho2) + mp.log(1 - x + self._rho2)) / 2 - self._log_rho

    def _h(self, t: mpf, c: mpf, s: mpf) -> mpf:
        rho = self.rho
        return self.r * mp.atan2(rho * s, 1 + rho * c) + mp.atan2(-rho * s, 1 - rho * c) - t

    def g(self, t: mpf) -> tuple[mpf, mpf]:
        c = mp.cos(t)
        return self._g(c), c

    def h(self, t: mpf) -> tuple[mpf, mpf]:
        c, s = mp.cos_sin(t)
        return self._h(t, c, s), c

    def f(self, t: mpf) -> tuple:
        c, s = mp.cos_sin(t)
        return mp.mpc(self._g(c), self._h(t, c, s)), c


def _margin(F: Callable, c, Q, side: Callable, R2, R3, R4) -> Callable[[mpf], mpf]:
    """theta -> side(F(theta) - F(c) + Q*u**2) - (R2*u**2 + R3*|u|**3 + R4*u**4)
    with u = theta - c: the left side minus the right side of one lemma.  A
    remainder coefficient is a number or a function of cos(theta), which F
    returns next to its value.  F(c) comes from F itself, so the margin at
    theta = c is exactly 0."""
    F_c = F(c)[0]
    terms = [(n, R) for n, R in ((2, R2), (3, R3), (4, R4)) if R]

    def margin(t):
        u = abs(t - c)
        value, cos_t = F(t)
        return side(value - F_c + Q * u**2) - sum((R(cos_t) if callable(R) else R) * u**n for n, R in terms)

    return margin


_SUPER = ((Fraction(584, 100), Fraction(12)), _super_region)
_SUPER_STRICT = ((Fraction(584, 100), Fraction(76868, 10000)), _super_strict_region)
_SUB = ((Fraction(105, 100), Fraction(580, 100)), _sub_region)
_NEAR1_F = ((Fraction(101, 100), Fraction(228, 100)), _near1_f_region)
_NEAR1_G = ((Fraction(101, 100), Fraction(211, 100)), _near1_g_region)

# The registry: lemma id -> (default ratio range, theta region of the
# hypothesis at (r, prec), row).  A region function runs under
# workprec(prec + GUARD_BITS) and raises ValueError for an r outside the
# hypothesis.  A row maps the _Circle k of one ratio to the arguments
# (F, c, Q, side, R2, R3, R4) of `_margin`, with side abs or the identity pos.
_LEMMAS: dict[str, tuple[tuple[Fraction, Fraction], Callable, Callable]] = {
    "super-g-decay": (*_SUPER, lambda k: (k.g, 0, 2 / mp.pi**2 * k.M, pos, 0, 0, 0)),
    "super-g-strict": (*_SUPER_STRICT, lambda k: (k.g, 0, k.M / 2, pos, 0, 0, 0)),
    "super-g-quartic": (*_SUPER, lambda k: (k.g, 0, k.M / 2, abs, 0, 0, _quartic_coefficient(k.rho))),
    "super-h-cubic": (*_SUPER, lambda k: (k.h, 0, 0, abs, 0, _cubic_coefficient(k.rho), 0)),
    "sub-f-cubic": (*_SUB, lambda k: (k.f, k.alpha, mp.sqrt(k.nd) / 4 * mp.expj(-k.beta), abs,
                                      0, mpf("0.33846") * (k.r + 1) ** 2 / k.r**2, 0)),
    "sub-g-decay": (*_SUB, lambda k: (k.g, k.alpha, (k.r + 1) * k.nd / (16 * k.r), pos, 0, (k.r + 1) / 4, 0)),
    "near1-f-cubic": (*_NEAR1_F, lambda k: (k.f, k.alpha, mpf(1) / 2, abs, (k.r - 1) / 4, mpf(1) / 3, 0)),
    "near1-g-decay": (*_NEAR1_G, lambda k: (k.g, k.alpha, mpf(1) / 2, pos, 0, mpf(1) / 2, 0)),
}
LEMMA_IDS = tuple(_LEMMAS)


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
    return _spread(*_theta_region(_lemma(lemma_id)[1], r, prec), n_theta, prec)


def _spread(lo: mpf, hi: mpf, n_theta: int, prec: int) -> list[mpf]:
    """n_theta cell midpoints of [lo, hi], or [lo] for a degenerate interval."""
    with workprec(prec + GUARD_BITS):
        width = hi - lo
        if width == 0:
            return [lo]
        return [lo + (mpf(2 * j + 1) / (2 * n_theta)) * width for j in range(n_theta)]


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
    rs = [Fraction(r) for r in r_grid] if r_grid is not None else default_r_grid(lemma_id, n_r)
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
        sd = saddle_data(r, prec)
        with workprec(prec + GUARD_BITS):
            margin = _margin(*row(_Circle(sd)))
            for t in thetas:
                m = margin(t)
                points += 1
                if worst is None or m > worst[0]:
                    worst = (m, r, t)
    if worst is None:
        raise ValueError("empty grid")
    max_margin, worst_r, worst_theta = worst
    return LemmaReport(
        lemma_id=lemma_id,
        points=points,
        max_margin=float(max_margin),
        worst_r=worst_r,
        worst_theta=float(worst_theta),
        passed=bool(max_margin <= SLACK),
    )
