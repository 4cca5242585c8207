"""Numeric grid validators for the supporting inequalities of the error bounds.

Each validator evaluates g(theta) = Re f(rho*e^{i*theta}) and
h(theta) = Im f(rho*e^{i*theta}) directly from the definition of f and
asserts one proved inequality pointwise on an (r, theta) grid, reporting the
worst margin (left side minus right side; every margin should be <= 0 up to
the decision slack).  The validators check consequences only; the helper
functions used inside the proofs are not exported.

`_LEMMAS` is the registry: one entry per lemma id, holding its default
ratio range, its theta region and its margin.  The registered inequalities
(hypothesis region in brackets):

  super-g-decay    g(t)-g(0) <= -(2/pi**2)*M*t**2            [r > 3+2*sqrt(2), |t| <= pi]
  super-g-strict   g(t)-g(0) <= -M*t**2/2                    [3+2*sqrt(2) < r <= 7.686899, |t| <= pi/3]
  super-g-quartic  |g(t)-g(0)+M*t**2/2| <= C_g(cos t)*t**4   [r > 3+2*sqrt(2), |t| <= pi]
  super-h-cubic    |h(t)| <= C_h(cos t)*|t|**3               [same region]
  sub-f-cubic      |f on circle - quadratic saddle model|
                     <= 0.33846*(r+1)**2/r**2*|t-a|**3       [1 < r < 3+2*sqrt(2), a/2 <= t <= pi-a/2]
  sub-g-decay      g(t)-g(a) <= -(r+1)*(6r-1-r**2)/(16r)*(t-a)**2
                     + (r+1)/4*|t-a|**3                      [same region]
  near1-f-cubic    |f on circle + (t-a)**2/2 shift| <= |t-a|**3/3
                     + (r-1)/4*(t-a)**2                      [1 <= r <= 2.282, |t-a| <= sqrt(r-1)]
  near1-g-decay    g(t)-g(a) <= -(t-a)**2/2 + |t-a|**3/2     [1 < r <= 2.11952, a/2 <= t <= 3a/2]
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _f_on_circle(rm: mpf, rho: mpf, theta: mpf):
    z = rho * mp.mpc(mp.cos(theta), mp.sin(theta))
    return rm * mp.log(1 + z) + mp.log(1 - z) - mp.log(z)


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


# Margin factories: (saddle data of r, r as a real) -> the function theta ->
# left side minus right side of the inequality at r.  Everything that
# depends on the ratio alone (the discriminant, the model coefficients, f at
# the saddle angle) is computed by the factory, once per ratio.  Call the
# factory and the function it returns under workprec(sd.prec + GUARD_BITS).


def _super_g_decay(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    decay = 2 / mp.pi**2 * sd.M
    return lambda t: _f_on_circle(rm, sd.rho, t).real - sd.f_rho + decay * t**2


def _super_g_strict(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    return lambda t: _f_on_circle(rm, sd.rho, t).real - sd.f_rho + sd.M * t**2 / 2


def _super_g_quartic(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    def margin(t):
        g_diff = _f_on_circle(rm, sd.rho, t).real - sd.f_rho
        return abs(g_diff + sd.M * t**2 / 2) - _quartic_coefficient(sd.rho, mp.cos(t)) * t**4

    return margin


def _super_h_cubic(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    return lambda t: abs(_f_on_circle(rm, sd.rho, t).imag) - _cubic_coefficient(sd.rho, mp.cos(t)) * abs(t) ** 3


def _sub_f_cubic(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    alpha, f_alpha = sd.alpha, _f_on_circle(rm, sd.rho, sd.alpha)
    negdisc = rational_to_real(negated_discriminant(sd.r), sd.prec + GUARD_BITS)
    quadratic = mp.sqrt(negdisc) / 4 * mp.mpc(mp.cos(-sd.beta), mp.sin(-sd.beta))
    cubic = mpf("0.33846") * (rm + 1) ** 2 / rm**2

    def margin(t):
        u = t - alpha
        return abs(_f_on_circle(rm, sd.rho, t) - f_alpha + quadratic * u**2) - cubic * abs(u) ** 3

    return margin


def _sub_g_decay(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    alpha, f_alpha = sd.alpha, _f_on_circle(rm, sd.rho, sd.alpha)
    negdisc = rational_to_real(negated_discriminant(sd.r), sd.prec + GUARD_BITS)
    quadratic = -(rm + 1) * negdisc / (16 * rm)
    cubic = (rm + 1) / 4

    def margin(t):
        u = t - alpha
        return (_f_on_circle(rm, sd.rho, t).real - f_alpha.real) - (quadratic * u**2 + cubic * abs(u) ** 3)

    return margin


def _near1_f_cubic(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    alpha, f_alpha = sd.alpha, _f_on_circle(rm, sd.rho, sd.alpha)
    quadratic = (rm - 1) / 4

    def margin(t):
        u = t - alpha
        return abs(_f_on_circle(rm, sd.rho, t) - f_alpha + u**2 / 2) - (abs(u) ** 3 / 3 + quadratic * u**2)

    return margin


def _near1_g_decay(sd: SaddleData, rm: mpf) -> Callable[[mpf], mpf]:
    alpha, f_alpha = sd.alpha, _f_on_circle(rm, sd.rho, sd.alpha)

    def margin(t):
        u = t - alpha
        return (_f_on_circle(rm, sd.rho, t).real - f_alpha.real) + u**2 / 2 - abs(u) ** 3 / 2

    return margin


_SUPER_R_RANGE = (Fraction(584, 100), Fraction(12))
_SUB_R_RANGE = (Fraction(105, 100), Fraction(580, 100))

# The registry: lemma id -> (default ratio range, theta region of the
# hypothesis at (r, prec), margin factory).  A region function runs under
# workprec(prec + GUARD_BITS) and raises ValueError for an r outside the
# hypothesis.
_LEMMAS: dict[str, tuple[tuple[Fraction, Fraction], Callable, Callable]] = {
    "super-g-decay": (_SUPER_R_RANGE, _super_region, _super_g_decay),
    "super-g-strict": ((Fraction(584, 100), Fraction(76868, 10000)), _super_strict_region, _super_g_strict),
    "super-g-quartic": (_SUPER_R_RANGE, _super_region, _super_g_quartic),
    "super-h-cubic": (_SUPER_R_RANGE, _super_region, _super_h_cubic),
    "sub-f-cubic": (_SUB_R_RANGE, _sub_region, _sub_f_cubic),
    "sub-g-decay": (_SUB_R_RANGE, _sub_region, _sub_g_decay),
    "near1-f-cubic": ((Fraction(101, 100), Fraction(228, 100)), _near1_f_region, _near1_f_cubic),
    "near1-g-decay": ((Fraction(101, 100), Fraction(211, 100)), _near1_g_region, _near1_g_decay),
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
    _, region, margin_of = _lemma(lemma_id)
    n_r, n_theta = grid_size
    rs = [Fraction(r) for r in r_grid] if r_grid is not None else default_r_grid(lemma_id, n_r)
    worst = None
    points = 0
    for r in rs:
        lo, hi = _theta_region(region, r, prec)
        if theta_grid is None:
            thetas = _spread(lo, hi, n_theta, prec)
        else:
            thetas = [mpf(t) for t in theta_grid]
            for t in thetas:
                if t < lo - _REGION_TOL or t > hi + _REGION_TOL:
                    raise ValueError(
                        f"theta = {t} outside the hypothesis region [{lo}, {hi}] of {lemma_id} at r = {r}"
                    )
        sd = saddle_data(r, prec)
        with workprec(prec + GUARD_BITS):
            margin = margin_of(sd, rational_to_real(r, prec + GUARD_BITS))
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
