"""Numeric grid validators for the supporting inequalities of the error bounds.

Each validator evaluates g(theta) = Re f(rho*e^{i*theta}) and
h(theta) = Im f(rho*e^{i*theta}) directly from the definition of f and
asserts one proved inequality pointwise on an (r, theta) grid, reporting the
worst margin (left side minus right side; every margin should be <= 0 up to
the decision slack).  The validators check consequences only; the helper
functions used inside the proofs are not exported.

Registered inequalities (hypothesis region in brackets):

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
from typing import Sequence

from mpmath import mp, mpf, workprec

from .asymptotics import (
    Regime,
    SaddleData,
    classify,
    saddle_data,
    _cubic_coefficient,
    _quartic_coefficient,
)
from .numerics import DEFAULT_PRECISION, DEFAULT_SLACK_EXPONENT, GUARD_BITS, check_precision, rational_to_real, slack_value

LEMMA_IDS = (
    "super-g-decay",
    "super-g-strict",
    "super-g-quartic",
    "super-h-cubic",
    "sub-f-cubic",
    "sub-g-decay",
    "near1-f-cubic",
    "near1-g-decay",
)

_NEAR1_F_MAX_RATIO = Fraction(2282, 1000)
_NEAR1_G_MAX_RATIO = Fraction(211952, 100000)
_STRICT_DECAY_MAX_RATIO = Fraction(7686899, 1000000)

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


def _theta_region(lemma_id: str, r: Fraction, prec: int) -> tuple[mpf, mpf]:
    """The closed theta interval of the hypothesis for this lemma and r."""
    with workprec(prec + GUARD_BITS):
        if lemma_id == "super-g-strict":
            _require_supercritical(r)
            if r > _STRICT_DECAY_MAX_RATIO:
                raise ValueError(
                    f"inequality requires r <= {_STRICT_DECAY_MAX_RATIO}, got r = {r}"
                )
            return -mp.pi / 3, mp.pi / 3
        if lemma_id.startswith("super-"):
            _require_supercritical(r)
            return -mp.pi, mp.pi
        if lemma_id in ("sub-f-cubic", "sub-g-decay"):
            _require_subcritical(r)
            alpha = saddle_data(r, prec).alpha
            return alpha / 2, mp.pi - alpha / 2
        if lemma_id == "near1-f-cubic":
            if not 1 <= r <= _NEAR1_F_MAX_RATIO:
                raise ValueError(f"inequality requires 1 <= r <= {_NEAR1_F_MAX_RATIO}, got r = {r}")
            if r == 1:
                alpha = mp.pi / 2
                return alpha, alpha
            alpha = saddle_data(r, prec).alpha
            w = mp.sqrt(rational_to_real(r - 1, prec))
            return alpha - w, alpha + w
        if lemma_id == "near1-g-decay":
            if not 1 < r <= _NEAR1_G_MAX_RATIO:
                raise ValueError(f"inequality requires 1 < r <= {_NEAR1_G_MAX_RATIO}, got r = {r}")
            alpha = saddle_data(r, prec).alpha
            return alpha / 2, 3 * alpha / 2
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")


def _margin(lemma_id: str, sd: SaddleData, theta: mpf) -> mpf:
    """Left side minus right side of the inequality at one grid point."""
    r, prec = sd.r, sd.prec
    with workprec(prec + GUARD_BITS):
        rm = rational_to_real(r, prec + GUARD_BITS)
        rho = sd.rho
        if lemma_id.startswith("super-"):
            fv = _f_on_circle(rm, rho, theta)
            g_diff = fv.real - sd.f_rho
            if lemma_id == "super-g-decay":
                return g_diff + 2 / mp.pi**2 * sd.M * theta**2
            if lemma_id == "super-g-strict":
                return g_diff + sd.M * theta**2 / 2
            if lemma_id == "super-g-quartic":
                cg = _quartic_coefficient(rho, mp.cos(theta))
                return abs(g_diff + sd.M * theta**2 / 2) - cg * theta**4
            ch = _cubic_coefficient(rho, mp.cos(theta))
            return abs(fv.imag) - ch * abs(theta) ** 3
        alpha = sd.alpha
        f_alpha = _f_on_circle(rm, rho, alpha)
        fv = _f_on_circle(rm, rho, theta)
        u = theta - alpha
        if lemma_id == "sub-f-cubic":
            negdisc = rational_to_real(-r * r + 6 * r - 1, prec + GUARD_BITS)
            model = mp.sqrt(negdisc) / 4 * mp.mpc(mp.cos(-sd.beta), mp.sin(-sd.beta)) * u**2
            rhs = mpf("0.33846") * (rm + 1) ** 2 / rm**2 * abs(u) ** 3
            return abs(fv - f_alpha + model) - rhs
        if lemma_id == "sub-g-decay":
            negdisc = rational_to_real(-r * r + 6 * r - 1, prec + GUARD_BITS)
            rhs = -(rm + 1) * negdisc / (16 * rm) * u**2 + (rm + 1) / 4 * abs(u) ** 3
            return (fv.real - f_alpha.real) - rhs
        if lemma_id == "near1-f-cubic":
            rhs = abs(u) ** 3 / 3 + (rm - 1) / 4 * u**2
            return abs(fv - f_alpha + u**2 / 2) - rhs
        if lemma_id == "near1-g-decay":
            return (fv.real - f_alpha.real) + u**2 / 2 - abs(u) ** 3 / 2
        raise ValueError(f"unknown lemma id {lemma_id!r}")


_DEFAULT_R_RANGES: dict[str, tuple[Fraction, Fraction]] = {
    "super-g-decay": (Fraction(584, 100), Fraction(12)),
    "super-g-strict": (Fraction(584, 100), Fraction(76868, 10000)),
    "super-g-quartic": (Fraction(584, 100), Fraction(12)),
    "super-h-cubic": (Fraction(584, 100), Fraction(12)),
    "sub-f-cubic": (Fraction(105, 100), Fraction(580, 100)),
    "sub-g-decay": (Fraction(105, 100), Fraction(580, 100)),
    "near1-f-cubic": (Fraction(101, 100), Fraction(228, 100)),
    "near1-g-decay": (Fraction(101, 100), Fraction(211, 100)),
}


def default_r_grid(lemma_id: str, n_r: int) -> list[Fraction]:
    """n_r exact rationals spanning the lemma's default ratio range."""
    lo, hi = _DEFAULT_R_RANGES[lemma_id]
    if n_r == 1:
        return [lo]
    step = (hi - lo) / (n_r - 1)
    return [lo + i * step for i in range(n_r)]


def region_theta_grid(lemma_id: str, r: Fraction, n_theta: int, prec: int = DEFAULT_PRECISION) -> list[mpf]:
    """n_theta angles strictly inside the lemma's theta region for this r."""
    return _spread(*_theta_region(lemma_id, r, prec), n_theta, prec)


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
    slack_exponent: int = DEFAULT_SLACK_EXPONENT,
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
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    n_r, n_theta = grid_size
    rs = [Fraction(r) for r in r_grid] if r_grid is not None else default_r_grid(lemma_id, n_r)
    slack = slack_value(slack_exponent)
    worst = None
    points = 0
    for r in rs:
        lo, hi = _theta_region(lemma_id, r, prec)
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
        for t in thetas:
            m = _margin(lemma_id, sd, t)
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
        passed=bool(max_margin <= slack),
    )
