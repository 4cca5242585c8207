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

Regime classification is decided on the exact rational r (sign of
r**2 - 6r + 1); floating arithmetic enters only the constants.  Normalizers
of the form 2**((r+1)*lambda/2) overflow any fixed-exponent float, so all
scalings are combined in the log domain and exponentiated once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, workprec

from .exact import PartitionPair, evaluate
from .numerics import (
    DEFAULT_PRECISION,
    DEFAULT_SLACK_EXPONENT,
    GUARD_BITS,
    Comparison,
    certified_compare,
    check_precision,
    rational_to_real,
    slack_value,
)

# exact checkpoints used by the windowed bounds (decimal constants are exact
# rationals, so the regime/window tests below never round)
REFINED_BOUND_MAX_RATIO = Fraction(7686899, 1000000)
CUBIC_WINDOW_MAX_RATIO_SQUARED = Fraction(73)  # r <= (9 + sqrt(73))/4
NEAR_DIAGONAL_MIN_DIFFERENCE = 702

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


class Regime(enum.Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    DEGENERATE = "degenerate"


class RegimeError(ValueError):
    """Raised when an operation is applied outside its regime."""


def classify(r: Fraction) -> Regime:
    """Classify the exact rational ratio against the threshold 3 + 2*sqrt(2).

    The test is the sign of r**2 - 6r + 1 = (r - 3 - 2*sqrt(2))(r - 3 + 2*sqrt(2)),
    evaluated in exact rational arithmetic.  It is never zero: its roots
    3 +- 2*sqrt(2) are irrational, so a rational r is always on one side.
    """
    r = Fraction(r)
    if r <= 1:
        return Regime.DEGENERATE
    disc = r * r - 6 * r + 1
    if disc > 0:
        return Regime.SUPERCRITICAL
    return Regime.SUBCRITICAL


@dataclass(frozen=True)
class SaddleData:
    """All saddle-point constants for one ratio r, at a recorded precision.

    Supercritical fields: rho (real saddle), M = rho**2 f''(rho) > 0, f_rho.
    Subcritical fields: rho = 1/sqrt(r), the saddle angle alpha, the
    curvature phase beta, the main-term angles gamma1, gamma2 and the
    half phase gamma3 = beta/2, and g_alpha = (r+1)/2 * log(2), the real
    part of f at the saddle.  Fields of the other regime are None.
    """

    r: Fraction
    regime: Regime
    prec: int
    rho: mpf
    M: mpf | None = None
    f_rho: mpf | None = None
    alpha: mpf | None = None
    beta: mpf | None = None
    gamma1: mpf | None = None
    gamma2: mpf | None = None
    gamma3: mpf | None = None
    g_alpha: mpf | None = None


def _sqrt_fraction(q: Fraction) -> mpf:
    """sqrt of an exact nonnegative rational at the ambient precision."""
    return mp.sqrt(mpf(q.numerator) / mpf(q.denominator))


def gamma_angles(r: Fraction, prec: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """The oscillation angles gamma1 = arccos((3r-1)/(2*sqrt(2)*r)) and
    gamma2 = -arccos((r-3)/(2*sqrt(2))), defined for 1 <= r <= 3 + 2*sqrt(2).
    """
    check_precision(prec)
    r = Fraction(r)
    disc = r * r - 6 * r + 1
    if r < 1 or disc > 0:
        raise RegimeError(f"oscillation angles require 1 <= r <= 3 + 2*sqrt(2), got r = {r}")
    with workprec(prec + GUARD_BITS):
        sqrt2 = mp.sqrt(mpf(2))
        a1 = rational_to_real(3 * r - 1, prec + GUARD_BITS) / (2 * sqrt2 * rational_to_real(r, prec + GUARD_BITS))
        a2 = rational_to_real(r - 3, prec + GUARD_BITS) / (2 * sqrt2)
        # rounding can push an endpoint argument infinitesimally past 1
        a1 = min(max(a1, mpf(-1)), mpf(1))
        a2 = min(max(a2, mpf(-1)), mpf(1))
        return mp.acos(a1), -mp.acos(a2)


def saddle_data(r: Fraction, prec: int = DEFAULT_PRECISION) -> SaddleData:
    """Compute every saddle constant applicable to the regime of r (r > 1)."""
    check_precision(prec)
    r = Fraction(r)
    regime = classify(r)
    if regime is Regime.DEGENERATE:
        raise RegimeError(f"saddle data requires r > 1, got r = {r}")
    with workprec(prec + GUARD_BITS):
        rm = rational_to_real(r, prec + GUARD_BITS)
        if regime is Regime.SUPERCRITICAL:
            disc = r * r - 6 * r + 1
            rho = (rm - 1 - _sqrt_fraction(disc)) / (2 * rm)
            m_val = (1 - 2 * rho - rho**2) / ((1 + rho) * (1 - rho) ** 2)
            f_rho = rm * mp.log(1 + rho) + mp.log(1 - rho) - mp.log(rho)
            return SaddleData(r=r, regime=regime, prec=prec, rho=rho, M=m_val, f_rho=f_rho)
        rho = 1 / _sqrt_fraction(r)
        cos_alpha = rational_to_real(r - 1, prec + GUARD_BITS) / (2 * _sqrt_fraction(r))
        alpha = mp.acos(min(max(cos_alpha, mpf(-1)), mpf(1)))
        negdisc = -r * r + 6 * r - 1
        cos_beta = rational_to_real(r + 1, prec + GUARD_BITS) * _sqrt_fraction(negdisc) / (4 * rm)
        beta = mp.acos(min(max(cos_beta, mpf(-1)), mpf(1)))
        sin_beta = rational_to_real((r - 1) ** 2 / (4 * r), prec + GUARD_BITS)
        gamma3 = mp.asin(min(max(sin_beta, mpf(-1)), mpf(1))) / 2
        g1, g2 = gamma_angles(r, prec)
        g_alpha = rational_to_real(r + 1, prec + GUARD_BITS) / 2 * mp.log(mpf(2))
        return SaddleData(
            r=r,
            regime=regime,
            prec=prec,
            rho=rho,
            alpha=alpha,
            beta=beta,
            gamma1=g1,
            gamma2=g2,
            gamma3=gamma3,
            g_alpha=g_alpha,
        )


def critical_boundary_constants(prec: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """The boundary values rho = sqrt(2) - 1, M = 0 at r = 3 + 2*sqrt(2).

    Probe constants for continuity tests; the critical asymptotic itself is
    unsupported (the ratio of two integers never hits the threshold).
    """
    check_precision(prec)
    with workprec(prec + GUARD_BITS):
        return mp.sqrt(mpf(2)) - 1, mpf(0)


def supercritical_error_bound(r: Fraction, lam: int, prec: int = DEFAULT_PRECISION) -> mpf:
    """The explicit bound Phi1(r, lam) on |sqrt(2*pi*lam*M) * I / exp(lam*f(rho)) - 1|:

        3*(3+2*sqrt(2))*pi**5 / (256*lam*M**2)
      + 5*(3+2*sqrt(2)) / (24*lam*M**3)
      + sqrt(2)*exp(-lam*M*pi**2/2) / (pi**(3/2)*sqrt(lam*M))

    Decreasing in both r and lam.
    """
    check_precision(prec)
    r = Fraction(r)
    if classify(r) is not Regime.SUPERCRITICAL:
        raise RegimeError(f"bound requires r > 3 + 2*sqrt(2), got r = {r}")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        m_val = sd.M
        lamf = mpf(lam)
        crit = 3 + 2 * mp.sqrt(mpf(2))
        t1 = 3 * crit * mp.pi**5 / (256 * lamf * m_val**2)
        t2 = 5 * crit / (24 * lamf * m_val**3)
        t3 = mp.sqrt(mpf(2)) * mp.exp(-lamf * m_val * mp.pi**2 / 2) / (mp.pi ** mpf("1.5") * mp.sqrt(lamf * m_val))
        return t1 + t2 + t3


def _quartic_coefficient(rho: mpf, c: mpf) -> mpf:
    """C_g(r, c): |g(theta) - g(0) + M*theta**2/2| <= C_g * theta**4 for cos(theta) >= c."""
    first = (1 - 2 * rho - rho**2) / (24 * (1 + rho) * (1 - rho) ** 2)
    second = (rho**4 + 6 * rho**3 + 2 * rho**2 + 4 * rho - 1) / (24 * (1 + rho) * (1 - rho) ** 4) + rho / (
        4 * (1 - rho**2) * (1 + rho**2 + 2 * rho * c)
    )
    return max(first, second)


def _cubic_coefficient(rho: mpf, c: mpf) -> mpf:
    """C_h(r, c): |h(theta)| <= C_h * |theta|**3 for cos(theta) >= c."""
    f1 = (1 + rho**2) * (rho**2 + 4 * rho - 1) / (6 * (1 - rho) ** 3 * (1 + rho) ** 2)
    f2 = (1 + rho**2) * (1 - 2 * rho * (1 + c) - rho**2) / (6 * (1 - rho) * ((1 + rho**2) ** 2 - 4 * rho**2 * c**2))
    return max(f1, f2, mpf(0))


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
    check_precision(prec)
    r = Fraction(r)
    if classify(r) is not Regime.SUPERCRITICAL:
        raise RegimeError(f"bound requires r > 3 + 2*sqrt(2), got r = {r}")
    if r > REFINED_BOUND_MAX_RATIO:
        raise ValueError(f"refined bound requires r <= {REFINED_BOUND_MAX_RATIO}, got {r}")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        d = mpf(delta)
        if not 0 < d <= mp.pi / 3 * (1 + mpf(2) ** -40):
            raise ValueError(f"delta must lie in (0, pi/3], got {delta}")
        m_val = sd.M
        lamf = mpf(lam)
        c = mp.cos(d)
        cg = _quartic_coefficient(sd.rho, c)
        ch = _cubic_coefficient(sd.rho, c)
        t1 = 3 * cg / (lamf * m_val**2)
        t2 = 15 * ch**2 / (2 * lamf * m_val**3)
        tail = (mp.sqrt(mpf(2)) / (d * mp.sqrt(mp.pi * lamf * m_val)) + (1 - d / mp.pi) * mp.sqrt(2 * mp.pi * lamf * m_val)) * mp.exp(
            -lamf * m_val * d**2 / 2
        )
        return t1 + t2 + tail


def oscillatory_error_bound(
    r: Fraction, lam: int, prec: int = DEFAULT_PRECISION
) -> tuple[mpf, mpf]:
    """The subcritical bound 16336 / (sqrt(lam) * (-r**2+6r-1)**(11/4)) and
    the smallest lam at which it is proved:

        lam >= 512 * r**(3/2) / ((r+1) * (-r**2+6r-1)**(3/2)).

    Returns (bound, validity_threshold); the bound value is meaningful only
    at or above the threshold.
    """
    check_precision(prec)
    r = Fraction(r)
    if classify(r) is not Regime.SUBCRITICAL:
        raise RegimeError(f"bound requires 1 < r < 3 + 2*sqrt(2), got r = {r}")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    negdisc = -r * r + 6 * r - 1
    with workprec(prec + GUARD_BITS):
        nd = rational_to_real(negdisc, prec + GUARD_BITS)
        rm = rational_to_real(r, prec + GUARD_BITS)
        bound = OSCILLATORY_BOUND_CONSTANT / (mp.sqrt(mpf(lam)) * nd ** (mpf(11) / 4))
        threshold = 512 * rm ** mpf("1.5") / ((rm + 1) * nd ** mpf("1.5"))
        return bound, threshold


@dataclass(frozen=True)
class NearDiagonalBound:
    """Outcome of the windowed near-diagonal bound for one pair."""

    value: mpf | None
    valid: bool
    detail: str


def near_diagonal_error_bound(
    pair: PartitionPair,
    prec: int = DEFAULT_PRECISION,
    slack_exponent: int = DEFAULT_SLACK_EXPONENT,
) -> NearDiagonalBound:
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
    if classify(pair.ratio) is not Regime.SUBCRITICAL:
        raise RegimeError(f"near-diagonal bound requires a subcritical ratio, got r = {pair.ratio}")
    slack = slack_value(slack_exponent)
    with workprec(prec + GUARD_BITS):
        dm = mpf(d)
        candidates: list[tuple[mpf, str]] = []
        sqrt_l2 = mp.sqrt(mpf(l2))
        edge = mp.sqrt(8 * mp.pi * mpf(l2))
        if certified_compare(dm, edge, slack) is Comparison.CERTIFIED_LESS:
            candidates.append((mpf(NEAR_DIAGONAL_FLAT), "flat"))
        if certified_compare(mp.log(mpf(l2)), dm, slack) is Comparison.CERTIFIED_LESS:
            for k, row in enumerate(NEAR_DIAGONAL_ROWS, start=1):
                hi = mp.sqrt(k * mp.pi * mpf(l2))
                lo = mp.log(mpf(l2)) if k == 1 else mp.sqrt((k - 1) * mp.pi * mpf(l2))
                if (
                    certified_compare(dm, hi, slack) is Comparison.CERTIFIED_LESS
                    and certified_compare(dm, lo, slack) is Comparison.CERTIFIED_GREATER
                ):
                    candidates.append((mpf(row) / sqrt_l2, f"row{k}"))
        if not candidates:
            return NearDiagonalBound(None, False, "difference outside every proved window")
        value, detail = min(candidates, key=lambda t: t[0])
        return NearDiagonalBound(value, True, detail)


def oscillation_cosine(
    pair: PartitionPair, prec: int = DEFAULT_PRECISION, half_phase: bool = True
) -> tuple[mpf, mpf]:
    """cos(l1*gamma1 + l2*gamma2 [+ gamma3]) with the angle reduced mod 2*pi.

    The working precision is raised with the bit length of the pair so that
    the reduced angle carries an absolute error below 2**-64: the raw angle
    grows linearly in lambda and the cancellation in the reduction is the
    dominant hazard.  Returns (cosine, reduced_angle).
    """
    p_eff = max(prec, 96 + pair.lambda1.bit_length() + 32)
    with workprec(p_eff + GUARD_BITS):
        if half_phase:
            sd = saddle_data(pair.ratio, p_eff)
            if sd.regime is not Regime.SUBCRITICAL:
                raise RegimeError(f"oscillation angles require 1 <= r <= 3 + 2*sqrt(2), got r = {pair.ratio}")
            angle = pair.lambda1 * sd.gamma1 + pair.lambda2 * sd.gamma2 + sd.gamma3
        else:
            g1, g2 = gamma_angles(pair.ratio, p_eff)
            angle = pair.lambda1 * g1 + pair.lambda2 * g2
        two_pi = 2 * mp.pi
        angle -= two_pi * mp.floor(angle / two_pi + mpf("0.5"))
        return mp.cos(angle), angle


@dataclass(frozen=True)
class Prediction:
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


def predict(
    pair: PartitionPair,
    prec: int = DEFAULT_PRECISION,
    slack_exponent: int = DEFAULT_SLACK_EXPONENT,
) -> Prediction:
    """Select the applicable regime bound and assemble the prediction.

    In the subcritical regime the near-diagonal bound is used instead of the
    general oscillatory one when its window applies and it is sharper.
    """
    check_precision(prec)
    if pair.lambda2 < 1:
        raise ValueError("prediction requires lambda2 >= 1")
    r = pair.ratio
    regime = classify(r)
    if regime is Regime.DEGENERATE:
        raise RegimeError(f"prediction requires r > 1, got r = {r}")
    lam = pair.lambda2
    slack = slack_value(slack_exponent)
    if regime is Regime.SUPERCRITICAL:
        sd = saddle_data(r, prec)
        bound = supercritical_error_bound(r, lam, prec)
        with workprec(prec + GUARD_BITS):
            log_norm = mp.log(2 * mp.pi * lam * sd.M) / 2 - lam * sd.f_rho
            return Prediction(
                pair=pair,
                regime=regime,
                normalized_main=mpf(1),
                error_bound=bound,
                valid=True,
                normalizer="sqrt(2*pi*lam*M) / exp(lam*f(rho))",
                log_normalizer=log_norm,
            )
    bound, threshold = oscillatory_error_bound(r, lam, prec)
    osc_valid = certified_compare(mpf(lam), threshold, slack) is Comparison.CERTIFIED_GREATER
    near = None
    if pair.difference >= NEAR_DIAGONAL_MIN_DIFFERENCE:
        near = near_diagonal_error_bound(pair, prec, slack_exponent)
    use_near = near is not None and near.valid and (not osc_valid or near.value < bound)
    negdisc = -r * r + 6 * r - 1
    with workprec(prec + GUARD_BITS):
        if use_near:
            main, _ = oscillation_cosine(pair, prec, half_phase=False)
            log_norm = mp.log(mp.pi * lam) / 2 - mpf(pair.lambda1 + pair.lambda2 + 1) / 2 * mp.log(mpf(2))
            return Prediction(
                pair=pair,
                regime=regime,
                normalized_main=main,
                error_bound=near.value,
                valid=True,
                normalizer="sqrt(pi*lam2) / 2**((lam1+lam2+1)/2)",
                log_normalizer=log_norm,
                detail=f"near-diagonal {near.detail}",
            )
        main, _ = oscillation_cosine(pair, prec, half_phase=True)
        nd = rational_to_real(negdisc, prec + GUARD_BITS)
        log_norm = mp.log(nd) / 4 + mp.log(mp.pi * lam) / 2 - (1 + mpf(pair.lambda1 + pair.lambda2) / 2) * mp.log(mpf(2))
        return Prediction(
            pair=pair,
            regime=regime,
            normalized_main=main,
            error_bound=bound,
            valid=osc_valid,
            normalizer="(6r-1-r**2)**(1/4) * sqrt(pi*lam) / 2**(1+(r+1)*lam/2)",
            log_normalizer=log_norm,
            threshold=threshold,
        )


def scaled_exact_value(pair: PartitionPair, prediction: Prediction, prec: int = DEFAULT_PRECISION) -> mpf:
    """exp(log_normalizer) * I computed in the log domain (sign carried exactly)."""
    value = evaluate(pair).value
    if pair.lambda2 % 2:
        value = -value
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


def cos_lower_bound(
    pair: PartitionPair,
    prec: int = DEFAULT_PRECISION,
    slack_exponent: int = DEFAULT_SLACK_EXPONENT,
) -> tuple[mpf | None, bool]:
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
    d = pair.difference
    q = Fraction(d * d, 4 * pair.lambda2)
    slack = slack_value(slack_exponent)
    with workprec(prec + GUARD_BITS):
        qm = rational_to_real(q, prec + GUARD_BITS)
        three_minus_r = rational_to_real(3 - r, prec + GUARD_BITS)
        halfshrink = three_minus_r / 2  # the eta window is [-q, -(3-r)/2 * q]
        pi_v = mp.pi

        def leq(x, y) -> bool:
            return certified_compare(x, y, slack) is Comparison.CERTIFIED_LESS

        cls = pair.congruence_class
        if cls == 0:
            if leq(qm, pi_v / 2):
                return mp.cos(qm), True
            if r != 3 and leq(pi_v / three_minus_r, qm) and leq(qm, 3 * pi_v / 2):
                return min(mp.cos(pi_v - qm), mp.cos(pi_v - halfshrink * qm)), True
            return None, False
        if cls == 1:
            if leq(qm, 3 * pi_v / 4):
                return min(1 / mp.sqrt(mpf(2)), mp.cos(pi_v / 4 - qm)), True
            if r != 3 and leq(3 * pi_v / (2 * three_minus_r), qm) and leq(qm, 7 * pi_v / 4):
                return min(mp.cos(5 * pi_v / 4 - qm), mp.cos(5 * pi_v / 4 - halfshrink * qm)), True
            return None, False
        if cls == 2:
            if leq(qm, pi_v):
                return min(mp.cos(pi_v / 2 - qm), mp.cos(pi_v / 2 - halfshrink * qm)), True
            if r != 3 and leq(2 * pi_v / three_minus_r, qm) and leq(qm, 2 * pi_v):
                return min(mp.cos(3 * pi_v / 2 - qm), mp.cos(3 * pi_v / 2 - halfshrink * qm)), True
            return None, False
        if leq(qm, pi_v / 4):
            return mp.cos(pi_v / 4 + qm), True
        if r != 3 and leq(pi_v / (2 * three_minus_r), qm) and leq(qm, 5 * pi_v / 4):
            return min(mp.cos(3 * pi_v / 4 - qm), mp.cos(3 * pi_v / 4 - halfshrink * qm)), True
        return None, False
