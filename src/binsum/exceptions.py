"""The diagnostics of `binsum exceptions`: the paper's main-term bound on how
many lambda along a ratio line r could make S vanish, and the continued
fraction, with error-aware truncation, of the phase rate r*gamma1 + gamma2
of the oscillating main term.

Only the `exceptions` command loads this module, so the certification
cascade and the scans start up without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf, workprec

from .asymptotics import SADDLE_REGIMES, Regime, classify, gamma_angles, negated_discriminant, require_regime
from .numerics import DEFAULT_PRECISION, GUARD_BITS, SLACK, Comparison, certified_compare, check_precision


class CFExpansion(NamedTuple):
    """Partial quotients and convergents of a real number.

    `truncated` is set when the expansion stopped because the next floor was
    not certified at the working precision (the remaining fractional part
    was within the tracked error of an integer); the final quotient emitted
    in that case is the nearest integer.
    """

    target: mpf
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    truncated: bool

    def legendre_quality(self, prec: int = DEFAULT_PRECISION) -> bool:
        """True when every convergent satisfies |target - p/q| < 1/q**2.

        Checked at the working precision with the decision slack; convergents
        of a genuine expansion always satisfy it (the last one of a truncated
        expansion may sit within slack of equality and still count).
        """
        with workprec(prec + GUARD_BITS):
            for p, q in self.convergents:
                gap = abs(self.target - mpf(p) / q) - 1 / (mpf(q) * q)
                if certified_compare(gap, 0, SLACK) is Comparison.CERTIFIED_GREATER:
                    return False
        return True


def continued_fraction(x, depth: int, prec: int = DEFAULT_PRECISION) -> CFExpansion:
    """Partial-quotient expansion of x with pessimistic error tracking.

    The absolute error of the current remainder is propagated through each
    inversion (err -> err / frac**2, inflated by a small factor, plus the
    new rounding ulp); the expansion truncates as soon as a floor becomes
    uncertain against that budget.
    """
    check_precision(prec)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    with workprec(prec + GUARD_BITS):
        cur = mpf(x)
        err = (abs(cur) + 1) * mpf(2) ** (2 - prec)
        quotients: list[int] = []
        truncated = False
        for _ in range(depth):
            a = int(mp.floor(cur))
            frac = cur - a
            if frac < err or frac > 1 - err:
                quotients.append(int(mp.nint(cur)))
                truncated = True
                break
            quotients.append(a)
            cur = 1 / frac
            err = err / (frac * frac) * (1 + mpf(2) ** -20) + abs(cur) * mpf(2) ** (1 - prec - GUARD_BITS)
        target = mpf(x)
    # h_n = a_n*h_(n-1) + h_(n-2) from (h_(-1), h_(-2)) = (1, 0), and k_n
    # alike from (0, 1)
    convergents, h, h_prev, k, k_prev = [], 1, 0, 0, 1
    for a in quotients:
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        convergents.append((h, k))
    return CFExpansion(target, tuple(quotients), tuple(convergents), truncated)


class ExceptionCount(NamedTuple):
    """Upper-bound data for how many lambda along a ratio line could vanish.

    Supercritical ratios admit at most a bounded count (kind
    "bounded-count", no explicit constant available).  Subcritical ratios
    admit at most coefficient * sqrt(x) * log(x) possible exceptions up to
    x, plus a remainder of order sqrt(x) whose constant is not quantified;
    `remainder_unquantified` records that honestly.
    """

    kind: str
    coefficient: mpf | None
    value: mpf | None
    remainder_unquantified: bool


EXCEPTION_COUNT_CONSTANT = 102644


def exception_count_bound(r: Fraction, x, prec: int = DEFAULT_PRECISION) -> ExceptionCount:
    """Main-term bound 102644/((6r-1-r**2)**(11/4) * log(golden)) * sqrt(x)*log(x).

    For supercritical r the count is bounded by a constant depending only on
    r and a flag result is returned instead.  Every ratio needs a finite x >= 1.
    """
    regime = require_regime(r, SADDLE_REGIMES, "exception counting requires r > 1", prec)
    r = Fraction(r)
    with workprec(prec + GUARD_BITS):
        xv = mpf(x)
        if not (mp.isfinite(xv) and xv >= 1):
            raise ValueError(f"x must be finite and >= 1, got {x}")
        if regime is Regime.SUPERCRITICAL:
            return ExceptionCount("bounded-count", None, None, remainder_unquantified=True)
        negdisc = negated_discriminant(r)
        nd = mpf(negdisc.numerator) / mpf(negdisc.denominator)
        golden = (1 + mp.sqrt(mpf(5))) / 2
        coefficient = EXCEPTION_COUNT_CONSTANT / (nd ** (mpf(11) / 4) * mp.log(golden))
        value = coefficient * mp.sqrt(xv) * mp.log(xv)
        return ExceptionCount("main-term", coefficient, value, remainder_unquantified=True)


def exception_report(r: Fraction, x: float, depth: int, prec: int) -> dict:
    """The `exceptions` payload of ratio r up to x: the count bound of
    `exception_count_bound`, and for a subcritical r the angle
    (gamma1*a + gamma2*b)/b of r = a/b with its continued fraction to
    `depth` quotients, the coefficient and main term as mpfs or None.  The
    bound comes first, so a bad x or ratio fails before any angle work."""
    count = exception_count_bound(r, x, prec)
    payload = {
        "ratio": str(r),
        "x": x,
        "kind": count.kind,
        "coefficient": count.coefficient,
        "main_term": count.value,
        "remainder": "unquantified",
    }
    if classify(r) is Regime.SUBCRITICAL:
        g1, g2 = gamma_angles(r, prec)
        with workprec(prec + GUARD_BITS):
            angle = (g1 * r.numerator + g2 * r.denominator) / r.denominator
        cf = continued_fraction(angle, depth, prec)
        payload["angle"] = float(angle)
        payload["cf_quotients"] = list(cf.partial_quotients)
        payload["cf_convergents"] = [[str(p), str(q)] for p, q in cf.convergents]
        payload["cf_truncated"] = cf.truncated
        payload["legendre_quality"] = bool(cf.legendre_quality(prec))
    return payload
