"""Nonvanishing certificates for single pairs and ranges.

`certify` runs a cascade of sound checks, cheapest first:

  1. exact evaluation, when the estimated cost fits the budget (definitive);
  2. the term-growth criterion: for l1 > l2*(l2+1) - 1 the alternating
     summands grow strictly in absolute value, so the sum cannot vanish;
  3. supercritical: the explicit error bound certified below 1 forces the
     scaled integral to stay near 1, hence nonzero;
  4. subcritical: |cos((r*gamma1+gamma2)*lam + gamma3)| certified above the
     explicit oscillatory bound;
  5. certified difference windows (table of proved lambda1 intervals per
     congruence class), applied only where the window machinery is actually
     proved, i.e. lambda1 - lambda2 >= 702;
  6. near the diagonal: the congruence-class cosine lower bound certified
     above the windowed near-diagonal bound.

Inconclusive is an honest outcome and is never retried with looser slack:
pairs where the cosine is certifiably small are exactly the possible
exceptions the theory allows, and they must surface in reports.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from mpmath import mp, mpf, workprec

from .asymptotics import (
    NEAR_DIAGONAL_MIN_DIFFERENCE,
    Regime,
    RegimeError,
    classify,
    cos_lower_bound,
    near_diagonal_error_bound,
    oscillation_cosine,
    oscillatory_error_bound,
    supercritical_error_bound,
    supercritical_error_bound_refined,
    REFINED_BOUND_MAX_RATIO,
)
from .exact import PartitionPair, evaluate, evaluation_cost
from .numerics import (
    DEFAULT_PRECISION,
    DEFAULT_SLACK_EXPONENT,
    GUARD_BITS,
    Comparison,
    certified_compare,
    check_precision,
    slack_value,
)

# cost units are 64-bit word multiplications; this is roughly one second of
# single-core big-integer work
DEFAULT_BUDGET = 10**8


class CertificateKind(str, Enum):
    NONZERO_EXACT = "nonzero_exact"
    NONZERO_TERM_GROWTH = "nonzero_term_growth"
    NONZERO_SUPERCRITICAL = "nonzero_supercritical"
    NONZERO_OSCILLATORY = "nonzero_oscillatory"
    NONZERO_INTERVAL = "nonzero_interval"
    ZERO_EXACT = "zero_exact"
    INCONCLUSIVE = "inconclusive"
    REFUSED = "refused"


NONZERO_KINDS = frozenset(
    {
        CertificateKind.NONZERO_EXACT,
        CertificateKind.NONZERO_TERM_GROWTH,
        CertificateKind.NONZERO_SUPERCRITICAL,
        CertificateKind.NONZERO_OSCILLATORY,
        CertificateKind.NONZERO_INTERVAL,
    }
)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the cascade for one pair.

    Every nonzero kind is sound: it implies S(l1, l2) != 0 under hypotheses
    that were all checked, with margins strictly positive after slack
    inflation.  `rule` names the certifying criterion for audit output.
    """

    pair: PartitionPair
    kind: CertificateKind
    rule: str
    margin: float | None = None
    exact_sign: int | None = None
    bit_length: int | None = None
    clause: str | None = None
    reason: str | None = None

    @property
    def nonzero(self) -> bool:
        return self.kind in NONZERO_KINDS


def certify_by_term_growth(pair: PartitionPair) -> bool:
    """True iff l1 > l2*(l2+1) - 1 (exact integers), which forces a nonzero sum.

    Beyond that threshold the alternating summands increase strictly in
    absolute value, so the partial sums can never return to zero.
    """
    l1, l2 = pair.lambda1, pair.lambda2
    return l2 >= 1 and l1 > l2 and l1 > l2 * (l2 + 1) - 1


def _exact_step(pair: PartitionPair, budget: int) -> Certificate | None:
    if evaluation_cost(pair) > budget:
        return None
    value = evaluate(pair).value
    if value == 0:
        return Certificate(pair, CertificateKind.ZERO_EXACT, "exact evaluation", exact_sign=0)
    return Certificate(
        pair,
        CertificateKind.NONZERO_EXACT,
        "exact evaluation",
        exact_sign=1 if value > 0 else -1,
        bit_length=abs(value).bit_length(),
    )


def _supercritical_step(pair, prec, slack, delta) -> Certificate | None:
    r = pair.ratio
    lam = pair.lambda2
    bound = supercritical_error_bound(r, lam, prec)
    rule = "supercritical saddle bound"
    if certified_compare(bound, 1, slack) is not Comparison.CERTIFIED_LESS:
        if delta is None or r > REFINED_BOUND_MAX_RATIO:
            return None
        bound = supercritical_error_bound_refined(r, lam, delta, prec)
        rule = "refined supercritical saddle bound"
        if certified_compare(bound, 1, slack) is not Comparison.CERTIFIED_LESS:
            return None
    return Certificate(pair, CertificateKind.NONZERO_SUPERCRITICAL, rule, margin=float(1 - bound))


def _oscillatory_step(pair, prec, slack) -> Certificate | None:
    bound, threshold = oscillatory_error_bound(pair.ratio, pair.lambda2, prec)
    if certified_compare(mpf(pair.lambda2), threshold, slack) is not Comparison.CERTIFIED_GREATER:
        return None
    cosv, _ = oscillation_cosine(pair, prec, half_phase=True)
    if certified_compare(abs(cosv), bound, slack) is not Comparison.CERTIFIED_GREATER:
        return None
    return Certificate(
        pair,
        CertificateKind.NONZERO_OSCILLATORY,
        "oscillatory main-term bound",
        margin=float(abs(cosv) - bound),
    )


def _window_step(pair, prec) -> Certificate | None:
    if pair.difference < NEAR_DIAGONAL_MIN_DIFFERENCE:
        return None
    for win in difference_windows(pair.lambda2, prec):
        if (
            win.basis == "window-table"
            and win.residue_class == pair.congruence_class
            and win.lo <= pair.lambda1 <= win.hi
        ):
            return Certificate(
                pair,
                CertificateKind.NONZERO_INTERVAL,
                "certified difference window",
                clause=win.clause,
            )
    return None


def _near_diagonal_step(pair, prec, slack_exponent) -> Certificate | None:
    if pair.difference < NEAR_DIAGONAL_MIN_DIFFERENCE or pair.ratio > 3:
        return None
    bound = near_diagonal_error_bound(pair, prec, slack_exponent)
    if not bound.valid:
        return None
    lower, applicable = cos_lower_bound(pair, prec, slack_exponent)
    if not applicable:
        return None
    slack = slack_value(slack_exponent)
    if certified_compare(lower, bound.value, slack) is not Comparison.CERTIFIED_GREATER:
        return None
    return Certificate(
        pair,
        CertificateKind.NONZERO_OSCILLATORY,
        "near-diagonal window bound",
        margin=float(lower - bound.value),
    )


def certify(
    pair: PartitionPair,
    budget: int = DEFAULT_BUDGET,
    prec: int = DEFAULT_PRECISION,
    slack_exponent: int = DEFAULT_SLACK_EXPONENT,
    delta=None,
) -> Certificate:
    """Run the certification cascade on one pair.

    Pairs with lambda1 <= lambda2 or lambda2 = 0 are refused: the diagonal
    genuinely vanishes for odd lambda, so no nonvanishing claim is possible
    there.  An optional `delta` in (0, pi/3] enables the refined
    supercritical bound when the ratio allows it.
    """
    check_precision(prec)
    if pair.lambda2 == 0:
        return Certificate(pair, CertificateKind.REFUSED, "input check", reason="lambda2 = 0 row excluded")
    if pair.lambda1 <= pair.lambda2:
        return Certificate(pair, CertificateKind.REFUSED, "input check", reason="diagonal pair excluded")
    cert = _exact_step(pair, budget)
    if cert is not None:
        return cert
    if certify_by_term_growth(pair):
        return Certificate(pair, CertificateKind.NONZERO_TERM_GROWTH, "ascending alternating terms")
    slack = slack_value(slack_exponent)
    regime = classify(pair.ratio)
    if regime is Regime.SUPERCRITICAL:
        cert = _supercritical_step(pair, prec, slack, delta)
        if cert is not None:
            return cert
    elif regime is Regime.SUBCRITICAL:
        cert = _oscillatory_step(pair, prec, slack)
        if cert is not None:
            return cert
        cert = _window_step(pair, prec)
        if cert is not None:
            return cert
        cert = _near_diagonal_step(pair, prec, slack_exponent)
        if cert is not None:
            return cert
    return Certificate(
        pair,
        CertificateKind.INCONCLUSIVE,
        "cascade exhausted",
        reason="no certified bound applies at this size",
    )


# --------------------------------------------------------------------------
# certified difference windows (lambda1 intervals per congruence class)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceWindow:
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


def _int_above(x: mpf, slack: mpf) -> int:
    """Smallest integer certifiedly > x (inward rounding of a lower endpoint)."""
    return int(mp.floor(x + slack)) + 1


def _int_below(x: mpf, slack: mpf) -> int:
    """Largest integer certifiedly < x (inward rounding of an upper endpoint)."""
    return int(mp.ceil(x - slack)) - 1


def difference_windows(lambda2: int, prec: int = DEFAULT_PRECISION) -> list[DifferenceWindow]:
    """The certified lambda1 windows for one lambda2, per congruence class.

    Endpoints are computed at the working precision and rounded inward so
    every emitted integer lies strictly inside the real window (the one
    exact-integer endpoint, the 702 floor of the class-2 clause, is kept
    inclusively).  Windows are split at difference 702: the part below is
    emitted with basis "small-difference", the rest with "window-table".
    """
    check_precision(prec)
    if lambda2 < 1:
        raise ValueError("lambda2 must be >= 1")
    out: list[DifferenceWindow] = []
    slack = slack_value()
    with workprec(prec + GUARD_BITS):
        l2 = mpf(lambda2)

        def s(k: int) -> mpf:
            return mp.sqrt(k * mp.pi * l2)

        quarter_root = mpf("2.0582") * l2 ** mpf("0.25")
        if certified_compare(quarter_root, 702, slack) is Comparison.CERTIFIED_LESS:
            class2_lo = 702
        elif certified_compare(quarter_root, 702, slack) is Comparison.CERTIFIED_GREATER:
            class2_lo = _int_above(quarter_root, slack)
        else:
            class2_lo = 703
        # (class, clause, lo_difference, hi_difference) with real-valued ends
        clauses = [
            (0, "class0-a", 1, _int_below(s(2) - mpf("1.0443"), slack)),
            (0, "class0-b", _int_above(s(2) + mpf("3.1407"), slack), _int_below(s(6) - mpf("0.9275"), slack)),
            (1, "class1-a", 1, _int_below(s(3) - mpf("0.984"), slack)),
            (1, "class1-b", _int_above(s(3) + mpf("3.8433"), slack), _int_below(s(7) - mpf("0.9231"), slack)),
            (2, "class2-a", class2_lo, _int_below(s(2) - mpf("0.9535"), slack)),
            (2, "class2-b", _int_above(2 * s(1) + mpf("4.5938"), slack), _int_below(2 * s(2) - mpf("0.9218"), slack)),
            (3, "class3-a", 1, _int_below(s(1) - mpf("1.1958"), slack)),
            (3, "class3-b", _int_above(s(1) + mpf("2.5913"), slack), _int_below(s(5) - mpf("0.9367"), slack)),
        ]
    for cls, clause, d_lo, d_hi in clauses:
        if d_hi < d_lo:
            continue
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


# --------------------------------------------------------------------------
# range scans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRule:
    """lambda1 = ratio * lambda2, emitted only when the product is integral."""

    ratio: Fraction

    def lambda1_values(self, lambda2: int) -> list[int]:
        v = self.ratio * lambda2
        return [int(v)] if v.denominator == 1 and v > lambda2 else []


@dataclass(frozen=True)
class DiffRule:
    diff: int

    def lambda1_values(self, lambda2: int) -> list[int]:
        return [lambda2 + self.diff] if self.diff >= 1 else []


@dataclass(frozen=True)
class ListRule:
    values: tuple[int, ...]

    def lambda1_values(self, lambda2: int) -> list[int]:
        return [v for v in self.values if v > lambda2]


@dataclass(frozen=True)
class AllUpToRule:
    max_lambda1: int

    def lambda1_values(self, lambda2: int) -> list[int]:
        return list(range(lambda2 + 1, self.max_lambda1 + 1))


@dataclass(frozen=True)
class ScanEntry:
    pair: PartitionPair
    certificate: Certificate
    usec: int


@dataclass(frozen=True)
class ScanReport:
    """Per-pair certificates in deterministic (lambda2, lambda1) order."""

    entries: tuple[ScanEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.certificate.kind.value] = out.get(e.certificate.kind.value, 0) + 1
        return out

    @property
    def inconclusive_pairs(self) -> list[PartitionPair]:
        return [e.pair for e in self.entries if e.certificate.kind is CertificateKind.INCONCLUSIVE]

    @property
    def zero_pairs(self) -> list[PartitionPair]:
        return [e.pair for e in self.entries if e.certificate.kind is CertificateKind.ZERO_EXACT]

    def jsonl_lines(self) -> Iterable[str]:
        for e in self.entries:
            yield _entry_json(e)

    def csv_lines(self) -> Iterable[str]:
        yield "lambda1,lambda2,class,certificate,margin,exact_sign,usec"
        for e in self.entries:
            c = e.certificate
            yield (
                f"{e.pair.lambda1},{e.pair.lambda2},{e.pair.congruence_class},"
                f"{c.kind.value},{format_float(c.margin)},"
                f"{'' if c.exact_sign is None else c.exact_sign},{e.usec}"
            )


def format_float(x: float | None) -> str:
    """17-significant-digit decimal, empty for missing values (CSV cell)."""
    return "" if x is None else format(x, ".17g")


def _entry_json(e: ScanEntry) -> str:
    c = e.certificate
    margin = "null" if c.margin is None else format(c.margin, ".17g")
    sign = "null" if c.exact_sign is None else str(c.exact_sign)
    return (
        f'{{"lambda1":{e.pair.lambda1},"lambda2":{e.pair.lambda2},'
        f'"class":{e.pair.congruence_class},"certificate":"{c.kind.value}",'
        f'"margin":{margin},"exact_sign":{sign},"usec":{e.usec}}}'
    )


def _scan_one(args: tuple) -> ScanEntry:
    l1, l2, budget, prec, slack_exponent, timed = args
    start = time.perf_counter() if timed else 0.0
    pair = PartitionPair(l1, l2)
    cert = certify(pair, budget=budget, prec=prec, slack_exponent=slack_exponent)
    usec = int((time.perf_counter() - start) * 1e6) if timed else 0
    return ScanEntry(pair, cert, usec)


def scan_range(
    lambda2_range: tuple[int, int],
    rule,
    budget: int = DEFAULT_BUDGET,
    prec: int = DEFAULT_PRECISION,
    slack_exponent: int = DEFAULT_SLACK_EXPONENT,
    parallelism: int = 1,
    timings: bool = False,
) -> ScanReport:
    """Certify every pair generated by `rule` over an inclusive lambda2 range.

    Tasks are generated in (lambda2, lambda1) order and both `map` and the
    pool's `map` keep input order, so reports are byte-identical across
    parallelism settings (per-pair timing is recorded only when `timings`
    is set, since wall clock readings are not reproducible).
    """
    lo, hi = lambda2_range
    if hi < lo or lo < 1:
        raise ValueError(f"empty or invalid lambda2 range {lambda2_range}")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    tasks = [
        (l1, l2, budget, prec, slack_exponent, timings)
        for l2 in range(lo, hi + 1)
        for l1 in sorted(rule.lambda1_values(l2))
    ]
    if not tasks:
        raise ValueError("the scan rule generates no pairs on this range")
    if parallelism == 1:
        return ScanReport(tuple(map(_scan_one, tasks)))
    chunk = max(1, len(tasks) // (parallelism * 8))
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return ScanReport(tuple(pool.map(_scan_one, tasks, chunksize=chunk)))


# --------------------------------------------------------------------------
# continued fractions and the exception-count bound
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CFExpansion:
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

    def legendre_quality(self, prec: int = DEFAULT_PRECISION, slack_exponent: int = DEFAULT_SLACK_EXPONENT) -> bool:
        """True when every convergent satisfies |target - p/q| < 1/q**2.

        Checked at the working precision with the decision slack; convergents
        of a genuine expansion always satisfy it (the last one of a truncated
        expansion may sit within slack of equality and still count).
        """
        slack = slack_value(slack_exponent)
        with workprec(prec + GUARD_BITS):
            for p, q in self.convergents:
                gap = abs(self.target - mpf(p) / q) - 1 / (mpf(q) * q)
                if certified_compare(gap, 0, slack) is Comparison.CERTIFIED_GREATER:
                    return False
        return True


def continued_fraction(
    x, depth: int, prec: int = DEFAULT_PRECISION, abs_err=None
) -> CFExpansion:
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
        err = mpf(abs_err) if abs_err is not None else (abs(cur) + 1) * mpf(2) ** (2 - prec)
        quotients: list[int] = []
        convergents: list[tuple[int, int]] = []
        h_prev, h_prev2 = 1, 0
        k_prev, k_prev2 = 0, 1
        truncated = False

        def push(a: int) -> None:
            nonlocal h_prev, h_prev2, k_prev, k_prev2
            h = a * h_prev + h_prev2
            k = a * k_prev + k_prev2
            quotients.append(a)
            convergents.append((h, k))
            h_prev2, h_prev = h_prev, h
            k_prev2, k_prev = k_prev, k

        for _ in range(depth):
            a = int(mp.floor(cur))
            frac = cur - a
            if frac < err or frac > 1 - err:
                push(int(mp.nint(cur)))
                truncated = True
                break
            push(a)
            cur = 1 / frac
            err = err / (frac * frac) * (1 + mpf(2) ** -20) + abs(cur) * mpf(2) ** (1 - prec - GUARD_BITS)
        return CFExpansion(mpf(x), tuple(quotients), tuple(convergents), truncated)


@dataclass(frozen=True)
class ExceptionCount:
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
    r and a flag result is returned instead.
    """
    check_precision(prec)
    r = Fraction(r)
    regime = classify(r)
    if regime is Regime.DEGENERATE:
        raise RegimeError(f"exception counting requires r > 1, got r = {r}")
    if regime is Regime.SUPERCRITICAL:
        return ExceptionCount("bounded-count", None, None, remainder_unquantified=True)
    with workprec(prec + GUARD_BITS):
        xv = mpf(x)
        if xv < 1:
            raise ValueError("x must be >= 1")
        negdisc = -r * r + 6 * r - 1
        nd = mpf(negdisc.numerator) / mpf(negdisc.denominator)
        golden = (1 + mp.sqrt(mpf(5))) / 2
        coefficient = EXCEPTION_COUNT_CONSTANT / (nd ** (mpf(11) / 4) * mp.log(golden))
        value = coefficient * mp.sqrt(xv) * mp.log(xv)
        return ExceptionCount("main-term", coefficient, value, remainder_unquantified=True)
