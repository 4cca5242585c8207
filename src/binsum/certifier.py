"""Nonvanishing certificates for single pairs and ranges.

`certify` first evaluates exactly when the estimated cost fits the budget
(definitive).  Then it runs the sound checks of `STAGES`, the one statement
of their order and of the exact gate in front of each.  A range scan takes
a row of fixed l2 at a time: the pairs that the budget admits form a prefix
of the sorted row, evaluated in one walk of `exact.row_values` (a pair whose
two predecessors were evaluated costs one step of the three-term recurrence
in l1), and the rest of the row goes straight to the `STAGES`.  `certify`
takes the record of a pair it evaluates from the same walk, on a row of that
one pair, so scans and `certify` share one exact record.  The stages
read the pair's integers and an `asymptotics.RatioLine`, which holds what
depends on the ratio alone and decides the two saddle steps: a scan of a
ratio line reads the one line of its ratio (`asymptotics.ratio_line`), while
`certify` and every other scan build one for each pair, which computes its
reach and constants only when the pair's gates and steps read them.  A pair
near the diagonal reads a `DiffLine` as well, which holds the lambda2
thresholds of its oscillatory gate and of the comparisons of the window and
near-diagonal steps at one difference d, and decides the near-diagonal step:
each process builds one per difference and precision (`_diff_line`), which
every pair of that difference reads, whatever the rule that made it.  Either
way the one cascade returns a plain scan record, which `certify` returns as
a `Certificate`, the named tuple of the record's fields, so a scanned pair
and a certified pair get the same verdict, margin and output bytes.  Why
each stage is sound, and why its gate loses nothing:

  term-growth: for l1 > l2*(l2+1) - 1 the alternating summands grow
      strictly in absolute value, so the sum cannot vanish;
  supercritical: the explicit error bound certified below 1 forces the
      scaled integral to stay near 1, hence nonzero;
  oscillatory: |cos((r*gamma1+gamma2)*lam + gamma3)| certified above the
      explicit oscillatory bound.  The gate admits only lam above the
      exact-integer reach `oscillatory_bound_reach(r)`, the largest lam at
      which that bound is still >= 1 >= |cos| (near the diagonal the reach
      stays below 130,306, and the `DiffLine` holds the least lambda2 above
      it; it grows without limit as r approaches 3 + 2*sqrt(2));
  window: certified difference windows (table of proved lambda1 intervals
      per congruence class), applied only where the window machinery is
      actually proved, i.e. lambda1 - lambda2 >= 702;
  near-diagonal: the congruence-class cosine lower bound certified above
      the windowed near-diagonal bound.

Both of the last two compare d with window ends m*sqrt(k*pi*l2) -+ c and
row edges sqrt(k*pi*l2), computed by chains of correctly rounded libmp
operations, so nondecreasing in l2, and the cosine lower bound compares
q = d*d/(4*l2) with multiples of pi/4 and with the low end of its second
window, each comparison switching once along the line.  A `DiffLine` bounds
each computed value's error and turns each comparison into two lambda2
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

The supercritical and oscillatory steps take their verdict and margin from
the `RatioLine` (`supercritical_margin`, `oscillatory_margin`), which
decides from integer enclosures of its raw kernels' values and runs the
kernels where an enclosure reaches across the slack or across a midpoint of
the 53-bit grid.  So these steps, too, give every pair the kernels' verdict
and margin, and only word the record; the supercritical step also tries
the refined bound when `certify` was given a delta.

Inconclusive is an honest outcome and is never retried with looser slack:
pairs where the cosine is certifiably small are exactly the possible
exceptions the theory allows, and they must surface in reports.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import os
import time
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from mpmath import mp, mpf, workprec
from mpmath.libmp import (
    fone,
    from_int,
    ftwo,
    mpf_add,
    mpf_ceil,
    mpf_floor,
    mpf_mul,
    mpf_mul_int,
    mpf_pow,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_int,
)

from .asymptotics import (
    FIXED_BITS,
    NEAR_DIAGONAL_FLAT,
    NEAR_DIAGONAL_MIN_DIFFERENCE,
    NEAR_DIAGONAL_ROWS,
    OSCILLATORY_BOUND_CONSTANT,
    RatioLine,
    Regime,
    RegimeError,
    _COS_WIDTH,
    _FIXED_SLACK,
    _cos_lower_bound,
    _exceeds_slack,
    _fixed_cos,
    _near_diagonal_bound,
    _oscillatory_reach,
    _rounded53,
    _widening,
    check_delta,
    classify,
    negated_discriminant,
    ratio_line,
    supercritical_error_bound_refined,
    window_edge,
    REFINED_BOUND_MAX_RATIO,
)
from . import exact
from .exact import PartitionPair, evaluation_cost, pair_cost
from .numerics import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    PI_BITS,
    PI_FLOOR,
    RAW_SLACK,
    SLACK,
    SLACK_BITS,
    Comparison,
    certified_compare,
    check_precision,
    decimal_constant,
    dyadic_compare,
    rounded_margin,
)

# cost units are 64-bit word multiplications of the incremental loop.  On a
# 2-core Intel Xeon with CPython 3.11 the scan of the ratio-3 line at
# l2 = 2000-2039 evaluates 7.32*10**8 units in 0.27-0.34 s, so 10**8 units
# take about 40 ms there (near l2 = 600 a unit takes about four times longer)
DEFAULT_BUDGET = 10**8

# A scan runs its rows in this process until their estimated work in cost
# units (`_chunks`) reaches POOL_MIN_WORK; only then does it start a
# process pool, for the rows left.  Measured on the same machine (best
# of 5, in-process `cli.main`): starting and joining a pool of two workers
# takes 10-15 ms, and parallelism 2 draws level with 1 at about 40 ms of
# serial work.  Ratio-3 rows at l2 = 1000-1019 (4.6*10**7 units) took 36 ms
# serially and 41 ms in the pool, at l2 = 1500-1509 (7.6*10**7) 43 and 36 ms.
POOL_MIN_WORK = 6 * 10**7
# the work charged for a pair that the budget sends to the cascade stages.
# With the saddle steps decided in fixed point, a cascade pair takes about
# 2 us on the ratio-6 line at l2 = 1e5 and 6-13 us on the ratio-2 line, and
# in a pool it also crosses as a task and a record.  Measured as above (best
# of 7, in-process `scan_range`) with the pool forced on, serial against
# pool: ratio-6 lines of 2,400 pairs 10 against 30 ms, of 12,000 pairs 52
# against 101 ms, of 24,000 pairs 121 against 155 ms; ratio-2 lines of 2,400
# pairs 22 against 30 ms, of 6,000 pairs 56 against 54 ms, of 12,000 pairs
# 115 against 100 ms, of 24,000 pairs 262 against 247 ms.  At 2,500 units a
# pair a line's first 24,000 cascade pairs run in this process, and only the
# pairs after them go to the pool.  Past them it paid on a ratio-2 line of
# 48,000 pairs (609-709 against 760-929 ms) and not on a ratio-6 line, the
# cheapest (499-581 against 320-407 ms; best to median of five runs).
CASCADE_PAIR_COST = 2500
# A scan takes its rows in chunks, each closed once it holds CHUNK_PAIRS
# pairs or CHUNK_WORK cost units, and a pool keeps at most
# CHUNKS_PER_WORKER chunks per worker in flight, so that neither the tasks
# nor the records of a long scan pile up in memory.  Measured as above,
# quartering or quadrupling either size moved no pooled scan beyond the noise
# (ratio-2 lines of 48,000 cascade pairs, ratio-3 rows at l2 = 2000-2100).
CHUNK_PAIRS = 2048
CHUNK_WORK = POOL_MIN_WORK // 8
CHUNKS_PER_WORKER = 2


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


class Certificate(NamedTuple):
    """Outcome of the cascade for one pair, as the fields of its scan record.

    Every nonzero kind is sound: it implies S(l1, l2) != 0 under hypotheses
    that were all checked, with margins strictly positive after slack
    inflation.  `rule` names the certifying criterion for audit output.
    `usec` is the time taken to certify the pair when a scan records it,
    else 0.
    """

    lambda1: int
    kind: CertificateKind
    rule: str
    margin: float | None
    exact_sign: int | None
    bit_length: int | None
    clause: str | None
    reason: str | None
    usec: int

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


EXACT_RULE = "exact evaluation"


def _refusal(l1: int, l2: int) -> tuple | None:
    """The scan record of a pair that `certify` refuses, else None."""
    if l2 == 0:
        reason = "lambda2 = 0 row excluded"
    elif l1 <= l2:
        reason = "diagonal pair excluded"
    else:
        return None
    return l1, CertificateKind.REFUSED, "input check", None, None, None, None, reason, 0


# The steps below return scan records (the fields of `Certificate`) with
# usec 0.  They read kinds and comparison outcomes from module globals, at
# about 10 ns a lookup where an enum member takes about 110 ns (timeit,
# CPython 3.11).
_INTERVAL = CertificateKind.NONZERO_INTERVAL
_OSCILLATORY = CertificateKind.NONZERO_OSCILLATORY
_SUPERCRITICAL = CertificateKind.NONZERO_SUPERCRITICAL
_LESS, _GREATER = Comparison.CERTIFIED_LESS, Comparison.CERTIFIED_GREATER


def _term_growth_gate(line: RatioLine, l1: int, l2: int) -> bool:
    # `certify_by_term_growth`, where the cascade's l1 > l2 >= 1 already holds
    return l1 > l2 * (l2 + 1) - 1


def _term_growth_step(line: RatioLine, l1: int, l2: int) -> tuple:
    return l1, CertificateKind.NONZERO_TERM_GROWTH, "ascending alternating terms", None, None, None, None, None, 0


def _supercritical_gate(line: RatioLine, l1: int, l2: int) -> bool:
    return line.regime is Regime.SUPERCRITICAL


def _supercritical_step(line: RatioLine, l1: int, l2: int) -> tuple | None:
    margin = line.supercritical_margin(l2)
    if margin is not None:
        return l1, _SUPERCRITICAL, "supercritical saddle bound", margin, None, None, None, None, 0
    if line.delta is None or line.ratio > REFINED_BOUND_MAX_RATIO:
        return None
    bound = supercritical_error_bound_refined(line.ratio, l2, line.delta, line.prec)._mpf_
    if dyadic_compare(bound, fone, RAW_SLACK) is not _LESS:
        return None
    return l1, _SUPERCRITICAL, "refined supercritical saddle bound", rounded_margin(fone, bound), None, None, None, None, 0


def _oscillatory_gate(line: RatioLine, l1: int, l2: int) -> bool:
    # up to the reach the bound is >= 1 >= |cos|, so no comparison can
    # accept.  A pair in the near-diagonal gate is subcritical, and the
    # `DiffLine` of its difference holds the least lambda2 above the reach,
    # so the pair's line need not compute its own (see `DiffLine`)
    if _near_diagonal_gate(line, l1, l2):
        return _diff_line(l1 - l2, line.wp).past_reach(l2)
    return line.regime is Regime.SUBCRITICAL and l2 > line.reach


def _oscillatory_step(line: RatioLine, l1: int, l2: int) -> tuple | None:
    # above the reach lam is far past the bound's validity threshold (see the reach)
    margin = line.oscillatory_margin(l1, l2)
    if margin is None:
        return None
    return l1, _OSCILLATORY, "oscillatory main-term bound", margin, None, None, None, None, 0


def _near_diagonal_gate(line: RatioLine, l1: int, l2: int) -> bool:
    # both steps need d >= 702, and every window-table window and every
    # near-diagonal row ends below d = sqrt(8*pi*l2) < sqrt(26*l2).  Inside
    # the gate l2 > 702**2/26 > 18953 and r = 1 + d/l2 < 1 + 26/d < 1.04,
    # so the pair is subcritical and neither step needs its own d >= 702 or
    # r <= 3 check.
    d = l1 - l2
    return NEAR_DIAGONAL_MIN_DIFFERENCE <= d and d * d < 26 * l2


# An all-up-to row passes every difference from 702 to about
# sqrt(26*lambda2) through the window step, 911 of them at lambda2 = 10**5
# and 4,096 up to lambda2 ~ 8.8*10**5, and the next row passes them again:
# a smaller bound would evict each line before the next row reads it, so
# every row would rebuild them all.  A `DiffLine` holds at most 29 pairs
# of thresholds (a line's pairs fall in two congruence classes), 4.5 KB, and
# on the all-up-to scan of the rows lambda2 = 10**5..10**5 + 3 its lines
# take 1.7 KB on average with their cache entries (tracemalloc, CPython
# 3.11), so the cache stays below about 19 MB and near 7 MB at that mix.
@functools.lru_cache(maxsize=4096)
def _diff_line(d: int, wp: int) -> DiffLine:
    """The `DiffLine` of difference d at wp bits, built once in a process and
    shared by every pair of that difference, whatever made the pair."""
    return DiffLine(d, wp)


def _window_step(line: RatioLine, l1: int, l2: int) -> tuple | None:
    # the gate admits only d >= 702, where the window-table part of a clause
    # is all of it: every small-difference window ends at d <= 701.  A
    # clause's lower end is tested only when its upper end admits d.
    clause = _diff_line(l1 - l2, line.wp).window_clause(l2, (l1 + l2) % 4)
    if clause is None:
        return None
    return l1, _INTERVAL, "certified difference window", None, None, None, clause, None, 0


def _near_diagonal_step(line: RatioLine, l1: int, l2: int) -> tuple | None:
    margin = _diff_line(l1 - l2, line.wp).near_diagonal_margin(l1, l2)
    if margin is None:
        return None
    return l1, _OSCILLATORY, "near-diagonal window bound", margin, None, None, None, None, 0


# The cascade after exact evaluation, in order: (stage id, gate, step).  A
# gate is an exact test of the pair alone; a step runs only behind its gate.
# Both are called as f(line, lambda1, lambda2) for a pair of the `RatioLine`
# line, which carries the precision and the optional delta.  A step compares
# beyond the fixed `SLACK` by `dyadic_compare` and returns the pair's scan
# record or None.  The window and near-diagonal steps, and the oscillatory
# gate of a pair in the near-diagonal gate, decide their comparisons from the
# integer lambda2 thresholds of the process's one `DiffLine` of the
# difference (the values behind them are monotone in lambda2 and within a
# counted error of exact), and run the per-pair functions only in the narrow
# band between two thresholds.  The near-diagonal step words the verdict and
# margin of the `DiffLine`, which decides from fixed-point enclosures of the
# near-diagonal bound and the cosine lower bound and runs those kernels
# only where an enclosure leaves the outcome or the 53-bit margin open.
# The supercritical and oscillatory steps word the verdict and margin of the
# `RatioLine`, which decides from fixed-point enclosures of its kernels'
# values (widths counted from the rounded operations of each kernel at its
# precision, trusting correct rounding of libmp's +, -, *, / and sqrt and
# `mpf_pi` and `mpf_cos` within 2 ulp) and runs the kernels only where an
# enclosure leaves the outcome or a 53-bit rounding of the margin open.
STAGES = (
    ("term-growth", _term_growth_gate, _term_growth_step),
    ("supercritical", _supercritical_gate, _supercritical_step),
    ("oscillatory", _oscillatory_gate, _oscillatory_step),
    ("window", _near_diagonal_gate, _window_step),
    ("near-diagonal", _near_diagonal_gate, _near_diagonal_step),
)


def certify(
    pair: PartitionPair,
    budget: int = DEFAULT_BUDGET,
    prec: int = DEFAULT_PRECISION,
    delta=None,
) -> Certificate:
    """Run the certification cascade on one pair: exact evaluation within
    the budget, then the `STAGES` in order, on a line of this one pair.

    Pairs with lambda1 <= lambda2 or lambda2 = 0 are refused: the diagonal
    genuinely vanishes for odd lambda, so no nonvanishing claim is possible
    there.  An optional `delta` in (0, pi/3] enables the refined
    supercritical bound when the ratio allows it; any other value raises
    ValueError, whatever the pair.  Every floating decision certifies beyond
    the fixed slack `numerics.SLACK` = 2**-40.
    """
    check_precision(prec)
    if delta is not None:
        check_delta(delta, prec)
    l1, l2 = pair.lambda1, pair.lambda2
    record = _refusal(l1, l2)
    if record is None and evaluation_cost(pair) <= budget:
        record = next(_row_records([l1], l2, 1, prec, None))
    return Certificate._make(record or _cascade(RatioLine(l1, l2, prec, delta), l1, l2))


_INCONCLUSIVE_REASON = "no certified bound applies at this size"


def _cascade(line: RatioLine, l1: int, l2: int) -> tuple:
    """The record of the first of the `STAGES` whose gate admits the pair
    and whose step decides it, else inconclusive; for a pair (l1, l2) of
    `line` that `certify` neither refuses nor evaluates."""
    for _, gate, step in STAGES:
        if gate(line, l1, l2):
            record = step(line, l1, l2)
            if record is not None:
                return record
    return l1, CertificateKind.INCONCLUSIVE, "cascade exhausted", None, None, None, None, _INCONCLUSIVE_REASON, 0


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
    above `CLASS2_FLOOR_FACTOR` * lambda2**(1/4) once that is certifiedly
    larger (lambda2 and the constants at `wp` bits)."""
    quarter_root = mpf_mul(
        decimal_constant(CLASS2_FLOOR_FACTOR, wp)._mpf_,
        mpf_pow(from_int(lambda2, wp, round_nearest), decimal_constant("0.25", wp)._mpf_, wp, round_nearest),
        wp,
        round_nearest,
    )
    versus_702 = dyadic_compare(quarter_root, from_int(NEAR_DIAGONAL_MIN_DIFFERENCE), RAW_SLACK)
    if versus_702 is _LESS:
        return NEAR_DIAGONAL_MIN_DIFFERENCE
    if versus_702 is _GREATER:
        return _int_above(quarter_root, wp)
    return NEAR_DIAGONAL_MIN_DIFFERENCE + 1


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
    root of P, found by `isqrt` and checked in exact integers."""
    a, b, c0 = 2 * c + 8 * t, 4 * t * d + (d * d << FIXED_BITS + 1), d**3 << FIXED_BITS

    def holds(l2: int) -> bool:
        return (a * l2 - b) * l2 + c0 < 0

    l2 = (b + math.isqrt(b * b - 4 * a * c0)) // (2 * a)
    while holds(l2 + 1):
        l2 += 1
    while not holds(l2):
        l2 -= 1
    return l2


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
    fixed-point steps in floats from 130305 guess T, and a walk over the
    exact reach fixes it."""
    first = d * d // 26 + 1
    guess = float(max(first, 130305))
    for _ in range(5):
        y = d / guess
        guess = max(first, OSCILLATORY_BOUND_CONSTANT**2 / (4 + 4 * y - y * y) ** 5.5)
    t = int(guess)
    while t > first and t - 1 > _oscillatory_reach(t - 1 + d, t - 1):
        t -= 1
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


def _units(x: tuple) -> int:
    """floor(x * 2**FIXED_BITS) of a raw x >= 0."""
    shift = x[2] + FIXED_BITS
    return x[1] << shift if shift >= 0 else x[1] >> -shift


@functools.lru_cache(maxsize=16)
def _near_diagonal_constants(wp: int) -> tuple:
    """What the enclosures of a `DiffLine` at wp bits read of its precision
    alone: the flat bound and 1/sqrt(2) of the kernels rounded down to units
    of 2**-FIXED_BITS, per row (C_k**2 scaled to the units squared, as
    mantissa and shift), and the width of a cosine enclosure."""
    flat = decimal_constant(NEAR_DIAGONAL_FLAT, wp)._mpf_
    rows = tuple(decimal_constant(c, wp)._mpf_ for c in NEAR_DIAGONAL_ROWS)
    inverse_root = mpf_rdiv_int(1, mpf_sqrt(ftwo, wp, round_nearest), wp, round_nearest)
    # _fixed_cos, the angle within 3 units, the kernel within 2**(6 - wp)
    width = _COS_WIDTH + 3 + _error_units(wp)
    return _units(flat), tuple((x[1] ** 2, 2 * (x[2] + FIXED_BITS)) for x in rows), _units(inverse_root), width


class DiffLine:
    """What the window and near-diagonal steps read of one difference line
    (l2 + d, l2), d >= 702, at wp working bits, built once per process
    (`_diff_line`) and shared by every pair of the difference: the lambda2
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
        isqrt(C_k**2 * 2**(2*FIXED_BITS) // l2) lies within one unit below
        C_k/sqrt(l2) for the kernel's constant C_k, whose three roundings
        (from_int, sqrt, quotient) put its row within 4u of that."""
        row = self._row(l2)
        if row is None:
            return None
        if row < 0:
            return _OPEN
        flat = self._constants[0]
        if not row:
            return flat, flat + 1
        square, shift = self._constants[1][row - 1]
        b = math.isqrt((square << shift) // l2 if shift >= 0 else square // (l2 << -shift))
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
        lo, hi = lower[0] - bound[1], lower[1] - bound[0]
        accept = _exceeds_slack(lo, hi)
        if accept is False:
            return None
        margin = accept and _rounded53(lo, hi)
        if margin:
            return math.ldexp(margin, -FIXED_BITS)
        bound = _near_diagonal_bound(self.d, l2, self.wp)[0]
        if bound is None:
            return None
        lower = _cos_lower_bound(l1, l2, self.wp)
        if lower is None or dyadic_compare(lower, bound, RAW_SLACK) is not _GREATER:
            return None
        return rounded_margin(lower, bound)


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


# --------------------------------------------------------------------------
# range scans
# --------------------------------------------------------------------------

# Each scan rule's `rows(lo, hi)` yields its nonempty rows (sorted lambda1
# values, lambda2) for lo <= lambda2 <= hi, lo >= 1, in lambda2 order, every
# lambda1 above lambda2, and visits no lambda2 past its last pair.


@dataclass(frozen=True)
class RatioRule:
    """lambda1 = ratio * lambda2, emitted only when the product is integral."""

    ratio: Fraction

    def rows(self, lo: int, hi: int) -> Iterator[tuple[list[int], int]]:
        # in lowest terms a/b, a*l2/b is an integer exactly at the multiples
        # of b, and above l2 exactly when a > b
        a, b = self.ratio.numerator, self.ratio.denominator
        if a > b:
            for l2 in range(-(-lo // b) * b, hi + 1, b):
                yield [a * l2 // b], l2


@dataclass(frozen=True)
class DiffRule:
    diff: int

    def rows(self, lo: int, hi: int) -> Iterator[tuple[list[int], int]]:
        if self.diff >= 1:
            for l2 in range(lo, hi + 1):
                yield [l2 + self.diff], l2


@dataclass(frozen=True)
class ListRule:
    values: tuple[int, ...]

    def rows(self, lo: int, hi: int) -> Iterator[tuple[list[int], int]]:
        values = sorted(self.values)
        for l2 in range(lo, min(hi, max(values, default=0) - 1) + 1):
            yield values[bisect.bisect_right(values, l2) :], l2


@dataclass(frozen=True)
class AllUpToRule:
    max_lambda1: int

    def rows(self, lo: int, hi: int) -> Iterator[tuple[list[int], int]]:
        for l2 in range(lo, min(hi, self.max_lambda1 - 1) + 1):
            yield list(range(l2 + 1, self.max_lambda1 + 1)), l2


# A scan record is one certified pair of a row as a flat tuple of builtins and
# the CertificateKind member:
#   (lambda1, kind, rule, margin, exact_sign, bit_length, clause, reason, usec)
# the fields of `Certificate` in its order, which `certify` returns.  Workers
# send rows of plain tuples, which pickle as plain data, and the writers
# format records of either type without building objects.


CSV_HEADER = "lambda1,lambda2,class,certificate,margin,exact_sign,usec"

# the certificate text of each kind: a dict lookup takes 25 ns per record
# where the enum's `value` property takes 167 ns (timeit, CPython 3.11)
_KIND_TEXT = {kind: kind.value for kind in CertificateKind}
_INCONCLUSIVE = CertificateKind.INCONCLUSIVE
_EXACT, _ZERO = CertificateKind.NONZERO_EXACT, CertificateKind.ZERO_EXACT
_kind_of = operator.itemgetter(1)
# the format of every float printed, `format_float`'s: 17 significant digits
# round-trip a float losslessly.  A record's margin is a float already, so
# the row formatters format it directly.
_FLOAT_SPEC = ".17g"


def jsonl_text(l2: int, records: Iterable[tuple]) -> str:
    """The jsonl lines of one scan row at lambda2 = l2, each ended by a
    newline: one json object per record.  The class is (lambda1 + lambda2)
    mod 4, and the text up to it is built once per row.  A record with a
    sign is exact and has no margin: the exact prefix of a row, which
    `_row_records` builds inline, is written as one direct line each."""
    head = f',"lambda2":{l2},"class":'
    return "".join([
        f'{{"lambda1":{l1}{head}{(l1 + l2) % 4},"certificate":"{_KIND_TEXT[kind]}",'
        f'"margin":null,"exact_sign":{sign},"usec":{usec}}}\n' if sign is not None else
        f'{{"lambda1":{l1}{head}{(l1 + l2) % 4},"certificate":"{_KIND_TEXT[kind]}",'
        f'"margin":{"null" if margin is None else format(margin, _FLOAT_SPEC)},"exact_sign":null,"usec":{usec}}}\n'
        for l1, kind, _, margin, sign, _, _, _, usec in records
    ])


def csv_text(l2: int, records: Iterable[tuple]) -> str:
    """The csv lines of one scan row at lambda2 = l2, each ended by a
    newline, in the columns of `CSV_HEADER`.  As in `jsonl_text`, a record
    with a sign (exact, no margin) is written as one direct line."""
    head = f",{l2},"
    return "".join([
        f"{l1}{head}{(l1 + l2) % 4},{_KIND_TEXT[kind]},,{sign},{usec}\n" if sign is not None else
        f"{l1}{head}{(l1 + l2) % 4},{_KIND_TEXT[kind]},{'' if margin is None else format(margin, _FLOAT_SPEC)},,{usec}\n"
        for l1, kind, _, margin, sign, _, _, _, usec in records
    ])


def write_rows(rows: Iterable[tuple[int, Iterable[tuple]]], output_format: str, write) -> bool:
    """Write scan rows (lambda2, records), taken one at a time in their
    order, as `output_format` through `write`, and return whether any record
    is inconclusive.  jsonl and csv (after `CSV_HEADER`) take one `write` per
    row, as soon as the row comes.  human keeps only the count of each kind
    and the inconclusive and zero pairs, and writes at the end the counts,
    then every inconclusive and every zero pair."""
    if output_format == "human":
        counts, listed = Counter(), []
        for l2, records in rows:
            counts.update(map(_kind_of, records))
            listed += [(kind, l1, l2) for l1, kind, *_ in records if kind is _INCONCLUSIVE or kind is _ZERO]
        lines = [f"{kind:24s} {count}" for kind, count in sorted((_KIND_TEXT[k], n) for k, n in counts.items())]
        lines += [f"inconclusive pair ({l1}, {l2})" for kind, l1, l2 in listed if kind is _INCONCLUSIVE]
        lines += [f"ZERO VALUE at ({l1}, {l2})" for kind, l1, l2 in listed if kind is _ZERO]
        write("".join(f"{line}\n" for line in lines))
        return _INCONCLUSIVE in counts
    if output_format == "csv":
        write(f"{CSV_HEADER}\n")
    text = csv_text if output_format == "csv" else jsonl_text
    inconclusive = False
    for l2, records in rows:
        write(text(l2, records))
        inconclusive = inconclusive or _INCONCLUSIVE in map(_kind_of, records)
    return inconclusive


@dataclass(frozen=True)
class ScanReport:
    """Per-pair scan records in deterministic (lambda2, lambda1) order.

    `rows` holds one (lambda2, records) per scanned lambda2, in lambda2
    order, with the scan records (or `Certificate`s) in lambda1 order.  The
    `*_lines` methods are the lines that `write_rows` writes of the rows.
    """

    rows: tuple[tuple[int, tuple[tuple, ...]], ...]

    def records(self) -> Iterable[tuple[int, tuple]]:
        """(lambda2, record) for every scanned pair, in scan order."""
        for l2, records in self.rows:
            for record in records:
                yield l2, record

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(_KIND_TEXT[record[1]] for _, record in self.records()))

    def pairs(self, kind: CertificateKind) -> list[tuple[int, int]]:
        """(lambda1, lambda2) of every record of `kind`, in scan order."""
        return [(record[0], l2) for l2, records in self.rows for record in records if record[1] is kind]

    def _lines(self, output_format: str) -> list[str]:
        out: list[str] = []
        write_rows(self.rows, output_format, out.append)
        return "".join(out).splitlines()

    def jsonl_lines(self) -> list[str]:
        return self._lines("jsonl")

    def csv_lines(self) -> list[str]:
        return self._lines("csv")

    def human_lines(self) -> list[str]:
        return self._lines("human")


def format_float(x) -> str:
    """A float or mpf at 17 significant digits, which round-trips a float
    losslessly; empty for a missing value (CSV cell)."""
    return "" if x is None else format(float(x), _FLOAT_SPEC)


def _row_cut(lambda1s: list[int], l2: int, budget: int) -> tuple[int, int]:
    """(hi, cost) for the sorted lambda1 values of a row of a scan rule at
    lambda2 = l2, all above l2 >= 1, so that `certify` refuses none: the
    budget admits lambda1s[:hi], and cost is the `evaluation_cost` of
    lambda1s[0] when it is admitted, else 0."""
    cost = pair_cost(lambda1s[0], l2)
    if cost > budget:
        return 0, 0
    # evaluation_cost is nondecreasing in lambda1, so the admitted pairs form a prefix
    return bisect.bisect_right(lambda1s, budget, 1, key=lambda l1: pair_cost(l1, l2)), cost


def _row_records(lambda1s: list[int], l2: int, hi: int, prec: int, line: RatioLine | None) -> Iterator[tuple]:
    """The scan record (usec 0) of each lambda1 of `lambda1s` (sorted) at
    lambda2 = l2, in turn, with the verdicts of `certify`, for the cut hi
    of `_row_cut`.  The exact prefix builds each record here, from the value
    that the `exact.row_values` walk yields for it, and `certify` takes its
    exact records from here too.  The walk stays lazy, one pair per record
    taken, so a timed scan charges each record the time of its own pair.
    The cascade runs on `line` when the scan's pairs share one, else on a
    line of each pair alone."""
    if hi:
        admitted = lambda1s[:hi]
        for l1, value in zip(admitted, exact.row_values(l2, admitted)):
            # bit_length ignores the sign
            if value:
                yield l1, _EXACT, EXACT_RULE, None, 1 if value > 0 else -1, value.bit_length(), None, None, 0
            else:
                yield l1, _ZERO, EXACT_RULE, None, 0, None, None, None, 0
    for l1 in lambda1s[hi:]:
        yield _cascade(line or RatioLine(l1, l2, prec), l1, l2)


def _scan_chunk(settings: tuple, chunk: list[tuple]) -> list[tuple[int, tuple[tuple, ...]]]:
    """The rows (lambda2, records) of a chunk of `_chunks`, certified in one
    call, here or in a pool worker.  `settings` is the scan's
    (prec, line, timed): the precision, the `RatioLine` that every pair
    shares (or None), and whether each record's usec is the time taken to
    produce it."""
    prec, line, timed = settings
    rows = []
    for lambda1s, l2, hi in chunk:
        records = _row_records(lambda1s, l2, hi, prec, line)
        if timed:
            timed_records = []
            start = time.perf_counter()
            for record in records:
                timed_records.append((*record[:-1], int((time.perf_counter() - start) * 1e6)))
                start = time.perf_counter()
            records = timed_records
        rows.append((l2, tuple(records)))
    return rows


def _process_pool(max_workers: int):
    """A process pool of `max_workers` workers.  Its module, and
    multiprocessing with it, load on the first pool, since most processes
    never start one."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity exists only on some platforms
        return os.cpu_count() or 1


def rule_rows(lambda2_range: tuple[int, int], rule) -> Iterator[tuple[list[int], int]]:
    """The rows of `rule.rows` over an inclusive lambda2 range.  Raises
    ValueError at the call, before any row is taken, for an empty or invalid
    range and when the rule generates no pairs, which it finds by reading
    the rule up to its first row."""
    lo, hi = lambda2_range
    if hi < lo or lo < 1:
        raise ValueError(f"empty or invalid lambda2 range {lambda2_range}")
    rows = rule.rows(lo, hi)
    first = next(rows, None)
    if first is None:
        raise ValueError("the scan rule generates no pairs on this range")
    return itertools.chain((first,), rows)


def rule_pairs(lambda2_range: tuple[int, int], rule) -> list[tuple[int, int]]:
    """The (lambda1, lambda2) pairs of `rule_rows`, in (lambda2, lambda1) order."""
    return [(l1, l2) for lambda1s, l2 in rule_rows(lambda2_range, rule) for l1 in lambda1s]


def _chunks(rows: Iterable[tuple[list[int], int]], budget: int) -> Iterator[tuple[list[tuple], int]]:
    """The rows of `rule_rows` in consecutive chunks of (lambda1s, lambda2,
    hi), with the cut hi of `_row_cut`, each closed once it holds
    CHUNK_PAIRS pairs or CHUNK_WORK cost units (a row is never split), with
    the estimated work of each chunk.  A row's work is read from the row
    alone: the `evaluation_cost` of its first admitted pair, which the row
    walk evaluates afresh, plus `CASCADE_PAIR_COST` for each pair past the
    budget.  Walk steps are not charged."""
    chunk, pairs, work = [], 0, 0
    for lambda1s, l2 in rows:
        hi, cost = _row_cut(lambda1s, l2, budget)
        chunk.append((lambda1s, l2, hi))
        pairs += len(lambda1s)
        work += cost + CASCADE_PAIR_COST * (len(lambda1s) - hi)
        if pairs >= CHUNK_PAIRS or work >= CHUNK_WORK:
            yield chunk, work
            chunk, pairs, work = [], 0, 0
    if chunk:
        yield chunk, work


def _scan(chunks: Iterator, settings: tuple, workers: int, last_l2: int) -> Iterator[tuple[int, tuple[tuple, ...]]]:
    """The rows of `chunks` ((chunk, work) of `_chunks`) in order, certified by
    `_scan_chunk` with `settings`.  The chunks run in this process until the
    work of the rows so far reaches POOL_MIN_WORK.  With more than one
    worker and another chunk to come, that chunk and the rest then run in a
    pool of `workers` processes, or of one per lambda2 from the chunk's
    first on when that is fewer, which holds at most CHUNKS_PER_WORKER
    chunks per worker.  Closed early, the pool cancels the chunks that have
    not started and waits for the ones running."""
    work = 0
    for chunk, chunk_work in chunks:
        work += chunk_work
        if work >= POOL_MIN_WORK and workers > 1:
            following = next(chunks, None)
            if following is not None:
                break
        yield from _scan_chunk(settings, chunk)
    else:
        return
    # the chunk that reached the threshold and every chunk after it
    pooled = itertools.chain((chunk, following[0]), (later for later, _ in chunks))
    workers = min(workers, last_l2 - chunk[0][1] + 1)
    with _process_pool(max_workers=workers) as pool:
        submitted = (pool.submit(_scan_chunk, settings, chunk) for chunk in pooled)
        pending = deque(itertools.islice(submitted, workers * CHUNKS_PER_WORKER))
        try:
            while pending:
                rows = pending.popleft().result()
                pending.extend(itertools.islice(submitted, 1))
                yield from rows
        finally:
            for future in pending:
                future.cancel()


def scan_rows(
    lambda2_range: tuple[int, int],
    rule,
    budget: int = DEFAULT_BUDGET,
    prec: int = DEFAULT_PRECISION,
    parallelism: int = 1,
    timings: bool = False,
) -> Iterator[tuple[int, tuple[tuple, ...]]]:
    """Certify every pair generated by `rule` over an inclusive lambda2
    range, and yield one (lambda2, records) row at a time, in lambda2 order,
    with the scan records in lambda1 order.

    The rule yields only its nonempty rows, each a lambda2 and its sorted
    lambda1 values (`rule_rows`), and visits no lambda2 past its last pair.
    Every lambda1 of a row lies above its lambda2 >= 1, so `certify` would
    refuse none of them.  Since `exact.evaluation_cost` is nondecreasing in
    lambda1, the pairs of a row that the budget admits form a prefix, which
    this process finds by bisection (`_row_cut`).
    The prefix is evaluated in one `exact.row_values` walk, so each pair
    whose two predecessors S(lambda1 - 2, lambda2) and S(lambda1 - 1,
    lambda2) were evaluated costs one step of the row recurrence; the rest
    of the row goes straight to the `STAGES`.  The verdicts are those of
    `certify` on each pair alone.  The pairs of a ratio rule share the one
    `RatioLine` of the ratio, `asymptotics.ratio_line`; any other rule's
    cascade pairs run on a line of their own.  The window and near-diagonal
    steps of every pair of one difference read the one `DiffLine` that each
    process builds for it.

    Rows are built, priced and certified as they are taken, a chunk at a
    time (`_chunks`), so only a bounded number of them is held at once; the
    scan-wide settings go with each chunk once, not with each row.  They
    run in this process until their estimated work (see `_chunks`) reaches
    `POOL_MIN_WORK`; the rest then run in a process pool, with at most as
    many workers as `parallelism`, the usable CPUs and the lambda2 values
    left, and a bounded number of chunks in flight.  The pool's chunks are
    read back in the order they were sent, so the rows are the same across
    parallelism settings (per-pair timing is recorded only when `timings`
    is set, since wall clock readings are not reproducible).  An invalid
    precision, parallelism, range or rule raises ValueError at the call,
    before any work; closing the iterator early shuts the pool down.
    """
    check_precision(prec)
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    rows = rule_rows(lambda2_range, rule)
    line = ratio_line(rule.ratio.numerator, rule.ratio.denominator, prec) if isinstance(rule, RatioRule) else None
    settings = (prec, line, timings)
    return _scan(_chunks(rows, budget), settings, min(parallelism, _usable_cpus()), lambda2_range[1])


def scan_range(
    lambda2_range: tuple[int, int],
    rule,
    budget: int = DEFAULT_BUDGET,
    prec: int = DEFAULT_PRECISION,
    parallelism: int = 1,
    timings: bool = False,
) -> ScanReport:
    """The rows of `scan_rows`, collected into a `ScanReport`."""
    return ScanReport(tuple(scan_rows(lambda2_range, rule, budget, prec, parallelism, timings)))


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
    r and a flag result is returned instead.  Every ratio needs a finite x >= 1.
    """
    check_precision(prec)
    r = Fraction(r)
    regime = classify(r)
    if regime is Regime.DEGENERATE:
        raise RegimeError(f"exception counting requires r > 1, got r = {r}")
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
