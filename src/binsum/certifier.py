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
read the pair's integers and the per-line decision objects of `asymptotics`:
the pair's `RatioLine` decides the supercritical and oscillatory steps (a
scan of a ratio line reads the one line of its ratio, `ratio_line`, while
`certify` and every other scan build one for each pair), and the `DiffLine`
of the pair's difference (`diff_line`, one per difference and precision in
a process) decides the window and near-diagonal steps and, near the
diagonal, the oscillatory gate.  Their docstrings say how each decides from
integer thresholds and enclosures and runs the kernels where those leave an
outcome open, so every verdict and margin is the kernels'.  Either way the
one cascade returns a plain scan record, which `certify` returns as a
`Certificate`, the named tuple of the record's fields, so a scanned pair
and a certified pair get the same verdict, margin and output bytes.  Why
each stage is sound, and why its gate loses nothing:

  term-growth: for l1 > l2*(l2+1) - 1 the alternating summands grow
      strictly in absolute value, so the sum cannot vanish;
  supercritical: the explicit error bound certified below 1 forces the
      scaled integral to stay near 1, hence nonzero (given a delta,
      `certify` also tries the refined bound);
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

Inconclusive is an honest outcome and is never retried with looser slack:
pairs where the cosine is certifiably small are exactly the possible
exceptions the theory allows, and they must surface in reports.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import os
import time
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from mpmath import mp, mpf, workprec
from mpmath.libmp import fone

from .asymptotics import (
    NEAR_DIAGONAL_MIN_DIFFERENCE,
    REFINED_BOUND_MAX_RATIO,
    RatioLine,
    Regime,
    RegimeError,
    check_delta,
    classify,
    diff_line,
    negated_discriminant,
    ratio_line,
    supercritical_error_bound_refined,
)
# bound here because `binsum` exports them from here and perfbench traces the `intervals` command's call
from .asymptotics import DifferenceWindow, difference_windows
from . import exact
from .exact import PartitionPair, evaluation_cost, pair_cost
from .numerics import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    SLACK,
    Comparison,
    certified_compare,
    certified_margin,
    check_precision,
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
    margin = certified_margin(fone, supercritical_error_bound_refined(line.ratio, l2, line.delta, line.prec)._mpf_)
    if margin is None:
        return None
    return l1, _SUPERCRITICAL, "refined supercritical saddle bound", margin, None, None, None, None, 0


def _oscillatory_gate(line: RatioLine, l1: int, l2: int) -> bool:
    # up to the reach the bound is >= 1 >= |cos|, so no comparison can
    # accept.  A pair in the near-diagonal gate is subcritical, and the
    # `DiffLine` of its difference holds the least lambda2 above the reach,
    # so the pair's line need not compute its own (see `DiffLine`)
    if _near_diagonal_gate(line, l1, l2):
        return diff_line(l1 - l2, line.wp).past_reach(l2)
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


def _window_step(line: RatioLine, l1: int, l2: int) -> tuple | None:
    # the gate admits only d >= 702, where the window-table part of a clause
    # is all of it: every small-difference window ends at d <= 701.  A
    # clause's lower end is tested only when its upper end admits d.
    clause = diff_line(l1 - l2, line.wp).window_clause(l2, (l1 + l2) % 4)
    if clause is None:
        return None
    return l1, _INTERVAL, "certified difference window", None, None, None, clause, None, 0


def _near_diagonal_step(line: RatioLine, l1: int, l2: int) -> tuple | None:
    margin = diff_line(l1 - l2, line.wp).near_diagonal_margin(l1, l2)
    if margin is None:
        return None
    return l1, _OSCILLATORY, "near-diagonal window bound", margin, None, None, None, None, 0


# The cascade after exact evaluation, in order: (stage id, gate, step).  A
# gate is an exact test of the pair alone; a step runs only behind its gate.
# Both are called as f(line, lambda1, lambda2) for a pair of the `RatioLine`
# line, which carries the precision and the optional delta.  A step returns
# the pair's scan record or None: it words the verdict and margin of the
# pair's `RatioLine` or `DiffLine`, which decide beyond the fixed `SLACK`
# (see `asymptotics`).
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
