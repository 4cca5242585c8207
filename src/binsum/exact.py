"""Exact arbitrary-precision evaluation of the alternating binomial sums.

The central quantity is the integer

    S(l1, l2) = sum_{j=0}^{l2} (-1)**j * C(l1, j) * C(l2, j),

computed here with no rounding anywhere.  Three independent routes are
provided so that each can serve as an oracle for the others: the defining
sum above (l2 + 1 terms), a short difference-indexed sum

    S(l1, l2) = sum_{l2 <= 2j <= l1} (-1)**j * C(l2, j) * C(l1 - l2, l1 - 2j)

with at most floor(l1/2) - ceil(l2/2) + 1 terms, which is dramatically
shorter when l1 - l2 is small, and a walk along the row of fixed l2 by the
three-term recurrence in l1

    (n + 2) S(n + 2, m) = (3n + 4 - m) S(n + 1, m) - 2(n + 1) S(n, m)

(the Krawtchouk recurrence; Zeilberger's algorithm finds it too, see
Petkovsek-Wilf-Zeilberger, "A = B", 1996).  On the diagonal l1 == l2 there
is a closed form.  `row_values` evaluates a sorted run of l1 in one row for
a scan, each l1 whose two predecessors it evaluated by one step of the
recurrence.

The direct route stays the plain running-term loop (each term updated from
the previous one by exact integer multiply/divide steps), so that it is an
oracle independent of the faster code below.  The reduced route binary-splits
the sum over its term ratio, whose numerator and denominator are small
integers (Haible-Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", ANTS 1998), into a first term t0 times (Q + T) / Q.  Both
t0 and Q are ratios of factorials, so from lambda2 = 4000 on, and while Q is
at most twice as long as t0, one pass of Legendre exponents writes t0 / Q as
N / D in lowest terms and the sum as N * ((Q + T) // D): a short division
instead of a long one.  Otherwise it stays t0 * (Q + T) // Q.  Binomials
(the diagonal closed form and the uncancelled t0) and N and D are prime-power
products (Goetgheluck, "Computing binomial coefficients", Amer. Math. Monthly
1987) from one factorial-ratio helper.  Near the diagonal at lambda2 ~ 1e5 a
reduced value takes about 4-5 ms on CPython 3.11 (2-core Xeon), against 9-10
ms when dividing by Q.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from mpmath import mpf

from .numerics import DEFAULT_PRECISION, to_real


class Route(enum.Enum):
    DIRECT = "direct"
    REDUCED = "reduced"
    DIAGONAL = "diagonal"
    ROW = "row"


@dataclass(frozen=True)
class PartitionPair:
    """An input pair (lambda1, lambda2), normalized so lambda1 >= lambda2 >= 0."""

    lambda1: int
    lambda2: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lambda1, int) and isinstance(self.lambda2, int)):
            raise TypeError("lambda1 and lambda2 must be integers")
        if not self.lambda1 >= self.lambda2 >= 0:
            raise ValueError(
                f"pair must satisfy lambda1 >= lambda2 >= 0, got ({self.lambda1}, {self.lambda2})"
            )

    @functools.cached_property
    def ratio(self) -> Fraction:
        """The ratio r = lambda1/lambda2, kept exact and built once per pair.
        Undefined for lambda2 = 0."""
        if self.lambda2 == 0:
            raise ValueError("ratio undefined for lambda2 = 0")
        return Fraction(self.lambda1, self.lambda2)

    @property
    def difference(self) -> int:
        return self.lambda1 - self.lambda2

    @property
    def congruence_class(self) -> int:
        return congruence_class(self.lambda1, self.lambda2)


def congruence_class(lambda1: int, lambda2: int) -> int:
    """The class (lambda1 + lambda2) mod 4 that picks the window clauses."""
    return (lambda1 + lambda2) % 4


@dataclass(frozen=True)
class ExactValue:
    """An exactly computed sum value together with the route that produced it."""

    value: int
    pair: PartitionPair
    route: Route


# math.comb beats the prime-power product while k**2 <= 250*n for the smaller
# of k and n - k; for central binomials that is every n <= 1000.  Measured
# for C(n, n//2) on CPython 3.11 (2-core Xeon, best of 41 interleaved runs,
# math.comb against prime powers, in us): n = 800 29.5 / 36.5, 900 33.1 /
# 35.5, 950 35.8 / 36.8, 1000 37.5 / 35.8, 1100 60.5 / 41.7, 1200 68.3 /
# 44.2, 1400 82.6 / 47.9.  math.comb's algorithm differs between CPython
# versions, so on others the crossover (and whether the prime-power route
# wins at all) is unverified.
_COMB_CROSSOVER = 250

# The reduced route cancels its first term against Q (see `eval_reduced`)
# from this lambda2 on, and while Q has at most 2 * lambda2 bits, about
# twice the first term's (C(l2, j0) ~ 2**l2 times C(d, m), which is 1 or d).
# Measured on CPython 3.11 (2-core Xeon), against t0 * (Q + T) // Q: 10-20%
# slower for d >= 100 at lambda2 = 1500-2500, level at 3000-3500 and faster
# from 4000 on, 1.03x at Q ~ 2 * lambda2 bits there; near the diagonal
# 1.2x at lambda2 = 5000 and 2.1x at 1e5.  Past 2 * lambda2 bits the
# division by the denominator costs about as much as the one it replaces.
_CANCEL_MIN_LAMBDA2 = 4000

# Binary splitting of the reduced sum stops at leaves of at most this many
# term ratios, which a plain loop accumulates.
_LEAF_RATIOS = 32


# The primes up to the largest n sieved so far, one list: a smaller n reads
# a prefix, so a run of big binomials of about one size sieves once.
_sieved_primes: list[int] = []
_sieved_to = 1


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by the sieve of Eratosthenes, kept for later calls."""
    global _sieved_primes, _sieved_to
    if n > _sieved_to:
        sieve = bytearray([1]) * (n + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
        _sieved_primes = list(itertools.compress(range(n + 1), sieve))
        _sieved_to = n
    return _sieved_primes[: bisect.bisect_right(_sieved_primes, n)]


def _product(factors: list[int]) -> int:
    """Product of a list (1 for an empty one) in a balanced tree, so that
    operands of each big multiplication have about the same size."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _factorial_ratio(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """prod(n! for n in num) / prod(n! for n in den) in lowest terms, as
    (the prime powers of its numerator, those of its denominator).

    The prime p divides n! exactly sum_{i >= 1} n // p**i times (Legendre's
    formula); a prime's exponent is that count over num minus the count over
    den.  Primes up to low ~ top**(2/3), top the largest n, sum the series.
    Above low, p**2 > top leaves the one term n // p, which is below
    top // low and changes only at the cuts n // k: the primes between two
    neighbouring cuts share one exponent, found once for the whole run.
    """
    top = max(*num, *den)
    primes = _primes_upto(top)
    up: list[int] = []
    down: list[int] = []
    low = max(1, math.isqrt(top), round(top ** (2 / 3)))
    i = bisect.bisect_right(primes, low)
    for p in primes[:i]:
        e = 0
        for n in num:
            while n >= p:
                n //= p
                e += n
        for n in den:
            while n >= p:
                n //= p
                e -= n
        if e:
            (up if e > 0 else down).append(p ** abs(e))
    cuts = sorted({c for n in (*num, *den) for k in range(1, top // low + 1) if (c := n // k) > low})
    for cut in cuts:
        j = bisect.bisect_right(primes, cut, i)
        e = sum([n // cut for n in num]) - sum([n // cut for n in den])
        if e and j > i:
            run = primes[i:j]
            (up if e > 0 else down).extend(run if abs(e) == 1 else [p ** abs(e) for p in run])
        i = j
    return up, down


def _comb(n: int, k: int) -> int:
    """C(n, k), equal to math.comb(n, k) for all integer arguments.

    Away from the small cases that math.comb handles faster, the prime
    powers of n! / (k! (n-k)!) are multiplied in a balanced product tree.
    """
    small = min(k, n - k)
    if small < 0 or small * small <= _COMB_CROSSOVER * n:
        return math.comb(n, k)
    return _product(_factorial_ratio((n,), (small, n - small))[0])


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with the convention C(n, k) = 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return _comb(n, k)


def eval_direct(pair: PartitionPair) -> ExactValue:
    """Evaluate the defining sum, updating each term from the previous one.

    The running magnitude C(l1,j)C(l2,j) is advanced by multiplying with
    (l1-j+1)(l2-j+1)/j**2 in two exact integer steps.
    """
    l1, l2 = pair.lambda1, pair.lambda2
    term = 1
    total = 1
    for j in range(1, l2 + 1):
        term = term * (l1 - j + 1) // j
        term = term * (l2 - j + 1) // j
        total += -term if j % 2 else term
    return ExactValue(total, pair, Route.DIRECT)


def row_step(n: int, m: int, s0: int, s1: int) -> int:
    """S(n + 2, m) from s0 = S(n, m) and s1 = S(n + 1, m), n >= 0.

    The three-term recurrence in the first argument; the numerator is
    (n + 2) S(n + 2, m), so the floor division is exact.
    """
    return ((3 * n + 4 - m) * s1 - 2 * (n + 1) * s0) // (n + 2)


def eval_row(pair: PartitionPair) -> ExactValue:
    """Walk `row_step` up the row of fixed lambda2 from S(0, m) = 1 and
    S(1, m) = 1 - m; lambda1 - 1 steps of O(bits) each."""
    l1, m = pair.lambda1, pair.lambda2
    s0, s1 = 1, 1 - m
    for n in range(l1 - 1):
        s0, s1 = s1, row_step(n, m, s0, s1)
    return ExactValue(s1 if l1 else s0, pair, Route.ROW)


def _split_ratios(l2: int, d: int, j0: int, m0: int, a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of the reduced sum's term ratios a <= s < b.

    Ratio s takes the term at j = j0 + s, m = l1 - 2j = m0 - 2s to the next
    one and equals p_s/q_s with p_s = -(l2 - j) m (m - 1) and
    q_s = (j + 1)(d - m + 1)(d - m + 2).  Returns (P, Q, T) with P and Q the
    products of the p_s and q_s, and T/Q = sum_{a <= i < b} prod_{a <= s <= i} p_s/q_s.
    """
    if b - a <= _LEAF_RATIOS:
        p_prod, q_prod, t = 1, 1, 0
        m = m0 - 2 * a
        c = d - m
        for j in range(j0 + a, j0 + b):
            p = (j - l2) * m * (m - 1)
            q = (j + 1) * (c + 1) * (c + 2)
            t = t * q + p_prod * p
            p_prod *= p
            q_prod *= q
            m -= 2
            c += 2
        return p_prod, q_prod, t
    mid = (a + b) // 2
    p1, q1, t1 = _split_ratios(l2, d, j0, m0, a, mid)
    p2, q2, t2 = _split_ratios(l2, d, j0, m0, mid, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def eval_reduced(pair: PartitionPair) -> ExactValue:
    """Evaluate the short difference-indexed sum; requires lambda1 >= lambda2.

    The terms run over j0 = ceil(l2/2) <= j <= floor(l1/2) = j1, and the sum
    is +-t0 * (Q + T) / Q for the first term t0 = C(l2, j0) C(d, m) and
    (P, Q, T) from `_split_ratios`.  Q = j1!/j0! * (2 j1 - l2)!/(2 j0 - l2)!,
    so t0 / Q = l2! d! / (j1! (l2 - j0)! m! (2 j1 - l2)!) = N / D in lowest
    terms, and D divides Q + T because the sum is an integer.  Where that
    pays, the sum is N * ((Q + T) // D), a short division; elsewhere it is
    t0 * (Q + T) // Q.  Both are exact, so the rule never changes a value.
    """
    l1, l2 = pair.lambda1, pair.lambda2
    d = l1 - l2
    j0 = (l2 + 1) // 2
    j1 = l1 // 2
    if j0 > j1:
        return ExactValue(0, pair, Route.REDUCED)
    m = l1 - 2 * j0
    _, q, t = _split_ratios(l2, d, j0, m, 0, j1 - j0)
    if l2 >= _CANCEL_MIN_LAMBDA2 and q.bit_length() <= 2 * l2:
        up, down = _factorial_ratio((l2, d), (j1, l2 - j0, m, 2 * j1 - l2))
        up.append((q + t) // _product(down))
        total = _product(up)
    else:
        total = _comb(l2, j0) * _comb(d, m) * (q + t) // q
    return ExactValue(-total if j0 % 2 else total, pair, Route.REDUCED)


def eval_diagonal(lam: int) -> ExactValue:
    """Closed form on the diagonal: 0 for odd lam, (-1)**(lam/2) C(lam, lam/2) else."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    pair = PartitionPair(lam, lam)
    if lam % 2:
        return ExactValue(0, pair, Route.DIAGONAL)
    value = _comb(lam, lam // 2)
    if (lam // 2) % 2:
        value = -value
    return ExactValue(value, pair, Route.DIAGONAL)


def reduced_term_count(pair: PartitionPair) -> int:
    """Number of terms the difference-indexed route would sum."""
    return max(0, pair.lambda1 // 2 - (pair.lambda2 + 1) // 2 + 1)


def _automatic_route(pair: PartitionPair) -> Route:
    """The route rule off the diagonal: the reduced route when it sums at
    most lambda2 terms, fewer than the direct route's lambda2 + 1."""
    return Route.REDUCED if reduced_term_count(pair) <= pair.lambda2 else Route.DIRECT


def evaluate(pair: PartitionPair, route: Route | None = None) -> ExactValue:
    """Evaluate by the requested route, or pick the one with fewer terms
    (the diagonal closed form on the diagonal)."""
    if route is Route.DIRECT:
        return eval_direct(pair)
    if route is Route.REDUCED:
        return eval_reduced(pair)
    if route is Route.ROW:
        return eval_row(pair)
    if route is Route.DIAGONAL:
        if pair.lambda1 != pair.lambda2:
            raise ValueError("diagonal route requires lambda1 == lambda2")
        return eval_diagonal(pair.lambda1)
    if pair.lambda1 == pair.lambda2:
        return eval_diagonal(pair.lambda1)
    if _automatic_route(pair) is Route.REDUCED:
        return eval_reduced(pair)
    return eval_direct(pair)


def row_values(lambda2: int, lambda1s: Iterable[int]) -> Iterator[int]:
    """S(l1, lambda2) for each l1 of `lambda1s` in turn: one `row_step` when
    l1 comes right after the last one and the two values before it are
    known, else a fresh `evaluate` (the first l1, a gap or a repeat).  It is
    lazy, one value per `next()`, and a step costs one comparison besides
    the recurrence."""
    # follow is the l1 after the last one, and step_at is follow when the
    # two values before it are known (before and value), else None
    before = value = follow = step_at = None
    for l1 in lambda1s:
        if l1 == step_at:
            before, value = value, row_step(l1 - 2, lambda2, before, value)
            step_at += 1
        else:
            step_at = l1 + 1 if l1 == follow else None
            before, value = value, evaluate(PartitionPair(l1, lambda2)).value
        follow = l1 + 1
        yield value


def evaluation_cost(pair: PartitionPair) -> int:
    """Cost estimate in 64-bit word multiplications for an exact evaluation.

    Term count is the automatic route's; each term costs about one product
    of lambda1-bit numbers, i.e. (lambda1/64)**2 word multiplies.  Both
    factors are nondecreasing in lambda1 at fixed lambda2, so the pairs of a
    sorted row that a budget admits form a prefix.  A scan that walks its
    row by `row_values` pays far less, but is charged the same.
    """
    return pair_cost(pair.lambda1, pair.lambda2)


def pair_cost(lambda1: int, lambda2: int) -> int:
    """`evaluation_cost` of the pair (lambda1, lambda2), lambda1 >= lambda2 >= 0,
    from its two integers, so a scan prices its rows without building pairs.
    The automatic route sums min(`reduced_term_count`, lambda2 + 1) terms."""
    words = max(1, (lambda1 + 63) // 64)
    terms = lambda1 // 2 - (lambda2 + 1) // 2 + 1
    # a scan prices every row by this, so the clamps are plain comparisons
    if terms > lambda2:
        terms = lambda2 + 1
    return (terms if terms > 1 else 1) * words * words


def normalized_I(pair: PartitionPair, prec: int = DEFAULT_PRECISION) -> mpf:
    """The normalized contour value I = (-1)**lambda2 * S(l1, l2) as a real.

    The sign flip is exact; only the final integer-to-real conversion rounds.
    """
    if pair.lambda2 < 1:
        raise ValueError("normalized value requires lambda2 >= 1 (ratio undefined otherwise)")
    value = evaluate(pair).value
    if pair.lambda2 % 2:
        value = -value
    return to_real(value, prec)
