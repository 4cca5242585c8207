"""Exact integer polynomial families attached to the alternating sums.

For fixed l2 the sum S(l1, l2) is a polynomial of degree l2 in l1; scaled by
l2! it has integer coefficients ("c" family).  For a fixed difference
l1 - l2 the short summation route yields, after stripping a factorial
prefactor, four integer polynomial families in k = floor(l2/2), indexed by
l = floor((l1-l2)/2) and the parities eps1 = l2 mod 2, eps2 = (l1-l2) mod 2
("tilde" family).  Excluding integer roots of these polynomials certifies
nonvanishing over whole parameter lines, which is the desk-scale stand-in
for full irreducibility computations (an irreducible polynomial of degree
at least two has no integer zero, and only integer zeros correspond to
actual parameter pairs).

`integer_roots` walks the polynomial f itself, squarefree or not, up to the
first prime at which every root of f is simple: by Hensel's lemma each such
root lifts in one way only, so the lifts of those roots hold every integer
root.  One table of exact values f(0), f(1), ... gives the roots modulo
each prime, and the lifts stop once the modulus passes twice a power-of-two
form of Fujiwara's root bound (Tohoku Math. J. 10, 1916) or of the caller's
bound, whichever is smaller.  Only when more primes than deg f have failed,
as on a repeated linear factor, is f replaced by its squarefree part.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import PartitionPair, primes_upto


class _Polynomial(NamedTuple):
    coefficients: tuple[int, ...]
    scale: int = 1
    family: str | None = None
    params: tuple[int, ...] = ()


class IntPolynomial(_Polynomial):
    """A polynomial with exact integer coefficients over a positive scale.

    The represented rational polynomial is sum(coefficients[i] * X**i) / scale.
    `family` is "c" (params: lambda2) or "tilde" (params: l, eps1, eps2)
    for the built-in families, None for derived polynomials.  A named tuple
    whose constructor checks the coefficients and the scale.
    """

    def __new__(cls, *args, **kwargs) -> IntPolynomial:
        self = super().__new__(cls, *args, **kwargs)
        if not self.coefficients:
            raise ValueError("coefficient list must be nonempty")
        if self.scale <= 0:
            raise ValueError("scale must be a positive integer")
        return self

    # `_replace` builds through `_make`, which checks the polynomial too
    @classmethod
    def _make(cls, iterable) -> IntPolynomial:
        return cls(*iterable)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        for i in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[i]:
                return i
        return -1

    @property
    def is_zero(self) -> bool:
        return self.degree == -1

    def scaled_value(self, x: int) -> int:
        """The integer numerator polynomial evaluated at x (Horner)."""
        return _value(self.coefficients, x)

    def value(self, x: int) -> Fraction:
        return Fraction(self.scaled_value(x), self.scale)

    def reduced(self) -> "IntPolynomial":
        """Divide coefficients and scale by their common gcd."""
        g = self.scale
        for c in self.coefficients:
            g = math.gcd(g, c)
            if g == 1:
                return self
        return IntPolynomial(
            tuple(c // g for c in self.coefficients), self.scale // g, self.family, self.params
        )

    def to_json_dict(self) -> dict:
        """Schema: {family, params, scale, coefficients[]} with decimal-string integers."""
        if self.family == "c":
            params = {"lambda2": self.params[0]}
        elif self.family == "tilde":
            params = {"l": self.params[0], "eps1": self.params[1], "eps2": self.params[2]}
        else:
            params = {}
        return {
            "family": self.family,
            "params": params,
            "scale": str(self.scale),
            "coefficients": [str(c) for c in self.coefficients],
        }


def _poly_add_scaled(acc: list[int], poly: list[int], w: int) -> None:
    for i, c in enumerate(poly):
        acc[i] += w * c


def _poly_mul_linear(poly: list[int], a: int) -> list[int]:
    """poly * (X + a), ascending coefficients."""
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] += a * c
        out[i + 1] += c
    return out


def _divide_linear(poly: list[int], root: int) -> tuple[list[int], int]:
    """Synthetic division of ascending `poly` by (X - root): (quotient, remainder)."""
    desc = [poly[-1]]
    for c in reversed(poly[:-1]):
        desc.append(c + root * desc[-1])
    remainder = desc.pop()
    return desc[::-1], remainder


def c_poly(lambda2: int) -> IntPolynomial:
    """The degree-lambda2 polynomial P with P(l1)/scale = S(l1, l2) for all l1 >= 0.

    Expands l2! * sum_j (-1)**j C(l2,j) C(X,j) into monomial coefficients
    (the tests check it against exact interpolation of the sums themselves).
    """
    if lambda2 < 0:
        raise ValueError("lambda2 must be nonnegative")
    fact = math.factorial(lambda2)
    coeffs = [0] * (lambda2 + 1)
    falling = [1]  # X*(X-1)*...*(X-j+1), ascending
    for j in range(lambda2 + 1):
        w = math.comb(lambda2, j) * (fact // math.factorial(j))
        if j % 2:
            w = -w
        _poly_add_scaled(coeffs, falling, w)
        falling = _poly_mul_linear(falling, -j)
    return IntPolynomial(tuple(coeffs), fact, "c", (lambda2,)).reduced()


def _prod_linear_range(lo: int, hi: int) -> list[int]:
    """Coefficients of prod_{a=lo}^{hi} (X + a); empty range gives 1."""
    poly = [1]
    for a in range(lo, hi + 1):
        poly = _poly_mul_linear(poly, a)
    return poly


def tilde_poly(l: int, eps1: int, eps2: int) -> IntPolynomial:
    """The integer polynomial in k for difference parameters (l, eps1, eps2).

    With n = 2l + eps2 the families are

      eps1 = 0: sum_{0<=j<=l}   (-1)**j C(n, 2j)   (k+j+1)...(k+l)   * k(k-1)...(k-j+1)
      eps1 = 1, eps2 = 0:
                sum_{0<=j<=l-1} (-1)**j C(n, 2j+1) (k+j+2)...(k+l)   * k(k-1)...(k-j+1)
      eps1 = 1, eps2 = 1:
                sum_{0<=j<=l}   (-1)**j C(n, 2j+1) (k+j+2)...(k+l+1) * k(k-1)...(k-j+1)
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if eps1 not in (0, 1) or eps2 not in (0, 1):
        raise ValueError("eps1 and eps2 must be 0 or 1")
    n = 2 * l + eps2
    coeffs = [0] * (l + 2)
    jmax = l - 1 if (eps1, eps2) == (1, 0) else l
    # term = k(k-1)...(k-j+1) * (k+j+1+eps1)...(k+l+eps1*eps2); stepping to
    # j + 1 multiplies in (k - j) and divides out (k + a), a = j + 1 + eps1,
    # exactly.  The quotient q of term*(k - j) by (k + a) has the top
    # coefficient of term and q_(i-1) = term_(i-1) - j*term_i - a*q_i, so one
    # descending pass updates term in place
    term = _prod_linear_range(1 + eps1, l + eps1 * eps2)
    for j in range(jmax + 1):
        w = math.comb(n, 2 * j + eps1)
        _poly_add_scaled(coeffs, term, -w if j % 2 else w)
        if j < jmax:
            a, above = j + 1 + eps1, term[-1]
            for i in range(len(term) - 1, 0, -1):
                below = term[i - 1]
                term[i - 1] = below - j * above - a * term[i]
                above = below
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(coeffs), 1, "tilde", (l, eps1, eps2)).reduced()


def tilde_parameters(pair: PartitionPair) -> tuple[int, int, int, int]:
    """(l, eps1, eps2, k) for a pair: l2 = 2k + eps1, l1 = l2 + 2l + eps2."""
    d = pair.difference
    eps1 = pair.lambda2 % 2
    eps2 = d % 2
    return d // 2, eps1, eps2, pair.lambda2 // 2


def tilde_prefactor(pair: PartitionPair) -> Fraction:
    """The exact prefactor relating the tilde value at k to S(l1, l2):

        S(l1, l2) = l2! * (-1)**ceil(l2/2) / (floor(l1/2)! * floor(l2/2)!) * tilde(k).
    """
    l1, l2 = pair.lambda1, pair.lambda2
    sign = -1 if ((l2 + 1) // 2) % 2 else 1
    return Fraction(
        sign * math.factorial(l2), math.factorial(l1 // 2) * math.factorial(l2 // 2)
    )


def _sieved_primes():
    """2, 3, 5, 7, ... read from `primes_upto`, whose limit doubles each time
    the walk passes it."""
    limit, start = 64, 0
    while True:
        primes = primes_upto(limit)
        yield from primes[start:]
        limit, start = 2 * limit, len(primes)


def _value(coeffs: Sequence[int], x: int) -> int:
    """poly(x) for ascending `coeffs`, exactly (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _primitive(coeffs: list[int]) -> list[int]:
    """Divide out the content and make the leading coefficient positive."""
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lead(b)**k * a == q*b + r for some k >= 0 and deg r < deg b.

    The remainder carries no trailing zeros, so an exact division leaves [].
    """
    a = list(a)
    lead, db = b[-1], len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c, shift = a[-1], len(a) - 1 - db
        q = [lead * x for x in q]
        q[shift] += c
        a = [lead * x for x in a]
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _squarefree_part(coeffs: list[int]) -> list[int]:
    """f / gcd(f, f') for a primitive f of degree >= 1 with a positive
    leading coefficient: the same roots, each simple.  The gcd g comes from a
    primitive remainder sequence over the integers, and f / g is the
    primitive part of the pseudo-quotient.
    """
    a, b = coeffs, _primitive(_derivative(coeffs))
    while True:
        r = _pseudo_divide(a, b)[1]
        if not r:
            return _primitive(_pseudo_divide(coeffs, b)[0])
        a, b = b, _primitive(r)


def _root_bound(coeffs: list[int]) -> int:
    """A power of two B with |x| < B at every complex root x of the
    polynomial (ascending `coeffs`, nonzero constant term, degree n >= 1).

    Fujiwara's bound is 2 * max_i |a_(n-i) / a_n|**(1/i), with the i = n
    term halved.  Each ratio is below 2**(len(a_(n-i)) - len(a_n) + 1) in
    bit lengths, so its i-th root is below 2 to that exponent over i,
    rounded up; zero coefficients add no term.
    """
    n, top = len(coeffs) - 1, coeffs[-1].bit_length()
    e = max(-((top - 1 - c.bit_length()) // (n - i)) for i, c in enumerate(coeffs[:-1]) if c)
    return 2 << max(e, 0)


def _simple_residues(coeffs: list[int], max_failures: float) -> tuple[int, list[int], list[int], list[int]] | None:
    """(p, roots of f mod p, f at those roots, f' mod p at them) for the
    first prime p at which every root of f mod p is simple; None once more
    than `max_failures` primes have failed.

    The residues are read from one table of exact values f(0), f(1), ...,
    extended as p grows, and f' is evaluated only where f vanishes mod p.
    """
    derivative = _derivative(coeffs)
    table: list[int] = []
    for passed, p in enumerate(_sieved_primes()):
        if passed > max_failures:
            return None
        table.extend(_value(coeffs, x) for x in range(len(table), p))
        residues = [x for x in range(p) if table[x] % p == 0]
        slopes = []
        for x in residues:
            slopes.append(_value(derivative, x) % p)
            if slopes[-1] == 0:
                break
        else:
            return p, residues, [table[x] for x in residues], slopes


def integer_roots(poly: IntPolynomial, search_bound: int) -> list[int]:
    """All integer roots x with |x| <= search_bound, complete within the bound.

    The walk takes f, the input with its zero roots and its content
    stripped, and looks for the smallest prime p at which every root of f
    modulo p is simple (f' does not vanish there).  Each integer root x of f
    reduces to one of those roots, and a simple root modulo p has exactly
    one lift modulo p**e for every e (Hensel's lemma).  Only the roots
    modulo p need be simple: that holds whether f is squarefree or not, and
    whether p divides the leading coefficient or not (f is primitive, so it
    is not 0 modulo p).  Every root modulo p is Newton-lifted until
    p**e > 2 * min(search_bound, B), with B the power of two of
    `_root_bound` above every |root|, which leaves x as the symmetric
    representative of one lift.  Each representative within both bounds is
    verified by exact evaluation.  The scale is irrelevant to the roots.

    A repeated linear factor of f is a multiple root modulo every prime
    that does not divide its leading coefficient, so on such an f the walk
    would not end; on a squarefree f only the finitely many primes dividing
    the leading coefficient or the discriminant can fail.  So once more
    primes than deg f have failed, f is replaced by its squarefree part
    f / gcd(f, f'), which has the same roots, each simple, and the walk
    starts again on it and ends.  The count is not a tuning: by then the
    table holds f at more than deg f points, each O(deg f) big-integer
    steps, so the walk has already cost the O((deg f)**2) steps of the
    remainder sequence that the gcd takes.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    coeffs = list(poly.coefficients[: poly.degree + 1])
    roots: set[int] = set()
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.add(0)
    if len(coeffs) == 1:
        return sorted(roots)
    coeffs = _primitive(coeffs)
    walk = _simple_residues(coeffs, len(coeffs) - 1)
    if walk is None:
        coeffs = _squarefree_part(coeffs)
        walk = _simple_residues(coeffs, math.inf)
    p, residues, values, slopes = walk
    reach = min(search_bound, _root_bound(coeffs))
    derivative = _derivative(coeffs)
    modulus = p
    while modulus <= 2 * reach and residues:
        lifted = modulus * modulus
        if modulus > p:  # the table gave the values for the first lift only
            values = [_value(coeffs, x) for x in residues]
            slopes = [_value(derivative, x) for x in residues]
        # f(x) is divisible by the modulus, so f'(x) matters only modulo it
        residues = [(x - v % lifted * pow(s, -1, modulus)) % lifted for x, v, s in zip(residues, values, slopes)]
        modulus = lifted
    half = modulus // 2
    for x in residues:
        if x > half:
            x -= modulus
        if abs(x) <= reach and poly.scaled_value(x) == 0:
            roots.add(x)
    return sorted(roots)


def factor_linear(poly: IntPolynomial, root: int) -> IntPolynomial:
    """Exact synthetic division by (X - root); the same scale is kept.

    quotient * (X - root) reproduces the input over that scale; a nonzero
    remainder (root is not an exact zero) raises.
    """
    if poly.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    quotient, remainder = _divide_linear(list(poly.coefficients[: poly.degree + 1]), root)
    if remainder != 0:
        raise ValueError(f"{root} is not a root (remainder {remainder})")
    return IntPolynomial(tuple(quotient), poly.scale)
