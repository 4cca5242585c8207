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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

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
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

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
    # j + 1 multiplies in (k - j) and divides out (k + j + 1 + eps1) exactly
    term = _prod_linear_range(1 + eps1, l + eps1 * eps2)
    for j in range(jmax + 1):
        w = math.comb(n, 2 * j + eps1)
        _poly_add_scaled(coeffs, term, -w if j % 2 else w)
        if j < jmax:
            term, _ = _divide_linear(_poly_mul_linear(term, -j), -(j + 1 + eps1))
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


def _horner_mod(coeffs: list[int], x: int, m: int) -> int:
    """poly(x) mod m for ascending `coeffs` already reduced mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
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


def _gcd_degree_mod(a: list[int], b: list[int], q: int) -> int:
    """Degree of gcd(a, b) over the field of q elements, for a prime q
    dividing neither leading coefficient."""

    def trimmed(poly: list[int]) -> list[int]:
        while poly and poly[-1] == 0:
            poly.pop()
        return poly

    a = trimmed([c % q for c in a])
    b = trimmed([c % q for c in b])
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % q, len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - c * y) % q
            trimmed(a)
        a, b = b, a
    return len(a) - 1


# a Mersenne prime, so no search is needed; a leading coefficient it divides
# sends the polynomial to the exact remainder sequence
_SQUAREFREE_TEST_PRIME = 2**61 - 1


def _squarefree_part(coeffs: list[int]) -> list[int]:
    """f / gcd(f, f') for a primitive f of degree >= 1 with a positive
    leading coefficient: the same roots, each simple.

    A repeated factor of f divides f' too, so it divides gcd(f, f') modulo
    every prime q not dividing the leading coefficient: when that gcd is
    constant modulo _SQUAREFREE_TEST_PRIME, f is squarefree and is returned
    as it is.  Otherwise the gcd g comes from a primitive remainder sequence
    over the integers, and f / g is the primitive part of the pseudo-quotient.
    """
    df = _derivative(coeffs)
    q = _SQUAREFREE_TEST_PRIME
    if coeffs[-1] % q and _gcd_degree_mod(coeffs, df, q) == 0:
        return coeffs
    a, b = coeffs, _primitive(df)
    while True:
        r = _pseudo_divide(a, b)[1]
        if not r:
            return _primitive(_pseudo_divide(coeffs, b)[0])
        a, b = b, _primitive(r)


def _simple_roots_mod_p(coeffs: list[int], p: int) -> list[int] | None:
    """The roots of the polynomial modulo p, or None at the first multiple root."""
    f = [c % p for c in coeffs]
    df = [c % p for c in _derivative(coeffs)]
    roots = []
    for x in range(p):
        if _horner_mod(f, x, p) == 0:
            if _horner_mod(df, x, p) == 0:
                return None
            roots.append(x)
    return roots


def integer_roots(poly: IntPolynomial, search_bound: int) -> list[int]:
    """All integer roots x with |x| <= search_bound, complete within the bound.

    After the zero roots and the content are stripped, f is replaced by its
    squarefree part f / gcd(f, f'), which has the same roots, each simple.
    Then take the smallest prime p that does not divide the leading
    coefficient and at which every root of f modulo p is simple (f' does
    not vanish there).  Only the finitely many primes dividing the
    discriminant of the squarefree f can fail, so the search ends.  Each
    integer root x of f reduces to one of those roots, and a simple root
    modulo p has exactly one lift modulo p**e for every e (Hensel's lemma),
    so Newton-lifting every root to a modulus p**e > 2*search_bound leaves
    x as the symmetric representative of one lift.  Every representative
    within the bound is verified by exact evaluation.  The scale is
    irrelevant to the roots.
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
    coeffs = _squarefree_part(_primitive(coeffs))
    for p in _sieved_primes():
        if coeffs[-1] % p:
            residues = _simple_roots_mod_p(coeffs, p)
            if residues is not None:
                break
    modulus = p
    derivative = _derivative(coeffs)
    while modulus <= 2 * search_bound and residues:
        modulus *= modulus
        f = [c % modulus for c in coeffs]
        df = [c % modulus for c in derivative]
        residues = [
            (x - _horner_mod(f, x, modulus) * pow(_horner_mod(df, x, modulus), -1, modulus)) % modulus
            for x in residues
        ]
    half = modulus // 2
    for x in residues:
        if x > half:
            x -= modulus
        if abs(x) <= search_bound and poly.scaled_value(x) == 0:
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
