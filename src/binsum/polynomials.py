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
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import PartitionPair


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial with exact integer coefficients over a positive scale.

    The represented rational polynomial is sum(coefficients[i] * X**i) / scale.
    `family` is "c" (params: lambda2) or "tilde" (params: l, eps1, eps2)
    for the built-in families, None for derived polynomials.
    """

    coefficients: tuple[int, ...]
    scale: int = 1
    family: str | None = None
    params: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("coefficient list must be nonempty")
        if self.scale <= 0:
            raise ValueError("scale must be a positive integer")

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


def _primes_for_bound(search_bound: int) -> list[int]:
    """Primes below 2**16 whose product exceeds 2*search_bound (CRT moduli)."""

    def is_prime(n: int) -> bool:
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    primes: list[int] = []
    product = 1
    p = 65535
    while product <= 2 * search_bound:
        while not is_prime(p):
            p -= 1
        primes.append(p)
        product *= p
        p -= 1
    return primes


def _roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """All residues x with poly(x) == 0 mod p, by a vectorized Horner sweep."""
    import numpy as np  # here, not at module level: every CLI process would pay for it

    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + (c % p)) % p
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def integer_roots(poly: IntPolynomial, search_bound: int) -> list[int]:
    """All integer roots x with |x| <= search_bound, complete within the bound.

    An integer root reduces to a root modulo every prime; screening modulo a
    set of primes whose product exceeds 2*search_bound pins each candidate
    to a unique representative in the symmetric range, which is then
    verified by exact evaluation.  The scale is irrelevant to the roots.
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
    content = 0
    for c in coeffs:
        content = math.gcd(content, c)
    coeffs = [c // content for c in coeffs]
    candidates: list[int] = [0]
    modulus = 1
    for p in _primes_for_bound(search_bound):
        residues = _roots_mod_p(coeffs, p)
        if not residues:
            candidates = []
            break
        merged = []
        # CRT merge: x = a (mod modulus), x = b (mod p)
        inv = pow(modulus % p, -1, p) if modulus > 1 else 1
        for a in candidates:
            for b in residues:
                t = ((b - a) * inv) % p
                merged.append(a + modulus * t)
        candidates = merged
        modulus *= p
    half = modulus // 2
    for x in candidates:
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
    if not quotient:
        raise ValueError("degree-zero polynomial has no linear factor")
    return IntPolynomial(tuple(quotient), poly.scale)
