import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binsum import polynomials
from binsum.exact import PartitionPair, eval_direct
from binsum.polynomials import (
    IntPolynomial,
    c_poly,
    factor_linear,
    integer_roots,
    tilde_parameters,
    tilde_poly,
    tilde_prefactor,
)


def _c_poly_interpolated(lambda2: int) -> list[Fraction]:
    """Newton interpolation of X -> S(X, lambda2) on the nodes lambda2..2*lambda2."""
    nodes = list(range(lambda2, 2 * lambda2 + 1))
    values = [Fraction(eval_direct(PartitionPair(x, lambda2)).value) for x in nodes]
    # divided differences in place
    dd = values[:]
    for level in range(1, len(nodes)):
        for i in range(len(nodes) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])
    # expand the Newton form to monomials
    coeffs = [Fraction(0)] * len(nodes)
    basis = [Fraction(1)]  # product of (X - nodes[0]) ... ascending
    for level, c in enumerate(dd):
        for i, b in enumerate(basis):
            coeffs[i] += c * b
        nb = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nb[i] -= nodes[level] * b
            nb[i + 1] += b
        basis = nb
    return coeffs


def test_c_poly_matches_interpolation_of_the_sums():
    for lambda2 in [*range(0, 31), 38, 45, 60]:
        poly = c_poly(lambda2)
        assert [Fraction(c, poly.scale) for c in poly.coefficients] == _c_poly_interpolated(lambda2), lambda2


def test_c_poly_small_cases():
    assert c_poly(0).coefficients == (1,)
    assert c_poly(0).scale == 1
    p1 = c_poly(1)
    assert p1.coefficients == (1, -1) and p1.scale == 1
    p3 = c_poly(3)
    assert p3.value(3) == 0


def test_c_poly_degree_and_consistency():
    for lambda2 in range(0, 26):
        poly = c_poly(lambda2)
        assert poly.degree == lambda2
        for l1 in range(lambda2, 61, 7):
            assert poly.value(l1) == eval_direct(PartitionPair(l1, lambda2)).value


def test_c_poly_reduced_invariant():
    for lambda2 in (4, 9, 17):
        poly = c_poly(lambda2)
        g = poly.scale
        for c in poly.coefficients:
            g = math.gcd(g, c)
        assert g == 1


def test_c_poly_consistency_at_larger_sizes():
    for lambda2 in (40, 51, 60):
        poly = c_poly(lambda2)
        assert poly.degree == lambda2
        for l1 in (lambda2, lambda2 + 17, 131, 200):
            assert poly.value(l1) == eval_direct(PartitionPair(l1, lambda2)).value


def test_odd_row_divisible_by_linear_factor():
    for lambda2 in range(1, 62, 2):
        poly = c_poly(lambda2)
        quotient = factor_linear(poly, lambda2)
        # multiplying back reproduces the polynomial over the same scale
        back = [0] * (len(quotient.coefficients) + 1)
        for i, c in enumerate(quotient.coefficients):
            back[i] += -lambda2 * c
            back[i + 1] += c
        assert tuple(back) == poly.coefficients


def test_tilde_first_values_table():
    assert tilde_poly(0, 0, 0).coefficients == (1,)
    assert tilde_poly(1, 0, 0).coefficients == (1,)
    assert tilde_poly(0, 0, 1).coefficients == (1,)
    assert tilde_poly(0, 1, 1).coefficients == (1,)
    assert tilde_poly(0, 1, 0).coefficients == (0,)
    assert tilde_poly(1, 1, 0).coefficients == (2,)
    assert tilde_poly(2, 1, 0).coefficients == (8,)
    assert tilde_poly(1, 0, 1).coefficients == (1, -2)
    assert tilde_poly(1, 1, 1).coefficients == (6, 2)


def test_tilde_degree_lower_bounds():
    for l in range(2, 41):
        assert tilde_poly(l, 0, 0).degree >= 2
        assert tilde_poly(l, 0, 1).degree >= 2
        assert tilde_poly(l, 1, 1).degree >= 2
    for l in range(3, 41):
        assert tilde_poly(l, 1, 0).degree >= 2


def test_tilde_prefactor_identity():
    for l in range(61):
        for eps1 in (0, 1):
            for eps2 in (0, 1):
                poly = tilde_poly(l, eps1, eps2)
                for k in range(0, 101, 10):
                    lambda2 = 2 * k + eps1
                    lambda1 = lambda2 + 2 * l + eps2
                    pair = PartitionPair(lambda1, lambda2)
                    got = tilde_parameters(pair)
                    assert got == (l, eps1, eps2, k)
                    assert tilde_prefactor(pair) * poly.value(k) == eval_direct(pair).value


def test_tilde_prefactor_identity_random():
    rng = random.Random(17)
    for _ in range(120):
        l = rng.randrange(0, 13)
        eps1 = rng.randrange(2)
        eps2 = rng.randrange(2)
        k = rng.randrange(0, 21)
        lambda2 = 2 * k + eps1
        lambda1 = lambda2 + 2 * l + eps2
        pair = PartitionPair(lambda1, lambda2)
        tilde_value = tilde_poly(l, eps1, eps2).value(k)
        assert tilde_prefactor(pair) * tilde_value == eval_direct(pair).value


def test_integer_roots_basic():
    assert integer_roots(c_poly(1), 10) == [1]
    assert integer_roots(c_poly(3), 10**6) == [3]
    assert integer_roots(c_poly(4), 10**6) == []


def test_integer_roots_constructed_polynomial():
    # X * (X - 5)(X + 7)(3X - 1): integer roots 0, 5, -7 (1/3 is not integral)
    poly = IntPolynomial((0, 35, -107, 5, 3), scale=2)
    roots = integer_roots(poly, 100)
    assert roots == [-7, 0, 5]


def test_integer_roots_respects_bound():
    # root at 10**6 + 3 lies outside a 10**5 bound
    big = 10**6 + 3
    poly = IntPolynomial((-big, 1))
    assert integer_roots(poly, 10**5) == []
    assert integer_roots(poly, 10**7) == [big]


def _product_of_linear_factors(factors: list[tuple[int, int]], multiplier: int | tuple[int, ...] = 1) -> IntPolynomial:
    """multiplier * prod (a*X - b) as an IntPolynomial; the multiplier is an
    integer or a polynomial given by its ascending coefficients."""
    coeffs = list(multiplier) if isinstance(multiplier, tuple) else [multiplier]
    for a, b in factors:
        out = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] -= b * c
            out[i + 1] += a * c
        coeffs = out
    return IntPolynomial(tuple(coeffs))


def _squared(q: tuple[int, ...]) -> tuple[int, ...]:
    """The ascending coefficients of q**2."""
    return tuple(sum(q[i] * q[k - i] for i in range(len(q)) if 0 <= k - i < len(q)) for k in range(2 * len(q) - 1))


# squares of irreducible quadratics: f is not squarefree, yet its repeated
# factor has a multiple root only modulo the primes at which it splits
_SQUARED_QUADRATICS = tuple(_squared(q) for q in ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, 0, -2), (7, -3, 1)))


@st.composite
def _linear_factor_products(draw):
    """(bound, factors, multiplier): integer roots at and just past the bound,
    zero, repeated factors, and non-monic factors whose roots are integral or
    not, so the leading coefficient may be divisible by 2, 3 and 5; the
    multiplier is an integer or the square of an irreducible quadratic."""
    bound = draw(st.integers(0, 2000))
    edge = st.sampled_from([bound, -bound, bound + 1, -bound - 1, 0])
    root = st.one_of(edge, st.integers(-bound - 3, bound + 3))
    monic = st.builds(lambda b: (1, b), root)
    scaled = st.builds(lambda a, x, s: (a, a * x + s), st.sampled_from([2, 3, 5, 6, 10, 15, 30]), root, st.integers(0, 2))
    factor = st.one_of(monic, scaled)
    factors = draw(st.lists(st.tuples(factor, st.integers(1, 3)), min_size=1, max_size=4))
    multiplier = draw(st.sampled_from([1, -1, 2, -6, 30, *_SQUARED_QUADRATICS]))
    return bound, [f for f, times in factors for _ in range(times)], multiplier


@settings(max_examples=120, deadline=None)
@given(_linear_factor_products())
@example((2000, [(1, 2000), (1, 2000), (1, -2001), (1, 0)], 1))
@example((7, [(30, 7), (2, -14), (3, 3)], -6))
@example((1000, [(1, 5), (1, -7), (2, 6)], _SQUARED_QUADRATICS[0]))
@example((50, [(1, 3), (1, 3), (1, -4)], _SQUARED_QUADRATICS[1]))
@example((40, [(1, 40), (3, -1), (1, -40)], _SQUARED_QUADRATICS[4]))
def test_integer_roots_match_brute_force(case):
    bound, factors, multiplier = case
    poly = _product_of_linear_factors(factors, multiplier)
    brute = [x for x in range(-bound, bound + 1) if poly.scaled_value(x) == 0]
    assert integer_roots(poly, bound) == brute


def test_integer_roots_of_a_repeated_factor():
    # (X - 1000003)**2 is a double root modulo every prime, so the search
    # for a prime needs the squarefree part
    big = 10**6 + 3
    poly = _product_of_linear_factors([(1, big), (1, big), (1, -7)])
    assert integer_roots(poly, 10**9) == [-7, big]
    # a leading coefficient divisible by the prime 2**61 - 1 of the quick
    # squarefree test takes the exact remainder sequence instead
    poly = _product_of_linear_factors([(2**61 - 1, 1), (1, -4), (1, -4), (1, 9)])
    assert integer_roots(poly, 10**9) == [-4, 9]


def test_the_proof_check_families_never_take_the_squarefree_part(monkeypatch):
    # the walk on f itself ends at a prime where every root is simple; only
    # a repeated linear factor, a multiple root modulo every prime, sends it
    # to the squarefree part
    squarefree = polynomials._squarefree_part
    calls = []
    monkeypatch.setattr(polynomials, "_squarefree_part", lambda coeffs: calls.append(coeffs) or squarefree(coeffs))
    for lambda2 in range(36, 44):
        assert integer_roots(c_poly(lambda2), 10**9) == ([lambda2] if lambda2 % 2 else []), lambda2
    for l in range(36, 44):
        for eps1 in (0, 1):
            for eps2 in (0, 1):
                assert integer_roots(tilde_poly(l, eps1, eps2), 10**9) == [], (l, eps1, eps2)
    # (X**2 + 1)**2 has simple roots (none) modulo every prime 3 mod 4
    assert integer_roots(_product_of_linear_factors([(1, 5), (1, -7)], _SQUARED_QUADRATICS[0]), 100) == [-7, 5]
    assert calls == []
    assert integer_roots(_product_of_linear_factors([(1, 5), (1, 5), (1, -7)]), 100) == [-7, 5]
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 40), st.integers(-(10**12), 10**12).filter(bool)), min_size=1, max_size=8),
    st.sampled_from([1, -1, 3, -10]),
)
@example([(1, 1)], 1)
@example([(1, 2**20)], 1)
@example([(1, 1 - 2**20), (1, 2**20 - 1)], -1)
@example([(40, 1), (40, -1)], 3)
def test_the_root_bound_is_a_power_of_two_above_every_root(factors, multiplier):
    # the roots of a*X - b are b/a, all nonzero, as integer_roots needs
    bound = polynomials._root_bound(list(_product_of_linear_factors(factors, multiplier).coefficients))
    assert bound > 0 and bound & (bound - 1) == 0
    assert max(abs(Fraction(b, a)) for a, b in factors) < bound


@pytest.mark.parametrize("n", [2, 8, 12])
@pytest.mark.parametrize("j", [1, 5, 20])
def test_the_root_bound_is_tight_where_fujiwara_is(n, j):
    # X**n - sum_i (2**(i*j) - 1) X**(n-i) is negative at 2**j, so it has a
    # real root above 2**j, and each ratio sits just below its power of two:
    # no bound below 2**(j + 1) may be returned
    coeffs = [-(2 ** (i * j) - 1) for i in range(n, 0, -1)] + [1]
    assert polynomials._value(coeffs, 2**j) < 0
    assert polynomials._root_bound(coeffs) == 2 ** (j + 1)


def test_integer_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        integer_roots(IntPolynomial((0,)), 10)


def test_factor_linear_requires_a_root():
    with pytest.raises(ValueError):
        factor_linear(c_poly(3), 2)
    quotient = factor_linear(IntPolynomial((-1, 1)), 1)
    assert quotient.coefficients == (1,)
    # a nonzero constant leaves itself as the remainder, so it has no root
    with pytest.raises(ValueError, match=r"1 is not a root \(remainder 5\)"):
        factor_linear(IntPolynomial((5,)), 1)


def test_reduced_divides_coefficients_and_scale_by_their_gcd():
    poly = IntPolynomial((6, -4, 10), 8, "c", (3,))
    assert poly.reduced() == IntPolynomial((3, -2, 5), 4, "c", (3,))
    # coprime already: the same polynomial
    assert IntPolynomial((3, 4), 6).reduced() == IntPolynomial((3, 4), 6)


def test_reduced_scale_prefactor_product_is_integral():
    # l2! / (floor(l1/2)! floor(l2/2)!) times the tilde value is an integer
    for (l1, l2) in [(20, 15), (31, 30), (44, 41), (25, 2)]:
        pair = PartitionPair(l1, l2)
        pref = tilde_prefactor(pair)
        l, e1, e2, k = tilde_parameters(pair)
        value = pref * tilde_poly(l, e1, e2).value(k)
        assert value.denominator == 1


def test_json_schema():
    payload = c_poly(3).to_json_dict()
    assert payload["family"] == "c"
    assert payload["params"] == {"lambda2": 3}
    assert payload["scale"] == "6"
    assert payload["coefficients"] == ["6", "-29", "12", "-1"]
    payload = tilde_poly(1, 0, 1).to_json_dict()
    assert payload["family"] == "tilde"
    assert payload["params"] == {"l": 1, "eps1": 0, "eps2": 1}
    assert payload["coefficients"] == ["1", "-2"]
