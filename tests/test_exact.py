import math
import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binsum import exact
from binsum.exact import (
    PartitionPair,
    Route,
    _comb,
    _factorial_ratio,
    binomial,
    eval_diagonal,
    eval_direct,
    eval_reduced,
    eval_row,
    evaluate,
    evaluation_cost,
    normalized_I,
    pair_cost,
    reduced_term_count,
    row_step,
    row_values,
)


def signed_terms(pair: PartitionPair) -> list[int]:
    """The summand sequence (-1)**j C(l1,j) C(l2,j) for j = 0..l2, from
    `math.comb` (the reference the term-growth tests read)."""
    return [(-1) ** j * math.comb(pair.lambda1, j) * math.comb(pair.lambda2, j) for j in range(pair.lambda2 + 1)]


def test_pair_normalization_enforced():
    with pytest.raises(ValueError):
        PartitionPair(2, 3)
    with pytest.raises(ValueError):
        PartitionPair(-1, -2)
    with pytest.raises(TypeError):
        PartitionPair(2.0, 1)


def test_pair_derived_fields():
    pair = PartitionPair(6, 4)
    assert pair.ratio == Fraction(3, 2)
    assert pair.difference == 2
    assert pair.congruence_class == 2
    with pytest.raises(ValueError):
        PartitionPair(3, 0).ratio


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert all(binomial(n, 0) == 1 for n in range(20))
    assert binomial(10, -1) == 0
    assert binomial(10, 11) == 0


def test_direct_known_values():
    assert eval_direct(PartitionPair(6, 1)).value == -5
    assert eval_direct(PartitionPair(3, 2)).value == -2
    assert eval_direct(PartitionPair(0, 0)).value == 1


def test_reduced_known_values():
    assert eval_reduced(PartitionPair(5, 2)).value == 1
    assert eval_reduced(PartitionPair(3, 2)).value == -2
    assert eval_reduced(PartitionPair(6, 1)).value == -5


def test_diagonal_closed_form():
    assert eval_diagonal(4).value == 6
    assert eval_diagonal(5).value == 0
    assert eval_diagonal(0).value == 1
    assert eval_diagonal(2).value == -2


def test_first_row_is_linear():
    for l1 in range(1, 1001):
        assert eval_direct(PartitionPair(l1, 1)).value == 1 - l1


def test_route_equivalence_sample():
    for l1 in range(0, 81):
        for l2 in range(0, l1 + 1):
            pair = PartitionPair(l1, l2)
            assert eval_direct(pair).value == eval_reduced(pair).value, (l1, l2)


def test_diagonal_matches_direct_sample():
    for lam in range(0, 121):
        assert eval_diagonal(lam).value == eval_direct(PartitionPair(lam, lam)).value


def test_reduced_term_count_bound():
    for l1, l2 in [(100, 10), (100, 98), (55, 54), (7, 7), (12, 0)]:
        pair = PartitionPair(l1, l2)
        assert reduced_term_count(pair) <= l1 // 2 - (l2 + 1) // 2 + 1


def test_evaluate_route_selection():
    near = PartitionPair(1001, 1000)
    assert evaluate(near).route is Route.REDUCED
    wide = PartitionPair(1000, 10)
    assert evaluate(wide).route is Route.DIRECT
    diag = PartitionPair(8, 8)
    assert evaluate(diag).route is Route.DIAGONAL
    with pytest.raises(ValueError):
        evaluate(PartitionPair(9, 8), Route.DIAGONAL)


def test_evaluate_route_is_the_shorter_one():
    # on both sides of reduced_term_count == l2 the automatic route is the
    # reduced one exactly when it sums at most l2 terms, and evaluation_cost
    # charges that route's term count
    for l2 in range(1, 81):
        edge = 2 * (l2 + (l2 + 1) // 2 - 1)  # the largest even l1 with count l2
        for l1 in range(max(l2 + 1, edge - 3), edge + 4):
            pair = PartitionPair(l1, l2)
            nterms = reduced_term_count(pair)
            reduced = nterms <= l2
            result = evaluate(pair)
            assert result.route is (Route.REDUCED if reduced else Route.DIRECT), (l1, l2)
            assert result.value == eval_direct(pair).value
            words = (l1 + 63) // 64
            assert evaluation_cost(pair) == (nterms if reduced else l2 + 1) * words * words
            assert pair_cost(l1, l2) == evaluation_cost(pair)


def test_term_growth_beyond_threshold():
    # for l1 > l2*(l2+1) - 1 the summand magnitudes increase strictly from j=1
    for l2 in range(1, 31):
        threshold = l2 * (l2 + 1) - 1
        for l1 in (threshold + 1, threshold + 7):
            terms = [abs(t) for t in signed_terms(PartitionPair(l1, l2))]
            inner = terms[1:]
            assert all(a < b for a, b in zip(inner, inner[1:])), (l1, l2)


def test_term_growth_fails_at_threshold():
    # at l1 = l2*(l2+1) - 1 the last two magnitudes tie, so growth is not strict
    l2 = 5
    terms = [abs(t) for t in signed_terms(PartitionPair(l2 * (l2 + 1) - 1, l2))]
    assert terms[-1] == terms[-2]


def test_normalized_value_signs():
    assert normalized_I(PartitionPair(3, 2)) == -2
    assert normalized_I(PartitionPair(6, 1)) == 5
    assert normalized_I(PartitionPair(4, 4)) == 6
    with pytest.raises(ValueError):
        normalized_I(PartitionPair(3, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 9000))
@example(1, 1)
@example(80, 159)   # lambda1 = 239 -> 240: the reduced/direct switch at l2 = 80
@example(63, 1)     # lambda1 = 64: the last one-word pair
@example(2000, 4000)
def test_evaluation_cost_is_nondecreasing_in_lambda1(l2, diff):
    # scans bisect each row for the pairs the budget admits, so this must hold
    # everywhere, in particular across the switch from the reduced to the
    # direct term count near lambda1 = 3 * lambda2
    edge = 2 * (l2 + (l2 + 1) // 2 - 1)  # the largest even lambda1 with l2 reduced terms
    for l1 in sorted({*range(max(l2, edge - 4), edge + 5), l2 + diff}):
        assert evaluation_cost(PartitionPair(l1, l2)) <= evaluation_cost(PartitionPair(l1 + 1, l2)), (l1, l2)


def test_evaluation_cost_scales_with_width():
    cheap = evaluation_cost(PartitionPair(703, 702))
    pricey = evaluation_cost(PartitionPair(100000, 50000))
    assert cheap < 200
    assert pricey > 10**6


def test_random_pairs_cross_route():
    rng = random.Random(3)
    for _ in range(60):
        l2 = rng.randrange(0, 150)
        l1 = l2 + rng.randrange(0, 150)
        pair = PartitionPair(l1, l2)
        assert eval_direct(pair).value == eval_reduced(pair).value


def test_comb_matches_math_comb():
    # n = 1000 is the last n whose central binomial goes to math.comb
    for n in sorted(set(range(0, 3001, 37)) | {999, 1000, 1001, 1002, 2000, 3000}):
        edge = math.isqrt(250 * n)
        for k in {0, 1, edge, edge + 1, n // 3, n // 2, max(0, n - edge - 1), n, n + 1, n + 5}:
            assert _comb(n, k) == math.comb(n, k), (n, k)
        with pytest.raises(ValueError):
            _comb(n, -1)
    # n = p**2 and p**2 +- 1 move the largest prime whose square reaches n
    squares = [(n, k) for p in (37, 47, 101, 211) for n in (p * p - 1, p * p, p * p + 1) for k in (n // 2, n // 3, n - p)]
    for n, k in [(100000, 50000), (78660, 39330), *squares]:
        assert _comb(n, k) == math.comb(n, k), (n, k)


def test_comb_is_exact_while_the_kept_sieve_grows_and_shrinks():
    # every n goes the prime-power route; a stale or wrongly sliced sieve of
    # an earlier n would miss or add primes
    for n in (10**5, 3000, 10**5 + 17, 1500):
        for k in (n // 2, n // 2 + 1, n // 3):
            assert _comb(n, k) == math.comb(n, k), (n, k)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400))
@example(7, 0)     # odd diagonal: empty sum
@example(8, 0)     # even diagonal: one term
@example(8, 1)     # one term off the diagonal
@example(100, 64)  # 32 term ratios: one leaf
@example(100, 66)  # 33 term ratios: two leaves
@example(400, 400)
def test_reduced_matches_direct(l2, diff):
    pair = PartitionPair(l2 + diff, l2)
    assert eval_reduced(pair).value == eval_direct(pair).value


def test_reduced_matches_direct_mid_size():
    pair = PartitionPair(20001, 19000)
    assert eval_reduced(pair).value == eval_direct(pair).value


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 150), st.integers(0, 300))
@example(0, 0)    # S(0, 0): the walk takes no step
@example(0, 1)    # S(1, 0): the second starting value
@example(0, 7)    # lambda2 = 0 rows are all ones
@example(1, 0)    # diagonal, lambda1 = 1
@example(2, 0)    # diagonal, the first step
@example(40, 3)   # lambda1 < 3 * lambda2
@example(60, 120) # lambda1 = 3 * lambda2
def test_row_walk_matches_direct_and_reduced(l2, diff):
    pair = PartitionPair(l2 + diff, l2)
    value = eval_row(pair).value
    assert value == eval_direct(pair).value == eval_reduced(pair).value
    assert evaluate(pair, Route.ROW) == eval_row(pair)
    if diff == 0:
        assert value == eval_diagonal(l2).value


def test_row_step_continues_a_row():
    for l2 in (0, 1, 5, 40):
        row = [eval_direct(PartitionPair(l1, l2)).value for l1 in range(l2, l2 + 60)]
        for n in range(l2, l2 + 58):
            assert row_step(n, l2, row[n - l2], row[n + 1 - l2]) == row[n + 2 - l2]
        assert list(row_values(l2, range(l2, l2 + 60))) == row


def test_row_walk_steps_only_within_its_row(monkeypatch):
    # gaps and repeats restart the walk; each row is walked on its own
    rows = [
        (4, [*range(4, 12), 13, 14, 15, 20, 21, 22]),
        (5, [12, 13, 14, 16, 17, 17, 18, 19]),
        (9, [23, 24]),
        (0, [0, 1, 2, 3, 3, 4, 5]),
    ]
    stepped, fresh = [], []
    monkeypatch.setattr(exact, "row_step", lambda n, m, s0, s1: stepped.append((n + 2, m)) or row_step(n, m, s0, s1))
    monkeypatch.setattr(exact, "evaluate", lambda pair: fresh.append((pair.lambda1, pair.lambda2)) or evaluate(pair))
    for l2, lambda1s in rows:
        values = list(row_values(l2, lambda1s))
        assert values == [eval_direct(PartitionPair(l1, l2)).value for l1 in lambda1s], l2
    # a step needs the two lambda1 before the pair evaluated in turn in its row
    expected = [(l1, 4) for l1 in range(6, 12)] + [(15, 4), (22, 4), (14, 5), (19, 5), (2, 0), (3, 0), (5, 0)]
    assert stepped == expected
    # every other value is one fresh evaluation
    assert sorted(fresh + stepped) == sorted((l1, l2) for l2, lambda1s in rows for l1 in lambda1s)


@pytest.mark.parametrize(
    "num, den",
    [
        ((0,), (0,)),
        ((1, 2), (3,)),
        ((10,), (3, 7)),
        ((100,), (50, 49)),
        ((1369, 100), (684, 685, 99)),       # 37**2: the prime 37 divides 1369! twice over
        ((1368,), (400, 500, 468)),
        ((1015, 7), (500, 515, 3, 4)),       # round(1015**(2/3)) = 101, a prime
        ((10201, 10200), (5100, 5101, 10000)),
        ((4913, 4912), (2456, 2457, 4912)),  # 17**3: the runs start at 17**2
        ((5000, 300), (2650, 2500, 300, 300)),
        ((3, 4), (12,)),
    ],
)
def test_factorial_ratio_is_the_ratio_of_factorials_in_lowest_terms(num, den):
    up, down = _factorial_ratio(num, den)
    expected = Fraction(math.prod(map(math.factorial, num)), math.prod(map(math.factorial, den)))
    numerator, denominator = math.prod(up), math.prod(down)
    assert Fraction(numerator, denominator) == expected
    assert math.gcd(numerator, denominator) == 1
    assert all(f > 1 for f in up + down)


def _cancels(monkeypatch, pair):
    """Whether `eval_reduced` takes the cancelled step at `pair`, and its value."""
    calls = []
    real = exact._factorial_ratio
    monkeypatch.setattr(exact, "_factorial_ratio", lambda num, den: calls.append(len(den)) or real(num, den))
    value = eval_reduced(pair).value
    return 4 in calls, value


def test_reduced_route_takes_each_side_of_the_size_rule(monkeypatch):
    # from lambda2 = 4000 on, and while Q has at most 2 * lambda2 bits
    for l1, l2, cancels in [
        (4001, 4000, True),
        (4000, 3999, False),    # below the lambda2 threshold
        (5200, 5000, True),
        (5500, 5000, True),     # Q ~ 1.3 * lambda2 bits
        (6000, 5000, False),    # Q ~ 2.8 * lambda2 bits
        (12000, 6000, False),   # a wide pair: Q ~ 17 * lambda2 bits
        (100002, 100000, True),
    ]:
        pair = PartitionPair(l1, l2)
        taken, value = _cancels(monkeypatch, pair)
        assert taken is cancels, (l1, l2)
        if l1 < 50000:
            assert value == eval_direct(pair).value, (l1, l2)


@settings(max_examples=30, deadline=None)
@given(st.integers(3990, 6500), st.integers(0, 2000))
@example(3999, 1)     # below the lambda2 threshold
@example(4000, 1)     # the first cancelled lambda2, j0 = 2000 even
@example(4001, 0)     # j0 = 2001 odd, one term
@example(4002, 13)    # j0 = 2001 odd
@example(4000, 700)   # Q ~ 2.4 * lambda2 bits: divides by Q
@example(6500, 2000)
def test_reduced_matches_direct_on_both_sides_of_the_size_rule(l2, diff):
    pair = PartitionPair(l2 + diff, l2)
    assert eval_reduced(pair).value == eval_direct(pair).value


def test_reduced_values_at_proof_check_size_satisfy_the_row_recurrence():
    # one triple per congruence class at lambda2 ~ 1e5, d = 700-1600, every
    # value cancelled: the recurrence shares no step with the cancellation
    l2 = 100018
    for l1 in (100718, 101045, 101384, 101599):
        s0, s1, s2 = (eval_reduced(PartitionPair(n, l2)).value for n in (l1, l1 + 1, l1 + 2))
        assert row_step(l1, l2, s0, s1) == s2, l1
    assert {(l1 + l2) % 4 for l1 in (100718, 101045, 101384, 101599)} == {0, 1, 2, 3}
