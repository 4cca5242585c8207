import functools
import importlib.util
import itertools
import json
import math
import os
import pickle
import pickletools
import sys
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import fone, from_int, mpf_abs, mpf_div, mpf_mul_int, mpf_pi, mpf_shift, round_nearest

from binsum import asymptotics, certifier, exact
from binsum.asymptotics import (
    FIXED_BITS,
    NEAR_DIAGONAL_ROWS,
    WINDOW_CLAUSES,
    DiffLine,
    RatioLine,
    _largest_difference,
    _least_difference,
    _near_diagonal_bound,
    window_edge,
)
from binsum.certifier import (
    AllUpToRule,
    Certificate,
    CertificateKind,
    DiffRule,
    ListRule,
    STAGES,
    RatioRule,
    ScanReport,
    _chunks,
    _near_diagonal_step,
    _oscillatory_step,
    _scan_chunk,
    _supercritical_step,
    _window_step,
    certify,
    certify_by_term_growth,
    continued_fraction,
    difference_windows,
    exception_count_bound,
    scan_range,
    write_rows,
)
from binsum.exact import PartitionPair, evaluate, evaluation_cost, row_step
from binsum.numerics import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    MARGIN_PRECISION,
    RAW_SLACK,
    SLACK,
    SLACK_BITS,
    Comparison,
    certified_compare,
    dyadic_compare,
    raw_rational,
    rounded_margin,
)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _one_pair_rows(records) -> ScanReport:
    """A report with one row per (lambda2, record), the layout `certify` prints."""
    return ScanReport(tuple((l2, (record,)) for l2, record in records))


@pytest.fixture
def pool_starts():
    """Lowers the pool threshold to 0 and the chunk size to one row, so that
    a scan of more than one row at parallelism 2 runs its rows in a real
    ProcessPoolExecutor of two workers, even on one CPU, each row sent as a
    chunk of its own; lists the worker count of every pool started."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certifier, "POOL_MIN_WORK", 0)
        patch.setattr(certifier, "CHUNK_PAIRS", 1)
        patch.setattr(certifier, "_process_pool", CountingPool)
        patch.setattr(certifier, "_usable_cpus", lambda: 2)
        yield started


def test_refusals():
    assert certify(PartitionPair(4, 4)).kind is CertificateKind.REFUSED
    assert certify(PartitionPair(5, 0)).kind is CertificateKind.REFUSED


def test_exact_branch():
    cert = certify(PartitionPair(6, 1))
    assert cert.kind is CertificateKind.NONZERO_EXACT
    assert cert.exact_sign == -1
    assert cert.bit_length == 3


def test_term_growth_criterion():
    assert certify_by_term_growth(PartitionPair(6, 2))
    assert not certify_by_term_growth(PartitionPair(5, 2))
    assert certify_by_term_growth(PartitionPair(100, 1))
    cert = certify(PartitionPair(50, 3), budget=0)
    assert cert.kind is CertificateKind.NONZERO_TERM_GROWTH


def test_supercritical_branch():
    cert = certify(PartitionPair(1800, 300), budget=0)
    assert cert.kind is CertificateKind.NONZERO_SUPERCRITICAL
    assert cert.margin is not None and cert.margin > 0
    assert evaluate(PartitionPair(1800, 300)).value != 0


def test_supercritical_refined_branch():
    # ratio close to the threshold: the plain bound fails at this lambda but
    # the refined one certifies
    pair = PartitionPair(1410, 241)  # r = 5.8506...
    plain = certify(pair, budget=0)
    refined = certify(pair, budget=0, delta=0.75)
    assert plain.kind is CertificateKind.INCONCLUSIVE
    assert refined.kind is CertificateKind.NONZERO_SUPERCRITICAL
    assert refined.rule.startswith("refined")
    assert evaluate(pair).value != 0


def test_oscillatory_branch_and_soundness():
    found = None
    for lam in range(6100, 9000):
        cert = certify(PartitionPair(2 * lam, lam), budget=0)
        if cert.kind is CertificateKind.NONZERO_OSCILLATORY:
            found = (lam, cert)
            break
    assert found is not None, "no oscillatory certificate fired in the search range"
    lam, cert = found
    assert cert.rule == "oscillatory main-term bound"
    assert cert.margin > 0
    assert evaluate(PartitionPair(2 * lam, lam)).value != 0


def test_interval_branch_and_soundness():
    pair = PartitionPair(20362, 19660)
    cert = certify(pair, budget=0)
    assert cert.kind is CertificateKind.NONZERO_INTERVAL
    assert cert.clause == "class2-b"
    assert evaluate(pair).value != 0


def test_near_diagonal_branch_and_soundness():
    pair = PartitionPair(50000, 49298)
    cert = certify(pair, budget=0)
    assert cert.kind is CertificateKind.NONZERO_OSCILLATORY
    assert cert.rule == "near-diagonal window bound"
    assert evaluate(pair).value != 0


def test_plain_and_refined_bounds_both_at_least_one_is_inconclusive():
    pair = PartitionPair(60, 10)
    assert asymptotics.supercritical_error_bound(pair.ratio, 10) >= 1
    assert asymptotics.supercritical_error_bound_refined(pair.ratio, 10, 1.0) >= 1
    assert certify(pair, budget=0, delta=1.0).kind is CertificateKind.INCONCLUSIVE


def test_near_diagonal_pair_outside_every_row_is_inconclusive():
    # d**2 lies between 8*pi*l2, where the last row ends, and the gate's 26*l2
    pair = PartitionPair(101600, 100000)
    assert 8 * math.pi * pair.lambda2 < pair.difference**2 < 26 * pair.lambda2
    assert not asymptotics.near_diagonal_error_bound(pair).valid
    assert certify(pair, budget=0).kind is CertificateKind.INCONCLUSIVE
    assert evaluate(pair).value != 0


def test_near_diagonal_pair_past_every_cosine_window_is_inconclusive():
    # class 0 with q = d**2/(4*l2) = 5.625, beyond the second window's end 6*pi/4
    pair = PartitionPair(101500, 100000)
    assert pair.congruence_class == 0
    assert Fraction(pair.difference**2, 4 * pair.lambda2) == Fraction(45, 8)
    assert asymptotics.near_diagonal_error_bound(pair).valid
    assert asymptotics.cos_lower_bound(pair) == (None, False)
    assert certify(pair, budget=0).kind is CertificateKind.INCONCLUSIVE
    assert evaluate(pair).value != 0


def test_term_growth_soundness_window():
    # just beyond the growth threshold the exact values are indeed nonzero
    for l2 in range(1, 31):
        threshold = l2 * (l2 + 1) - 1
        for l1 in range(threshold + 1, threshold + 21):
            pair = PartitionPair(l1, l2)
            assert certify_by_term_growth(pair)
            assert evaluate(pair).value != 0
            magnitudes = [math.comb(l1, j) * math.comb(l2, j) for j in range(1, l2 + 1)]
            assert all(a < b for a, b in zip(magnitudes, magnitudes[1:]))


def test_small_difference_is_inconclusive_without_budget():
    cert = certify(PartitionPair(721, 720), budget=0)
    assert cert.kind is CertificateKind.INCONCLUSIVE
    cert = certify(PartitionPair(721, 720))
    assert cert.kind is CertificateKind.NONZERO_EXACT


def test_scan_example_pairs_get_interval_certificates():
    report = scan_range((78656, 78660), DiffRule(703), budget=0)
    kinds = {record[1] for _, record in report.records()}
    assert kinds == {CertificateKind.NONZERO_INTERVAL}
    for l2, record in report.records():
        assert evaluate(PartitionPair(record[0], l2)).value != 0


def test_difference_windows_reference_lambda2_1e6():
    windows = difference_windows(10**6)
    by_clause = {}
    for w in windows:
        by_clause.setdefault(w.clause, []).append(w)
    # class 3 first window covers differences 1..1771
    a = by_clause["class3-a"]
    assert min(w.lo for w in a) == 10**6 + 1
    assert max(w.hi for w in a) == 10**6 + 1771
    # class 0 second window covers differences 2510..4340
    b = by_clause["class0-b"]
    assert min(w.lo for w in b) == 10**6 + 2510
    assert max(w.hi for w in b) == 10**6 + 4340


def test_difference_windows_class2_lower_is_inclusive_702():
    windows = [w for w in difference_windows(78660) if w.clause == "class2-a"]
    assert len(windows) == 1
    assert windows[0].lo == 78660 + 702
    assert windows[0].basis == "window-table"


def test_difference_windows_class2_lower_follows_the_quarter_root():
    # 2.0582 * l2**(1/4) passes 702 at l2 = (702/2.0582)**4 = 1.3533e10
    assert 2.0582 * 1.35e10**0.25 < 702 < 2.0582 * 1.36e10**0.25
    windows = difference_windows(2 * 10**10, residue_class=2)
    assert [w.clause for w in windows] == ["class2-a", "class2-b"]
    assert windows[0].lo - 2 * 10**10 == 775 == math.floor(2.0582 * (2 * 10**10) ** 0.25) + 1


def _reference_difference_windows(lambda2, prec):
    """`difference_windows` in mpf arithmetic, every edge computed where it is used."""
    wp = prec + GUARD_BITS
    clauses = []
    with workprec(wp):
        l2 = mpf(lambda2)

        def int_above(x):
            return int(mp.floor(x + SLACK)) + 1

        def s(k):
            return mp.sqrt(k * mp.pi * l2)

        def class2_floor():
            quarter_root = mpf("2.0582") * l2 ** mpf("0.25")
            versus_702 = certified_compare(quarter_root, 702, SLACK)
            if versus_702 is Comparison.CERTIFIED_LESS:
                return 702
            if versus_702 is Comparison.CERTIFIED_GREATER:
                return int_above(quarter_root)
            return 703

        for cls, table in enumerate(asymptotics.WINDOW_CLAUSES):
            floor = class2_floor() if cls == 2 else 1
            for clause, lo, (m_hi, k_hi, c_hi) in table:
                d_lo = floor if lo is None else int_above(lo[0] * s(lo[1]) + mpf(lo[2]))
                d_hi = int(mp.ceil(m_hi * s(k_hi) - mpf(c_hi) - SLACK)) - 1
                clauses.append((cls, clause, d_lo, d_hi))
    out = []
    for cls, clause, d_lo, d_hi in clauses:
        for lo, hi, basis in ((d_lo, min(d_hi, 701), "small-difference"), (max(d_lo, 702), d_hi, "window-table")):
            if lo <= hi:
                out.append(asymptotics.DifferenceWindow(cls, clause, lambda2 + lo, lambda2 + hi, basis))
    return out


def test_difference_windows_match_mpf_arithmetic_around_the_class2_floor_changes():
    # the floor of class2-a leaves 702 where 2.0582 * lambda2**(1/4) passes
    # 702, at lambda2 = (702/2.0582)**4, and then steps at each integer n
    floors = set()
    for n in (702, 703, 704, 800):
        first = math.ceil(Fraction(n * 10000, 20582) ** 4)
        for lambda2 in range(first - 2, first + 3):
            for prec in (53, 128, 200):
                got = difference_windows(lambda2, prec)
                assert got == _reference_difference_windows(lambda2, prec)
                floors.add(next(w.lo for w in got if w.clause == "class2-a") - lambda2)
    assert floors == {702, 703, 704, 705, 800, 801}
    for lambda2 in (1, 702, 18953, 10**5, 10**6 + 3):
        assert difference_windows(lambda2) == _reference_difference_windows(lambda2, 128)


def test_class2_floor_is_702_up_to_its_pinned_lambda2():
    # ((702 - 2**-20) / 2.0582)**4 lies just above 13,533,126,790, and the
    # floor leaves 702 only past (702/2.0582)**4 ~ 13,533,126,864.3
    assert asymptotics.CLASS2_FLOOR_FACTOR == "2.0582"
    assert asymptotics.CLASS2_FLOOR_702 == 13_533_126_790
    wp = DEFAULT_PRECISION + GUARD_BITS
    assert asymptotics._class2_floor(asymptotics.CLASS2_FLOOR_702, wp) == 702
    assert asymptotics._class2_floor(13_533_126_865, wp) == 703


def test_difference_windows_tiny_lambda2():
    # at lambda2 = 1 the class-3 first window is empty (sqrt(pi) - 1.1958 < 1)
    clauses = {w.clause for w in difference_windows(1)}
    assert "class3-a" not in clauses


def test_difference_windows_bases_split_at_702():
    for w in difference_windows(78660):
        if w.basis == "small-difference":
            assert w.hi - 78660 <= 701
        else:
            assert w.lo - 78660 >= 702


@pytest.mark.parametrize("lambda2", [1, 702, 18953, 10**5, 10**6 + 3])
def test_difference_windows_of_one_class_equal_the_filtered_table(lambda2):
    for prec in (53, 128, 200):
        every = difference_windows(lambda2, prec)
        assert [w.residue_class for w in every] == sorted(w.residue_class for w in every)
        for cls in range(4):
            own = difference_windows(lambda2, prec, residue_class=cls)
            assert own == [w for w in every if w.residue_class == cls]


# every comparison of a `DiffLine`: ("end", cls, i, sign) for the upper
# (sign 1) and the lower (sign -1) end of clause i of class cls against d,
# ("edge", k, sign) for d certified below (sign 1) or above (sign -1) the
# near-diagonal edge sqrt(k*pi*l2), ("quarter", c) for q + SLACK < c*pi/4
# and ("low", k) for (k - 2)*pi/(2*(3 - r)) + SLACK < q in
# `_cos_lower_bound`, q = d*d/(4*l2), and ("reach",) for lambda2 above the
# reach of the pair's ratio
DIFF_TARGETS = (
    *(
        ("end", cls, i, sign)
        for cls, clauses in enumerate(WINDOW_CLAUSES)
        for i, (_, lo, hi) in enumerate(clauses)
        for sign, end in ((1, hi), (-1, lo))
        if end is not None
    ),
    *(("edge", k, sign) for k in range(1, len(NEAR_DIAGONAL_ROWS) + 1) for sign in (1, -1)),
    *(("quarter", c) for c in range(1, 9)),
    *(("low", k) for k in (3, 4, 5, 6)),
    ("reach",),
)


def _reach_crossing(d: int) -> int:
    """The least lambda2 with d*d < 26*lambda2 above the reach of
    (lambda2 + d)/lambda2, by bisection over `oscillatory_bound_reach`."""
    lo, hi = d * d // 26, max(d * d // 26 + 1, 130306)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid > asymptotics.oscillatory_bound_reach(Fraction(mid + d, mid)):
            hi = mid
        else:
            lo = mid
    return hi


def _crossing(target, d: int) -> int:
    """The integer part of the lambda2 at which the exact value of `target`
    equals its target, computed at 400 bits: m*sqrt(k*pi*l2) against
    d + sign*(c + SLACK), q + SLACK against c*pi/4, or the low end plus
    SLACK against q; for ("reach",) the least lambda2 past the reach."""
    if target[0] == "reach":
        return _reach_crossing(d)
    with workprec(400):
        if target[0] == "quarter":
            return int(d * d / (target[1] * mp.pi - 4 * SLACK))
        if target[0] == "low":
            # the larger root of (2*(k - 2)*pi + 8*s)*x**2 - (4*s*d + 2*d*d)*x + d**3
            a, b = 2 * (target[1] - 2) * mp.pi + 8 * SLACK, 4 * SLACK * d + 2 * d * d
            return int((b + mp.sqrt(b * b - 4 * a * d**3)) / (2 * a))
        if target[0] == "end":
            _, cls, i, sign = target
            m, k, c = WINDOW_CLAUSES[cls][i][2 if sign > 0 else 1]
        else:
            (_, k, sign), m, c = target, 1, "0"
        v = d + sign * (mpf(c) + SLACK)
        return int(v * v / (m * m * k * mp.pi))


def _per_pair_side(target, d: int, l2: int, wp: int) -> int:
    """The outcome of `target` at l2 by the per-pair functions, as the side
    of `DiffLine`: 1 when the computed end or edge lies above its target,
    when q + SLACK < c*pi/4 holds, when the low end's comparison fails, or
    when lambda2 lies above the reach; the comparisons of q are made as
    `_cos_lower_bound` makes them."""
    if target[0] == "reach":
        return 1 if l2 > asymptotics.oscillatory_bound_reach(Fraction(l2 + d, l2)) else -1
    if target[0] in ("quarter", "low"):
        pi, q = mpf_pi(wp, round_nearest), raw_rational(d * d, 4 * l2, wp)
        if target[0] == "quarter":
            quarter = mpf_shift(mpf_mul_int(pi, target[1], wp, round_nearest), -2)
            return 1 if dyadic_compare(q, quarter, RAW_SLACK) is Comparison.CERTIFIED_LESS else -1
        three_minus_r = raw_rational(2 * l2 - d, l2, wp)
        low = mpf_div(
            mpf_mul_int(pi, target[1] - 2, wp, round_nearest),
            mpf_mul_int(three_minus_r, 2, wp, round_nearest),
            wp,
            round_nearest,
        )
        return -1 if dyadic_compare(low, q, RAW_SLACK) is Comparison.CERTIFIED_LESS else 1
    if target[0] == "end":
        _, cls, i, sign = target
        _, lo, hi = WINDOW_CLAUSES[cls][i]
        if sign > 0:
            return 1 if d <= _largest_difference(l2, wp, hi) else -1
        return -1 if _least_difference(l2, wp, cls, lo) <= d else 1
    _, k, sign = target
    side = dyadic_compare(from_int(d), window_edge(l2, k, wp), RAW_SLACK)
    if sign > 0:
        return 1 if side is Comparison.CERTIFIED_LESS else -1
    return -1 if side is Comparison.CERTIFIED_GREATER else 1


def _target_key(target) -> tuple:
    if target[0] == "end":
        _, cls, i, sign = target
        return asymptotics._WINDOW_KEYS[cls][i][1 if sign > 0 else 0]
    if target[0] == "quarter":
        return asymptotics._quarter_pi_cut, target[1]
    if target[0] == "low":
        return asymptotics._low_cut, target[1]
    if target[0] == "reach":
        return asymptotics._REACH_KEY
    _, k, sign = target
    return asymptotics._edge_cut, k, sign * asymptotics._SLACK_UNITS


def _units(x) -> Fraction:
    """A raw mpf as an exact rational in units of 2**-FIXED_BITS."""
    sign, man, exp, _ = x
    return (-1) ** sign * man * Fraction(2) ** (exp + FIXED_BITS)


def _encloses(enclosure, value) -> bool:
    """Whether a `DiffLine` enclosure holds the raw value of its kernel:
    None exactly when the kernel gives None, and anything when open."""
    if enclosure == asymptotics._OPEN:
        return True
    if enclosure is None or value is None:
        return enclosure is None and value is None
    return enclosure[0] <= _units(value) <= enclosure[1]


def _kernel_margin(l1: int, l2: int, wp: int) -> float | None:
    """The near-diagonal step's margin from its kernels alone."""
    bound = _near_diagonal_bound(l1 - l2, l2, wp)[0]
    lower = None if bound is None else asymptotics._cos_lower_bound(l1, l2, wp)
    if lower is None or dyadic_compare(lower, bound, RAW_SLACK) is not Comparison.CERTIFIED_GREATER:
        return None
    return rounded_margin(lower, bound)


def _per_pair_row(d: int, l2: int, wp: int) -> int | None:
    """The row of the walk of `_near_diagonal_bound` by the per-pair edge
    comparisons, as `DiffLine._row` reports it."""
    above = False
    for k in range(len(NEAR_DIAGONAL_ROWS) + 1):
        side = asymptotics._edge_compare(d, l2, wp, k)
        if side is Comparison.CERTIFIED_LESS:
            return k if above else 0
        above = side is Comparison.CERTIFIED_GREATER
    return None


def _per_pair_clause(d: int, l2: int, wp: int, cls: int) -> str | None:
    """The clause of the window step for (l2 + d, l2) by the per-pair functions."""
    for clause, lo, hi in WINDOW_CLAUSES[cls]:
        if d <= _largest_difference(l2, wp, hi) and _least_difference(l2, wp, cls, lo) <= d:
            return clause
    return None


# the largest d whose crossings all lie at lambda2 <= 2**100: m*m*k >= 1
LARGEST_DRAWN_DIFFERENCE = math.isqrt(math.floor(math.pi * 2**100))

# d of 10 to 51 bits, as many of each length, from 702 up to
# LARGEST_DRAWN_DIFFERENCE; every crossing then lies at lambda2 <= 2**100,
# where d**2 < 26 * lambda2
_DIFFERENCES = st.integers(10, 51).flatmap(
    lambda bits: st.integers(max(702, 2 ** (bits - 1)), min(2**bits, LARGEST_DRAWN_DIFFERENCE))
)


@st.composite
def _threshold_draws(draw):
    """(d, lambda2, wp, target): lambda2 within 3 of where the exact value of a
    `DiffLine` comparison crosses its target, at precisions 53-256."""
    target, d = draw(st.sampled_from(DIFF_TARGETS)), draw(_DIFFERENCES)
    return d, _crossing(target, d), draw(st.integers(53, 256)) + GUARD_BITS, target


@given(draw=_threshold_draws())
# the floor of clause class2-a steps from 702 to 703 between lambda2 =
# 13533126864 and 13533126865, and is certainly 702 up to CLASS2_FLOOR_702
@example(draw=(702, 13533126864, 77, ("end", 2, 0, 1)))
@example(draw=(703, asymptotics.CLASS2_FLOOR_702, 280, ("end", 2, 0, 1)))
# lambda2 near 2**100: at 53 bits the band holds every drawn lambda2; at 256
# bits it is a few lambda2 wide, most of it from the pi enclosure, so an
# enclosure on the wrong side of pi decides lambda2 that it must not
@example(draw=(2**50 - 1, _crossing(("end", 0, 0, 1), 2**50 - 1), 77, ("end", 0, 0, 1)))
@example(draw=(2**50 - 1, _crossing(("edge", 1, 1), 2**50 - 1), 280, ("edge", 1, 1)))
@example(draw=(2**50 + 7, _crossing(("end", 3, 1, -1), 2**50 + 7), 280, ("end", 3, 1, -1)))
# the same for the comparisons of q: at 280 bits the end pi/4 * 8 from the
# wrong end of the pi enclosure is 0.97 units of 2**-96 off in q, more than
# the margin of the thresholds; at 77 bits the kernel's rounding, which the
# thresholds must leave room for, spans millions of lambda2
@example(draw=(2**51 - 3, _crossing(("quarter", 8), 2**51 - 3), 280, ("quarter", 8)))
@example(draw=(2**50 - 1, _crossing(("quarter", 3), 2**50 - 1), 77, ("quarter", 3)))
@example(draw=(2**50 - 1, _crossing(("low", 5), 2**50 - 1), 77, ("low", 5)))
@settings(max_examples=150, deadline=None)
def test_diff_line_decides_each_comparison_as_the_per_pair_functions(draw):
    d, crossing, wp, target = draw
    line, key, band = DiffLine(d, wp), _target_key(target), 0
    for l2 in range(max(1, crossing - 3), crossing + 4):
        if d * d >= 26 * l2:
            # a reach crossing of a large d lies at the start of the gate
            continue
        side = line._side(key, l2)
        if side:
            assert side == _per_pair_side(target, d, l2, wp), (d, l2, wp, target)
        band += not side
        for cls in range(4):
            assert line.window_clause(l2, cls) == _per_pair_clause(d, l2, wp, cls), (d, l2, wp, cls)
        row = line._row(l2)
        assert row == -1 or row == _per_pair_row(d, l2, wp), (d, l2, wp)
        assert _encloses(line.bound_enclosure(l2), _near_diagonal_bound(d, l2, wp)[0]), (d, l2, wp)
        l1 = l2 + d
        assert _encloses(line.lower_enclosure(l1, l2), asymptotics._cos_lower_bound(l1, l2, wp)), (d, l2, wp)
        assert line.near_diagonal_margin(l1, l2) == _kernel_margin(l1, l2, wp), (d, l2, wp)
    # the band is about crossing * 2**(8 - wp) wide around the crossing of an
    # end or an edge, so from crossing >= 2**(wp - 4) on it holds every
    # lambda2 drawn; that of a comparison of q about crossing * 2**(9 - wp)/q
    if crossing >= 2 ** (wp - 4 if target[0] in ("end", "edge") else wp + 2) and target[0] != "reach":
        assert band == 7, (d, crossing, wp, target)


with workprec(1200):
    # the integer nearest e**702, at which log(lambda2) lies within 2**-1000
    # of 702, so that edge 0 is indeterminate for d = 702
    _E_702 = int(mp.nint(mp.e**702))


# (d, lambda2, detail of `_near_diagonal_bound`) across each choice of the
# walk.  Row 8 beats the flat 0.0165 from lambda2 = 19577.1 on, which only a
# d below the gate reaches as row 8: d = 702 enters row 8 at lambda2 = 19609
# (the flat edge sqrt(8*pi*l2) passes 702 at 19608.05), and for every
# d >= 702 an applicable row lies below the flat bound.  Edge 0, log(l2),
# passes 702 between lambda2 = 2**1012 and 2**1013.
ROW_OR_FLAT_CASES = (
    pytest.param(700, 19577, "flat", id="700-19577"),
    pytest.param(700, 19578, "row8", id="700-19578"),
    pytest.param(702, 19608, "difference outside every proved window", id="702-19608"),
    pytest.param(702, 19609, "row8", id="702-19609"),
    pytest.param(702, 2**1012, "row1", id="702-2**1012"),
    pytest.param(702, 2**1013, "flat", id="702-2**1013"),
    pytest.param(702, _E_702, "flat", id="702-round(e**702)"),
)


@pytest.mark.parametrize("d, lambda2, detail", ROW_OR_FLAT_CASES)
@pytest.mark.parametrize("prec", [53, 128, 256])
def test_diff_line_chooses_row_or_flat_as_the_per_pair_walk(d, lambda2, detail, prec):
    wp = prec + GUARD_BITS
    value, got = _near_diagonal_bound(d, lambda2, wp)
    assert got == detail
    line = DiffLine(d, wp)
    enclosure = line.bound_enclosure(lambda2)
    if lambda2.bit_length() > 1000:
        # edge 0 is the kernel's to compare, so the enclosure stays open
        assert line._row(lambda2) == -1 and enclosure == asymptotics._OPEN
    else:
        assert line._row(lambda2) == _per_pair_row(d, lambda2, wp)
        assert enclosure != asymptotics._OPEN and _encloses(enclosure, value)
    l1 = lambda2 + d
    assert line.near_diagonal_margin(l1, lambda2) == _kernel_margin(l1, lambda2, wp)
    if lambda2 == _E_702:
        assert asymptotics._edge_compare(d, lambda2, wp, 0) is Comparison.INDETERMINATE


def test_the_slack_of_the_fixed_point_and_of_the_difference_thresholds_is_slack():
    assert mpf(asymptotics._FIXED_SLACK) / 2**FIXED_BITS == SLACK
    # a `DiffLine` offset is in units of 2**-SLACK_BITS / 10**4; that of an
    # edge with no constant is the slack alone, on either side of d
    for sign in (1, -1):
        _, _, offset = asymptotics._edge_key((1, 3, "0"), sign)
        assert mpf(offset) / (10**4 * 2**SLACK_BITS) == sign * SLACK
    _, _, offset = asymptotics._edge_key((1, 2, "1.0443"), 1)
    assert Fraction(offset, 10**4 * 2**SLACK_BITS) == Fraction("1.0443") + Fraction(1, 2**40)


def test_pi_enclosure_holds_pi_and_is_2_to_the_minus_96_wide():
    low, high = asymptotics.PI_FLOOR, asymptotics.PI_FLOOR + 1
    with workprec(400):
        assert mpf(low) / 2**asymptotics.PI_BITS < mp.pi < mpf(high) / 2**asymptotics.PI_BITS
    # the enclosure widens a band by lambda2 * 2**-96 / pi, at most 5.1
    # values of lambda2 up to 2**100
    assert asymptotics.PI_BITS == 96 and 2**100 * 2**-96 / math.pi < 5.1


def test_window_stages_cannot_apply_beyond_26_l2():
    # certify skips both stages when d*d >= 26*l2: every window-table window
    # and every near-diagonal row ends below d = sqrt(8*pi*l2), and 8*pi < 26
    skipped = 0
    for l2 in (19700, 31416, 78660, 100000, 250007, 10**6):
        flat_edge = math.isqrt(int(8 * math.pi * l2))
        skip_edge = math.isqrt(26 * l2)
        for d in [*range(flat_edge - 2, flat_edge + 4), *range(skip_edge - 2, skip_edge + 4)]:
            pair = PartitionPair(l2 + d, l2)
            if 702 <= d < flat_edge:
                # just inside the edge the flat near-diagonal window applies
                assert asymptotics.near_diagonal_error_bound(pair).valid, (l2, d)
            if d > flat_edge:
                line = RatioLine(l2 + d, l2, 128)
                assert _window_step(line, l2 + d, l2) is None, (l2, d)
                assert _near_diagonal_step(line, l2 + d, l2) is None, (l2, d)
                skipped += d * d >= 26 * l2 and d >= 702
    assert skipped >= 18


STAGE_IDS = ("term-growth", "supercritical", "oscillatory", "window", "near-diagonal")

# per stage, a pair it decides once exact evaluation is refused, and its rule
STAGE_PAIRS = {
    "term-growth": (PartitionPair(100, 3), "ascending alternating terms"),
    "supercritical": (PartitionPair(600000, 100000), "supercritical saddle bound"),
    "oscillatory": (PartitionPair(20000, 10000), "oscillatory main-term bound"),
    "window": (PartitionPair(10**6 + 702, 10**6), "certified difference window"),
    "near-diagonal": (PartitionPair(10**6 + 3362, 10**6), "near-diagonal window bound"),
}


def test_stages_run_in_the_paper_order():
    assert tuple(stage_id for stage_id, _, _ in STAGES) == STAGE_IDS


@pytest.mark.parametrize("stage_id", STAGE_IDS)
def test_every_stage_stays_reachable(stage_id):
    pair, rule = STAGE_PAIRS[stage_id]
    cert = certify(pair, budget=0)
    assert cert.nonzero and cert.rule == rule
    index = STAGE_IDS.index(stage_id)
    _, gate, step = STAGES[index]
    line, l1, l2 = RatioLine(pair.lambda1, pair.lambda2, 128), pair.lambda1, pair.lambda2
    assert gate(line, l1, l2)
    assert step(line, l1, l2) == cert
    # every earlier stage is gated out or fails, so this stage decides
    for _, gate, step in STAGES[:index]:
        assert not gate(line, l1, l2) or step(line, l1, l2) is None


def test_refined_supercritical_bound_is_reachable_with_delta():
    pair = PartitionPair(300, 50)
    assert certify(pair, budget=0).kind is CertificateKind.INCONCLUSIVE
    cert = certify(pair, budget=0, delta=1.0)
    assert cert.kind is CertificateKind.NONZERO_SUPERCRITICAL
    assert cert.rule == "refined supercritical saddle bound"


@pytest.mark.parametrize("ratio", [Fraction(2), Fraction(4), Fraction(5)])
def test_oscillatory_gate_rejects_exactly_the_pairs_up_to_the_reach(ratio):
    _, gate, step = STAGES[STAGE_IDS.index("oscillatory")]
    reach = asymptotics.oscillatory_bound_reach(ratio)
    line = RatioLine(ratio.numerator, ratio.denominator, 128)
    at_reach = (int(ratio * reach), reach)
    assert not gate(line, *at_reach)
    # at the reach the bound is still >= 1 >= |cos|, so the step cannot decide
    assert step(line, *at_reach) is None
    assert gate(line, int(ratio * (reach + 1)), reach + 1)


def _counted_kernel(monkeypatch, name: str) -> list:
    """The argument tuples of every call that a `RatioLine` makes to the
    kernel `asymptotics.<name>` from now on."""
    calls = []
    kernel = getattr(asymptotics, name)
    monkeypatch.setattr(asymptotics, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


def test_supercritical_step_falls_back_to_the_kernel_on_a_built_ambiguous_pair(monkeypatch):
    # head = 1/4 - 2**-54 - 2**-78 exactly, so that 1 - head lies 2**-78
    # above a midpoint of the 53-bit grid, inside the bound chain's 6u at
    # --precision 53 (see the asymptotics test of the same line)
    lam = 2**20
    c1 = (Fraction(1, 4) - Fraction(1, 2**54) - Fraction(1, 2**78)) * 256 * lam * lam
    line = RatioLine(600, 100, 53)
    line.supercritical_factors = (
        from_int(1024),
        (0, c1.numerator, -(c1.denominator.bit_length() - 1), c1.numerator.bit_length()),
        from_int(lam),
        from_int(0),
        from_int(1),
        from_int(1),
        from_int(8),
        from_int(1),
    )
    assert line.head_enclosure(lam) is not None
    kernel = asymptotics._supercritical_bound
    calls = _counted_kernel(monkeypatch, "_supercritical_bound")
    record = _supercritical_step(line, 6 * lam, lam)
    assert len(calls) == 1
    margin = rounded_margin(fone, kernel(line.supercritical_factors, lam, line.wp))
    assert record == (6 * lam, CertificateKind.NONZERO_SUPERCRITICAL, "supercritical saddle bound", margin, None, None, None, None, 0)
    assert record[3] == 0.75 + 2**-53


def test_oscillatory_step_falls_back_to_the_kernel_on_a_built_ambiguous_pair(monkeypatch):
    # the cosine enclosure of a decided ratio-2 pair, widened until it reaches
    # the midpoint of the 53-bit grid next to the kernel's |cos|: it still
    # holds the kernel's value, but no longer fixes its rounding
    l1, l2 = 200140, 100070
    line = RatioLine(2, 1, 128)
    kernel = asymptotics._oscillatory_bound
    calls = _counted_kernel(monkeypatch, "_oscillatory_bound")
    decided = _oscillatory_step(line, l1, l2)
    assert decided is not None and not calls
    sign, man, exp, bc = line.cosine(l1, l2)
    units = (-1) ** sign * Fraction(man) * Fraction(2) ** (exp + FIXED_BITS)
    midpoint = ((man >> (bc - 53)) + Fraction(1, 2)) * Fraction(2) ** (exp + FIXED_BITS + bc - 53)
    reach = math.ceil(abs(midpoint - abs(units))) + 1
    centre = math.floor(units)
    monkeypatch.setattr(RatioLine, "cosine_enclosure", lambda self, *pair: (centre - reach, centre + reach))
    record = _oscillatory_step(line, l1, l2)
    assert len(calls) == 1
    bound = kernel(line.oscillatory_constants[0], l2, line.wp)
    margin = rounded_margin(mpf_abs((sign, man, exp, bc), MARGIN_PRECISION, round_nearest), bound)
    assert record == (l1, CertificateKind.NONZERO_OSCILLATORY, "oscillatory main-term bound", margin, None, None, None, None, 0)
    assert record == decided


def test_scan_with_ratio_caches_equals_uncached_pairs():
    caches = (
        asymptotics.saddle_data,
        asymptotics.gamma_angles,
        asymptotics.ratio_line,
        asymptotics.window_edge,
        asymptotics.diff_line,
    )
    for rule in (RatioRule(Fraction(6)), RatioRule(Fraction(2)), DiffRule(800)):
        report = scan_range((100000, 100015), rule, budget=0)
        expected = []
        for l2, record in report.records():
            for cached in caches:
                cached.cache_clear()
            expected.append((l2, certify(PartitionPair(record[0], l2), budget=0)))
        assert report.jsonl_lines() == _one_pair_rows(expected).jsonl_lines()


@st.composite
def _threshold_lines(draw):
    """(lambda2 range, rule, prec) of 16-64 pairs of a difference line around
    the lambda2 where one comparison of its `DiffLine` switches."""
    d, n = draw(_DIFFERENCES), draw(st.integers(16, 64))
    lo = _crossing(draw(st.sampled_from(DIFF_TARGETS)), d) - n // 2
    return (lo, lo + n - 1), DiffRule(d), draw(st.integers(53, 256))


@st.composite
def _cascade_lines(draw):
    """(lambda2 range, rule, prec) of a short scan line: a ratio line of
    either regime; a subcritical ratio line whose lambda1 crosses a power of
    two, where the cosine's p_eff steps; or a difference line around d = 702,
    around the flat edge sqrt(8*pi*l2) of the near-diagonal bound, or across
    the lambda2 where one comparison of its `DiffLine` switches."""
    prec = draw(st.integers(53, 256))
    shape = draw(st.sampled_from(("ratio", "power-of-two", "diff-702", "diff-flat", "diff-threshold")))
    b = draw(st.integers(1, 9))
    if shape == "ratio":
        r = Fraction(draw(st.integers(b + 1, 12 * b)), b)
        lo = draw(st.one_of(st.integers(1, 200000), st.integers(1, 2**60)))
        return (lo, lo + 8 * r.denominator), RatioRule(r), prec
    if shape == "power-of-two":
        # r <= 5 < 3 + 2*sqrt(2)
        r = Fraction(draw(st.integers(b + 1, 5 * b)), b)
        t = 2 ** draw(st.integers(12, 60)) // r.numerator
        return (r.denominator * (t - 3), r.denominator * (t + 3)), RatioRule(r), prec
    if shape == "diff-threshold":
        return draw(_threshold_lines())
    lo = draw(st.integers(19000, 10**9))
    if shape == "diff-702":
        return (lo, lo + 3), DiffRule(draw(st.integers(699, 706))), prec
    return (lo, lo + 3), DiffRule(math.isqrt(math.floor(8 * math.pi * lo)) + draw(st.integers(-2, 2))), prec


def _per_pair_records(lambda2_range, rule, prec) -> list[tuple]:
    """(lambda2, record) of `certify` on each pair of the line with every
    `DiffLine` comparison in its band and the oscillatory gate read from
    each pair's reach, so that the oscillatory gate and the window and
    near-diagonal steps run the per-pair functions alone.  The cached
    `DiffLine`s are dropped on either side of the patch, so that none holds
    thresholds of the other side."""
    asymptotics.diff_line.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DiffLine, "_side", lambda *args: 0)
            patch.setattr(
                DiffLine,
                "past_reach",
                lambda line, l2: l2 > asymptotics.oscillatory_bound_reach(Fraction(l2 + line.d, l2)),
            )
            patch.setattr(asymptotics, "CLASS2_FLOOR_702", 0)
            return [
                (l2, certify(PartitionPair(l1, l2), budget=0, prec=prec))
                for l1, l2 in certifier.rule_pairs(lambda2_range, rule)
            ]
    finally:
        asymptotics.diff_line.cache_clear()


def _open_enclosures(patch) -> None:
    """Patches the fixed-point enclosures open: no head enclosure, and
    cosine, bound and cosine-lower-bound enclosures that reach over every
    bound, so that the supercritical, oscillatory and near-diagonal steps
    run their raw kernels alone."""
    patch.setattr(RatioLine, "head_enclosure", lambda *args: None)
    patch.setattr(RatioLine, "cosine_enclosure", lambda *args: (-2 << FIXED_BITS, 2 << FIXED_BITS))
    patch.setattr(DiffLine, "bound_enclosure", lambda *args: (-2 << FIXED_BITS, 2 << FIXED_BITS))
    patch.setattr(DiffLine, "lower_enclosure", lambda *args: (-2 << FIXED_BITS, 2 << FIXED_BITS))


def _kernel_records(lambda2_range, rule, prec) -> list[tuple]:
    """(lambda2, record) of `certify` on each pair of the line with the
    fixed-point enclosures patched open (`_open_enclosures`)."""
    with pytest.MonkeyPatch.context() as patch:
        _open_enclosures(patch)
        return [
            (l2, certify(PartitionPair(l1, l2), budget=0, prec=prec))
            for l1, l2 in certifier.rule_pairs(lambda2_range, rule)
        ]


@given(line=_cascade_lines())
@example(line=((100001, 100011), RatioRule(Fraction(6)), 128))
@example(line=((1, 400), RatioRule(Fraction(6)), 53))
@example(line=((1, 400), RatioRule(Fraction(6)), 256))
@example(line=((2**40 - 12, 2**40 + 11), RatioRule(Fraction(35, 6)), 53))
@example(line=((2**40 - 12, 2**40 + 11), RatioRule(Fraction(7, 3)), 256))
@example(line=((100070, 100080), RatioRule(Fraction(2)), 53))
@example(line=((5000, 5010), RatioRule(Fraction(3)), 200))
@example(line=((65535, 65537), RatioRule(Fraction(2)), 128))
@example(line=((100000, 100011), DiffRule(834), 128))
@example(line=((99948, 99963), DiffRule(1585), 53))
@example(line=((19574, 19612), DiffRule(702), 200))
@settings(max_examples=80, deadline=None)
def test_a_scan_line_gives_each_pair_the_record_of_certify(line):
    lambda2_range, rule, prec = line
    report = scan_range(lambda2_range, rule, budget=0, prec=prec)
    expected = [
        (l2, certify(PartitionPair(l1, l2), budget=0, prec=prec))
        for l1, l2 in certifier.rule_pairs(lambda2_range, rule)
    ]
    assert list(report.records()) == expected
    assert report.jsonl_lines() == _one_pair_rows(expected).jsonl_lines()
    assert report.csv_lines() == _one_pair_rows(expected).csv_lines()
    if isinstance(rule, DiffRule):
        assert _per_pair_records(lambda2_range, rule, prec) == expected
    assert _kernel_records(lambda2_range, rule, prec) == expected


def _band_calls(lambda2_range, rule, prec) -> int:
    """The calls that a scan of the line makes to the per-pair functions
    that a `DiffLine` runs where a threshold or an enclosure leaves an
    outcome open: the clause ends, and the near-diagonal step's kernels.
    The cached `DiffLine`s are dropped on either side of the patch."""
    calls = []
    asymptotics.diff_line.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_largest_difference", "_least_difference", "_near_diagonal_bound", "_cos_lower_bound"):
                patch.setattr(asymptotics, name, lambda *args, f=getattr(asymptotics, name): calls.append(f) or f(*args))
            scan_range(lambda2_range, rule, budget=0, prec=prec)
    finally:
        asymptotics.diff_line.cache_clear()
    return len(calls)


def test_some_difference_lines_across_a_threshold_enter_the_band():
    # the band is about lambda2 * 2**(8 - wp) wide, so it holds whole
    # lambda2 only far past the oscillatory reach; there the oscillatory step
    # decides every pair whose cosine it can bound away from 0, but near a
    # clause end the cosine of that end's class nearly vanishes
    line = find(
        _threshold_lines(),
        lambda line: _band_calls(*line) > 0,
        settings=settings(max_examples=300, derandomize=True, database=None, phases=[Phase.generate]),
    )
    report = scan_range(*line[:2], budget=0, prec=line[2])
    assert list(report.records()) == _per_pair_records(*line)


@st.composite
def _near_diagonal_pairs(draw):
    """(lambda1, lambda2, prec) of a pair inside the near-diagonal gate, of a
    drawn congruence class, at --precision 53, 128 or 200: lambda2 at the
    bottom of the gate (from 18,954), about 10**5, around CLASS2_FLOOR_702,
    or above 2**1000, where edge 0 is compared per pair, with d drawn from
    [702, sqrt(26*lambda2)); or a pair within 3 of where a `DiffLine`
    threshold switches, so in its band when lambda2 is large."""
    prec = draw(st.sampled_from((53, 128, 200)))
    if draw(st.booleans()):
        d, crossing, _, _ = draw(_threshold_draws())
        l2 = crossing + draw(st.integers(-3, 3))
        assume(d * d < 26 * l2)
        return l2 + d, l2, prec
    floor = asymptotics.CLASS2_FLOOR_702
    l2 = draw(
        st.one_of(
            st.integers(18954, 20000),
            st.integers(99000, 101000),
            st.integers(floor - 10**4, floor + 10**4),
            st.integers(2**1000, 2**1013),
        )
    )
    top = math.isqrt(26 * l2 - 1)  # the largest d with d*d < 26*l2
    d = draw(st.integers(702, max(702, top)))
    d += (draw(st.integers(0, 3)) - 2 * l2 - d) % 4  # the drawn class
    d -= 4 * (d > top)
    assume(702 <= d <= top)
    return l2 + d, l2, prec


@given(pair=_near_diagonal_pairs())
@example(pair=(100834, 100000, 128))
@example(pair=(100794, 100000, 53))
@example(pair=(100792, 100000, 200))
@example(pair=(2**1001 + 702, 2**1001, 53))
# the cosine lower bound 1.5 * SLACK, above a bound far below SLACK
@example(pair=(2**100 + 2630119586, 2**100, 128))
@settings(max_examples=150, deadline=None)
def test_the_near_diagonal_step_gives_every_pair_the_record_of_its_kernels(pair):
    l1, l2, prec = pair
    line = RatioLine(l1, l2, prec)
    record = _near_diagonal_step(line, l1, l2)
    with pytest.MonkeyPatch.context() as patch:
        _open_enclosures(patch)
        assert _near_diagonal_step(line, l1, l2) == record
    margin = _kernel_margin(l1, l2, line.wp)
    assert record == (None if margin is None else (l1, CertificateKind.NONZERO_OSCILLATORY, "near-diagonal window bound", margin, None, None, None, None, 0))


def _benchmark_difference_lines(seeds) -> list[tuple]:
    """(lambda2 range, rule) of every difference scan of the benchmark's
    scan-lines workload at the given seeds (perfbench/workloads.py)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [
        ((scan.l2_lo, scan.l2_hi), DiffRule(scan.value))
        for seed in seeds
        for scan in workloads.build("scan-lines", seed).scans
        if scan.rule == "diff"
    ]


def test_the_difference_lines_of_the_benchmark_run_no_kernel_fallback(monkeypatch):
    # at lambda2 ~ 1e5 every threshold band is far narrower than one
    # lambda2, and the enclosures fix every outcome and margin
    reached = []
    margin = DiffLine.near_diagonal_margin
    monkeypatch.setattr(DiffLine, "near_diagonal_margin", lambda *args: reached.append(args) or margin(*args))
    lines = _benchmark_difference_lines((1, 2, 3))
    assert len(lines) == 39
    assert sum(_band_calls(lambda2_range, rule, DEFAULT_PRECISION) for lambda2_range, rule in lines) == 0
    assert len(reached) > 50


@pytest.fixture
def built_diff_lines(monkeypatch):
    """Counts the `DiffLine`s built, by (d, wp), through an empty cache of
    the size of `diff_line` in its place, for the steps' calls."""
    built = Counter()

    class CountedDiffLine(DiffLine):
        __slots__ = ()

        def __init__(self, d: int, wp: int) -> None:
            built[d, wp] += 1
            super().__init__(d, wp)

    maxsize = asymptotics.diff_line.cache_info().maxsize
    monkeypatch.setattr(certifier, "diff_line", functools.lru_cache(maxsize=maxsize)(CountedDiffLine))
    return built


def test_a_process_builds_one_diff_line_per_difference_and_precision(built_diff_lines):
    scan_range((100000, 100011), DiffRule(800), budget=0)
    # each row passes every difference from 702 to 760 through the window step
    scan_range((100000, 100002), AllUpToRule(100760), budget=0)
    certify(PartitionPair(100834, 100000), budget=0)
    certify(PartitionPair(100835, 100001), budget=0)
    wp = DEFAULT_PRECISION + GUARD_BITS
    assert built_diff_lines == {(d, wp): 1 for d in (*range(702, 761), 800, 834)}


def test_an_all_up_to_scan_builds_each_diff_line_of_its_rows_once(built_diff_lines):
    # each of the four rows passes every difference from 702 to 1,612
    # (d*d < 26*lambda2) through the window step; a cache of fewer entries
    # than the 911 differences of a row would rebuild them on every row
    scan_range((100000, 100003), AllUpToRule(101700), budget=0)
    wp = DEFAULT_PRECISION + GUARD_BITS
    assert built_diff_lines == {(d, wp): 1 for d in range(702, 1613)}
    assert sum(built_diff_lines.values()) == 911


def _ambient_outcomes():
    return (
        # |cos| = 0.244862 falls 2.4e-5 short of the oscillatory bound, but
        # rounded to 3 or 4 bits it would pass it
        certify(PartitionPair(200150, 100075), budget=0),
        certify(PartitionPair(600000, 100000), budget=0),
        scan_range((100070, 100081), RatioRule(Fraction(2)), budget=0).rows,
        scan_range((100000, 100011), DiffRule(800), budget=0).rows,
        # lambda2 = 44 lies below the validity threshold 44.23 of r = 4
        asymptotics.predict(PartitionPair(176, 44)),
        asymptotics.predict(PartitionPair(200150, 100075)),
    )


def test_verdicts_and_margins_do_not_depend_on_the_ambient_precision():
    outcomes = []
    for ambient in (3, 53, 300):
        with workprec(ambient):
            outcomes.append(_ambient_outcomes())
    assert outcomes[0] == outcomes[1] == outcomes[2]
    near, super_, ratio2, diff, below, _ = outcomes[1]
    assert near.kind is CertificateKind.INCONCLUSIVE and not below.valid
    rules = {record[2] for _, records in ratio2 + diff for record in records}
    assert {"oscillatory main-term bound", "near-diagonal window bound", "certified difference window"} <= rules
    assert super_.margin is not None


def test_scan_counts_and_order():
    report = scan_range((1, 12), AllUpToRule(24), budget=10**9)
    keys = [(l2, record[0]) for l2, record in report.records()]
    assert sum(report.counts.values()) == len(keys)
    assert report.counts.get("nonzero_exact") == len(keys)
    assert keys == sorted(keys)
    assert not report.pairs(CertificateKind.INCONCLUSIVE)
    assert not report.pairs(CertificateKind.ZERO_EXACT)


def test_scan_parallel_matches_serial(pool_starts):
    serial = scan_range((1, 25), AllUpToRule(40), budget=10**9, parallelism=1)
    parallel = scan_range((1, 25), AllUpToRule(40), budget=10**9, parallelism=2)
    assert pool_starts == [2]
    assert serial.jsonl_lines() == parallel.jsonl_lines()
    assert serial.csv_lines() == parallel.csv_lines()
    assert serial.human_lines() == parallel.human_lines()


def test_scan_keeps_task_order_across_parallelism(pool_starts):
    # duplicates and unsorted values: the order comes from task generation
    rule = ListRule((9, 6, 9, 2))
    serial = scan_range((5, 7), rule, budget=10**9, parallelism=1)
    parallel = scan_range((5, 7), rule, budget=10**9, parallelism=2)
    assert pool_starts == [2]
    assert serial.rows == parallel.rows
    assert [(l2, record[0]) for l2, record in serial.records()] == [
        (5, 6),
        (5, 9),
        (5, 9),
        (6, 9),
        (6, 9),
        (7, 9),
        (7, 9),
    ]


SCAN_CASES = [
    # (lambda2 range, rule, budget); budgets 10 and 7 cut rows part-way
    # inside one word of lambda1, budget 60 cuts them at lambda1 = 65 or 129
    ((1, 30), AllUpToRule(150), 10**9),
    ((1, 30), AllUpToRule(150), 60),
    ((1, 30), AllUpToRule(150), 10),
    ((1, 8), ListRule((9, 6, 9, 2)), 10**9),
    ((60, 80), ListRule((70, 71, 72, 75, 76, 77, 78, 90)), 10**9),
    ((60, 80), ListRule((70, 71, 72, 75, 76, 77, 78, 90)), 7),
    # budget 0 sends every pair to the cascade: a ratio line's tasks carry
    # its one RatioLine to the workers, and each worker builds the one
    # DiffLine of a difference line
    ((100000, 100011), RatioRule(Fraction(6)), 0),
    ((100070, 100081), RatioRule(Fraction(2)), 0),
    ((100000, 100011), DiffRule(834), 0),
]


@pytest.mark.parametrize("lambda2_range, rule, budget", SCAN_CASES)
def test_scan_rows_match_certify_per_pair(monkeypatch, pool_starts, lambda2_range, rule, budget):
    pairs = [PartitionPair(l1, l2) for l1, l2 in certifier.rule_pairs(lambda2_range, rule)]
    certs = [certify(p, budget) for p in pairs]
    expected_records = [(p.lambda2, c) for p, c in zip(pairs, certs)]
    expected_jsonl = _one_pair_rows(expected_records).jsonl_lines()
    expected_csv = _one_pair_rows(expected_records).csv_lines()
    evaluated = []  # (lambda1, lambda2, walked) per exact evaluation

    def recording_evaluate(pair, route=None):
        evaluated.append((pair.lambda1, pair.lambda2, False))
        return evaluate(pair, route)

    def recording_row_step(n, m, s0, s1):
        evaluated.append((n + 2, m, True))
        return row_step(n, m, s0, s1)

    # a scan evaluates only through the row walk, whose fresh values come from
    # `exact.evaluate`
    monkeypatch.setattr(exact, "evaluate", recording_evaluate)
    monkeypatch.setattr(exact, "row_step", recording_row_step)
    serial = scan_range(lambda2_range, rule, budget=budget)
    monkeypatch.undo()
    parallel = scan_range(lambda2_range, rule, budget=budget, parallelism=2)
    assert pool_starts == [2]
    for report in (serial, parallel):
        assert list(report.records()) == expected_records
        assert report.jsonl_lines() == expected_jsonl
        assert report.csv_lines() == expected_csv
    # every pair the budget admits is evaluated once, and walked exactly when
    # the two lambda1 before it in its row were evaluated too
    admitted = [(p.lambda1, p.lambda2) for p in pairs if evaluation_cost(p) <= budget]
    assert [(l1, l2) for l1, l2, _ in evaluated] == admitted
    seen = set(admitted)
    for l1, l2, walked in evaluated:
        assert walked is ((l1 - 1, l2) in seen and (l1 - 2, l2) in seen), (l1, l2)


def test_exact_row_walk_yields_one_record_per_pair_taken(monkeypatch):
    # a timed scan charges each record the time between two takes, so the
    # first record of a long admitted row must not wait for the rest of it
    (lambda1s, l2), = certifier.rule_rows((5, 5), AllUpToRule(150))
    hi, _ = certifier._row_cut(lambda1s, l2, 10**9)
    assert hi == len(lambda1s) == 145
    fresh, stepped = [], []
    monkeypatch.setattr(exact, "evaluate", lambda pair: fresh.append(pair.lambda1) or evaluate(pair))
    monkeypatch.setattr(exact, "row_step", lambda n, m, s0, s1: stepped.append(n + 2) or row_step(n, m, s0, s1))
    records = certifier._row_records(lambda1s, l2, hi, 128, None)
    assert next(records)[:2] == (6, CertificateKind.NONZERO_EXACT)
    assert (fresh, stepped) == ([6], [])
    assert next(records)[0] == 7 and (fresh, stepped) == ([6, 7], [])
    assert next(records)[0] == 8 and (fresh, stepped) == ([6, 7], [8])
    assert [record[0] for record in records] == lambda1s[3:]
    assert (fresh, stepped) == ([6, 7], lambda1s[2:])


@pytest.mark.parametrize("parallelism", [1, 2])
def test_scan_checks_the_precision_before_any_work(monkeypatch, parallelism):
    # every pair of this scan is evaluated exactly, so no certify call would check it
    def no_work(*args, **kwargs):
        raise AssertionError("scan did work at an invalid precision")

    for name in ("rule_rows", "evaluation_cost", "_process_pool"):
        monkeypatch.setattr(certifier, name, no_work)
    monkeypatch.setattr(exact, "row_values", no_work)
    with pytest.raises(ValueError, match="precision"):
        scan_range((1, 30), AllUpToRule(40), budget=10**9, prec=40, parallelism=parallelism)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_timed_scan_cut_by_the_budget_records_what_an_untimed_one_does(pool_starts, parallelism):
    # budget 60 cuts the rows at lambda1 = 65 or 129; the ListRule rows add
    # gaps and a repeat, and budget 40 refuses lambda1 = 200 from lambda2 = 2 on
    for lambda2_range, rule, budget in [((1, 30), AllUpToRule(150), 60), ((1, 12), ListRule((9, 6, 9, 2, 200)), 40)]:
        untimed = scan_range(lambda2_range, rule, budget=budget, parallelism=parallelism)
        timed = scan_range(lambda2_range, rule, budget=budget, parallelism=parallelism, timings=True)
        assert [(l2, record[:-1]) for l2, record in timed.records()] == [
            (l2, record[:-1]) for l2, record in untimed.records()
        ]
        assert {record[-1] for _, record in untimed.records()} == {0}
        assert all(isinstance(record[-1], int) and record[-1] >= 0 for _, record in timed.records())
        assert {record[1] for _, record in timed.records()} > {CertificateKind.NONZERO_EXACT}
    assert pool_starts == ([2] * 4 if parallelism == 2 else [])


def test_scan_records_keep_every_certificate_field(pool_starts):
    # at budget 0 the diff band certifies by difference windows (a clause) and
    # the near-diagonal bound (a margin), the ratio-2 band by the oscillatory
    # bound (a margin) or not at all (a reason)
    bands = [
        ((100000, 100015), DiffRule(1000), {"nonzero_interval": 8, "nonzero_oscillatory": 8}),
        ((100000, 100059), RatioRule(Fraction(2)), {"nonzero_oscillatory": 50, "inconclusive": 10}),
    ]
    for lambda2_range, rule, counts in bands:
        pairs = [PartitionPair(l1, l2) for l1, l2 in certifier.rule_pairs(lambda2_range, rule)]
        certs = [certify(p, budget=0) for p in pairs]
        assert Counter(c.kind.value for c in certs) == counts
        for c in certs:
            assert (c.clause is not None) is (c.kind is CertificateKind.NONZERO_INTERVAL)
            assert (c.margin is not None) is (c.kind is CertificateKind.NONZERO_OSCILLATORY)
            assert (c.reason is not None) is (c.kind is CertificateKind.INCONCLUSIVE)
        for parallelism in (1, 2):
            report = scan_range(lambda2_range, rule, budget=0, parallelism=parallelism)
            assert list(report.records()) == [(p.lambda2, c) for p, c in zip(pairs, certs)]
            assert report.counts == counts
    assert pool_starts == [2, 2]


def _pickled_globals(data: bytes) -> set[tuple[str, str]]:
    """(module, name) of every global that unpickling `data` would load,
    read from its opcodes: GLOBAL names it in its argument, STACK_GLOBAL takes
    the last two strings pushed, directly or from the memo."""
    memo, strings, found = {}, [], set()
    top = None  # the string on top of the stack, if the last push was one
    for op, arg, _ in pickletools.genops(data):
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"):
            top = arg
            strings.append(arg)
        elif op.name == "MEMOIZE":
            memo[len(memo)] = top
        elif op.name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = top
        elif op.name in ("GET", "BINGET", "LONG_BINGET"):
            top = memo[arg]
            if top is not None:
                strings.append(top)
        else:
            if op.name == "GLOBAL":
                found.add(tuple(arg.split(" ", 1)))
            elif op.name == "STACK_GLOBAL":
                found.add((strings[-2], strings[-1]))
            top = None
    return found


def test_scan_row_pickles_no_binsum_class_but_the_kind():
    scans = [
        ([([4, 30], 3)], 10**9, (128, None, True)),
        ([([100006, 101006, 200012, 200014, 10**10 + 1], 100006)], 0, (128, None, False)),
    ]
    rows = [
        row
        for input_rows, budget, settings in scans
        for chunk, _ in _chunks(input_rows, budget)
        for row in _scan_chunk(settings, chunk)
    ]
    kinds = {record[1].value for _, records in rows for record in records}
    assert kinds == {
        "nonzero_exact",
        "nonzero_interval",
        "inconclusive",
        "nonzero_oscillatory",
        "nonzero_supercritical",
    }
    for protocol in {pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL, 2}:
        found = _pickled_globals(pickle.dumps(rows, protocol))
        assert {g for g in found if g[0].split(".")[0] == "binsum"} == {("binsum.certifier", "CertificateKind")}
        assert pickle.loads(pickle.dumps(rows, protocol)) == rows
    # the opcode reader sees the class that per-pair objects would bring
    certs = [Certificate._make(record) for _, records in rows for record in records]
    assert ("binsum.certifier", "Certificate") in _pickled_globals(pickle.dumps(certs))


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replaces the process pool by one that runs the tasks in this process;
    lists the worker count of every pool started."""
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor and starts no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(certifier, "_process_pool", RecordingPool)
    return started


def test_scan_caps_workers_at_cpus_and_tasks(monkeypatch, recorded_pools):
    started = recorded_pools
    monkeypatch.setattr(certifier, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(certifier, "CHUNK_PAIRS", 1)  # a chunk per row
    rule = ListRule((9, 6, 2))
    serial = scan_range((5, 8), rule, budget=10**9)  # 4 tasks: one row per lambda2
    assert started == []
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 3)
    for parallelism, workers in [(2, 2), (3, 3), (10**6, 3)]:
        started.clear()
        report = scan_range((5, 8), rule, budget=10**9, parallelism=parallelism)
        assert started == [workers]
        assert report.rows == serial.rows
    started.clear()
    scan_range((6, 7), rule, budget=10**9, parallelism=8)  # 2 tasks
    assert started == [2]
    started.clear()
    scan_range((5, 5), rule, budget=10**9, parallelism=8)  # 1 task of 2 pairs
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 1)
    scan_range((5, 7), rule, budget=10**9, parallelism=8)
    assert started == []


def _works(lambda2_range, rule, budget) -> list[int]:
    """The estimated work of each chunk of a scan, in turn (of each row when
    a chunk holds one row)."""
    return [work for _, work in _chunks(certifier.rule_rows(lambda2_range, rule), budget)]


def test_scan_starts_the_pool_only_from_the_work_threshold_on(monkeypatch, recorded_pools):
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 2)
    # the benchmark's exact rectangle and the 60 ratio-2 cascade pairs are cheap
    cheap = [((1, 100), AllUpToRule(200), certifier.DEFAULT_BUDGET), ((100000, 100059), RatioRule(Fraction(2)), 0)]
    for lambda2_range, rule, budget in cheap:
        assert sum(_works(lambda2_range, rule, budget)) < certifier.POOL_MIN_WORK
        serial = scan_range(lambda2_range, rule, budget=budget)
        assert scan_range(lambda2_range, rule, budget=budget, parallelism=2).rows == serial.rows
    assert recorded_pools == []
    # a cascade-only line reaches the threshold at its 24,000th pair, so its
    # pairs up to there run in this process, where the pool would not pay
    for pairs, rule in ((18000, RatioRule(Fraction(6))), (18000, RatioRule(Fraction(2))), (24000, RatioRule(Fraction(6)))):
        work = sum(_works((100000, 100000 + pairs - 1), rule, 0))
        assert (work >= certifier.POOL_MIN_WORK) is (pairs == 24000)
    # ten exact ratio-3 pairs of about 8 ms each repay the pool
    heavy = ((2000, 2009), RatioRule(Fraction(3)))
    assert sum(_works(*heavy, certifier.DEFAULT_BUDGET)) >= certifier.POOL_MIN_WORK
    scan_range(*heavy, parallelism=2)
    assert recorded_pools == [2]
    # the gate is exactly work >= POOL_MIN_WORK, summed over the chunks so
    # far: the chunk that reaches it and every chunk after it run in the
    # pool, unless that chunk is the last.  Here each row is a chunk.
    monkeypatch.setattr(certifier, "CHUNK_PAIRS", 1)
    lambda2_range, rule = (1, 30), AllUpToRule(60)
    reached = list(itertools.accumulate(_works(lambda2_range, rule, 10)))
    serial = scan_range(lambda2_range, rule, budget=10)
    pooled = []  # the lambda2 of each row sent to a pool
    recording_pool = certifier._process_pool

    def pool_listing_rows(max_workers):
        pool = recording_pool(max_workers)
        submit = pool.submit
        pool.submit = lambda fn, settings, chunk: pooled.extend(row[1] for row in chunk) or submit(fn, settings, chunk)
        return pool

    monkeypatch.setattr(certifier, "_process_pool", pool_listing_rows)
    for threshold, first_pooled in [(reached[-1] + 1, None), (reached[-1], None), (reached[9], 10), (reached[9] + 1, 11)]:
        recorded_pools.clear()
        pooled.clear()
        monkeypatch.setattr(certifier, "POOL_MIN_WORK", threshold)
        assert scan_range(lambda2_range, rule, budget=10, parallelism=2).rows == serial.rows
        assert recorded_pools == ([] if first_pooled is None else [2])
        assert pooled == ([] if first_pooled is None else list(range(first_pooled, 31)))


def test_scan_work_estimate_reads_nothing_but_the_rows(monkeypatch):
    def no_clock(*args, **kwargs):
        raise AssertionError("the work estimate read the machine")

    for name in ("perf_counter", "monotonic", "time", "process_time"):
        monkeypatch.setattr(certifier.time, name, no_clock)
    monkeypatch.setattr(certifier, "_usable_cpus", no_clock)
    # budget 100 cuts each row part-way, and admits no pair of the last row
    rows = [*certifier.rule_rows((20, 30), AllUpToRule(200)), ([5000, 6000], 31)]
    chunks, works = zip(*_chunks(rows, 100))
    work = sum(works)
    tasks = [task for chunk in chunks for task in chunk]
    assert [(lambda1s, l2) for lambda1s, l2, _ in tasks] == rows
    firsts = [evaluation_cost(PartitionPair(lambda1s[0], l2)) for lambda1s, l2 in rows]
    fresh = [cost for cost in firsts if cost <= 100]
    cascade = sum(len(lambda1s) - hi for (lambda1s, _, hi) in tasks)
    assert len(fresh) == len(rows) - 1 and cascade
    assert work == sum(fresh) + certifier.CASCADE_PAIR_COST * cascade
    # the chunks and their work are the same on every reading
    assert list(_chunks(rows, 100)) == list(zip(chunks, works))
    for lambda1s, l2, hi in tasks:
        costs = [evaluation_cost(PartitionPair(l1, l2)) for l1 in lambda1s]
        assert all(c <= 100 for c in costs[:hi]) and all(c > 100 for c in costs[hi:])


def test_scan_lines_read_back_to_the_records():
    # exact values of both signs, term growth, supercritical and oscillatory
    # margins, difference windows and inconclusive pairs
    scans = [
        ((2, 8), ListRule((3, 9, 10, 200)), 100),
        ((241, 244), RatioRule(Fraction(6)), 0),
        ((100000, 100007), DiffRule(1000), 0),
        ((720, 721), DiffRule(1), 0),
    ]
    report = ScanReport(sum((scan_range(*scan[:2], budget=scan[2]).rows for scan in scans), ()))
    records = list(report.records())
    assert {record[1] for _, record in records} == set(CertificateKind) - {
        CertificateKind.ZERO_EXACT,
        CertificateKind.REFUSED,
    }
    assert {record[4] for _, record in records} == {-1, 1, None}
    jsonl = report.jsonl_lines()
    csv = report.csv_lines()
    assert csv[0] == certifier.CSV_HEADER
    assert len(jsonl) == len(csv) - 1 == len(records)
    for (l2, (l1, kind, _, margin, sign, _, _, _, usec)), line, row in zip(records, jsonl, csv[1:]):
        fields = (l1, l2, exact.congruence_class(l1, l2), kind.value, margin, sign, usec)
        assert tuple(json.loads(line).values()) == fields
        l1_cell, l2_cell, class_cell, kind_cell, margin_cell, sign_cell, usec_cell = row.split(",")
        assert (
            int(l1_cell),
            int(l2_cell),
            int(class_cell),
            kind_cell,
            float(margin_cell) if margin_cell else None,
            int(sign_cell) if sign_cell else None,
            int(usec_cell),
        ) == fields


# one record of each shape: exact of each sign, term growth, a clause, a
# margin of each saddle step, inconclusive and refused
RECORD_SHAPES = [
    (13, CertificateKind.ZERO_EXACT, certifier.EXACT_RULE, None, 0, None, None, None),
    (14, CertificateKind.NONZERO_EXACT, certifier.EXACT_RULE, None, 1, 9, None, None),
    (15, CertificateKind.NONZERO_EXACT, certifier.EXACT_RULE, None, -1, 11, None, None),
    (16, CertificateKind.NONZERO_TERM_GROWTH, "ascending alternating terms", None, None, None, None, None),
    (17, CertificateKind.NONZERO_INTERVAL, "difference window", None, None, None, "class0-a", None),
    (18, CertificateKind.NONZERO_SUPERCRITICAL, "supercritical bound", 0.375, None, None, None, None),
    (19, CertificateKind.NONZERO_OSCILLATORY, "oscillatory bound", 2.0**-14, None, None, None, None),
    (20, CertificateKind.NONZERO_OSCILLATORY, "oscillatory bound", 0.1, None, None, None, None),
    (21, CertificateKind.INCONCLUSIVE, "cascade exhausted", None, None, None, None, "no bound"),
    (22, CertificateKind.REFUSED, "input check", None, None, None, None, "diagonal pair excluded"),
]
JSONL_KEYS = ("lambda1", "lambda2", "class", "certificate", "margin", "exact_sign", "usec")


@pytest.mark.parametrize("usec", [0, 1234])
def test_every_record_shape_is_written_with_every_field(usec):
    # the writers give exact records (a sign, no margin) a line of their own;
    # each shape must read back to its fields in jsonl, csv and through write_rows
    l2 = 7
    records = [(*shape, usec) for shape in RECORD_SHAPES]
    fields = [
        (l1, l2, (l1 + l2) % 4, kind.value, margin, sign, usec)
        for l1, kind, _, margin, sign, *_ in records
    ]
    jsonl = certifier.jsonl_text(l2, records).splitlines()
    csv = certifier.csv_text(l2, records).splitlines()
    assert len(jsonl) == len(csv) == len(records)
    for line, row, values in zip(jsonl, csv, fields):
        assert json.loads(line) == dict(zip(JSONL_KEYS, values))
        assert tuple(json.loads(line)) == JSONL_KEYS
        assert row.split(",") == ["" if v is None else format(v, ".17g") if isinstance(v, float) else str(v) for v in values]
        margin = values[4]
        if margin is None or repr(margin) == format(margin, ".17g"):
            assert line == json.dumps(dict(zip(JSONL_KEYS, values)), separators=(",", ":"))
    assert tuple(certifier.CSV_HEADER.split(",")) == JSONL_KEYS
    # write_rows writes the same text, csv under its header, and flags the inconclusive record
    for output_format, lines in [("jsonl", jsonl), ("csv", [certifier.CSV_HEADER, *csv])]:
        out = []
        assert write_rows([(l2, records)], output_format, out.append) is True
        assert "".join(out).splitlines() == lines
    out = []
    assert write_rows([(l2, records[:-2])], "jsonl", out.append) is False
    out = []
    assert write_rows([(l2, records)], "human", out.append) is True
    human = "".join(out).splitlines()
    assert "inconclusive pair (21, 7)" in human and "ZERO VALUE at (13, 7)" in human
    assert "nonzero_exact            2" in human and "refused                  1" in human


def test_usable_cpus_is_within_cpu_count():
    assert 1 <= certifier._usable_cpus() <= (os.cpu_count() or 1)


def test_scan_rules():
    report = scan_range((1, 10), RatioRule(Fraction(7, 2)), budget=10**9)
    assert [(record[0], l2) for l2, record in report.records()] == [
        (7, 2),
        (14, 4),
        (21, 6),
        (28, 8),
        (35, 10),
    ]
    report = scan_range((5, 7), ListRule((9, 6, 2)), budget=10**9)
    assert [(record[0], l2) for l2, record in report.records()] == [
        (6, 5),
        (9, 5),
        (9, 6),
        (9, 7),
    ]
    with pytest.raises(ValueError):
        scan_range((5, 4), DiffRule(1))
    with pytest.raises(ValueError):
        scan_range((5, 5), DiffRule(0))


def test_scan_jsonl_schema():
    report = scan_range((720, 720), DiffRule(1), budget=0)
    line = next(iter(report.jsonl_lines()))
    import json

    row = json.loads(line)
    assert set(row) == {"lambda1", "lambda2", "class", "certificate", "margin", "exact_sign", "usec"}
    assert row["certificate"] == "inconclusive"
    assert row["margin"] is None
    assert row["exact_sign"] is None
    assert row["usec"] == 0


def test_continued_fraction_golden_ratio():
    with workprec(160):
        golden = (1 + mp.sqrt(5)) / 2
    cf = continued_fraction(golden, 20, 160)
    assert cf.partial_quotients == (1,) * 20
    fib = [1, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    for n, (_, q) in enumerate(cf.convergents):
        assert q == fib[n]
    assert not cf.truncated


def test_continued_fraction_rational_terminates():
    with workprec(128):
        third = mpf(1) / 3
    cf = continued_fraction(third, 10, 128)
    assert cf.partial_quotients == (0, 3)
    assert cf.truncated


def test_continued_fraction_quality():
    with workprec(200):
        x = mp.pi
    cf = continued_fraction(x, 12, 200)
    assert cf.partial_quotients[:4] == (3, 7, 15, 1)
    with workprec(200):
        for k, (p, q) in enumerate(cf.convergents):
            assert abs(x - mpf(p) / q) < mpf(1) / (q * q)
            if k + 1 < len(cf.convergents):
                q_next = cf.convergents[k + 1][1]
                assert abs(x - mpf(p) / q) < mpf(1) / (q * q_next)
    qs = [q for _, q in cf.convergents]
    assert all(a < b for a, b in zip(qs[1:], qs[2:]))


def test_continued_fraction_depth_validation():
    with pytest.raises(ValueError):
        continued_fraction(mpf(1), 0)


def test_continued_fraction_legendre_method():
    with workprec(200):
        x = mp.sqrt(2)
    cf = continued_fraction(x, 15, 192)
    assert cf.partial_quotients == (1,) + (2,) * 14
    assert cf.legendre_quality(192)


def test_ratio_scan_example_supercritical_only():
    # fixed ratio 6 with no exact budget: every pair in 241..300 certifies
    # through the supercritical bound
    report = scan_range((241, 300), RatioRule(Fraction(6)), budget=0)
    assert report.counts == {"nonzero_supercritical": 60}


def test_exception_count_values():
    ec = exception_count_bound(Fraction(2), 10**6)
    assert ec.kind == "main-term"
    with workprec(160):
        coeff = 102644 / (mpf(7) ** (mpf(11) / 4) * mp.log((1 + mp.sqrt(5)) / 2))
        assert abs(ec.coefficient - coeff) < mpf("1e-9")
        assert abs(ec.value - coeff * 1000 * mp.log(mpf(10) ** 6)) < mpf("1e-3")
    assert ec.remainder_unquantified


def test_exception_count_edge_cases():
    assert exception_count_bound(Fraction(6), 100).kind == "bounded-count"
    ec = exception_count_bound(Fraction(2), 1)
    assert ec.value == 0
    with pytest.raises(ValueError):
        exception_count_bound(Fraction(2), mpf("0.5"))
    with pytest.raises(ValueError):
        exception_count_bound(Fraction(1, 2), 10)


@pytest.mark.parametrize("r", [Fraction(6), Fraction(2)])  # supercritical and subcritical
@pytest.mark.parametrize("x", [-5, 0, 0.5, float("nan"), float("inf")])
def test_exception_count_checks_x_for_every_regime(r, x):
    with pytest.raises(ValueError, match="x must be finite and >= 1"):
        exception_count_bound(r, x)


def test_rule_pairs_order_and_errors():
    pairs = certifier.rule_pairs((4, 6), ListRule((9, 5, 7)))
    assert pairs == [(5, 4), (7, 4), (9, 4), (7, 5), (9, 5), (7, 6), (9, 6)]
    with pytest.raises(ValueError, match="empty or invalid lambda2 range"):
        certifier.rule_pairs((6, 4), DiffRule(1))
    with pytest.raises(ValueError, match="generates no pairs"):
        certifier.rule_pairs((1, 3), DiffRule(0))


def _lambda1_values(rule, l2: int) -> list[int]:
    """The lambda1 values of `rule` at one lambda2, by the rule's definition
    read one lambda2 at a time: the reference for `rule.rows`."""
    if isinstance(rule, RatioRule):
        v, rest = divmod(rule.ratio.numerator * l2, rule.ratio.denominator)
        return [v] if rest == 0 and v > l2 else []
    if isinstance(rule, DiffRule):
        return [l2 + rule.diff] if rule.diff >= 1 else []
    if isinstance(rule, ListRule):
        return [v for v in rule.values if v > l2]
    return list(range(l2 + 1, rule.max_lambda1 + 1))


_SCAN_RULES = st.one_of(
    st.builds(lambda a, b: RatioRule(Fraction(a, b)), st.integers(-3, 40), st.integers(1, 7)),
    st.builds(DiffRule, st.integers(-3, 50)),
    st.builds(lambda values: ListRule(tuple(values)), st.lists(st.integers(-5, 60), max_size=8)),
    st.builds(AllUpToRule, st.integers(-2, 60)),
)


@given(rule=_SCAN_RULES, ends=st.lists(st.integers(1, 300), min_size=2, max_size=2).map(sorted))
@example(rule=RatioRule(Fraction(7, 5)), ends=[3, 400])
@example(rule=RatioRule(Fraction(1)), ends=[1, 300])
@example(rule=ListRule((9, 6, 9, 2, -3)), ends=[1, 300])
@example(rule=AllUpToRule(60), ends=[59, 59])
@settings(max_examples=300, deadline=None)
def test_each_rule_yields_the_rows_of_its_per_lambda2_definition(rule, ends):
    lo, hi = ends
    reference = [(sorted(v), l2) for l2 in range(lo, hi + 1) if (v := _lambda1_values(rule, l2))]
    assert list(rule.rows(lo, hi)) == reference


def test_a_rule_runs_out_at_its_last_pair_however_long_the_range():
    for rule, count in [
        (AllUpToRule(5), 4),
        (ListRule((9, 6, 9, 2)), 8),
        (DiffRule(0), 0),
        (RatioRule(Fraction(1, 2)), 0),
    ]:
        rows = rule.rows(1, 10**18)
        assert len(list(itertools.islice(rows, count + 1))) == count, rule
        assert next(rows, None) is None
