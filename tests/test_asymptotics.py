import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_int, from_man_exp, round_nearest

from binsum import asymptotics
from binsum.asymptotics import (
    FIXED_BITS,
    NEAR_DIAGONAL_ROWS,
    OSCILLATORY_BOUND_CONSTANT,
    RatioLine,
    Regime,
    RegimeError,
    classify,
    cos_lower_bound,
    critical_boundary_constants,
    gamma_angles,
    gamma_cubic_bounds,
    near_diagonal_error_bound,
    negated_discriminant,
    normalized_residual,
    oscillation_cosine,
    oscillatory_bound_reach,
    oscillatory_error_bound,
    predict,
    ratio_line,
    ratio_regime,
    saddle_data,
    supercritical_error_bound,
    supercritical_error_bound_refined,
    _COS_WIDTH,
    _cos_lower_bound,
    _enclosed_margin,
    _exceeds_slack,
    _fixed_cos,
    _head_constants,
    _near_diagonal_bound,
    _oscillatory_bound,
    _oscillatory_reach,
    _phase_precision,
    _reduced_cosine,
    _rounded53,
    _supercritical_bound,
    _two_pi,
    window_edge,
)
from binsum.exact import PartitionPair
from binsum.numerics import (
    GUARD_BITS,
    PI_FLOOR,
    SLACK,
    Comparison,
    certified_compare,
    rational_to_real,
)

RATIO_CACHES = (saddle_data, gamma_angles, ratio_line, window_edge)


def test_classification_is_exact():
    assert classify(Fraction(7)) is Regime.SUPERCRITICAL
    assert classify(Fraction(2)) is Regime.SUBCRITICAL
    assert classify(Fraction(1)) is Regime.DEGENERATE
    assert classify(Fraction(1, 2)) is Regime.DEGENERATE
    # straddling the algebraic threshold 3 + 2*sqrt(2) = 5.82842712...
    assert classify(Fraction(58284, 10000)) is Regime.SUBCRITICAL
    assert classify(Fraction(582843, 100000)) is Regime.SUPERCRITICAL
    assert classify(Fraction(5828427124, 10**9)) is Regime.SUBCRITICAL
    assert classify(Fraction(5828427125, 10**9)) is Regime.SUPERCRITICAL


def _reference_regime(r):
    """The regime rule written out: the sign of r*r - 6*r + 1 above r = 1."""
    if r <= 1:
        return Regime.DEGENERATE
    return Regime.SUPERCRITICAL if r * r - 6 * r + 1 > 0 else Regime.SUBCRITICAL


def _near_threshold(k, offset):
    """floor((3 + 2*sqrt(2)) * 10**k) + offset, over 10**k."""
    return Fraction(3 * 10**k + math.isqrt(8 * 10 ** (2 * k)) + offset, 10**k)


@given(
    r=st.fractions(min_value=0, max_value=20)
    | st.builds(Fraction, st.integers(1, 10**15), st.integers(1, 10**14))
    | st.builds(_near_threshold, st.integers(0, 15), st.integers(-2, 3))
)
@example(Fraction(1))
@example(Fraction(1, 2))
@example(Fraction(5828427124, 10**9))
@example(Fraction(5828427125, 10**9))
@settings(max_examples=500, deadline=None)
def test_classify_is_the_sign_of_the_discriminant(r):
    assert classify(r) is _reference_regime(r)
    nd = negated_discriminant(r)
    assert nd == 6 * r - 1 - r * r
    assert nd.denominator == r.denominator**2


def test_saddle_data_supercritical_r6_closed_form():
    sd = saddle_data(Fraction(6), 128)
    with workprec(160):
        assert abs(sd.rho - mpf(1) / 3) < mpf(2) ** -100
        assert abs(sd.M - mpf(3) / 8) < mpf(2) ** -100
        expected = 6 * mp.log(mpf(4) / 3) + mp.log(mpf(2))
        assert abs(sd.f_rho - expected) < mpf(2) ** -100


def test_saddle_data_rejects_degenerate():
    with pytest.raises(RegimeError):
        saddle_data(Fraction(1))


def test_supercritical_constants_approach_boundary():
    rho_c, m_c = critical_boundary_constants(128)
    with workprec(160):
        assert abs(rho_c - (mp.sqrt(2) - 1)) < mpf(2) ** -100
    assert m_c == 0
    near = saddle_data(Fraction(58285, 10000), 128)
    assert abs(near.rho - rho_c) < mpf("1e-2")
    assert near.M < mpf("1e-1")


def test_monotone_saddle_constants_on_grid():
    rs = [Fraction(n, 100) for n in range(590, 1200, 17)]
    data = [saddle_data(r, 128) for r in rs]
    for a, b in zip(data, data[1:]):
        assert a.rho > b.rho
        assert a.M < b.M


def test_subcritical_angles_and_identities():
    rng = random.Random(5)
    for _ in range(100):
        num = rng.randrange(101, 582)
        r = Fraction(num, 100)
        sd = saddle_data(r, 128)
        with workprec(160):
            rm = mpf(r.numerator) / r.denominator
            assert abs(mp.cos(sd.alpha) - (rm - 1) / (2 * mp.sqrt(rm))) < mpf(2) ** -100
            assert abs(mp.cos(sd.alpha) ** 2 + mp.sin(sd.alpha) ** 2 - 1) < mpf(2) ** -100
            # gamma3 comes from the sine form, beta from the cosine form
            assert abs(sd.gamma3 - sd.beta / 2) < mpf(2) ** -100
            assert abs(sd.g_alpha - (rm + 1) / 2 * mp.log(2)) < mpf(2) ** -100


def test_gamma_angles_at_one():
    g1, g2 = gamma_angles(Fraction(1), 128)
    with workprec(160):
        assert abs(g1 - mp.pi / 4) < mpf(2) ** -100
        assert abs(g2 + 3 * mp.pi / 4) < mpf(2) ** -100


def test_supercritical_bound_reference_values():
    v = supercritical_error_bound(Fraction(6), 241)
    assert abs(v - mpf("0.712283558352711")) < mpf("1e-12")
    assert v < 1
    # decreasing in lambda
    assert supercritical_error_bound(Fraction(6), 2410) < v
    # decreasing in r
    assert supercritical_error_bound(Fraction(7), 241) < v


def test_supercritical_bound_near_unit_threshold():
    v = supercritical_error_bound(Fraction(5941893, 1000000), 241, 192)
    assert v < mpf("0.9999978502")


def test_supercritical_bound_regime_errors():
    with pytest.raises(RegimeError):
        supercritical_error_bound(Fraction(2), 100)
    with pytest.raises(ValueError):
        supercritical_error_bound(Fraction(6), 0)


def test_refined_bound_window_errors():
    with pytest.raises(ValueError):
        supercritical_error_bound_refined(Fraction(8), 241, 0.5)
    with pytest.raises(ValueError):
        supercritical_error_bound_refined(Fraction(6), 241, 1.2)
    with pytest.raises(ValueError):
        supercritical_error_bound_refined(Fraction(6), 241, 0)


def test_refined_bound_beats_plain_near_threshold():
    r = Fraction(58478, 10000)
    plain = supercritical_error_bound(r, 241)
    refined = supercritical_error_bound_refined(r, 241, mpf("0.75"))
    assert refined < plain


def test_oscillatory_bound_threshold_and_scaling():
    bound, threshold = oscillatory_error_bound(Fraction(2), 2700)
    with workprec(160):
        expected = 16336 / (mp.sqrt(mpf(2700)) * mpf(7) ** (mpf(11) / 4))
        assert abs(bound - expected) < mpf("1e-30")
        expected_thr = 512 * mpf(2) ** mpf("1.5") / (3 * mpf(7) ** mpf("1.5"))
        assert abs(threshold - expected_thr) < mpf("1e-30")
    assert 26 < threshold < 27
    quad, _ = oscillatory_error_bound(Fraction(2), 4 * 2700)
    with workprec(160):
        assert abs(quad - bound / 2) < mpf("1e-25")
    with pytest.raises(RegimeError):
        oscillatory_error_bound(Fraction(7), 100)


def test_near_diagonal_rows():
    l2 = 10**6
    nb = near_diagonal_error_bound(PartitionPair(l2 + 702, l2))
    assert nb.valid and nb.detail == "row1"
    with workprec(160):
        assert abs(nb.value - mpf("1.05882") / 1000) < mpf("1e-18")
    nb = near_diagonal_error_bound(PartitionPair(l2 + 4000, l2))
    assert nb.valid and nb.detail == "row6"
    with workprec(160):
        assert abs(nb.value - mpf("2.01189") / 1000) < mpf("1e-18")
    # beyond every window
    nb = near_diagonal_error_bound(PartitionPair(l2 + 6000, l2))
    assert not nb.valid
    with pytest.raises(ValueError):
        near_diagonal_error_bound(PartitionPair(l2 + 701, l2))


def _reference_near_diagonal_bound(pair, prec):
    """`near_diagonal_error_bound` with every row edge computed where it is
    used, as (value bits, detail)."""
    d, l2 = pair.difference, pair.lambda2
    with workprec(prec + GUARD_BITS):
        dm = mpf(d)
        candidates = []
        if certified_compare(dm, mp.sqrt(8 * mp.pi * mpf(l2)), SLACK) is Comparison.CERTIFIED_LESS:
            candidates.append((mpf("0.0165"), "flat"))
        if certified_compare(mp.log(mpf(l2)), dm, SLACK) is Comparison.CERTIFIED_LESS:
            for k, row in enumerate(NEAR_DIAGONAL_ROWS, start=1):
                hi = mp.sqrt(k * mp.pi * mpf(l2))
                lo = mp.log(mpf(l2)) if k == 1 else mp.sqrt((k - 1) * mp.pi * mpf(l2))
                if (
                    certified_compare(dm, hi, SLACK) is Comparison.CERTIFIED_LESS
                    and certified_compare(dm, lo, SLACK) is Comparison.CERTIFIED_GREATER
                ):
                    candidates.append((mpf(row) / mp.sqrt(mpf(l2)), f"row{k}"))
        if not candidates:
            return None, "difference outside every proved window"
        value, detail = min(candidates, key=lambda t: t[0])
        return value._mpf_, detail


def test_near_diagonal_edges_computed_once_are_bit_identical():
    checked = 0
    for l2 in (19609, 100000, 250007, 500009, 10**6):
        edges = [math.isqrt(int(k * math.pi * l2)) for k in range(1, 9)]
        for edge in edges:
            for d in range(max(702, edge - 1), edge + 3):
                pair = PartitionPair(l2 + d, l2)
                for prec in (53, 128, 200):
                    got = near_diagonal_error_bound(pair, prec)
                    value = None if got.value is None else got.value._mpf_
                    assert (value, got.detail) == _reference_near_diagonal_bound(pair, prec)
                    checked += 1
    assert checked >= 300


@st.composite
def _pairs_around_a_near_diagonal_edge(draw):
    """A pair whose difference d >= 702 lies within about 1 of the edge
    sqrt(k*pi*l2) of a near-diagonal row, l2 up to 10**12.  (Edge 0, log(l2),
    stays below 28 there, far under any d >= 702.)"""
    k = draw(st.integers(1, len(NEAR_DIAGONAL_ROWS)))
    # sqrt(k*pi*l2) > 702 * sqrt(pi/3) > 718 from l2 > 702**2/(3k) on
    l2 = draw(st.integers(702**2 // (3 * k) + 1, 10**12))
    edge = math.isqrt(math.floor(k * math.pi * l2))
    return PartitionPair(l2 + edge + draw(st.integers(-1, 2)), l2)


@given(pair=_pairs_around_a_near_diagonal_edge(), prec=st.integers(53, 256))
@example(pair=PartitionPair(10**6 + 702, 10**6), prec=128)
@example(pair=PartitionPair(10**6 + 5013, 10**6), prec=53)
# d within 2**-40 of edge 1, 4 and 8, so those comparisons are indeterminate:
# the search must go on past them, to the flat bound or to no bound at all
@example(pair=PartitionPair(518900764307 + 1276783, 518900764307), prec=128)
@example(pair=PartitionPair(276892545985 + 1865351, 276892545985), prec=53)
@example(pair=PartitionPair(161618091991 + 2015417, 161618091991), prec=256)
@settings(max_examples=300, deadline=None)
def test_near_diagonal_bound_stopping_at_the_first_edge_above_d_matches_all_nine_edges(pair, prec):
    expected = _reference_near_diagonal_bound(pair, prec)
    assert _near_diagonal_bound(pair.difference, pair.lambda2, prec + GUARD_BITS) == expected
    got = near_diagonal_error_bound(pair, prec)
    assert (None if got.value is None else got.value._mpf_, got.detail) == expected
    assert got.valid is (expected[0] is not None)


@given(lambda2=st.integers(1, 10**12), k=st.integers(0, len(NEAR_DIAGONAL_ROWS)), prec=st.integers(53, 256))
@settings(max_examples=300, deadline=None)
def test_window_edges_are_bit_identical_to_mpf_arithmetic(lambda2, k, prec):
    wp = prec + GUARD_BITS
    with workprec(wp):
        expected = mp.log(mpf(lambda2)) if k == 0 else mp.sqrt(k * mp.pi * mpf(lambda2))
    assert window_edge(lambda2, k, wp) == expected._mpf_


def _gate_flips(l2):
    """The differences d around which `l2 <= oscillatory_bound_reach` flips,
    on each side of r = 3 where the reach turns from falling to rising, and
    the largest subcritical difference."""
    def gated(d):
        return l2 <= oscillatory_bound_reach(Fraction(l2 + d, l2))

    # the largest subcritical d: (l2 + d)/l2 < 3 + 2*sqrt(2) <=> (d - 2*l2)**2 < 8*l2**2
    top = 2 * l2 + math.isqrt(8 * l2 * l2)
    if (top - 2 * l2) ** 2 == 8 * l2 * l2:
        top -= 1
    flips = [top]
    lo, hi = 1, 2 * l2  # falling branch: gated up to some d
    if gated(lo) and not gated(hi):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if gated(mid) else (lo, mid)
        flips.append(lo)
    lo, hi = 2 * l2, top  # rising branch: gated from some d on
    if not gated(lo) and gated(hi):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if gated(mid) else (mid, hi)
        flips.append(hi)
    return top, flips


def _check_reach(r, l2):
    """`l2 <= reach` holds exactly when the oscillatory bound is >= 1, and on
    an integer pair the gated cosine could never be certified above it."""
    gated = l2 <= oscillatory_bound_reach(r)
    bound, _ = oscillatory_error_bound(r, l2)
    assert gated == (bound >= 1), (r, l2, bound)
    l1 = r * l2
    if gated and l1.denominator == 1:
        cosv, _ = oscillation_cosine(PartitionPair(int(l1), l2), 128, half_phase=True)
        assert certified_compare(abs(cosv), bound, SLACK) is not Comparison.CERTIFIED_GREATER
    return gated


def test_oscillatory_reach_matches_the_bound_at_its_boundary():
    outcomes = set()
    for l2 in (20, 100, 2000, 2880, 2881, 5000, 18953, 50000, 100000, 126401, 130000, 130299, 130300):
        top, flips = _gate_flips(l2)
        for flip in flips:
            for d in range(max(1, flip - 3), min(top, flip + 3) + 1):
                outcomes.add(_check_reach(Fraction(l2 + d, l2), l2))
    assert outcomes == {True, False}


def test_oscillatory_reach_near_the_diagonal_ends_at_130299():
    # the reach falls with r on (1, 3], so (l2 + 1, l2) is the last pair to check
    assert 130299 <= oscillatory_bound_reach(Fraction(130300, 130299))
    assert 130300 > oscillatory_bound_reach(Fraction(130301, 130300))
    assert oscillatory_bound_reach(Fraction(10**12 + 1, 10**12)) == 16336**2 // 2048


def test_oscillatory_reach_near_the_threshold_ratio():
    l2 = 10**6
    crit = 3 + 2 * mp.sqrt(2)
    below = [Fraction(int(mp.floor(crit * 10**k)), 10**k) for k in range(2, 13)]
    # the ratio n/10**6 at which the gate starts to fire for this l2
    lo, hi = 3 * 10**6, 5828427
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if l2 <= oscillatory_bound_reach(Fraction(mid, 10**6)) else (mid, hi)
    around = [Fraction(n, 10**6) for n in range(hi - 3, hi + 4)]
    assert [_check_reach(r, l2) for r in around] == [False] * 3 + [True] * 4
    assert all(_check_reach(r, l2) for r in below)


@pytest.mark.parametrize("prec", [53, 128])
def test_oscillatory_reach_implies_the_validity_threshold(prec):
    # the oscillatory stage runs only above the reach and does not compare
    # lambda with the threshold itself, even at the loosest slack 2**0
    ratios = [Fraction(n, 1000) for n in range(1001, 5829)]
    ratios += [1 + Fraction(1, 10**k) for k in range(4, 12)]
    ratios += [_near_threshold(k, 0) for k in range(4, 16)]
    for r in ratios:
        _, threshold = oscillatory_error_bound(r, 1, prec)
        reach = oscillatory_bound_reach(r)
        assert certified_compare(reach + 1, threshold, mpf(1)) is Comparison.CERTIFIED_GREATER, r


def test_oscillatory_reach_rejects_other_regimes():
    for r in (Fraction(1), Fraction(6), Fraction(1, 2)):
        with pytest.raises(RegimeError):
            oscillatory_bound_reach(r)


def test_near_diagonal_flat_window():
    # difference large enough that only the flat bound applies: rows stop at
    # sqrt(8*pi*l2) and the flat bound covers the same range, so pick a point
    # in row 8 and check the minimum is the row, then just outside row 8
    l2 = 19609 + 500
    d = 702
    nb = near_diagonal_error_bound(PartitionPair(l2 + d, l2))
    assert nb.valid
    assert nb.value <= mpf("0.0165")


def test_predict_supercritical():
    p = predict(PartitionPair(12, 2))
    assert p.regime is Regime.SUPERCRITICAL
    assert p.normalized_main == 1
    assert p.valid


def test_predict_subcritical_main_term():
    pair = PartitionPair(200, 100)
    p = predict(pair)
    assert p.regime is Regime.SUBCRITICAL
    g1, g2 = gamma_angles(Fraction(2), 160)
    sd = saddle_data(Fraction(2), 160)
    with workprec(200):
        angle = (2 * g1 + g2) * 100 + sd.gamma3
        assert abs(p.normalized_main - mp.cos(angle)) < mpf(2) ** -60
    assert p.valid
    assert abs(p.threshold - mpf("26.0643344493")) < mpf("1e-9")


def test_predict_near_diagonal_route_has_no_half_phase():
    l2 = 10**6
    pair = PartitionPair(l2 + 702, l2)
    p = predict(pair)
    cosv, _ = oscillation_cosine(pair, 128, half_phase=False)
    assert p.normalized_main == cosv
    assert p.detail.startswith("near-diagonal")
    assert p.normalizer.startswith("sqrt(pi*lam2)")


def test_oscillation_cosine_half_phase_adds_gamma3_and_needs_subcritical():
    pair = PartitionPair(2000, 1000)
    _, plain = oscillation_cosine(pair, 128, half_phase=False)
    _, half = oscillation_cosine(pair, 128, half_phase=True)
    with workprec(160):
        shift = half - plain - saddle_data(Fraction(2), 128).gamma3
        assert abs(shift - 2 * mp.pi * mp.nint(shift / (2 * mp.pi))) < mpf("1e-30")
    for half_phase in (False, True):
        with pytest.raises(RegimeError):
            oscillation_cosine(PartitionPair(7, 1), 128, half_phase=half_phase)


def test_oscillation_cosine_holds_its_angle_at_lambda_two_to_the_100_and_precision_53():
    # the raw angle is about 2**101, so a 53-bit angle would carry an absolute
    # error near 2**48; the cosine must still match a 400-bit evaluation
    lam = 2**100 + 12345
    pair = PartitionPair(2 * lam + 1, lam)
    cosv, _ = oscillation_cosine(pair, 53)
    with workprec(400):
        sd = saddle_data(pair.ratio, 400)
        reference = mp.cos(pair.lambda1 * sd.gamma1 + pair.lambda2 * sd.gamma2 + sd.gamma3)
        assert abs(cosv - reference) < mpf(2) ** -40


def test_predict_rejects_degenerate():
    with pytest.raises(RegimeError):
        predict(PartitionPair(5, 5))
    with pytest.raises(ValueError):
        predict(PartitionPair(5, 0))


def test_predicted_angle_value_r2():
    g1, g2 = gamma_angles(Fraction(2), 128)
    with workprec(160):
        combined = 2 * g1 + g2
        assert abs(combined - mpf("-0.95877354055205802")) < mpf("1e-15")


def test_normalized_residual_within_bound_spot():
    residual, pred, scaled = normalized_residual(PartitionPair(1446, 241))
    assert pred.regime is Regime.SUPERCRITICAL
    assert residual <= pred.error_bound
    assert abs(scaled - 1) < mpf("0.1")


def test_gamma_cubic_bounds_values():
    lo, hi, mid = gamma_cubic_bounds(Fraction(1))
    assert lo == 0 and hi == 0
    assert abs(mid) < mpf(2) ** -100
    lo, hi, mid = gamma_cubic_bounds(Fraction(2))
    assert abs(mid - mpf("0.07662462284539")) < mpf("1e-12")
    assert lo <= mid <= hi
    with pytest.raises(ValueError):
        gamma_cubic_bounds(Fraction(439, 100))
    with pytest.raises(ValueError):
        gamma_cubic_bounds(Fraction(1, 2))


def test_cos_lower_bound_first_window_class0():
    bound, ok = cos_lower_bound(PartitionPair(104, 100))
    assert ok
    with workprec(160):
        assert abs(bound - mp.cos(mpf("0.04"))) < mpf(2) ** -60


def test_cos_lower_bound_class1_min_with_diagonal_constant():
    pair = PartitionPair(117, 100)  # class 1, q = 0.7225 <= 3*pi/4
    bound, ok = cos_lower_bound(pair)
    assert ok
    with workprec(160):
        assert abs(bound - 1 / mp.sqrt(2)) < mpf(2) ** -60


def test_cos_lower_bound_gap_is_inapplicable():
    bound, ok = cos_lower_bound(PartitionPair(1080, 1000))
    assert not ok and bound is None


def test_cos_lower_bound_rejects_large_ratio():
    with pytest.raises(ValueError):
        cos_lower_bound(PartitionPair(400, 100))


def test_cos_lower_bound_sound_on_spot_pairs():
    for pair in (PartitionPair(104, 100), PartitionPair(117, 100), PartitionPair(413, 400)):
        bound, ok = cos_lower_bound(pair)
        if not ok:
            continue
        cosv, _ = oscillation_cosine(pair, 128, half_phase=False)
        assert bound <= abs(cosv) + mpf(2) ** -40


# per class: the first window's end, the second window's start as a function
# of r, and the second window's end, for q = d*d/(4*l2)
COSINE_WINDOWS = {
    0: (math.pi / 2, lambda r: math.pi / (3 - r), 3 * math.pi / 2),
    1: (3 * math.pi / 4, lambda r: 3 * math.pi / (2 * (3 - r)), 7 * math.pi / 4),
    2: (math.pi, lambda r: 2 * math.pi / (3 - r), 2 * math.pi),
    3: (math.pi / 4, lambda r: math.pi / (2 * (3 - r)), 5 * math.pi / 4),
}


def _pairs_around(cls, edge):
    """The class-cls pairs near l2 = 1e5 whose q lies closest below and
    closest above edge(r)."""
    below = above = None
    for l2 in range(100000, 100100):
        d0 = math.isqrt(int(4 * l2 * edge(1.0)))
        for d in range(d0 - 60, d0 + 61):
            if (2 * l2 + d) % 4 != cls:
                continue
            gap = d * d / (4 * l2) - edge((l2 + d) / l2)
            if gap < -1e-9 and (below is None or gap > below[0]):
                below = (gap, PartitionPair(l2 + d, l2))
            if gap > 1e-9 and (above is None or gap < above[0]):
                above = (gap, PartitionPair(l2 + d, l2))
    return below[1], above[1]


@pytest.mark.parametrize("cls", range(4))
def test_cos_lower_bound_window_edges(cls):
    first_end, second_start, second_end = COSINE_WINDOWS[cls]
    expected = []  # (pair, applicable): inside and outside each end
    inside, outside = _pairs_around(cls, lambda r: first_end)
    expected += [(inside, True), (outside, False)]
    outside, inside = _pairs_around(cls, second_start)
    expected += [(inside, True), (outside, False)]
    inside, outside = _pairs_around(cls, lambda r: second_end)
    expected += [(inside, True), (outside, False)]
    for pair, applicable in expected:
        assert pair.congruence_class == cls
        bound, ok = cos_lower_bound(pair)
        assert ok is applicable, (pair, float(Fraction(pair.difference**2, 4 * pair.lambda2)))
        if ok:
            cosv, _ = oscillation_cosine(pair, 128, half_phase=False)
            assert 0 < bound <= abs(cosv) + mpf(2) ** -40
        else:
            assert bound is None


def _reference_cos_lower_bound(pair, prec):
    """`cos_lower_bound` in mpf arithmetic, raw, or None between the windows."""
    r = pair.ratio
    d = pair.difference
    q = Fraction(d * d, 4 * pair.lambda2)

    def rational(x):  # rounded as `rational_to_real(x, prec + GUARD_BITS)`
        with workprec(prec + 2 * GUARD_BITS):
            return mpf(x.numerator) / mpf(x.denominator)

    with workprec(prec + GUARD_BITS):
        qm = rational(q)
        three_minus_r = rational(3 - r)
        halfshrink = three_minus_r / 2  # the eta window is [-q, -(3-r)/2 * q]
        pi_v = mp.pi

        def leq(x, y) -> bool:
            return certified_compare(x, y, SLACK) is Comparison.CERTIFIED_LESS

        # the first window of each class ends at (2, 3, 4, 1)*pi/4
        cls = pair.congruence_class
        if leq(qm, (2, 3, 4, 1)[cls] * pi_v / 4):
            if cls == 0:
                return mp.cos(qm)._mpf_
            if cls == 1:
                return min(1 / mp.sqrt(mpf(2)), mp.cos(pi_v / 4 - qm))._mpf_
            if cls == 2:
                return min(mp.cos(pi_v / 2 - qm), mp.cos(pi_v / 2 - halfshrink * qm))._mpf_
            return mp.cos(pi_v / 4 + qm)._mpf_
        # the second window is 2*(c - pi/2)/(3 - r) <= q <= c + pi/2 around the
        # centre c = k*pi/4, k = (4, 5, 6, 3)
        k = (4, 5, 6, 3)[cls]
        if r != 3 and leq((k - 2) * pi_v / (2 * three_minus_r), qm) and leq(qm, (k + 2) * pi_v / 4):
            centre = k * pi_v / 4
            return min(mp.cos(centre - qm), mp.cos(centre - halfshrink * qm))._mpf_
        return None


@st.composite
def _pairs_around_a_cosine_window_end(draw):
    """A pair with 1 < r <= 3 and lambda2 up to 2**200 whose difference d lies
    within 3 of an end of `COSINE_WINDOWS` (at 800 bits) for its class."""
    bits = draw(st.integers(0, 199))  # every size alike
    l2 = draw(st.integers(2**bits, 2 ** (bits + 1)))
    cls = draw(st.integers(0, 3))
    which = draw(st.integers(0, 2))  # first end, second start, second end
    k = (4, 5, 6, 3)[cls]
    with workprec(800):
        d = mpf(0)
        for _ in range(3):  # the second window's start moves with r
            r = 1 + min(d, l2) / l2
            q = ((2, 3, 4, 1)[cls] * mp.pi / 4, (k - 2) * mp.pi / (2 * (3 - r)), (k + 2) * mp.pi / 4)[which]
            d = mp.sqrt(4 * l2 * q)
        d = int(d)
    near = [e for e in range(d - 3, d + 4) if 1 <= e <= 2 * l2 and (2 * l2 + e) % 4 == cls]
    assume(near)
    return PartitionPair(l2 + draw(st.sampled_from(near)), l2)


@given(pair=_pairs_around_a_cosine_window_end(), prec=st.integers(53, 256))
@example(pair=PartitionPair(100792, 100000), prec=53)
@example(pair=PartitionPair(161736, 160000), prec=200)
@example(pair=PartitionPair(101010, 100039), prec=53)
@example(pair=PartitionPair(101492, 100009), prec=200)
@example(pair=PartitionPair(100794, 100000), prec=53)
@example(pair=PartitionPair(161422, 160000), prec=200)
@example(pair=PartitionPair(160718, 160009), prec=53)
@example(pair=PartitionPair(101254, 100001), prec=200)
@example(pair=PartitionPair(300, 100), prec=128)
@settings(max_examples=300, deadline=None)
def test_cos_lower_bound_kernel_is_bit_identical_to_mpf_arithmetic(pair, prec):
    expected = _reference_cos_lower_bound(pair, prec)
    assert _cos_lower_bound(pair.lambda1, pair.lambda2, prec + GUARD_BITS) == expected
    bound, ok = cos_lower_bound(pair, prec)
    assert (None if bound is None else bound._mpf_, ok) == (expected, expected is not None)


def _bits(x):
    """mpf values by their exact (sign, mantissa, exponent, bits) tuple."""
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    return x._mpf_ if isinstance(x, mpf) else x


def _clear_ratio_caches():
    for cached in RATIO_CACHES:
        cached.cache_clear()


def _reference_supercritical_bound(r, lam, prec):
    """`supercritical_error_bound` as one formula, every factor rebuilt."""
    sd = saddle_data.__wrapped__(r, prec)
    with workprec(prec + GUARD_BITS):
        m_val = sd.M
        lamf = mpf(lam)
        crit = 3 + 2 * mp.sqrt(mpf(2))
        t1 = 3 * crit * mp.pi**5 / (256 * lamf * m_val**2)
        t2 = 5 * crit / (24 * lamf * m_val**3)
        t3 = mp.sqrt(mpf(2)) * mp.exp(-lamf * m_val * mp.pi**2 / 2) / (mp.pi ** mpf("1.5") * mp.sqrt(lamf * m_val))
        return t1 + t2 + t3


def _reference_oscillatory_bound(r, lam, prec):
    """`oscillatory_error_bound` as one formula, every factor rebuilt."""
    negdisc = -r * r + 6 * r - 1
    with workprec(prec + GUARD_BITS):
        nd = rational_to_real(negdisc, prec + GUARD_BITS)
        rm = rational_to_real(r, prec + GUARD_BITS)
        bound = OSCILLATORY_BOUND_CONSTANT / (mp.sqrt(mpf(lam)) * nd ** (mpf(11) / 4))
        threshold = 512 * rm ** mpf("1.5") / ((rm + 1) * nd ** mpf("1.5"))
        return bound, threshold


def _ratios(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.just(10000))


def _cold_and_warm(r, prec, other_prec, compute):
    """compute() with the ratio caches cleared, and again after a neighbouring
    key has joined them (a key that dropped prec would show)."""
    _clear_ratio_caches()
    cold = _bits(compute())
    saddle_data(r, other_prec)
    warm = _bits(compute())
    assert cold == warm
    return warm


# about one example in fifty rounds the last bit of the bound differently if
# its per-lambda operations are reordered, hence the example counts
@given(r=_ratios(58285, 200000), lam=st.integers(1, 10**7), prec=st.integers(53, 256), other_prec=st.integers(53, 256))
@settings(max_examples=400, deadline=None)
def test_supercritical_caches_are_bit_identical(r, lam, prec, other_prec):
    got = _cold_and_warm(r, prec, other_prec, lambda: (saddle_data(r, prec), supercritical_error_bound(r, lam, prec)))
    assert got == _bits((saddle_data.__wrapped__(r, prec), _reference_supercritical_bound(r, lam, prec)))


# the scanned supercritical lines, ratios on either side of them, and one
# ratio so close to 3 + 2*sqrt(2) that M is about 1e-17: there lam*M < 1
# and the first two terms are about 2**171, and the tail, near 2**26, still
# moves the last bits of the sum
TAIL_RATIOS = (Fraction(59, 10), Fraction(6), Fraction(7), Fraction(13), Fraction(100), Fraction(10**6, 7))
NEAR_THRESHOLD_RATIO = _near_threshold(35, 1)


def _tail_dropped(r, lam, prec):
    """The stated cutoff of `supercritical_error_bound`: lam*M >= 1 and
    x = lam*M*pi**2/2 > prec + GUARD_BITS + 16 - E, where 2**(E-1) <= t1 + t2 < 2**E."""
    m_val = saddle_data.__wrapped__(r, prec).M
    wp = prec + GUARD_BITS
    with workprec(wp):
        crit = 3 + 2 * mp.sqrt(mpf(2))
        head = 3 * crit * mp.pi**5 / (256 * lam * m_val**2) + 5 * crit / (24 * lam * m_val**3)
        _, e = mp.frexp(head)
        return lam * m_val >= 1 and lam * m_val * mp.pi**2 / 2 > wp + 16 - e


@pytest.mark.parametrize("prec", (53, 128, 200))
@pytest.mark.parametrize("r", (*TAIL_RATIOS, NEAR_THRESHOLD_RATIO))
def test_supercritical_bound_drops_its_tail_only_past_the_stated_cutoff(r, prec, monkeypatch):
    exp = mp.exp
    exps = []
    monkeypatch.setattr(mp, "exp", lambda x: exps.append(x) or exp(x))
    dropped = []
    for lam in (*range(1, 261), 10**3, 10**5, 10**7):
        exps.clear()
        got = supercritical_error_bound(r, lam, prec)
        dropped.append(not exps)
        assert dropped[-1] is _tail_dropped(r, lam, prec), lam
        assert got._mpf_ == _reference_supercritical_bound(r, lam, prec)._mpf_, lam
    # the lambdas straddle the cutoff: the tail is evaluated up to it and dropped past it
    assert dropped == sorted(dropped)
    assert dropped[-1] is (r != NEAR_THRESHOLD_RATIO)
    assert not dropped[0]


@given(r=_ratios(10001, 58284), lam=st.integers(1, 10**7), prec=st.integers(53, 256), other_prec=st.integers(53, 256))
@settings(max_examples=200, deadline=None)
def test_subcritical_caches_are_bit_identical(r, lam, prec, other_prec):
    def compute():
        return saddle_data(r, prec), gamma_angles(r, prec), oscillatory_error_bound(r, lam, prec)

    got = _cold_and_warm(r, prec, other_prec, compute)
    uncached = (saddle_data.__wrapped__(r, prec), gamma_angles.__wrapped__(r, prec), _reference_oscillatory_bound(r, lam, prec))
    assert got == _bits(uncached)


def test_ratio_caches_are_small():
    # the reuse needed is one or two live keys; a larger cache would only
    # carry constants from one command to the next inside one process
    for cached in RATIO_CACHES:
        assert cached.cache_parameters()["maxsize"] <= 32


def _reference_oscillation_cosine(pair, prec, half_phase):
    """`oscillation_cosine` in mpf arithmetic, as (cosine bits, angle bits)."""
    p_eff = max(prec, 96 + pair.lambda1.bit_length() + 32)
    with workprec(p_eff + GUARD_BITS):
        if half_phase:
            sd = saddle_data(pair.ratio, p_eff)
            angle = pair.lambda1 * sd.gamma1 + pair.lambda2 * sd.gamma2 + sd.gamma3
        else:
            g1, g2 = gamma_angles(pair.ratio, p_eff)
            angle = pair.lambda1 * g1 + pair.lambda2 * g2
        two_pi = 2 * mp.pi
        angle -= two_pi * mp.floor(angle / two_pi + mpf(0.5))
        return mp.cos(angle)._mpf_, angle._mpf_


@st.composite
def _subcritical_pairs_near_a_power_of_two(draw):
    """A subcritical pair whose lambda1 lies within 3 of a power of two, on
    either side of the bit length at which `oscillation_cosine` raises p_eff."""
    lambda1 = 2 ** draw(st.integers(3, 120)) + draw(st.integers(-3, 3))
    # lambda1/lambda2 < 5.82 < 3 + 2*sqrt(2)
    return PartitionPair(lambda1, draw(st.integers(lambda1 * 100 // 582 + 1, lambda1 - 1)))


@given(pair=_subcritical_pairs_near_a_power_of_two(), prec=st.integers(53, 256), half_phase=st.booleans())
@example(pair=PartitionPair(2**17 - 2, 2**16 - 1), prec=128, half_phase=True)
@example(pair=PartitionPair(2**17, 2**16), prec=128, half_phase=True)
@example(pair=PartitionPair(2**17, 2**16), prec=145, half_phase=False)
@settings(max_examples=300, deadline=None)
def test_oscillation_cosine_is_bit_identical_to_mpf_arithmetic(pair, prec, half_phase):
    cosv, angle = oscillation_cosine(pair, prec, half_phase)
    assert (cosv._mpf_, angle._mpf_) == _reference_oscillation_cosine(pair, prec, half_phase)


# The raw kernels: each per-pair formula is computed once, by the kernel that
# the public function and `RatioLine` both call; each must equal the mpf
# expression bit for bit, for a line given in any terms.


@given(r=_ratios(58285, 200000), scale=st.integers(1, 7), lam=st.integers(1, 10**7), prec=st.integers(53, 256))
@example(r=Fraction(6), scale=1, lam=1, prec=53)
@example(r=Fraction(6), scale=3, lam=100001, prec=128)
@settings(max_examples=300, deadline=None)
def test_supercritical_kernel_is_bit_identical_to_mpf_arithmetic(r, scale, lam, prec):
    expected = _reference_supercritical_bound(r, lam, prec)._mpf_
    assert _supercritical_bound(ratio_line(r.numerator, r.denominator, prec).supercritical_factors, lam, prec + GUARD_BITS) == expected
    line = RatioLine(scale * r.numerator, scale * r.denominator, prec)
    assert line.regime is Regime.SUPERCRITICAL and line.reach is None
    assert line.supercritical_bound(lam) == expected
    assert line.supercritical_bound(lam) == expected  # from the kept constants


@given(r=_ratios(10001, 58284), scale=st.integers(1, 7), lam=st.integers(1, 10**7), prec=st.integers(53, 256))
@example(r=Fraction(2), scale=1, lam=100070, prec=128)
@example(r=Fraction(3), scale=2, lam=5000, prec=53)
@settings(max_examples=300, deadline=None)
def test_oscillatory_kernels_are_bit_identical_to_mpf_arithmetic(r, scale, lam, prec):
    expected = _reference_oscillatory_bound(r, lam, prec)[0]._mpf_
    assert _oscillatory_bound(ratio_line(r.numerator, r.denominator, prec).oscillatory_constants[0], lam, prec + GUARD_BITS) == expected
    a, b = scale * r.numerator, scale * r.denominator
    line = RatioLine(a, b, prec)
    assert line.regime is Regime.SUBCRITICAL
    assert line.oscillatory_bound(lam) == expected
    # the reach in exact integers, whatever the terms of the ratio
    nd = negated_discriminant(r)
    reach = math.isqrt(OSCILLATORY_BOUND_CONSTANT**4 * nd.denominator**11 // nd.numerator**11)
    assert line.reach == _oscillatory_reach(a, b) == oscillatory_bound_reach(r) == reach


@given(pair=_subcritical_pairs_near_a_power_of_two(), prec=st.integers(53, 256), half_phase=st.booleans())
@example(pair=PartitionPair(2**17, 2**16), prec=128, half_phase=True)
@example(pair=PartitionPair(2**17 - 2, 2**16 - 1), prec=145, half_phase=False)
@settings(max_examples=300, deadline=None)
def test_reduced_cosine_kernel_is_bit_identical_to_mpf_arithmetic(pair, prec, half_phase):
    expected = _reference_oscillation_cosine(pair, prec, half_phase)
    p_eff = _phase_precision(prec, pair.lambda1)
    if half_phase:
        phase = RatioLine(pair.lambda1, pair.lambda2, prec).phase(p_eff)[0]
    else:
        phase = (*(g._mpf_ for g in gamma_angles(pair.ratio, p_eff)), None, _two_pi(p_eff))
    assert _reduced_cosine(phase, pair.lambda1, pair.lambda2, p_eff + GUARD_BITS) == expected
    if half_phase:
        assert RatioLine(pair.lambda1, pair.lambda2, prec).cosine(pair.lambda1, pair.lambda2) == expected[0]


@given(b=st.integers(1, 40), a_over_b=st.integers(1, 4), bits=st.integers(10, 90), prec=st.integers(53, 256))
@settings(max_examples=100, deadline=None)
def test_one_ratio_line_keeps_the_cosine_of_each_pair_across_a_power_of_two(b, a_over_b, bits, prec):
    # the pairs (a*t, b*t) of one subcritical line, 1 < r < 5, around
    # lambda1 = 2**bits, where p_eff steps, each against its own mpf cosine
    r = Fraction(a_over_b * b + 1, b)
    line = RatioLine(r.numerator, r.denominator, prec)
    first = 2**bits // r.numerator
    for t in range(max(1, first - 2), first + 3):
        pair = PartitionPair(r.numerator * t, r.denominator * t)
        assert line.cosine(pair.lambda1, pair.lambda2) == _reference_oscillation_cosine(pair, prec, True)[0]


# The fixed-point enclosures of the saddle steps: each must hold the value of
# the raw kernel that it stands for, in units of 2**-FIXED_BITS.


def _units(raw: tuple) -> Fraction:
    """A raw mpf tuple's exact value in units of 2**-FIXED_BITS."""
    sign, man, exp, _ = raw
    return (-1) ** sign * Fraction(man) * Fraction(2) ** (exp + FIXED_BITS)


@st.composite
def _line_ratios(draw, regime):
    """(a, b) of a ratio a/b of `regime` with b <= 9."""
    b = draw(st.integers(1, 9))
    if regime is Regime.SUPERCRITICAL:
        a = draw(st.integers(5 * b + 4, 14 * b))
    else:
        a = draw(st.integers(b + 1, 5 * b + 4))
    assume(ratio_regime(a, b) is regime)
    return a, b


@given(
    ratio=_line_ratios(Regime.SUPERCRITICAL),
    prec=st.integers(53, 256),
    near_tail=st.booleans(),
    offset=st.floats(-1, 1),
    lam=st.integers(1, 2**60),
)
@example(ratio=(6, 1), prec=53, near_tail=True, offset=-0.5, lam=1)
@example(ratio=(13, 1), prec=128, near_tail=True, offset=-0.9, lam=1)
@example(ratio=(35, 6), prec=256, near_tail=True, offset=0.0, lam=1)
@settings(max_examples=300, deadline=None)
def test_head_enclosure_holds_the_supercritical_kernel(ratio, prec, near_tail, offset, lam):
    # lam anywhere up to 2**60, or within the tail cutoff of it, where the
    # kernel may still add its exponential term below the cutoff
    a, b = ratio
    line = RatioLine(a, b, prec)
    _, tail = _head_constants(line.supercritical_factors, prec + GUARD_BITS)
    if near_tail:
        lam = max(1, tail + round(offset * tail))
    enclosure = line.head_enclosure(lam)
    assert (enclosure is None) is (lam < tail)
    if enclosure is not None:
        lo, hi = enclosure
        assert lo <= _units(line.supercritical_bound(lam)) <= hi
        assert hi - lo <= 2 ** (FIXED_BITS - 52)


@given(ratio=_line_ratios(Regime.SUBCRITICAL), prec=st.integers(53, 256), lam=st.integers(1, 2**60))
@example(ratio=(2, 1), prec=53, lam=100070)
@example(ratio=(5, 2), prec=256, lam=2**60)
@settings(max_examples=300, deadline=None)
def test_bound_enclosure_holds_the_oscillatory_kernel(ratio, prec, lam):
    line = RatioLine(*ratio, prec)
    lo, hi = line.bound_enclosure(lam)
    assert lo <= _units(line.oscillatory_bound(lam)) <= hi


@given(
    ratio=_line_ratios(Regime.SUBCRITICAL),
    prec=st.integers(53, 256),
    bits=st.integers(4, 62),
    step=st.booleans(),
    t=st.integers(1, 2**60),
    offset=st.integers(-3, 3),
)
@example(ratio=(2, 1), prec=128, bits=17, step=True, t=1, offset=0)
@example(ratio=(7, 3), prec=53, bits=40, step=False, t=2**40 // 3, offset=0)
@settings(max_examples=300, deadline=None)
def test_cosine_enclosure_holds_the_reduced_cosine(ratio, prec, bits, step, t, offset):
    # the pairs (a*t, b*t) with lambda2 <= 2**60; with `step`, lambda1 within
    # 3*a of 2**bits, where p_eff steps
    a, b = ratio
    t = max(1, 2**bits // a + offset if step else t // b)
    line = RatioLine(a, b, prec)
    lo, hi = line.cosine_enclosure(a * t, b * t)
    p_eff = _phase_precision(prec, a * t)
    cosv, _ = _reduced_cosine(line.phase(p_eff)[0], a * t, b * t, p_eff + GUARD_BITS)
    assert lo <= _units(cosv) <= hi
    assert hi - lo <= 2 * _COS_WIDTH + 6


@given(x=st.integers(-(5 * PI_FLOOR >> 2) + 8, (5 * PI_FLOOR >> 2) - 8), near=st.integers(-2, 1), offset=st.integers(-3, 3))
@example(x=0, near=-2, offset=0)
@settings(max_examples=300, deadline=None)
def test_fixed_cos_is_within_its_width(x, near, offset):
    # x anywhere in (-5*pi/4, 5*pi/4), or next to pi/4 or 3*pi/4, where the
    # nearest multiple of pi/2 changes
    if near >= 0:
        x = ((2 * near + 1) * PI_FLOOR >> 2) + offset
    with workprec(300):
        exact = mp.cos(mpf(x) / 2**FIXED_BITS) * 2**FIXED_BITS
    assert abs(_fixed_cos(x) - exact) <= _COS_WIDTH


@given(lo=st.integers(2**53, 2**200), width=st.integers(0, 2**20), prec=st.sampled_from([53, 60, 100]))
@settings(max_examples=300, deadline=None)
def test_rounded53_is_the_libmp_rounding_of_both_ends_or_none(lo, width, prec):
    hi = lo + width
    got = _rounded53(lo, hi)
    ends = [from_man_exp(n, 0, 53, round_nearest) for n in (lo, hi)]
    if got is not None:
        assert ends[0] == ends[1] == from_man_exp(got, 0)
    elif ends[0] == ends[1]:
        # only when an end sits on a midpoint of lo's grid, or hi has a
        # longer grid step
        shift = lo.bit_length() - 53
        on_midpoint = [(n + (1 << (shift - 1))) % (1 << shift) == 0 for n in (lo, hi)]
        assert any(on_midpoint) or hi.bit_length() > lo.bit_length()


def test_rounded53_refuses_an_end_on_a_midpoint():
    midpoint = (2**52 + 1) * 2**40 + 2**39
    assert _rounded53(midpoint, midpoint) is None
    assert _rounded53(midpoint + 1, midpoint + 2) == (2**52 + 2) * 2**40
    assert _rounded53(midpoint - 2, midpoint - 1) == (2**52 + 1) * 2**40
    assert _rounded53(midpoint - 1, midpoint + 1) is None


def test_exceeds_slack_certifies_only_strictly_beyond_the_slack():
    slack = int(SLACK * 2**FIXED_BITS)
    assert _exceeds_slack(slack + 1, slack + 5) is True
    # a lower end on the slack leaves the kernel's value possibly equal to it
    assert _exceeds_slack(slack, slack + 5) is None
    assert _exceeds_slack(slack - 5, slack) is False
    assert _exceeds_slack(slack - 5, slack + 1) is None
    # the verdict of an enclosure: rejected, open on the slack, open on a
    # 53-bit midpoint (as `_rounded53` builds it), and decided
    assert _enclosed_margin(slack - 5, slack) is False
    assert _enclosed_margin(slack, slack + 5) is None
    midpoint = (2**52 + 1) * 2**40 + 2**39
    assert _enclosed_margin(midpoint - 1, midpoint + 1) is None
    assert _enclosed_margin(midpoint + 1, midpoint + 2) == math.ldexp((2**52 + 2) * 2**40, -FIXED_BITS)


def _crafted_supercritical_line(head: Fraction, prec: int) -> tuple[RatioLine, int]:
    """(line, lam) where the supercritical kernel returns exactly `head`, a
    dyadic of at most prec + GUARD_BITS bits: lam = M**2 = 2**20, c2 = 0 and
    c1 = 256 * lam * M**2 * head, so every operation is exact, and M = 1024
    puts lam past the tail cutoff."""
    lam = 2**20
    c1 = head * 256 * lam * lam
    factors = (
        from_int(1024),
        from_man_exp(c1.numerator, -(c1.denominator.bit_length() - 1)),
        from_int(lam),
        from_int(0),
        from_int(1),
        from_int(1),
        from_int(8),
        from_int(1),
    )
    line = RatioLine(6, 1, prec)
    line.supercritical_factors = factors
    assert _supercritical_bound(factors, lam, prec + GUARD_BITS) == from_man_exp(head.numerator, -(head.denominator.bit_length() - 1))
    return line, lam


def _counted_kernel(monkeypatch, name: str) -> list:
    """The argument tuples of every call that a `RatioLine` makes to the
    kernel `asymptotics.<name>` from now on."""
    calls = []
    kernel = getattr(asymptotics, name)
    monkeypatch.setattr(asymptotics, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


def test_supercritical_margin_runs_the_kernel_where_its_enclosure_is_open(monkeypatch):
    calls = _counted_kernel(monkeypatch, "_supercritical_bound")
    # 1 - head = 3/4 + 2**-54 + 2**-78 lies 2**-78 above a midpoint of the
    # 53-bit grid, within the 6u of the bound chain at --precision 53, so the
    # enclosure cannot tell the kernel's margin 3/4 + 2**-53 from 3/4, and
    # the kernel decides
    line, lam = _crafted_supercritical_line(Fraction(1, 4) - Fraction(1, 2**54) - Fraction(1, 2**78), 53)
    assert line.head_enclosure(lam) is not None
    assert line.supercritical_margin(lam) == 0.75 + 2**-53
    assert len(calls) == 1
    # at 128 bits the chain is good to 2**-124, and the enclosure fixes the margin
    line, lam = _crafted_supercritical_line(Fraction(1, 4) - Fraction(1, 2**54) - Fraction(1, 2**78), 128)
    assert line.supercritical_margin(lam) == 0.75 + 2**-53
    assert len(calls) == 1
    # a bound 1 - SLACK: its enclosure reaches both sides of 1 - SLACK, and
    # the kernel does not certify it below
    line, lam = _crafted_supercritical_line(1 - Fraction(1, 2**40), 53)
    assert line.supercritical_margin(lam) is None
    assert len(calls) == 2
