import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from binsum.asymptotics import (
    Regime,
    RegimeError,
    classify,
    cos_lower_bound,
    critical_boundary_constants,
    gamma_angles,
    gamma_cubic_bounds,
    near_diagonal_error_bound,
    normalized_residual,
    oscillation_cosine,
    oscillatory_error_bound,
    predict,
    saddle_data,
    supercritical_error_bound,
    supercritical_error_bound_refined,
)
from binsum.exact import PartitionPair


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
