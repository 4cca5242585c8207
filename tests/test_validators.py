from fractions import Fraction

import pytest
from mpmath import mp, mpf

from binsum.asymptotics import RegimeError, saddle_data
from binsum.validators import LEMMA_IDS, region_theta_grid, validate_inequality


def test_all_lemmas_pass_on_small_grids():
    for lemma_id in LEMMA_IDS:
        report = validate_inequality(lemma_id, grid_size=(10, 10))
        assert report.passed, (lemma_id, report.max_margin)
        assert report.points == 100


def test_explicit_point_supercritical():
    report = validate_inequality("super-g-decay", r_grid=[Fraction(7)], theta_grid=[mpf(1)])
    assert report.passed and report.points == 1
    assert report.max_margin < 0


def test_explicit_point_near_diagonal_at_saddle_angle():
    r = Fraction(101, 100)
    alpha = saddle_data(r, 128).alpha
    report = validate_inequality("near1-g-decay", r_grid=[r], theta_grid=[alpha])
    assert report.passed
    assert abs(report.max_margin) < 1e-30


def test_explicit_point_subcritical_offset():
    r = Fraction(2)
    alpha = saddle_data(r, 128).alpha
    report = validate_inequality("sub-f-cubic", r_grid=[r], theta_grid=[alpha + mpf("0.1")])
    assert report.passed
    assert report.max_margin <= 0


def test_out_of_region_point_is_an_argument_error():
    with pytest.raises(ValueError):
        validate_inequality("super-g-decay", r_grid=[Fraction(7)], theta_grid=[mpf(4)])
    r = Fraction(2)
    alpha = saddle_data(r, 128).alpha
    with pytest.raises(ValueError):
        validate_inequality("sub-g-decay", r_grid=[r], theta_grid=[alpha / 4])


def test_wrong_regime_r_is_an_argument_error():
    with pytest.raises(ValueError):
        validate_inequality("super-g-decay", r_grid=[Fraction(2)])
    with pytest.raises(ValueError):
        validate_inequality("sub-g-decay", r_grid=[Fraction(7)])
    with pytest.raises(ValueError):
        validate_inequality("near1-f-cubic", r_grid=[Fraction(3)])


def test_unknown_lemma_id_rejected():
    with pytest.raises(ValueError):
        validate_inequality("no-such-lemma")


def test_theta_grids_stay_inside_regions():
    for lemma_id in LEMMA_IDS:
        r = Fraction(7) if lemma_id.startswith("super-") else Fraction(3, 2)
        thetas = region_theta_grid(lemma_id, r, 9)
        assert len(thetas) == 9
        # re-validating the generated grid must not raise
        validate_inequality(lemma_id, r_grid=[r], theta_grid=thetas)


def test_grid_report_is_max_of_single_point_reports():
    # two ratios sharing two angles inside both regions: a combined run must
    # equal its single-point runs, so no per-ratio state reaches the next ratio
    for lemma_id in LEMMA_IDS:
        if lemma_id.startswith("super-"):
            rs, thetas = [Fraction(7), Fraction(15, 2)], [mpf("0.3"), mpf("-0.9")]
        else:
            rs, thetas = [Fraction(3, 2), Fraction(2)], [mpf("1.0"), mpf("1.5")]
        combined = validate_inequality(lemma_id, r_grid=rs, theta_grid=thetas)
        singles = [validate_inequality(lemma_id, r_grid=[r], theta_grid=[t]) for r in rs for t in thetas]
        worst = max(singles, key=lambda rep: rep.max_margin)
        assert combined.points == 4
        assert combined.max_margin == worst.max_margin, lemma_id
        assert (combined.worst_r, combined.worst_theta) == (worst.worst_r, worst.worst_theta), lemma_id


def test_near1_f_cubic_at_r1_has_point_region_but_no_saddle():
    thetas = region_theta_grid("near1-f-cubic", Fraction(1), 3)
    assert len(thetas) == 1 and abs(thetas[0] - mp.pi / 2) < mpf(2) ** -50
    with pytest.raises(RegimeError):
        validate_inequality("near1-f-cubic", r_grid=[Fraction(1)])
