from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec

from binsum import asymptotics, validators
from binsum.asymptotics import RegimeError, saddle_data
from binsum.numerics import GUARD_BITS
from binsum.validators import LEMMA_IDS, default_r_grid, region_theta_grid, validate_inequality


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


@pytest.mark.parametrize("prec", [53, 128, 200])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_margin_vanishes_at_the_saddle_angle(lemma_id, prec):
    # every margin is F(theta) - F(c) plus terms in theta - c, with F(c) taken
    # from the same F, so at the centre c (the saddle angle, or 0 for the
    # supercritical lemmas) it is exactly zero.  The call runs at the working
    # precision so that theta keeps every bit of alpha.
    r = Fraction(7) if lemma_id.startswith("super-") else Fraction(21, 10)
    with workprec(prec + GUARD_BITS):
        centre = mpf(0) if lemma_id.startswith("super-") else saddle_data(r, prec).alpha
        report = validate_inequality(lemma_id, r_grid=[r], theta_grid=[centre], prec=prec)
    assert report.max_margin == 0.0


def test_explicit_angle_keeps_its_bits_without_an_enclosing_workprec():
    # alpha carries prec + GUARD_BITS bits; converting the explicit grid at
    # the ambient precision would round it, and the margin would not vanish
    alpha = saddle_data(Fraction(21, 10), 128).alpha
    report = validate_inequality("near1-g-decay", r_grid=[Fraction(21, 10)], theta_grid=[alpha], prec=128)
    assert report.max_margin == 0.0


def _region(lemma_id, r, sd):
    """The theta region of each lemma as the module docstring states it."""
    if lemma_id == "super-g-strict":
        return -mp.pi / 3, mp.pi / 3
    if lemma_id.startswith("super-"):
        return -mp.pi, mp.pi
    a = sd.alpha
    if lemma_id == "near1-f-cubic":
        w = mp.sqrt(mpf(r.numerator) / r.denominator - 1)
        return a - w, a + w
    return (a / 2, 3 * a / 2) if lemma_id == "near1-g-decay" else (a / 2, mp.pi - a / 2)


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_region_tolerance_admits_rounding_but_not_a_step_outside(lemma_id):
    r = Fraction(7) if lemma_id.startswith("super-") else Fraction(3, 2)
    lo, hi = _region(lemma_id, r, saddle_data(r, 128))
    for theta in (lo - mpf(2) ** -30, hi + mpf(2) ** -30):
        with pytest.raises(ValueError):
            validate_inequality(lemma_id, r_grid=[r], theta_grid=[theta])
    for theta in (lo - mpf(2) ** -45, hi + mpf(2) ** -45):
        assert validate_inequality(lemma_id, r_grid=[r], theta_grid=[theta]).points == 1


def _reference_margin(lemma_id, r, theta, sd):
    """Left side minus right side of each inequality as the module docstring
    states it, computed from the definition of f at one point."""
    rm = mpf(r.numerator) / r.denominator

    def f(t):
        z = sd.rho * mp.expj(t)
        return rm * mp.log(1 + z) + mp.log(1 - z) - mp.log(z)

    if lemma_id.startswith("super-"):
        g_diff = f(theta).real - f(0).real
        return {
            "super-g-decay": g_diff + 2 / mp.pi**2 * sd.M * theta**2,
            "super-g-strict": g_diff + sd.M * theta**2 / 2,
            "super-g-quartic": abs(g_diff + sd.M * theta**2 / 2)
            - asymptotics._quartic_coefficient(sd.rho)(mp.cos(theta)) * theta**4,
            "super-h-cubic": abs(f(theta).imag) - asymptotics._cubic_coefficient(sd.rho)(mp.cos(theta)) * abs(theta) ** 3,
        }[lemma_id]
    u = theta - sd.alpha
    nd = 6 * rm - 1 - rm**2
    step = f(theta) - f(sd.alpha)
    return {
        "sub-f-cubic": abs(step + mp.sqrt(nd) / 4 * mp.expj(-sd.beta) * u**2) - mpf("0.33846") * (rm + 1) ** 2 / rm**2 * abs(u) ** 3,
        "sub-g-decay": step.real + (rm + 1) * nd / (16 * rm) * u**2 - (rm + 1) / 4 * abs(u) ** 3,
        "near1-f-cubic": abs(step + u**2 / 2) - (abs(u) ** 3 / 3 + (rm - 1) / 4 * u**2),
        "near1-g-decay": step.real + u**2 / 2 - abs(u) ** 3 / 2,
    }[lemma_id]


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_each_registered_margin_is_the_stated_inequality(lemma_id):
    # one point inside each region, away from the touching point, so that a
    # registry entry pointing at another lemma's margin shows
    r = {"super": Fraction(15, 2), "sub": Fraction(5, 2), "near1": Fraction(3, 2)}[lemma_id.split("-")[0]]
    sd = saddle_data(r, 128)
    theta = mpf("0.4") if lemma_id.startswith("super-") else sd.alpha + mpf("0.2")
    report = validate_inequality(lemma_id, r_grid=[r], theta_grid=[theta])
    with workprec(128 + GUARD_BITS):
        expected = _reference_margin(lemma_id, r, theta, sd)
    assert abs(report.max_margin - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))


def _margin(lemma_id, r, theta, prec):
    """The module's margin of one lemma at one point, as an mpf."""
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        return validators._margin(*validators._LEMMAS[lemma_id][2](validators._Circle(sd)))(theta)


@pytest.mark.parametrize("prec", [53, 128, 200])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_margin_matches_the_complex_definition_to_the_last_bits(lemma_id, prec, data):
    # the real-valued g and h, and the margin form, agree with the complex
    # f = r*log(1+z) + log(1-z) - log(z) to within 2**-(prec+8), anywhere in
    # the default ratio range and the theta region, its ends and centre included
    lo_r, hi_r = default_r_grid(lemma_id, 2)
    r = lo_r + (hi_r - lo_r) * Fraction(data.draw(st.integers(0, 1000), label="r step"), 1000)
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        lo, hi = _region(lemma_id, r, sd)
        centre = mpf(0) if lemma_id.startswith("super-") else sd.alpha
        x = data.draw(st.integers(0, 2**20), label="theta step")
        where = data.draw(st.sampled_from(["lo", "hi", "centre", "inside"]), label="theta")
        theta = {"lo": lo, "hi": hi, "centre": centre, "inside": lo + (hi - lo) * x / 2**20}[where]
        expected = _reference_margin(lemma_id, r, theta, sd)
    assert abs(_margin(lemma_id, r, theta, prec) - expected) <= mpf(2) ** -(prec + 8), (r, theta)
