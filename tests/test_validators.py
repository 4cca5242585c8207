from fractions import Fraction
from operator import pos

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import mpf_gt, mpf_le, round_nearest, to_float

from binsum import asymptotics, validators
from binsum.asymptotics import RATIO_CACHE_SIZE, RegimeError, negated_discriminant, saddle_data
from binsum.numerics import GUARD_BITS, RAW_SLACK, rational_to_real
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
            - _mpf_quartic_coefficient(sd.rho)(mp.cos(theta)) * theta**4,
            "super-h-cubic": abs(f(theta).imag) - _mpf_cubic_coefficient(sd.rho)(mp.cos(theta)) * abs(theta) ** 3,
        }[lemma_id]
    u = theta - sd.alpha
    nd = 6 * rm - 1 - rm**2
    beta = mp.acos((rm + 1) * mp.sqrt(nd) / (4 * rm))
    step = f(theta) - f(sd.alpha)
    return {
        "sub-f-cubic": abs(step + mp.sqrt(nd) / 4 * mp.expj(-beta) * u**2) - mpf("0.33846") * (rm + 1) ** 2 / rm**2 * abs(u) ** 3,
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


# The mpf form of the margins, the reference of the raw kernels in
# `validators` and `asymptotics`: every operation below is the mpf expression
# whose libmp call the kernel makes, so the two must agree bit for bit.


def _mpf_quartic_coefficient(rho):
    first = (1 - 2 * rho - rho**2) / (24 * (1 + rho) * (1 - rho) ** 2)
    head = (rho**4 + 6 * rho**3 + 2 * rho**2 + 4 * rho - 1) / (24 * (1 + rho) * (1 - rho) ** 4)
    scale, base, two_rho = 4 * (1 - rho**2), 1 + rho**2, 2 * rho
    return lambda c: max(first, head + rho / (scale * (base + two_rho * c)))


def _mpf_cubic_coefficient(rho):
    base, two_rho, rho2 = 1 + rho**2, 2 * rho, rho**2
    f1 = base * (rho2 + 4 * rho - 1) / (6 * (1 - rho) ** 3 * (1 + rho) ** 2)
    scale, base2, four_rho2 = 6 * (1 - rho), base**2, 4 * rho2

    def coefficient(c):
        f2 = base * (1 - two_rho * (1 + c) - rho2) / (scale * (base2 - four_rho2 * c**2))
        return max(f1, f2, mpf(0))

    return coefficient


class _MpfCircle:
    """g, h and f = g + i*h as mpf expressions; build and call under
    workprec(sd.prec + GUARD_BITS)."""

    def __init__(self, sd):
        self.rho, self.M, self.alpha = sd.rho, sd.M, sd.alpha
        self.r = rational_to_real(sd.r, sd.prec + GUARD_BITS)
        self.nd = rational_to_real(negated_discriminant(sd.r), sd.prec + GUARD_BITS)
        self._two_rho, self._rho2, self._log_rho = 2 * sd.rho, sd.rho**2, mp.log(sd.rho)

    def _g(self, c):
        x = self._two_rho * c
        return (self.r * mp.log(1 + x + self._rho2) + mp.log(1 - x + self._rho2)) / 2 - self._log_rho

    def _h(self, t, c, s):
        rho = self.rho
        return self.r * mp.atan2(rho * s, 1 + rho * c) + mp.atan2(-rho * s, 1 - rho * c) - t

    def g(self, t):
        c = mp.cos(t)
        return self._g(c), c

    def h(self, t):
        c, s = mp.cos_sin(t)
        return self._h(t, c, s), c

    def f(self, t):
        c, s = mp.cos_sin(t)
        return mp.mpc(self._g(c), self._h(t, c, s)), c


def _mpf_margin(F, c, Q, side, R2, R3, R4):
    F_c = F(c)[0]
    terms = [(n, R) for n, R in ((2, R2), (3, R3), (4, R4)) if R]

    def margin(t):
        u = abs(t - c)
        value, cos_t = F(t)
        return side(value - F_c + Q * u**2) - sum((R(cos_t) if callable(R) else R) * u**n for n, R in terms)

    return margin


_MPF_ROWS = {
    "super-g-decay": lambda k: (k.g, 0, 2 / mp.pi**2 * k.M, pos, 0, 0, 0),
    "super-g-strict": lambda k: (k.g, 0, k.M / 2, pos, 0, 0, 0),
    "super-g-quartic": lambda k: (k.g, 0, k.M / 2, abs, 0, 0, _mpf_quartic_coefficient(k.rho)),
    "super-h-cubic": lambda k: (k.h, 0, 0, abs, 0, _mpf_cubic_coefficient(k.rho), 0),
    "sub-f-cubic": lambda k: (
        k.f,
        k.alpha,
        mp.mpc((k.r + 1) * k.nd / (16 * k.r), -(mp.sqrt(k.nd) * (k.r - 1) ** 2 / (16 * k.r))),
        abs,
        0,
        mpf("0.33846") * (k.r + 1) ** 2 / k.r**2,
        0,
    ),
    "sub-g-decay": lambda k: (k.g, k.alpha, (k.r + 1) * k.nd / (16 * k.r), pos, 0, (k.r + 1) / 4, 0),
    "near1-f-cubic": lambda k: (k.f, k.alpha, mpf(1) / 2, abs, (k.r - 1) / 4, mpf(1) / 3, 0),
    "near1-g-decay": lambda k: (k.g, k.alpha, mpf(1) / 2, pos, 0, mpf(1) / 2, 0),
}


def _mpf_reference_margin(lemma_id, r, theta, prec):
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        return _mpf_margin(*_MPF_ROWS[lemma_id](_MpfCircle(sd)))(theta)


def _margin(lemma_id, r, theta, prec):
    """The module's raw margin of one lemma at one point, as an mpf; theta
    must carry its bits at prec + GUARD_BITS."""
    k = validators._Circle(saddle_data(r, prec))
    return mp.make_mpf(validators._margin(k.wp, *validators._LEMMAS[lemma_id][2](k))(theta._mpf_))


def _point(lemma_id, prec, r_step, where, x):
    """(r, theta) of a drawn point: r r_step/1000 of the way through the
    lemma's default ratio range, theta at an end of the region, at its
    centre, or x/2**20 of the way through it, at prec + GUARD_BITS bits."""
    lo_r, hi_r = default_r_grid(lemma_id, 2)
    r = lo_r + (hi_r - lo_r) * Fraction(r_step, 1000)
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        lo, hi = _region(lemma_id, r, sd)
        centre = mpf(0) if lemma_id.startswith("super-") else sd.alpha
        return r, sd, +{"lo": lo, "hi": hi, "centre": centre, "inside": lo + (hi - lo) * x / 2**20}[where]


_R_STEPS = st.integers(0, 1000)
_WHERE = st.sampled_from(["lo", "hi", "centre", "inside"])
_THETA_STEPS = st.integers(0, 2**20)


@pytest.mark.parametrize("prec", [53, 128, 200])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
@settings(max_examples=20, deadline=None)
@given(r_step=_R_STEPS, where=_WHERE, x=_THETA_STEPS)
def test_margin_matches_the_complex_definition_to_the_last_bits(lemma_id, prec, r_step, where, x):
    # the real-valued g and h, and the margin form, agree with the complex
    # f = r*log(1+z) + log(1-z) - log(z) to within 2**-(prec+8), anywhere in
    # the default ratio range and the theta region, its ends and centre included
    r, sd, theta = _point(lemma_id, prec, r_step, where, x)
    with workprec(prec + GUARD_BITS):
        expected = _reference_margin(lemma_id, r, theta, sd)
    assert abs(_margin(lemma_id, r, theta, prec) - expected) <= mpf(2) ** -(prec + 8), (r, theta)


@pytest.mark.parametrize("prec", [53, 128, 200])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
@settings(max_examples=25, deadline=None)
@given(r_step=_R_STEPS, where=_WHERE, x=_THETA_STEPS)
@example(r_step=0, where="centre", x=0)
@example(r_step=1000, where="centre", x=0)
@example(r_step=500, where="centre", x=0)
def test_raw_margin_is_the_mpf_margin_bit_for_bit(lemma_id, prec, r_step, where, x):
    # the raw kernel makes the libmp call of each operation of the mpf form,
    # so every margin keeps its bits: at the region ends, at the centre
    # (where both are exactly 0) and inside
    r, _, theta = _point(lemma_id, prec, r_step, where, x)
    raw = _margin(lemma_id, r, theta, prec)
    assert raw._mpf_ == _mpf_reference_margin(lemma_id, r, theta, prec)._mpf_, (r, theta)
    if where == "centre":
        assert raw == 0


@pytest.mark.parametrize("prec", [53, 128, 200])
def test_coefficient_kernels_are_the_mpf_formulas_bit_for_bit(prec):
    # supercritical_error_bound_refined and the validators read C_g and C_h
    # from the raw kernels at prec + GUARD_BITS
    wp = prec + GUARD_BITS
    for r in (Fraction(584, 100), Fraction(7), Fraction(12)):
        rho = saddle_data(r, prec).rho
        with workprec(wp):
            for c in (mp.cos(mp.pi / 3), mpf("0.9"), mpf(1), mpf(-1), mpf(0)):
                for kernel, reference in (
                    (asymptotics.quartic_kernel, _mpf_quartic_coefficient),
                    (asymptotics.cubic_kernel, _mpf_cubic_coefficient),
                ):
                    assert kernel(rho._mpf_, wp)(c._mpf_) == reference(rho)(c)._mpf_, (r, c)
    for r, lam, delta in ((Fraction(58478, 10000), 241, "0.75"), (Fraction(7), 980, "0.5")):
        bound = asymptotics.supercritical_error_bound_refined(r, lam, mpf(delta), prec)
        assert bound._mpf_ == _mpf_refined_bound(r, lam, delta, prec)._mpf_, (r, lam, delta)


def _mpf_refined_bound(r, lam, delta, prec):
    sd = saddle_data(r, prec)
    with workprec(prec + GUARD_BITS):
        m, lamf, d = sd.M, mpf(lam), mpf(delta)
        c = mp.cos(d)
        t1 = 3 * _mpf_quartic_coefficient(sd.rho)(c) / (lamf * m**2)
        t2 = 15 * _mpf_cubic_coefficient(sd.rho)(c) ** 2 / (2 * lamf * m**3)
        tail = (mp.sqrt(mpf(2)) / (d * mp.sqrt(mp.pi * lamf * m)) + (1 - d / mp.pi) * mp.sqrt(2 * mp.pi * lamf * m)) * mp.exp(
            -lamf * m * d**2 / 2
        )
        return t1 + t2 + tail


def test_a_validate_pass_computes_each_saddle_constant_once():
    # one pass over the eight lemmas at the 10x8 grid of the proof-check
    # workload touches 48 distinct (r, prec) keys of `saddle_data`, each the
    # line of one ratio (five ratio ranges, two of them shared by several
    # lemmas); a shared range is reused within about 20 keys, so the ratio
    # cache builds each line, and its saddle, once
    asymptotics.ratio_line.cache_clear()
    keys = set()
    for lemma_id in LEMMA_IDS:
        keys.update(default_r_grid(lemma_id, 10))
        validate_inequality(lemma_id, grid_size=(10, 8))
    assert asymptotics.ratio_line.cache_info().misses == len(keys) == 48
    assert asymptotics.ratio_line.cache_parameters()["maxsize"] == RATIO_CACHE_SIZE


# The double screen: every point's margin in doubles with a bound E, and the
# raw kernel only where the worst point can be.


def _screen_bounds(lemma_id, r, theta, prec):
    """The screen's (m - E, m + E) at one raw theta, taken in doubles."""
    sd = saddle_data(r, prec)
    d = validators._Floats(sd)
    bounds = validators._screen(d, *validators._LEMMAS[lemma_id][3](d))
    return bounds(to_float(theta._mpf_, rnd=round_nearest))


def _assert_enclosed(lemma_id, r, theta, prec):
    lower, upper = _screen_bounds(lemma_id, r, theta, prec)
    raw = _margin(lemma_id, r, theta, prec)
    assert lower <= raw <= upper, (lemma_id, r, theta, prec)
    assert (upper - lower) / 2 < 2.0**-30, (lemma_id, r, theta, prec)


@pytest.mark.parametrize("prec", [53, 128, 400])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
@settings(max_examples=20, deadline=None)
@given(r_step=_R_STEPS, where=_WHERE, x=_THETA_STEPS)
@example(r_step=0, where="lo", x=0)
@example(r_step=0, where="hi", x=0)
@example(r_step=1000, where="lo", x=0)
@example(r_step=1000, where="hi", x=0)
def test_the_double_margin_encloses_the_raw_margin(lemma_id, prec, r_step, where, x):
    # |m - raw margin| <= E anywhere in the default ratio range and the theta
    # region, their ends included, and E stays far below the margins' spread
    r, _, theta = _point(lemma_id, prec, r_step, where, x)
    _assert_enclosed(lemma_id, r, theta, prec)


# r just above 3 + 2*sqrt(2) = 5.8284271247..., and far out on the
# supercritical side, where rho is about 1/r
_SUPER_EDGE_RATIOS = (Fraction(58284272, 10**7), Fraction(10**6))


@pytest.mark.parametrize("prec", [53, 128, 400])
@pytest.mark.parametrize("lemma_id", [lemma for lemma in LEMMA_IDS if lemma.startswith("super-")])
def test_the_double_margin_encloses_the_raw_margin_at_the_supercritical_edges(lemma_id, prec):
    for r in _SUPER_EDGE_RATIOS:
        if lemma_id == "super-g-strict" and r > 8:
            continue  # outside its hypothesis
        sd = saddle_data(r, prec)
        with workprec(prec + GUARD_BITS):
            lo, hi = _region(lemma_id, r, sd)
            thetas = [lo, hi, mpf(0), *(lo + (hi - lo) * k / 7 for k in range(1, 7))]
        for theta in thetas:
            _assert_enclosed(lemma_id, r, theta, prec)


def _all_kernel_report(lemma_id, r_grid=None, theta_grid=None, prec=128, grid_size=(50, 50)):
    """`validate_inequality` with the raw margin at every grid point: the
    reference that the screened reports must equal."""
    n_r, n_theta = grid_size
    rs = r_grid if r_grid is not None else default_r_grid(lemma_id, n_r)
    worst, points = None, 0
    for r in rs:
        if theta_grid is None:
            thetas = [t._mpf_ for t in region_theta_grid(lemma_id, r, n_theta, prec)]
        else:
            with workprec(prec + GUARD_BITS):
                thetas = [mpf(t)._mpf_ for t in theta_grid]
        k = validators._Circle(saddle_data(r, prec))
        margin = validators._margin(k.wp, *validators._LEMMAS[lemma_id][2](k))
        for t in thetas:
            m = margin(t)
            points += 1
            if worst is None or mpf_gt(m, worst[0]):
                worst = (m, r, t)
    m, r, t = worst
    return validators.LemmaReport(
        lemma_id, points, to_float(m, rnd=round_nearest), r, to_float(t, rnd=round_nearest), mpf_le(m, RAW_SLACK)
    )


@pytest.mark.parametrize("grid_size", [(8, 10), (9, 9), (10, 8)])
@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_a_screened_report_is_the_all_kernel_report_on_the_proof_check_grids(lemma_id, grid_size):
    assert validate_inequality(lemma_id, grid_size=grid_size) == _all_kernel_report(lemma_id, grid_size=grid_size)


@pytest.mark.parametrize("prec", [53, 400])
@pytest.mark.parametrize("lemma_id", [lemma for lemma in LEMMA_IDS if lemma.startswith("super-")])
def test_a_screened_report_keeps_the_first_of_symmetric_ties(lemma_id, prec):
    # g is even and |h| odd in theta, so +-theta tie bit for bit; the first
    # in grid order is the worst point, as the kernel alone reports it
    rs, thetas = [Fraction(7), Fraction(15, 2)], ["-0.9", "-0.3", "0.3", "0.9"]
    report = validate_inequality(lemma_id, r_grid=rs, theta_grid=thetas, prec=prec)
    assert report == _all_kernel_report(lemma_id, r_grid=rs, theta_grid=thetas, prec=prec)
    assert report.worst_theta < 0
    for grid_size in ((4, 6), (5, 7)):
        report = validate_inequality(lemma_id, grid_size=grid_size, prec=prec)
        assert report == _all_kernel_report(lemma_id, grid_size=grid_size, prec=prec)


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_a_screened_report_at_the_centre_alone_is_zero(lemma_id):
    r = Fraction(7) if lemma_id.startswith("super-") else Fraction(21, 10)
    with workprec(128 + GUARD_BITS):
        centre = mpf(0) if lemma_id.startswith("super-") else saddle_data(r, 128).alpha
    report = validate_inequality(lemma_id, r_grid=[r], theta_grid=[centre])
    assert report == _all_kernel_report(lemma_id, r_grid=[r], theta_grid=[centre])
    assert report.max_margin == 0.0


def test_a_ratio_past_the_double_range_runs_the_kernel_at_every_point():
    # float(r) overflows, so every point is a candidate and the report is the
    # kernel's, whatever the kernel makes of such an r
    r = Fraction(10**400)
    lo, hi = validators._theta_region(validators._LEMMAS["super-g-decay"][1], r, 128)
    doubles, _ = validators._cells(lo, hi, 7, 128)
    floats_row = validators._LEMMAS["super-g-decay"][3]
    assert validators._screen_line(floats_row, saddle_data(r, 128), doubles) == [validators._UNSCREENED] * 7
    report = validate_inequality("super-g-decay", r_grid=[r], grid_size=(1, 7))
    assert report == _all_kernel_report("super-g-decay", r_grid=[r], grid_size=(1, 7))


def test_the_proof_check_grids_run_the_raw_chain_on_at_most_four_points_per_lemma(monkeypatch):
    # at the default precision the screen leaves 1-2 points per lemma on the
    # 8x10 and 10x8 grids; on 9x9 the centre of the super and near1 lemmas
    # is a grid point of every ratio, whose margin is an exact 0 that the
    # kernel returns without running its chain
    runs = []
    for name in ("g", "h", "f"):
        method = getattr(validators._Circle, name)
        monkeypatch.setattr(validators._Circle, name, lambda self, t, method=method: runs.append(t) or method(self, t))
    margin = validators._margin
    builds = []
    monkeypatch.setattr(validators, "_margin", lambda *args: builds.append(args) or margin(*args))
    for grid_size in ((8, 10), (9, 9), (10, 8)):
        for lemma_id in LEMMA_IDS:
            runs.clear()
            builds.clear()
            validate_inequality(lemma_id, grid_size=grid_size)
            # each built margin takes F at its centre once
            assert len(runs) - len(builds) <= 4, (lemma_id, grid_size)


def test_the_proof_check_grids_build_the_raw_row_of_at_most_four_ratios_per_lemma(monkeypatch):
    # on 9x9 every ratio of the super and near1 lemmas has its centre on the
    # grid, a candidate whose margin is an exact 0; a ratio builds its raw
    # row only for a candidate off the centre, so these lemmas build 0-4
    # rows there instead of 9, and 1 on the other two grids
    circle = validators._Circle
    built = []
    monkeypatch.setattr(validators, "_Circle", lambda sd: built.append(sd.r) or circle(sd))
    for grid_size in ((8, 10), (9, 9), (10, 8)):
        for lemma_id in LEMMA_IDS:
            built.clear()
            report = validate_inequality(lemma_id, grid_size=grid_size)
            assert len(built) <= (4 if grid_size == (9, 9) else 1), (lemma_id, grid_size)
            if grid_size == (9, 9) and lemma_id.startswith("super-"):
                assert built == [] and report.max_margin == 0.0, lemma_id
