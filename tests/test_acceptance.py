"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configured: exact equality for the
integer oracles, and the fixed decision slack 2**-40 wherever a floating
bound is compared.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf, workprec

from binsum.asymptotics import (
    cos_lower_bound,
    gamma_angles,
    gamma_cubic_bounds,
    normalized_residual,
    oscillation_cosine,
    saddle_data,
    supercritical_error_bound,
    supercritical_error_bound_refined,
)
from binsum.certifier import (
    NONZERO_KINDS,
    AllUpToRule,
    CertificateKind,
    difference_windows,
    scan_range,
)
from binsum.exact import PartitionPair, eval_diagonal, eval_direct, eval_reduced
from binsum.exceptions import continued_fraction
from binsum.numerics import Comparison, certified_compare
from binsum.polynomials import c_poly, integer_roots, tilde_poly
from binsum.validators import LEMMA_IDS, validate_inequality

SLACK = mpf(2) ** -40


def _report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_01_route_equivalence():
    for l1 in range(0, 201):
        for l2 in range(0, l1 + 1):
            pair = PartitionPair(l1, l2)
            assert eval_direct(pair).value == eval_reduced(pair).value, (l1, l2)
    for lam in range(0, 501):
        assert eval_diagonal(lam).value == eval_direct(PartitionPair(lam, lam)).value, lam
    _report(1, "direct == reduced for all l2 <= l1 <= 200; diagonal closed form matches up to 500")


def test_criterion_02_exhaustive_small_scan_and_row_roots():
    report = scan_range((1, 60), AllUpToRule(120), budget=10**12)
    assert not report.pairs(CertificateKind.INCONCLUSIVE)
    assert not report.pairs(CertificateKind.ZERO_EXACT)
    assert all(record[1] in NONZERO_KINDS for _, record in report.records())
    offenders = {}
    for lambda2 in range(0, 61):
        roots = integer_roots(c_poly(lambda2), 10**9)
        bad = [x for x in roots if x > lambda2]
        if bad:
            offenders[lambda2] = bad
    assert not offenders
    _report(2, "no zero among l2 <= 60, l1 <= 120; no row-polynomial root above l2 within 1e9")


def test_criterion_03_difference_families():
    assert tilde_poly(1, 0, 1).coefficients == (1, -2)
    assert tilde_poly(2, 1, 0).coefficients == (8,)
    assert tilde_poly(1, 1, 1).coefficients == (6, 2)
    assert tilde_poly(0, 1, 0).coefficients == (0,)
    assert tilde_poly(1, 1, 0).coefficients == (2,)
    offenders = {}
    for l in range(0, 41):
        for eps1 in (0, 1):
            for eps2 in (0, 1):
                poly = tilde_poly(l, eps1, eps2)
                if poly.is_zero:
                    continue
                bad = [x for x in integer_roots(poly, 10**9) if x >= 1]
                if bad:
                    offenders[(l, eps1, eps2)] = bad
    assert not offenders
    _report(3, "difference families l <= 40 have no integer root k >= 1 within 1e9; first values exact")


def test_criterion_04_supercritical_containment():
    assert supercritical_error_bound(Fraction(6), 241) < 1
    slimmest = mpf("inf")
    for r_int in (6, 7, 10):
        for lam in range(50, 401):
            pair = PartitionPair(r_int * lam, lam)
            residual, pred, _ = normalized_residual(pair)
            assert residual <= pred.error_bound + SLACK, (r_int, lam)
            slimmest = min(slimmest, pred.error_bound - residual)
    _report(4, f"scaled value within the explicit bound for r in 6,7,10, lam in 50..400 "
               f"(smallest bound-residual margin {float(slimmest):.3e}); bound(6,241) < 1")


def test_criterion_05_refined_bound_reference_instances():
    inst1 = supercritical_error_bound_refined(Fraction(58478, 10000), 241, mpf("0.75"))
    inst2 = supercritical_error_bound_refined(Fraction(58362, 10000), 980, mpf("0.5"))
    assert certified_compare(inst1, mpf("0.9936"), SLACK) is Comparison.CERTIFIED_LESS
    assert certified_compare(inst2, mpf("0.9999"), SLACK) is Comparison.CERTIFIED_LESS
    for r, lam, delta in ((Fraction(58478, 10000), 241, mpf("0.75")), (Fraction(58362, 10000), 980, mpf("0.5"))):
        sd = saddle_data(r)
        assert certified_compare(lam * sd.M * delta**2, 20, SLACK) is Comparison.CERTIFIED_GREATER
    _report(5, f"refined bounds {float(inst1):.6f} < 0.9936 and {float(inst2):.6f} < 0.9999, "
               f"with lam*M*delta**2 > 20 in both instances")


def test_criterion_06_oscillatory_containment_and_decay():
    for r_int, lam_min in ((2, 27), (3, 30)):
        max_low = mpf(0)
        max_high = mpf(0)
        for lam in range(lam_min, 501):
            pair = PartitionPair(r_int * lam, lam)
            residual, pred, _ = normalized_residual(pair)
            assert pred.valid, (r_int, lam)
            assert residual <= pred.error_bound + SLACK, (r_int, lam)
            if 30 <= lam <= 130:
                max_low = max(max_low, residual)
            if 400 <= lam <= 500:
                max_high = max(max_high, residual)
        assert max_high < max_low, (r_int, float(max_high), float(max_low))
    _report(6, "oscillatory residuals within the bound from the validity threshold to 500, "
               "and decaying between the windows 30..130 and 400..500")


def test_criterion_07_angle_cubic_window():
    lo_r, hi_r = Fraction(1), Fraction(4386, 1000)
    step = (hi_r - lo_r) / 199
    for i in range(200):
        r = lo_r + i * step
        lo, hi, middle = gamma_cubic_bounds(r)
        assert middle >= lo - SLACK, r
        assert middle <= hi + SLACK, r
    _report(7, "the cubic angle window holds on 200 rationals in [1, (9+sqrt(73))/4]")


def test_criterion_08_cosine_lower_bound_soundness():
    # the proved windows live at differences of order sqrt(l2): the window
    # argument q = d**2/(4*l2) must stay below a few multiples of pi
    applicable = 0
    for lambda2 in (50, 80, 123, 200, 321, 400, 555, 700, 1000):
        d_max = min(2 * lambda2, int(4.6 * lambda2**0.5) + 2)
        stride = max(1, int(lambda2**0.5) // 8)
        for d in range(1, d_max + 1, stride):
            pair = PartitionPair(lambda2 + d, lambda2)
            bound, ok = cos_lower_bound(pair)
            if not ok:
                continue
            applicable += 1
            cosv, _ = oscillation_cosine(pair, 128, half_phase=False)
            assert bound <= abs(cosv) + SLACK, (lambda2, d)
    assert applicable >= 100
    _report(8, f"congruence-class cosine lower bound sound on {applicable} applicable grid pairs")


def test_criterion_09_window_cross_check():
    checked = 0
    for lambda2 in (78660, 100000):
        windows = difference_windows(lambda2)
        assert windows
        for win in windows:
            first = win.lo + ((win.residue_class - (win.lo + lambda2)) % 4)
            if first > win.hi:
                continue
            count = (win.hi - first) // 4 + 1
            picks = sorted({first + 4 * round(i * (count - 1) / 9) for i in range(10)})
            for l1 in picks:
                assert (l1 + lambda2) % 4 == win.residue_class
                value = eval_reduced(PartitionPair(l1, lambda2)).value
                assert value != 0, (l1, lambda2, win.clause)
                checked += 1
    _report(9, f"exact evaluation nonzero for {checked} pairs sampled from every emitted window")


def test_criterion_10_inequality_validators():
    for lemma_id in LEMMA_IDS:
        report = validate_inequality(lemma_id, grid_size=(50, 50))
        assert report.points == 2500
        assert report.passed, (lemma_id, report.max_margin)
        assert report.max_margin <= float(SLACK)
    _report(10, f"all {len(LEMMA_IDS)} registered inequalities hold on 50x50 grids "
                "inside their hypothesis regions")


def test_criterion_11_continued_fractions():
    with workprec(200):
        golden = (1 + mp.sqrt(5)) / 2
    cf = continued_fraction(golden, 20, 192)
    assert cf.partial_quotients == (1,) * 20
    fib = [1, 1]
    while len(fib) <= 21:
        fib.append(fib[-1] + fib[-2])
    for n, (_, q) in enumerate(cf.convergents):
        assert q == fib[n]  # q_n >= F_{n+1} holds with equality for the golden ratio
    g1, g2 = gamma_angles(Fraction(2), 192)
    with workprec(224):
        angle = 2 * g1 + g2
    cf = continued_fraction(angle, 8, 192)
    with workprec(224):
        for p, q in cf.convergents:
            assert abs(angle - mpf(p) / q) < mpf(1) / (q * q)
    _report(11, "golden-ratio quotients are all ones with Fibonacci denominators; "
                "every convergent of the r=2 angle has Legendre quality")


def test_criterion_12_scan_determinism():
    # the child imports binsum from this checkout's src/, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the rectangle runs in-process at every parallelism; the exact ratio-3
    # pairs are heavy enough to start the worker pool, whose module a fresh
    # process loads only then
    scans = {
        ("--l2", "1..60", "--all-l1-up-to", "120"): ("1", "8"),
        ("--l2", "2000..2009", "--ratio", "3"): ("1", "8"),
        ("--l2", "2000..2039", "--ratio", "3"): ("1", "2"),
    }
    outputs = {}
    for scan, parallelisms in scans.items():
        for parallelism in parallelisms:
            proc = subprocess.run(
                [sys.executable, "-m", "binsum", "--parallelism", parallelism, "scan", *scan],
                capture_output=True,
                env=env,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs[scan, parallelism] = proc.stdout
        assert outputs[scan, "1"] == outputs[scan, parallelisms[1]]
    rectangle, ten, forty = scans
    assert len(outputs[rectangle, "1"].splitlines()) == sum(max(0, 120 - l2) for l2 in range(1, 61))
    assert len(outputs[ten, "1"].splitlines()) == 10
    assert len(outputs[forty, "1"].splitlines()) == 40
    _report(12, "byte-identical jsonl from the same scans at parallelism 1 and at 2 or 8, in-process and pooled")
