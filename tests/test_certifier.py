from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from binsum.certifier import (
    AllUpToRule,
    CertificateKind,
    DiffRule,
    ListRule,
    RatioRule,
    certify,
    certify_by_term_growth,
    continued_fraction,
    difference_windows,
    exception_count_bound,
    scan_range,
)
from binsum.exact import PartitionPair, evaluate


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


def test_term_growth_soundness_window():
    # just beyond the growth threshold the exact values are indeed nonzero
    from binsum.exact import signed_terms

    for l2 in range(1, 31):
        threshold = l2 * (l2 + 1) - 1
        for l1 in range(threshold + 1, threshold + 21):
            pair = PartitionPair(l1, l2)
            assert certify_by_term_growth(pair)
            assert evaluate(pair).value != 0
            magnitudes = [abs(t) for t in signed_terms(pair)][1:]
            assert all(a < b for a, b in zip(magnitudes, magnitudes[1:]))


def test_small_difference_is_inconclusive_without_budget():
    cert = certify(PartitionPair(721, 720), budget=0)
    assert cert.kind is CertificateKind.INCONCLUSIVE
    cert = certify(PartitionPair(721, 720))
    assert cert.kind is CertificateKind.NONZERO_EXACT


def test_scan_example_pairs_get_interval_certificates():
    report = scan_range((78656, 78660), DiffRule(703), budget=0)
    kinds = {e.certificate.kind for e in report.entries}
    assert kinds == {CertificateKind.NONZERO_INTERVAL}
    for entry in report.entries:
        assert evaluate(entry.pair).value != 0


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


def test_scan_counts_and_order():
    report = scan_range((1, 12), AllUpToRule(24), budget=10**9)
    assert sum(report.counts.values()) == len(report.entries)
    assert report.counts.get("nonzero_exact") == len(report.entries)
    keys = [(e.pair.lambda2, e.pair.lambda1) for e in report.entries]
    assert keys == sorted(keys)
    assert not report.inconclusive_pairs
    assert not report.zero_pairs


def test_scan_parallel_matches_serial():
    serial = scan_range((1, 25), AllUpToRule(40), budget=10**9, parallelism=1)
    parallel = scan_range((1, 25), AllUpToRule(40), budget=10**9, parallelism=2)
    assert list(serial.jsonl_lines()) == list(parallel.jsonl_lines())
    assert list(serial.csv_lines()) == list(parallel.csv_lines())


def test_scan_keeps_task_order_across_parallelism():
    # duplicates and unsorted values: the order comes from task generation
    rule = ListRule((9, 6, 9, 2))
    serial = scan_range((5, 7), rule, budget=10**9, parallelism=1)
    parallel = scan_range((5, 7), rule, budget=10**9, parallelism=2)
    assert serial.entries == parallel.entries
    assert [(e.pair.lambda2, e.pair.lambda1) for e in serial.entries] == [
        (5, 6),
        (5, 9),
        (5, 9),
        (6, 9),
        (6, 9),
        (7, 9),
        (7, 9),
    ]


def test_scan_rules():
    report = scan_range((1, 10), RatioRule(Fraction(7, 2)), budget=10**9)
    assert [(e.pair.lambda1, e.pair.lambda2) for e in report.entries] == [
        (7, 2),
        (14, 4),
        (21, 6),
        (28, 8),
        (35, 10),
    ]
    report = scan_range((5, 7), ListRule((9, 6, 2)), budget=10**9)
    assert [(e.pair.lambda1, e.pair.lambda2) for e in report.entries] == [
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
    kinds = {e.certificate.kind for e in report.entries}
    assert kinds == {CertificateKind.NONZERO_SUPERCRITICAL}
    assert len(report.entries) == 60


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
