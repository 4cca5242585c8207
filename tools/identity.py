"""Byte-identity harness: one hash per command of a fixed binsum command set.

    python3 tools/identity.py > identity.txt

Run it from anywhere; it imports binsum from `src/` of the checkout it sits
in and the benchmark's scans from `perfbench/workloads.py` there.  Every
command runs in-process through `binsum.cli.main`, and one line per command
is printed:

    sha256(stdout) exit-code argv

Diff the files of two checkouts to see which commands changed their output
bytes or their exit code.  Every scan runs at --parallelism 1 and 2; the
harness exits 1 and names the first scan whose hash or exit code at 2
differs from its twin at 1.  Failing that, it exits 1 and names the first
--format jsonl command with a line of stdout that is not strict JSON: one
that `json.loads` rejects, or reads only by taking NaN, Infinity or
-Infinity.  The set covers:

* every scan of the scan-exact, scan-exact-par2 and scan-lines workloads,
  seeds 1-3, in jsonl, csv and human, at --parallelism 1 and 2;
* scans whose budget or gaps cut rows part-way through the row walk, and
  supercritical cascade scans across the lambda2 where the supercritical
  bound stops evaluating its exponential tail, and a scan heavy enough to
  start the worker pool at --parallelism 2 (one of them a difference line at
  --budget 0), in the same formats and at the same parallelism;
* cascade scans where `oscillation_cosine` raises its precision, ratio-3
  and difference lines at --precision 53 and 200, a difference line across
  a step of the class-2 window floor, and an all-up-to scan whose rows
  repeat each difference from 702 to 1,612, in the same formats and at the
  same parallelism;
* difference lines at --budget 0 across an upper and a lower window-clause
  end of each congruence class, a near-diagonal row edge, the flat edge and
  the lambda2 where row 8 beats the flat bound, at lambda2 near 2*10**4,
  10**5, 10**9 and 2**80, at --precision 53 and 200, in the same formats
  and at the same parallelism;
* difference lines at --budget 0 near lambda2 = 10**5 whose pairs reach
  the near-diagonal step in every congruence class, in both windows of
  `cos_lower_bound` and with both outcomes (decided, and inconclusive), and
  one difference line past lambda2 = 2**1000, where edge 0 of the
  near-diagonal bound is computed per pair, at --precision 53 and 200, in
  the same formats and at the same parallelism;
* ratio lines at --budget 0 through the supercritical and oscillatory
  steps: ratios 6, 2, 3, 7/3, 35/6 and 5/2 at lambda2 near 10**5 and near
  2**40, and ratio 6 from lambda2 = 1 across the lambda2 where the
  supercritical bound stops evaluating its exponential tail, at
  --precision 53 and 256, in the same formats and at the same parallelism;
* `plotdata` of the ratio-6 line at --precision 53 and `predict` of one
  ratio-6 pair at --precision 256, after the ratio-6 scans at those
  precisions, so that in this one process they read the constants of the
  line that those scans leave cached, in every format;
* `certify` (with and without --delta) and `predict` at pairs that each
  cascade stage decides, at an exact pair and at refused pairs, with
  --budget 0 and --precision 53 and 200;
* `certify --budget 0` of single pairs of the scan-lines shapes, and of
  pairs that take the near-diagonal step into each branch of
  `cos_lower_bound`, at --precision 53 and 200, in jsonl, csv and human;
* `predict` on the ratio-6 line on both sides of that tail cutoff, at
  --precision 53, 128 and 200, and just below and above the validity
  threshold of the oscillatory bound, in jsonl and human;
* `intervals`, `poly`, `exceptions` and `plotdata` in every format, and
  `intervals` past the lambda2 where the floor of clause class2-a leaves
  702, at the default precision and at --precision 53;
* `poly` root searches, in jsonl: the c rows 36-43 and the tilde families
  l = 36-43 in every parity, as the proof-check workload draws them, at
  --roots 10**9; row 43, whose root 43 sits at the edge of the search
  bound, at --roots 0, 42 and 43; and the tilde families (100, 0, 1) and
  (350, 0, 1), of differences 201 and 701, at --roots 10**9;
* `exceptions` whose continued fraction truncates (ratio 2 at depth 60 and
  200, and ratio 1457/250 just below 3 + 2*sqrt(2)), at the default
  precision and at --precision 53;
* `exceptions` refusals (x below 1, infinite and not a number; ratios
  1/2, 1 and 1/0; depth 0) and edges (x = 1, depth 1, and ratios 6 and 2
  at --precision 53 and 200), in jsonl, and refused in csv and human;
* scans whose every pair builds a cold one-pair `RatioLine`: a difference
  line outside the near-diagonal gate and past the oscillatory reach, a
  difference line whose oscillatory step fails before the window step
  decides, and the lambda1 list of the ratios 3/2, 2, 3 and 6 on one
  lambda2; and `predict` of one subcritical and one supercritical pair; each
  at --precision 53, 128 and 200, in jsonl, csv and human;
* pairs next to 3 + 2*sqrt(2), where the saddle constants are computed
  from ratios that tend to the threshold: one 61-digit ratio just above it
  at lambda2 = 10**80, at --precision 53 and 128; a 33-digit ratio above it
  at lambda2 near 10**100; and `certify` and `predict` of a 31-digit ratio
  below it, past its oscillatory reach; in jsonl, csv and human;
* values past the double range: `predict` at lambda2 = 10**309, whose log
  normalizer is about -10**309, in jsonl and human, and `exceptions` of a
  ratio within about 10**-112 below 3 + 2*sqrt(2), whose main term is about
  4*10**310, in jsonl;
* `predict` and `plotdata` of difference 800 across lambda2 = 800**2/(8*pi)
  ~ 25,465, where `predict` switches from the oscillatory bound to the
  near-diagonal bound, `predict` in jsonl and human and `plotdata` in every
  format;
* `validate` for every lemma at two grids, and on the 4x5 grid also at
  --precision 53 and 200, in jsonl and human, and at the other two grid
  shapes of the proof-check workload, 9x9 and 10x8, in jsonl; and for
  every lemma at the default 50x50 grid, in jsonl, and on the 9x9 grid at
  --precision 53 and 400, in jsonl and human;
* scans whose rule yields its last pair far inside a long lambda2 range,
  and a ratio with a denominator whose range starts off a multiple of it,
  in the same formats and at the same parallelism;
* scans that `binsum` must refuse before printing anything, with exit
  code 2: an empty lambda2 range, rules that yield no pair on a range (one
  of them of 20,000 lambda2), and --parallelism 0, in jsonl, csv and human,
  and all but the last also at --parallelism 2;
* `eval` of three pairs on every route; on the auto and reduced routes, of
  two pairs where the reduced route cancels its first term against its
  denominator and one where it divides by it; and one diagonal pair past
  the math.comb crossover.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("jsonl", "csv", "human")
SEEDS = (1, 2, 3)
SCAN_WORKLOADS = ("scan-exact", "scan-exact-par2", "scan-lines")
LEMMAS = (
    "super-g-decay",
    "super-g-strict",
    "super-g-quartic",
    "super-h-cubic",
    "sub-f-cubic",
    "sub-g-decay",
    "near1-f-cubic",
    "near1-g-decay",
)
ROUTES = ("auto", "direct", "reduced", "row", "diagonal")
# term growth, supercritical, refined supercritical (with --delta),
# oscillatory, window, near-diagonal, exact, and three refusals
CERTIFY_PAIRS = (
    (100, 3),
    (600000, 100000),
    (300, 50),
    (20000, 10000),
    (1000702, 1000000),
    (1003362, 1000000),
    (300, 100),
    (4, 4),
    (7, 0),
    (3, 5),
)
# budgets 10 and 7 stop each row's walk inside one word of lambda1, budget 60
# at lambda1 = 65 or 129; the first list leaves gaps after 72 and 78, the
# second repeats 9 and leaves gaps below it;
# budget 100 stops the rows with lambda2 <= 25 beyond lambda1 = 3 * lambda2
# (at 129 or 193), where the cost counts direct terms, and the others inside
# the reduced route
WALK_SCANS = (
    ("--budget", "10", "scan", "--l2", "1..30", "--all-l1-up-to", "150"),
    ("--budget", "60", "scan", "--l2", "1..30", "--all-l1-up-to", "150"),
    ("--budget", "7", "scan", "--l2", "60..80", "--l1-list", "70,71,72,75,76,77,78,90"),
    ("scan", "--l2", "1..8", "--l1-list", "9,6,9,2"),
    ("--budget", "100", "scan", "--l2", "1..40", "--all-l1-up-to", "200"),
    # every pair goes to the cascade: term growth, then inconclusive up to
    # where the supercritical bound falls below 1, then supercritical; the
    # bound's exponential tail drops out from lambda2 = 91 (ratio 6) and 38
    # (ratio 13) at the default precision
    ("--budget", "0", "scan", "--l2", "1..400", "--ratio", "6"),
    ("--budget", "0", "scan", "--l2", "1..200", "--ratio", "13"),
)
# rules whose last pair lies far inside the range (lambda2 = 59 and 49 of
# 20,000), and ratio 7/5 from lambda2 = 3, two short of its first multiple of 5
RULE_END_SCANS = (
    ("scan", "--l2", "1..20000", "--all-l1-up-to", "60"),
    ("scan", "--l2", "1..20000", "--l1-list", "9,6,9,2,50"),
    ("scan", "--l2", "3..400", "--ratio", "7/5"),
)
# scans whose estimated work starts the pool at --parallelism 2
# (`certifier.POOL_MIN_WORK`): ten exact ratio-3 pairs, and a difference line
# of 27,000 cascade pairs whose last ~3,000 run in the pool
POOL_SCANS = (
    ("scan", "--l2", "2000..2009", "--ratio", "3"),
    ("--budget", "0", "scan", "--l2", "100000..126999", "--diff", "800"),
)
# cascade scans on the raw-tuple paths of the bounds, the cosine and the
# window edges: lambda1 crosses 2**17 on the ratio-2 line, where
# `oscillation_cosine` raises its precision; ratio-3 and difference lines
# (window and near-diagonal certificates) at --precision 53 and 200; and a
# difference line across lambda2 = 13533126865, where the floor of clause
# class2-a steps from 702 to 703; and a scan whose rows each pass every
# difference from 702 to 1,612 through the window and near-diagonal steps
CASCADE_SCANS = (
    ("scan", "--l2", "65535..65537", "--ratio", "2"),
    *(
        ("--precision", precision, "scan", "--l2", l2s, rule, value)
        for precision in ("53", "200")
        for l2s, rule, value in (("4000..4049", "--ratio", "3"), ("100000..100011", "--diff", "800"))
    ),
    ("scan", "--l2", "13533126862..13533126867", "--diff", "702"),
    ("--budget", "0", "scan", "--l2", "100000..100003", "--all-l1-up-to", "101700"),
)
# difference lines at --budget 0 whose lambda2 range crosses one edge of the
# window and near-diagonal steps, with pairs of both congruence classes of
# the line on either side: (d, first lambda2, last lambda2, edge crossed).
# A clause end m*sqrt(k*pi*l2) -+ c equals d at l2 = (d +- c)**2/(m**2*k*pi),
# a row edge sqrt(k*pi*l2) at d**2/(k*pi).  Row 8 beats the flat bound from
# l2 = 19577.1 on, and d = 702 crosses the flat edge sqrt(8*pi*l2) at
# 19608.05.  At 2**80 and --precision 53 the rounding of a clause end spans
# thousands of lambda2, so every pair of that line lies near the end.
DIFF_SCANS = (
    (702, 19574, 19612, "row 8 against the flat bound, then the flat edge"),
    (708, 19993, 20000, "class2-b upper end"),
    (709, 19998, 20005, "flat edge"),
    (792, 100092, 100099, "class0-a upper end"),
    (796, 100045, 100052, "class0-b lower end"),
    (969, 99826, 99833, "class1-a upper end"),
    (975, 100067, 100074, "class1-b lower end"),
    (1483, 100129, 100136, "class1-b upper end"),
    (1126, 100069, 100076, "class2-b lower end"),
    (1584, 99945, 99952, "class2-b upper end"),
    (1253, 100096, 100103, "class3-b upper end"),
    (1373, 100006, 100013, "row 6 edge, class 3"),
    (1585, 99955, 99962, "flat edge"),
    (79266, 1000012571, 1000012578, "class0-a upper end"),
    (79270, 1000007903, 1000007910, "class0-b lower end"),
    (97081, 1000014178, 1000014185, "class1-a upper end"),
    (97085, 999997134, 999997141, "class1-b lower end"),
    (79266, 1000010279, 1000010286, "class2-a upper end"),
    (112104, 999992537, 999992544, "class2-b lower end"),
    (56049, 1000010117, 1000010124, "class3-a upper end"),
    (56053, 1000017714, 1000017721, "class3-b lower end"),
    (137293, 999990019, 999990026, "row 6 edge, class 3"),
    (158533, 999998837, 999998844, "flat edge"),
    (2756066934468, 2**80 + 146130699869, 2**80 + 146130699876, "class0-a upper end"),
)
# difference lines at --budget 0 whose pairs reach the near-diagonal step:
# (d, first lambda2, last lambda2, what the step gives).  Near lambda2 = 10**5
# the window step decides every pair of class 0 or 3 that the near-diagonal
# step could, and class 3's first cosine window ends below d = 702, so the
# step decides pairs of classes 0 (second window), 1 (second) and 2 (both)
# only.  Past 2**1000 the oscillatory step decides the class-0 pairs of
# d = 702, and the class-2 pairs reach the near-diagonal step.
NEAR_DIAGONAL_SCANS = (
    (796, 100049, 100056, "decided: class 0 second window, class 2 first"),
    (971, 99288, 99295, "decided: class 1 second window"),
    (1126, 100119, 100126, "decided: class 2 second window"),
    (792, 100085, 100092, "inconclusive: class 0 first window"),
    (1598, 100391, 100398, "inconclusive: classes 0 and 2, second window"),
    (969, 99676, 99683, "inconclusive: class 1 first window"),
    (1585, 100951, 100958, "inconclusive: classes 1 and 3, second window"),
    (1122, 100226, 100233, "inconclusive: class 2 first window"),
    (702, 2**1001, 2**1001 + 7, "inconclusive: class 2 with edge 0 computed per pair"),
)
# ratio lines at --budget 0 whose pairs all reach the supercritical or the
# oscillatory step: (ratio, first lambda2, last lambda2).  Each range holds
# 24 lambda2, so 4 pairs of ratio 35/6 and 8 of ratio 7/3.  Ratio 6 from
# lambda2 = 1 crosses the lambda2 where the supercritical bound stops
# evaluating its exponential tail (50 at --precision 53, about 150 at 256).
RATIO_SCANS = (
    *((ratio, lo, lo + 23) for lo in (100000, 2**40 - 12) for ratio in ("6", "2", "3", "7/3", "35/6", "5/2")),
    ("6", 1, 400),
)
# public functions on the ratio-6 line at the precisions of its scans above
RATIO_READERS = (
    ("--precision", "53", "plotdata", "--l2", "1..60", "--ratio", "6"),
    ("--precision", "256", "predict", "600", "100"),
)
# (6 * lambda2, lambda2) around the tail cutoff, which lies at lambda2 = 50,
# 91 and 130 at --precision 53, 128 and 200
PREDICT_LAMBDA2S = (60, 90, 120)
# continued fractions of the oscillation angle that truncate before their
# depth (ratio 2 after 33 quotients at the default precision and 10 at
# --precision 53), and of ratio 1457/250 = 5.828, just below 3 + 2*sqrt(2),
# which runs to depth 30 at the default precision and truncates otherwise
EXCEPTION_TRUNCATIONS = (
    ("exceptions", "2", "1e6", "--depth", "60"),
    ("exceptions", "2", "1e6", "--depth", "200"),
    ("exceptions", "1457/250", "1e6", "--depth", "30"),
    ("exceptions", "1457/250", "1e6", "--depth", "60"),
)
# `exceptions` inputs that it must refuse with exit code 2 (x below 1,
# infinite or not a number; a ratio below 1, of 1, or with a zero
# denominator; depth 0), and the edges of its valid inputs
EXCEPTION_REFUSALS = (
    ("exceptions", "2", "0.5"),
    ("exceptions", "2", "inf"),
    ("exceptions", "2", "nan"),
    ("exceptions", "1/2", "1e6"),
    ("exceptions", "1", "1e6"),
    ("exceptions", "1/0", "1e6"),
    ("exceptions", "2", "1e6", "--depth", "0"),
)
EXCEPTION_EDGES = (
    ("exceptions", "2", "1"),
    ("exceptions", "2", "1e6", "--depth", "1"),
    *(("--precision", precision, "exceptions", ratio, "1e6") for ratio in ("6", "2") for precision in ("53", "200")),
)
# commands whose pairs each build a cold one-pair `RatioLine`: difference
# 3000 at lambda2 ~ 2*10**5 lies outside the near-diagonal gate and past the
# reach, so the oscillatory step decides its class-0 and class-2 pairs and
# leaves the others inconclusive; at difference 1500 near lambda2 = 130400
# the oscillatory step fails and the window step decides; the lambda1 list
# gives the ratios 3/2, 2, 3 and 6; and `predict` of a subcritical and a
# supercritical pair.  Each runs at --precision 53, 128 and 200
SADDLE_COMMANDS = (
    ("--budget", "0", "scan", "--l2", "200000..200039", "--diff", "3000"),
    ("--budget", "0", "scan", "--l2", "130400..130439", "--diff", "1500"),
    ("--budget", "0", "scan", "--l2", "40000..40000", "--l1-list", "60000,80000,120000,240000"),
    ("predict", "300007", "100001"),
    ("predict", "700003", "100001"),
)


def _sqrt2_convergent(digits: int, side: int) -> tuple[int, int]:
    """The first convergent p/q of sqrt(2) whose q has `digits` digits and
    p**2 - 2*q**2 = side, so p/q lies above sqrt(2) for side 1 and below it
    for -1.  At a = 3q + 2p and b = q, 6ab - a**2 - b**2 = -4*side: the
    ratio a/b lies just past 3 + 2*sqrt(2) for side 1 and short of it for -1."""
    p, q = 1, 1
    while len(str(q)) < digits or p * p - 2 * q * q != side:
        p, q = p + 2 * q, p + q
    return p, q


def near_threshold_commands() -> list[tuple[str, ...]]:
    """Commands on pairs next to 3 + 2*sqrt(2).  lambda1/lambda2 =
    (floor((3 + 2*sqrt(2))*10**60) + 1)/10**60 at lambda2 = 10**80, at
    --precision 53 and 128; the ratio of `_sqrt2_convergent(33, 1)` at the
    first multiple of its q past 10**100; and the ratio of
    `_sqrt2_convergent(31, -1)` at lambda2 = q*k for k = floor(10**4 *
    reach/q) + 1, with reach = `oscillatory_bound_reach` of its
    nd = 4/q**2, through `certify` and `predict`."""
    a = 3 * 10**60 + math.isqrt(8 * 10**120) + 1
    out = [("--precision", precision, "certify", str(a * 10**20), str(10**80)) for precision in ("53", "128")]
    p, q = _sqrt2_convergent(33, 1)
    k = 10**100 // q + 1
    out.append(("certify", str((3 * q + 2 * p) * k), str(q * k)))
    p, q = _sqrt2_convergent(31, -1)
    k = 10**4 * math.isqrt(16336**4 * q**22 // 4**11) // q + 1
    out.extend((command, str((3 * q + 2 * p) * k), str(q * k)) for command in ("certify", "predict"))
    return out


def overflow_commands() -> list[list[str]]:
    """Commands that print a value past the double range: `predict` of
    (2*10**309 + 1, 10**309), in jsonl and human, and `exceptions` up to
    x = 10**6 of the ratio (3q + 2p)/q of `_sqrt2_convergent(56, -1)`, whose
    nd = 4/q**2 puts its coefficient near 2.8*10**306, in jsonl."""
    predict = ["predict", str(2 * 10**309 + 1), str(10**309)]
    p, q = _sqrt2_convergent(56, -1)
    out = [["--format", fmt, *predict] for fmt in ("jsonl", "human")]
    out.append(["--format", "jsonl", "exceptions", f"{3 * q + 2 * p}/{q}", "1e6"])
    return out


# difference 800 enters the flat window sqrt(8*pi*lambda2) at lambda2 =
# 25465: below it `predict` takes the oscillatory bound, from it on the
# near-diagonal bound of row 8
NEAR_DIAGONAL_SWITCH_PAIRS = ((26263, 25463), (26264, 25464), (26265, 25465), (26266, 25466))
NEAR_DIAGONAL_SWITCH_PLOT = ("plotdata", "--l2", "25460..25470", "--diff", "800")
# pairs just below and just above the validity threshold of the oscillatory
# bound: 44.23 at r = 4 and 29.39 at r = 3
THRESHOLD_PAIRS = ((176, 44), (180, 45), (87, 29), (90, 30))
# the reduced route cancels at the first two (a proof-check window sample at
# lambda2 ~ 1e5, and a mid-size pair) and divides by Q at the wide third
CANCEL_PAIRS = ((101045, 100018), (20001, 19000), (12000, 6000))
# single pairs of the scan-lines shapes: ratio 6 at lambda2 ~ 1e5, ratio 2
# there (decided, and inconclusive), ratio 3 at lambda2 ~ 5000 (decided, and
# inconclusive), and difference 834 at lambda2 = 1e5, which the near-diagonal
# step decides after the window step fails
LINE_PAIRS = ((600006, 100001), (200140, 100070), (200150, 100075), (15009, 5003), (15000, 5000), (100834, 100000))
# pairs that reach the near-diagonal step, one in the first and one in the
# second window of `cos_lower_bound` for each congruence class 0-3 in turn;
# only (100794, 100000) is decided there
COSINE_PAIRS = (
    (100792, 100000),
    (161736, 160000),
    (101010, 100039),
    (101492, 100009),
    (100794, 100000),
    (161422, 160000),
    (160718, 160009),
    (101254, 100001),
)
# scans refused before any output: an empty lambda2 range, rules that
# yield no pair on their range (a difference below 1, a ratio below 1, and
# lambda1 values that all end before the range starts), and a worker count
# below 1, which comes last
ERROR_SCANS = (
    ("scan", "--l2", "5..4", "--ratio", "2"),
    ("scan", "--l2", "1..3", "--l1-list", "1"),
    ("scan", "--l2", "1..20000", "--diff", "0"),
    ("scan", "--l2", "1..20000", "--ratio", "1/2"),
    ("scan", "--l2", "50..20000", "--all-l1-up-to", "40"),
    ("--parallelism", "0", "scan", "--l2", "1..3", "--diff", "1"),
)
CERTIFY_OPTIONS = (
    (),
    ("--budget", "0"),
    ("--budget", "0", "--precision", "53"),
    ("--budget", "0", "--precision", "200"),
)


def _workloads():
    """perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def commands() -> list[list[str]]:
    """The argv of every command, each once, in a fixed order."""
    workloads = _workloads()
    out = []
    for name in SCAN_WORKLOADS:
        for seed in SEEDS:
            for scan in workloads.build(name, seed).scans:
                for parallelism in (1, 2):
                    out.extend(["--format", fmt, *scan.argv(parallelism)] for fmt in FORMATS)
    diff_scans = [
        ("--budget", "0", "--precision", precision, "scan", "--l2", f"{lo}..{hi}", "--diff", str(d))
        for d, lo, hi, _ in (*DIFF_SCANS, *NEAR_DIAGONAL_SCANS)
        for precision in ("53", "200")
    ]
    ratio_scans = [
        ("--budget", "0", "--precision", precision, "scan", "--l2", f"{lo}..{hi}", "--ratio", ratio)
        for ratio, lo, hi in RATIO_SCANS
        for precision in ("53", "256")
    ]
    for scan in (*WALK_SCANS, *RULE_END_SCANS, *POOL_SCANS, *CASCADE_SCANS, *diff_scans, *ratio_scans):
        for flags in ((), ("--parallelism", "2")):
            out.extend(["--format", fmt, *flags, *scan] for fmt in FORMATS)
    for argv in RATIO_READERS:
        out.extend(["--format", fmt, *argv] for fmt in FORMATS)
    for scan in ERROR_SCANS[:-1]:
        for flags in ((), ("--parallelism", "2")):
            out.extend(["--format", fmt, *flags, *scan] for fmt in FORMATS)
    out.extend(["--format", fmt, *ERROR_SCANS[-1]] for fmt in FORMATS)
    for l1, l2 in CERTIFY_PAIRS:
        for options in CERTIFY_OPTIONS:
            for fmt in FORMATS:
                flags = ["--format", fmt, *options]
                out.append([*flags, "certify", str(l1), str(l2)])
                out.append([*flags, "certify", str(l1), str(l2), "--delta", "1.0"])
                out.append([*flags, "predict", str(l1), str(l2)])
    for l1, l2 in (*LINE_PAIRS, *COSINE_PAIRS):
        for precision in ("53", "200"):
            argv = ["--budget", "0", "--precision", precision, "certify", str(l1), str(l2)]
            out.extend(["--format", fmt, *argv] for fmt in FORMATS)
    for l2 in PREDICT_LAMBDA2S:
        for options in ((), ("--precision", "53"), ("--precision", "200")):
            out.extend(["--format", fmt, *options, "predict", str(6 * l2), str(l2)] for fmt in ("jsonl", "human"))
    for l1, l2 in THRESHOLD_PAIRS:
        out.extend(["--format", fmt, "predict", str(l1), str(l2)] for fmt in ("jsonl", "human"))
    tails = [
        ["intervals", "702"],
        ["intervals", "100000"],
        ["intervals", "1000003"],
        ["poly", "--c", "3"],
        ["poly", "--c", "38", "--roots", "1000000000"],
        ["poly", "--tilde", "1", "0", "1"],
        ["poly", "--tilde", "36", "1", "0", "--roots", "1000000000"],
        ["exceptions", "2", "1000000", "--depth", "8"],
        ["exceptions", "3/2", "1e6"],
        ["exceptions", "6", "100"],
        ["plotdata", "--l2", "20..40", "--ratio", "3"],
        ["plotdata", "--l2", "700..720", "--diff", "3"],
    ]
    for lemma in LEMMAS:
        for grid in ("4x5", "8x10"):
            tails.append(["validate", "--lemma", lemma, "--grid", grid])
    for tail in tails:
        out.extend(["--format", fmt, *tail] for fmt in FORMATS)
    roots = ["--roots", "1000000000"]
    polys = [["--c", str(n), *roots] for n in range(36, 44)]
    polys += [["--tilde", str(l), e1, e2, *roots] for l in range(36, 44) for e1 in "01" for e2 in "01"]
    polys += [["--c", "43", "--roots", bound] for bound in ("0", "42", "43")]
    polys += [["--tilde", l, "0", "1", *roots] for l in ("100", "350")]
    # two of them are tails, which run them in every format already
    out.extend(["--format", "jsonl", "poly", *argv] for argv in polys if ["poly", *argv] not in tails)
    # the window table past lambda2 = CLASS2_FLOOR_702, where the floor of
    # clause class2-a is an `mpf_pow` of lambda2: at that lambda2 (floor
    # 702), at the first floor of 703, and past 2**1000
    for l2 in (13533126790, 13533126865, 2**1001 + 5):
        for options in ((), ("--precision", "53")):
            out.extend(["--format", fmt, *options, "intervals", str(l2)] for fmt in FORMATS)
    for tail in EXCEPTION_TRUNCATIONS:
        for options in ((), ("--precision", "53")):
            out.append(["--format", "jsonl", *options, *tail])
    for tail in (*EXCEPTION_REFUSALS, *EXCEPTION_EDGES):
        out.extend(["--format", fmt, *tail] for fmt in FORMATS)
    for argv in SADDLE_COMMANDS:
        for precision in ("53", "128", "200"):
            out.extend(["--format", fmt, "--precision", precision, *argv] for fmt in FORMATS)
    for argv in near_threshold_commands():
        out.extend(["--format", fmt, *argv] for fmt in FORMATS)
    out.extend(overflow_commands())
    for l1, l2 in NEAR_DIAGONAL_SWITCH_PAIRS:
        out.extend(["--format", fmt, "predict", str(l1), str(l2)] for fmt in ("jsonl", "human"))
    out.extend(["--format", fmt, *NEAR_DIAGONAL_SWITCH_PLOT] for fmt in FORMATS)
    # the 4x5 grid puts a point at the centre of the super and near1 lemmas,
    # where the margin is 0 or rounding noise at the working precision
    for lemma in LEMMAS:
        for precision in ("53", "200"):
            argv = ["--precision", precision, "validate", "--lemma", lemma, "--grid", "4x5"]
            out.extend(["--format", fmt, *argv] for fmt in ("jsonl", "human"))
        out.extend(["--format", "jsonl", "validate", "--lemma", lemma, "--grid", grid] for grid in ("9x9", "10x8"))
        out.append(["--format", "jsonl", "validate", "--lemma", lemma])
        for precision in ("53", "400"):
            argv = ["--precision", precision, "validate", "--lemma", lemma, "--grid", "9x9"]
            out.extend(["--format", fmt, *argv] for fmt in ("jsonl", "human"))
    for l1, l2 in ((40, 17), (300, 100), (31, 31)):
        out.extend(["eval", str(l1), str(l2), "--route", route] for route in ROUTES)
    for l1, l2 in CANCEL_PAIRS:
        out.extend(["eval", str(l1), str(l2), "--route", route] for route in ("auto", "reduced"))
    out.append(["eval", "5000", "5000", "--route", "diagonal"])
    # two workloads may draw the same rectangle; run it once
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def output(argv: list[str]) -> tuple[str, object]:
    """The stdout of `binsum argv` and its exit code; stderr is dropped."""
    from binsum import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    return out.getvalue(), code


def run(argv: list[str]) -> tuple[str, object]:
    """sha256 of the stdout of `binsum argv` and its exit code."""
    text, code = output(argv)
    return hashlib.sha256(text.encode()).hexdigest(), code


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def strict_json(text: str) -> bool:
    """Whether every line of text is JSON that `json.loads` reads without
    taking NaN, Infinity or -Infinity."""
    try:
        for line in text.splitlines():
            json.loads(line, parse_constant=_reject_constant)
    except ValueError:
        return False
    return True


def jsonl(argv: list[str]) -> bool:
    """Whether argv asks for --format jsonl."""
    return "--format" in argv and argv[argv.index("--format") + 1] == "jsonl"


def serial_twin(argv: list[str]) -> list[str] | None:
    """`argv` without its --parallelism 2, or None when it has none."""
    if "--parallelism" not in argv:
        return None
    i = argv.index("--parallelism")
    if argv[i + 1] != "2":
        return None
    return argv[:i] + argv[i + 2 :]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    results, loose = {}, None
    for argv in commands():
        text, code = output(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        results[tuple(argv)] = digest, code
        print(f"{digest} {code} {shlex.join(argv)}", flush=True)
        if loose is None and jsonl(argv) and not strict_json(text):
            loose = argv
    for argv, result in results.items():
        twin = serial_twin(list(argv))
        if twin is not None and results.get(tuple(twin)) != result:
            print(f"error: {shlex.join(argv)} differs from {shlex.join(twin)}", file=sys.stderr)
            return 1
    if loose is not None:
        print(f"error: {shlex.join(loose)} prints a line that is not strict JSON", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
