"""Correctness checks of the benchmark's outputs.

Every checked operation goes through `Tally.op`; `failed / attempted` is the
run's error share.  The expectations are written out here, independently of
the program: the pinned scan row keys and certificate names, the pairs each
scan rule must emit, and the exact identities that the polynomial families
satisfy.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

PINNED_KEYS = ("lambda1", "lambda2", "class", "certificate", "margin", "exact_sign", "usec")
KINDS = (
    "nonzero_exact",
    "nonzero_term_growth",
    "nonzero_supercritical",
    "nonzero_oscillatory",
    "nonzero_interval",
    "zero_exact",
    "inconclusive",
    "refused",
)
MARGIN_KINDS = frozenset({"nonzero_oscillatory", "nonzero_supercritical"})
WINDOW_MIN_DIFFERENCE = 702
MAX_NOTES = 20


class Tally:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(what)
        return ok

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def row_problem(row) -> str | None:
    if not isinstance(row, dict) or set(row) != set(PINNED_KEYS):
        return f"keys {sorted(row) if isinstance(row, dict) else row!r} are not the pinned set"
    l1, l2, kind = row["lambda1"], row["lambda2"], row["certificate"]
    if not all(isinstance(row[k], int) for k in ("lambda1", "lambda2", "class", "usec")):
        return "non-integer lambda1, lambda2, class or usec"
    if kind not in KINDS:
        return f"unknown certificate {kind!r}"
    if row["class"] != (l1 + l2) % 4:
        return "class is not (lambda1 + lambda2) mod 4"
    if row["usec"] != 0:
        return "usec is nonzero without --timings"
    if l1 > l2 >= 1 and kind in ("zero_exact", "refused"):
        return f"{kind} for lambda1 > lambda2 >= 1"
    if kind in MARGIN_KINDS and not (isinstance(row["margin"], float) and row["margin"] > 0):
        return f"{kind} with margin {row['margin']!r}"
    if kind == "nonzero_exact" and row["exact_sign"] not in (1, -1):
        return f"nonzero_exact with exact_sign {row['exact_sign']!r}"
    return None


def check_scan(expected_pairs: list[tuple[int, int]], rc, text, tally: Tally, label: str) -> list[dict]:
    """Check one scan's jsonl output row by row; return the rows that parsed."""
    rows = []
    for n, line in enumerate(text.splitlines()):
        try:
            row = json.loads(line)
        except ValueError:
            tally.op(False, f"{label}: row {n} is not JSON")
            continue
        problem = row_problem(row)
        if tally.op(problem is None, f"{label}: row {n}: {problem}"):
            rows.append(row)
    got = [(r["lambda1"], r["lambda2"]) for r in rows]
    got_set, expected_set = set(got), set(expected_pairs)
    for pair in sorted(expected_set - got_set):
        tally.op(False, f"{label}: pair {pair} missing")
    for pair in sorted(got_set - expected_set):
        tally.op(False, f"{label}: pair {pair} not generated by the rule")
    tally.op(got == [p for p in expected_pairs if p in got_set], f"{label}: rows out of (lambda2, lambda1) order")
    inconclusive = any(r["certificate"] == "inconclusive" for r in rows)
    tally.op(rc == (3 if inconclusive else 0), f"{label}: exit code {rc!r}")
    return rows


def check_exact_routes(rows: list[dict], eval_direct, eval_reduced, pair_type, tally: Tally) -> None:
    """For each nonzero_exact row, both summation routes agree with its sign."""
    for r in rows:
        if r["certificate"] != "nonzero_exact":
            continue
        pair = pair_type(r["lambda1"], r["lambda2"])
        direct = eval_direct(pair).value
        reduced = eval_reduced(pair).value
        sign = (direct > 0) - (direct < 0)
        tally.op(direct == reduced and sign == r["exact_sign"], f"routes disagree at {(r['lambda1'], r['lambda2'])}")


def parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_validate(lemma: str, grid: str, rc, text, tally: Tally) -> None:
    n_r, n_t = (int(v) for v in grid.split("x"))
    out = parse_json(text)
    ok = (
        rc == 0
        and isinstance(out, dict)
        and out.get("lemma") == lemma
        and out.get("passed") is True
        and out.get("points") == n_r * n_t
    )
    tally.op(ok, f"validate {lemma} {grid}: rc {rc!r}, output {text.strip()[:120]!r}")


def _poly_value(out: dict, x: int) -> Fraction:
    acc = 0
    for c in reversed(out["coefficients"]):
        acc = acc * x + int(c)
    return Fraction(acc, int(out["scale"]))


def _poly_output(rc, text, family: str, params: dict, max_root: int, what: str, tally: Tally) -> dict | None:
    out = parse_json(text)
    ok = (
        rc == 0
        and isinstance(out, dict)
        and out.get("family") == family
        and out.get("params") == params
        and isinstance(out.get("roots"), list)
        and all(int(x) <= max_root for x in out["roots"])
    )
    return out if tally.op(ok, f"{what}: rc {rc!r}, output {text.strip()[:120]!r}") else None


def check_c_poly(l2: int, rc, text, eval_direct, pair_type, tally: Tally) -> None:
    """No integer root above lambda2, and P(x)/scale = S(x, lambda2) at two points."""
    out = _poly_output(rc, text, "c", {"lambda2": l2}, l2, f"poly --c {l2}", tally)
    if out is not None:
        for x in (l2 + 1, 2 * l2 + 3):
            tally.op(_poly_value(out, x) == eval_direct(pair_type(x, l2)).value, f"poly --c {l2} wrong at {x}")


def check_tilde_poly(l: int, eps1: int, eps2: int, rc, text, eval_direct, pair_type, tally: Tally) -> None:
    """No integer root >= 1, and S(l1, l2) = prefactor * P(k)/scale at two points.

    With l2 = 2k + eps1 and l1 = l2 + 2l + eps2 the prefactor is
    l2! (-1)**ceil(l2/2) / (floor(l1/2)! floor(l2/2)!).
    """
    what = f"poly --tilde {l} {eps1} {eps2}"
    out = _poly_output(rc, text, "tilde", {"l": l, "eps1": eps1, "eps2": eps2}, 0, what, tally)
    if out is None:
        return
    for k in (1, 5):
        l2 = 2 * k + eps1
        l1 = l2 + 2 * l + eps2
        sign = -1 if ((l2 + 1) // 2) % 2 else 1
        prefactor = Fraction(sign * math.factorial(l2), math.factorial(l1 // 2) * math.factorial(l2 // 2))
        tally.op(prefactor * _poly_value(out, k) == eval_direct(pair_type(l1, l2)).value, f"{what} wrong at k = {k}")


def check_intervals(l2: int, rc, text, tally: Tally) -> None:
    """Every class has a window-table window, each at difference >= 702."""
    rows = [parse_json(line) for line in text.splitlines()]
    table = [w for w in rows if isinstance(w, dict) and w.get("basis") == "window-table"]
    ok = (
        rc == 0
        and all(isinstance(w, dict) for w in rows)
        and {w["class"] for w in table} == {0, 1, 2, 3}
        and all(l2 + WINDOW_MIN_DIFFERENCE <= w["lambda1_lo"] <= w["lambda1_hi"] for w in table)
    )
    tally.op(ok, f"intervals {l2}: rc {rc!r}")


def check_window_sample(sample: tuple[int, ...], value, tally: Tally) -> None:
    """The sampled pair lies in its window and class and evaluates nonzero."""
    l1, l2, cls, lo, hi = sample
    ok = lo <= l1 <= hi and (l1 + l2) % 4 == cls and isinstance(value, int) and value != 0
    tally.op(ok, f"window sample {(l1, l2)} in class {cls} [{lo}, {hi}]: value nonzero? {value != 0}")
