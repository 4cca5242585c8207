"""Seeded inputs of the binsum benchmark.

Each workload turns a seed into the CLI arguments (and, for proof-check, the
sample positions) that one batch issues.  The seed moves bands, offsets and
differences, while the amount of work per batch is held nearly constant, so
that figures from different seeds are comparable:

* scan-exact keeps the pair count of its rectangle at about 14,950;
* scan-lines draws every slice from fixed strata of its range, so each seed
  mixes the same share of supercritical, oscillatory, window and budget-edge
  pairs;
* proof-check draws rows, grid shapes and window samples from narrow ranges
  whose cost hardly depends on the draw.

`toy=True` shrinks every workload to a few pairs for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("scan-exact", "scan-exact-par2", "scan-lines", "proof-check")

# the lemma ids as this benchmark was written; kept here, not read from
# binsum, so that a lemma added to the program does not change the workload
LEMMA_IDS = (
    "super-g-decay",
    "super-g-strict",
    "super-g-quartic",
    "super-h-cubic",
    "sub-f-cubic",
    "sub-g-decay",
    "near1-f-cubic",
    "near1-g-decay",
)
ROOT_BOUND = 10**9
SCAN_EXACT_PAIRS = 14950


@dataclass(frozen=True)
class Scan:
    """One `binsum scan` command; `slice` names the part of the workload."""

    slice: str
    l2_lo: int
    l2_hi: int
    rule: str  # "ratio", "diff" or "all-l1-up-to"
    value: int

    def argv(self, parallelism: int = 1) -> list[str]:
        flags = ["--parallelism", str(parallelism)] if parallelism != 1 else []
        return flags + ["scan", "--l2", f"{self.l2_lo}..{self.l2_hi}", f"--{self.rule}", str(self.value)]

    def pairs(self) -> list[tuple[int, int]]:
        """The (lambda1, lambda2) pairs the scan must emit, in emission order."""
        out = []
        for l2 in range(self.l2_lo, self.l2_hi + 1):
            if self.rule == "ratio":
                l1s = [self.value * l2]
            elif self.rule == "diff":
                l1s = [l2 + self.value]
            else:
                l1s = range(l2 + 1, self.value + 1)
            out.extend((l1, l2) for l1 in l1s if l1 > l2)
        return out


@dataclass(frozen=True)
class ProofBatch:
    """The verification commands of proof-check.

    `window_positions[i]` places the sampled pair of the i-th window-table
    window that `intervals intervals_l2` emits, as a fraction of its width.
    """

    lemmas: tuple[tuple[str, str], ...]  # (lemma id, grid "NRxNT")
    c_rows: tuple[int, ...]
    tilde: tuple[tuple[int, int, int], ...]  # (l, eps1, eps2)
    intervals_l2: int
    window_positions: tuple[float, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    setup_pair: tuple[int, int]
    scans: tuple[Scan, ...] = ()
    parallelism: int = 1
    proof: ProofBatch | None = None
    speed_exponent: float = 1.0  # see calibration.py


def _scan_exact(rng: random.Random, toy: bool) -> tuple[Scan, ...]:
    if toy:
        return (Scan("rectangle", 1, 12, "all-l1-up-to", 24),)
    b = rng.randint(97, 103)
    # the lambda1 bound that keeps the rectangle at about SCAN_EXACT_PAIRS pairs
    n = round((SCAN_EXACT_PAIRS + b * (b + 1) / 2) / b)
    return (Scan("rectangle", 1, b, "all-l1-up-to", n),)


def _scan_lines(rng: random.Random, toy: bool) -> tuple[Scan, ...]:
    def near_1e5() -> int:
        return rng.randint(99000, 101000)

    ratio6_len, ratio2_bands, ratio2_len = (20, 1, 10) if toy else (600, 4, 60)
    diff_count, diff_len = (3, 3) if toy else (13, 12)
    edge_bands, edge_len = (1, 10) if toy else (5, 50)
    scans = []
    lo = near_1e5()
    scans.append(Scan("ratio6", lo, lo + ratio6_len - 1, "ratio", 6))
    for _ in range(ratio2_bands):
        lo = near_1e5()
        scans.append(Scan("ratio2", lo, lo + ratio2_len - 1, "ratio", 2))
    # one difference per stratum of [702, 2000]
    width = 1299 // diff_count
    for i in range(diff_count):
        d = 702 + i * width + rng.randrange(width)
        lo = near_1e5()
        scans.append(Scan("diff", lo, lo + diff_len - 1, "diff", d))
    # the budget edge: one band per stratum of [4000, 6000)
    for i in range(edge_bands):
        lo = 4000 + 400 * i + rng.randrange(350)
        scans.append(Scan("ratio3-edge", lo, lo + edge_len - 1, "ratio", 3))
    return tuple(scans)


def _proof(rng: random.Random, toy: bool) -> ProofBatch:
    if toy:
        return ProofBatch((("sub-g-decay", "3x3"), ("super-g-decay", "3x3")), (8,), ((6, 1, 0),), 40000, (0.5,) * 16)
    lemmas = list(LEMMA_IDS)
    rng.shuffle(lemmas)
    n_r = rng.choice((8, 9, 10))
    grid = f"{n_r}x{round(80 / n_r)}"
    c0 = rng.randint(36, 40)
    t0 = rng.randint(36, 40)
    eps = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rng.shuffle(eps)
    return ProofBatch(
        lemmas=tuple((lemma, grid) for lemma in lemmas),
        c_rows=tuple(range(c0, c0 + 4)),
        tilde=tuple((t0 + i, e1, e2) for i, (e1, e2) in enumerate(eps)),
        intervals_l2=rng.randint(99500, 100500),
        window_positions=tuple(0.4 + 0.2 * rng.random() for _ in range(16)),
    )


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """The inputs of workload `name` for `seed`; the same seed gives the same inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    l2 = rng.randint(99000, 101000)
    setup_pair = (6 * l2, l2)
    if name == "scan-exact":
        return Workload(name, seed, setup_pair, scans=_scan_exact(rng, toy), speed_exponent=1.27)
    if name == "scan-exact-par2":
        return Workload(name, seed, setup_pair, scans=_scan_exact(rng, toy), parallelism=2)
    if name == "scan-lines":
        return Workload(name, seed, setup_pair, scans=_scan_lines(rng, toy))
    return Workload(name, seed, setup_pair, proof=_proof(rng, toy))
