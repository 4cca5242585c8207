"""Benchmark of binsum: scans, verification workflows and set-up time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports binsum from `src/` of that
checkout and exits with code 2, printing no result, when there is none.

A run builds its workload from the seed (see workloads.py), runs one
untimed batch as warm-up and reference, then repeats the batch for S
seconds in a closed loop: each command starts when the previous one
returns.  Scans and the verification commands go through `binsum.cli.main`
in-process with stdout captured; window samples and the correctness checks
call the library's public functions.  Every batch must reproduce the
reference output exactly, and the reference is checked in full by checks.py.

With --trace 0 the last line carries the end-to-end metrics.  Every time
in them is scaled to the nominal speed of calibration.py's kernel, which runs
before and after every batch; the raw medians go to the `detail` line.

  setup_s        median time of `python3 -m binsum certify L1 L2` in a fresh
                 interpreter (imports binsum, mpmath and numpy, then
                 certifies one pair), over SETUP_REPEATS processes started
                 after the batches, each scaled by the kernel around it;
  wall_s         median time of one batch;
  pairs_per_s    median over batches of pairs emitted per second of scan
                 time (scans), or window samples evaluated exactly per
                 second of evaluation time (proof-check);
  decided_share  pairs with a nonzero_* certificate over pairs scanned, or
                 nonzero window samples over samples (proof-check);
  peak_rss_mb    peak resident memory after the timed batches: of this
                 process, and at parallelism 2 of its largest worker too.

With --trace 1 the batches run in pairs of one untraced and one traced
batch (in turn untraced first and traced first), always at parallelism 1, at
least MIN_TRACE_PAIRS pairs, and the last line carries the per-layer metrics
of tracing.py (medians over the traced batches, times scaled as above) and
trace.overhead_share: the median over pairs of traced over untraced raw batch
time, minus 1.  The two batches of a pair run back to back, so the machine's
drift hardly enters the ratio; the calibration kernel would add its own noise.
The spans of the first traced batch are written to perfbench/out/.

The measuring process re-executes itself with PYTHONHASHSEED derived from the
seed: each run can be repeated exactly, and runs over several seeds sample
several string-hash layouts, which alone move batch times by several percent.

`attempted` counts checked operations (scan rows, route cross-checks,
commands, batch reproductions, set-up processes) and `failed` the ones that
failed a check or raised; failed / attempted is the error share.  A line
`detail {...}` before the result records the machine, the per-slice rates of
scan-lines and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 16
SETUP_TIMEOUT_S = 20
MIN_TRACE_PAIRS = 7


class ProgramMissing(RuntimeError):
    pass


def load_binsum() -> dict:
    """Import binsum from this checkout's src/ and return its modules by short name."""
    package_dir = ROOT / "src" / "binsum"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no binsum package under {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    modules = {"binsum": importlib.import_module("binsum")}
    if Path(modules["binsum"].__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"imported binsum from {modules['binsum'].__file__}, not from {package_dir}")
    for name in tracing.MODULES[1:]:
        modules[name] = importlib.import_module(f"binsum.{name}")
    return modules


def machine() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "numpy": numpy.__version__,
    }


@dataclass(frozen=True)
class Output:
    """What one operation of a batch returned; equality ignores how it was invoked."""

    kind: str
    args: tuple = field(compare=False)
    rc: int | None
    result: object
    seconds: float = field(compare=False)


def run_cli(cli, argv: list[str], kind: str) -> Output:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        result = buf.getvalue()
    except (Exception, SystemExit) as exc:  # a crash is a failed operation, not the end of the run
        rc, result = None, f"raised {type(exc).__name__}: {exc}"
    return Output(kind, tuple(argv), rc, result, time.perf_counter() - start)


def _window_samples(l2: int, text: str, positions) -> list[tuple[int, ...]]:
    """One pair per window-table window of an `intervals` output, in its class."""
    samples = []
    table = []
    for line in text.splitlines():
        with contextlib.suppress(ValueError):
            row = json.loads(line)
            if isinstance(row, dict) and row.get("basis") == "window-table":
                table.append(row)
    for u, w in zip(positions, table):
        lo, hi, cls = w["lambda1_lo"], w["lambda1_hi"], w["class"]
        l1 = lo + round(u * (hi - lo))
        l1 += (cls - l1 - l2) % 4
        if l1 > hi:
            l1 -= 4
        samples.append((l1, l2, cls, lo, hi))
    return samples


def run_batch(wl: workloads.Workload, mods: dict, parallelism: int) -> list[Output]:
    cli = mods["cli"]
    if wl.scans:
        return [run_cli(cli, scan.argv(parallelism), scan.slice) for scan in wl.scans]
    proof = wl.proof
    outs = [run_cli(cli, ["validate", "--lemma", lemma, "--grid", grid], "validate") for lemma, grid in proof.lemmas]
    root_bound = str(workloads.ROOT_BOUND)
    outs += [run_cli(cli, ["poly", "--c", str(l2), "--roots", root_bound], "poly-c") for l2 in proof.c_rows]
    outs += [
        run_cli(cli, ["poly", "--tilde", str(l), str(e1), str(e2), "--roots", root_bound], "poly-tilde")
        for l, e1, e2 in proof.tilde
    ]
    intervals = run_cli(cli, ["intervals", str(proof.intervals_l2)], "intervals")
    outs.append(intervals)
    exact = mods["exact"]
    for sample in _window_samples(proof.intervals_l2, str(intervals.result), proof.window_positions):
        start = time.perf_counter()
        try:
            value = exact.evaluate(exact.PartitionPair(sample[0], sample[1])).value
        except Exception as exc:  # counted as a failed operation by the checks
            value = f"raised {type(exc).__name__}: {exc}"
        outs.append(Output("eval", sample, None, value, time.perf_counter() - start))
    return outs


def check_reference(wl: workloads.Workload, outs: list[Output], mods: dict, tally: checks.Tally) -> float:
    """Check the reference batch in full; return its decided share."""
    exact = mods["exact"]
    pair = exact.PartitionPair
    if wl.scans:
        rows = []
        for scan, out in zip(wl.scans, outs):
            rows += checks.check_scan(scan.pairs(), out.rc, str(out.result), tally, " ".join(out.args))
        checks.check_exact_routes(rows, exact.eval_direct, exact.eval_reduced, pair, tally)
        decided = sum(r["certificate"].startswith("nonzero_") for r in rows)
        return decided / max(1, sum(len(scan.pairs()) for scan in wl.scans))
    proof = wl.proof
    it = iter(outs)
    for (lemma, grid), out in zip(proof.lemmas, it):
        checks.check_validate(lemma, grid, out.rc, str(out.result), tally)
    for l2, out in zip(proof.c_rows, it):
        checks.check_c_poly(l2, out.rc, str(out.result), exact.eval_direct, pair, tally)
    for (l, e1, e2), out in zip(proof.tilde, it):
        checks.check_tilde_poly(l, e1, e2, out.rc, str(out.result), exact.eval_direct, pair, tally)
    intervals = next(it)
    checks.check_intervals(proof.intervals_l2, intervals.rc, str(intervals.result), tally)
    samples = [out for out in it if out.kind == "eval"]
    tally.op(bool(samples), "no window samples")
    for out in samples:
        checks.check_window_sample(out.args, out.result, tally)
    return sum(isinstance(o.result, int) and o.result != 0 for o in samples) / max(1, len(samples))


@dataclass(frozen=True)
class BatchStat:
    """One batch: raw wall time, calibration scale, and per slice (pairs, raw seconds)."""

    wall: float
    scale: float
    slices: dict

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    def rate(self, names=None) -> float:
        """Pairs per scaled second over the named slices (all by default)."""
        parts = [self.slices[n] for n in names] if names else list(self.slices.values())
        return sum(n for n, _ in parts) / (sum(s for _, s in parts) * self.scale)


def batch_stat(wl: workloads.Workload, outs: list[Output], wall: float, scale: float) -> BatchStat:
    slices: dict = {}
    for out in outs:
        if wl.scans or out.kind == "eval":
            pairs, busy = slices.get(out.kind, (0, 0.0))
            n = str(out.result).count("\n") if wl.scans else 1
            slices[out.kind] = (pairs + n, busy + out.seconds)
    return BatchStat(wall, scale, slices)


def traced_batch(index: int) -> bool:
    """Whether batch `index` of a traced run is traced: pairs go untraced-traced,
    then traced-untraced, so a steady drift of the machine cancels out."""
    return index % 4 in (1, 2)


def timed_batches(wl, mods, parallelism, seconds, reference, tally, tracer=None) -> list[BatchStat]:
    """Repeat the batch for `seconds` (at least once); each must match the reference.

    The calibration kernel runs right before and after every batch.  With a
    tracer, the batches come in whole pairs, at least MIN_TRACE_PAIRS of them,
    and `traced_batch` picks the traced one of each; the tracer keeps their
    spans.
    """
    stats: list[BatchStat] = []
    deadline = time.perf_counter() + seconds
    min_batches = 2 * MIN_TRACE_PAIRS if tracer is not None else 1
    while len(stats) < min_batches or time.perf_counter() < deadline or (tracer is not None and len(stats) % 2):
        traced = tracer is not None and traced_batch(len(stats))
        gc.collect()
        kernel_before = calibration.measure()
        with tracer if traced else contextlib.nullcontext():
            start = time.perf_counter()
            outs = run_batch(wl, mods, parallelism)
            wall = time.perf_counter() - start
        kernel_after = calibration.measure()
        tally.op(outs == reference, f"batch {len(stats)} differs from the reference batch")
        stats.append(batch_stat(wl, outs, wall, calibration.scale(kernel_before, kernel_after, wl.speed_exponent)))
    return stats


def setup_probes(wl: workloads.Workload, tally: checks.Tally) -> list[tuple[float, float]]:
    """Time SETUP_REPEATS fresh `python3 -m binsum certify` processes.

    Returns (raw seconds, calibration scale) for each process that finished.
    The kernel runs between processes, so each is scaled by the machine speed
    right around it.  An untimed first process writes the bytecode caches.
    The processes keep random hash seeds, as a user's would.
    """
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "binsum", "certify", *map(str, wl.setup_pair)]

    def spawn() -> float | None:
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.op(False, f"setup {argv[-2:]}: no result within {SETUP_TIMEOUT_S} s")
            return None
        elapsed = time.perf_counter() - start
        row = checks.parse_json(proc.stdout)
        ok = proc.returncode == 0 and checks.row_problem(row) is None and row["certificate"].startswith("nonzero_")
        tally.op(ok, f"setup {argv[-2:]}: rc {proc.returncode}, {proc.stdout.strip()[:120]!r}")
        return elapsed

    spawn()
    probes = []
    kernel = calibration.measure()
    for _ in range(SETUP_REPEATS):
        elapsed = spawn()
        after = calibration.measure()
        if elapsed is not None:
            probes.append((elapsed, calibration.scale(kernel, after)))
        kernel = after
    return probes


def peak_rss_mb(parallelism: int) -> float:
    """Peak resident memory of this process and, with worker processes, of the
    largest of them.  Read it before the set-up probes: they are children too."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if parallelism > 1:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(wl: workloads.Workload, seconds: float, trace: bool, mods: dict):
    """Run one workload; return (result object for the last line, detail dict)."""
    tally = checks.Tally()
    detail: dict = {"workload": wl.name, "seed": wl.seed, "machine": machine()}
    gc.collect()
    reference = run_batch(wl, mods, 1)
    if not trace:
        batches = timed_batches(wl, mods, wl.parallelism, seconds, reference, tally)
        peak_mb = peak_rss_mb(wl.parallelism)
        setup = setup_probes(wl, tally)
        metrics = {
            "setup_s": metric(statistics.median(raw * scale for raw, scale in setup), "s"),
            "wall_s": metric(statistics.median(b.scaled_wall for b in batches), "s"),
            "pairs_per_s": metric(statistics.median(b.rate() for b in batches), "1/s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        detail["batches"] = len(batches)
        detail["raw"] = {
            "setup_s": statistics.median(raw for raw, _ in setup),
            "wall_s": statistics.median(b.wall for b in batches),
            "calibration_scale": statistics.median(b.scale for b in batches),
        }
        if wl.scans:
            detail["slices"] = {name: statistics.median(b.rate([name]) for b in batches) for name in batches[0].slices}
    else:
        tracer = tracing.Tracer(mods)
        batches = timed_batches(wl, mods, 1, seconds, reference, tally, tracer)
        traced = [b for i, b in enumerate(batches) if traced_batch(i)]
        scaled = [tracing.scaled(m, b.scale) for m, b in zip(tracer.batches, traced)]
        metrics = {name: metric(v, unit) for name, (v, unit) in tracing.median_metrics(scaled).items()}
        ratios = [
            (b.wall / a.wall if traced_batch(i + 1) else a.wall / b.wall)
            for i, a, b in zip(range(0, len(batches), 2), batches[0::2], batches[1::2])
        ]
        metrics["trace.overhead_share"] = metric(statistics.median(ratios) - 1, "share")
        detail["trace_pair_ratios"] = ratios
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
        tracer.write(spans_path)
        detail["batches"] = {"pairs": len(traced)}
        detail["spans"] = str(spans_path.relative_to(ROOT))
    decided_share = check_reference(wl, reference, mods, tally)
    if not trace:
        metrics["decided_share"] = metric(decided_share, "share")
    detail["error_share"] = tally.error_share
    detail["failures"] = tally.notes
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    try:
        mods = load_binsum()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    result, detail = run(wl, args.seconds, bool(args.trace), mods)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
