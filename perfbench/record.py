"""Run the benchmark over several seeds and record one entry of the BENCH series.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BENCH_<n>.json [--note TEXT ...]

Run from the root of a checkout.  For each seed, every workload of
BENCHMARK.json runs once with --trace 0 (workloads interleaved, so slow drift
of the machine hits them alike), then each workload runs once with --trace 1
at the first seed.
The entry holds, per workload and end-to-end metric, the ten values, their
median, quartiles and spread ((q3 - q1) / median, as the acceptance rule
computes it) next to the metric's bound; the per-layer metrics of the traced
run; the per-slice scan rates; the check totals; and the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    return json.loads(lines[-1]), detail


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    out = {"values": values, "median": median, "q1": q1, "q3": q3}
    out["spread"] = (q3 - q1) / median if median else 0.0
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            result, detail = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append((result, detail))
            print(f"{w} seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)

    entry = {"run_seconds": spec["run_seconds"], "seeds": seeds, "notes": args.note, "workloads": {}}
    for w in names:
        results = [r for r, _ in runs[w]]
        slices = {}
        for _, detail in runs[w]:
            for name, rate in detail.get("slices", {}).items():
                slices.setdefault(name, []).append(rate)
        entry["machine"] = runs[w][0][1].get("machine")
        entry["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: dict(summarize([r["metrics"][name]["value"] for r in results], bounds.get(name)), unit=m["unit"])
                for name, m in results[0]["metrics"].items()
            },
            "slice_pairs_per_s": {name: summarize(v, None) for name, v in slices.items()},
            "raw": [detail.get("raw") for _, detail in runs[w]],
        }
        result, _ = run_once(w, seeds[0], spec["run_seconds"], 1)
        entry["workloads"][w]["per_layer"] = {"seed": seeds[0], **result["metrics"]}
        entry["workloads"][w]["per_layer_checks"] = {"attempted": result["attempted"], "failed": result["failed"]}
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    worst = {
        (w, name): s["spread"] / s["bound"]
        for w, data in entry["workloads"].items()
        for name, s in data["end_to_end"].items()
        if name != "setup_s" and s.get("bound")
    }
    for (w, name), share in sorted(worst.items(), key=lambda kv: -kv[1]):
        print(f"spread/bound {share:.3f}  {w} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
