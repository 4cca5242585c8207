"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that every run emits exactly the metrics BENCHMARK.json names, each
with its unit, that broken program output is counted as failed operations,
that inputs depend only on the seed, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _edit_row(text: str, index: int, **changes) -> str:
    lines = text.splitlines()
    row = json.loads(lines[index])
    for key, value in changes.items():
        if value is None:
            del row[key]
        else:
            row[key] = value
    lines[index] = json.dumps(row, separators=(",", ":"))
    return "\n".join(lines) + "\n"


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mods = run.load_binsum()
        # toy sizes: one set-up process and one traced pair per run
        cls._saved = run.SETUP_REPEATS, run.MIN_TRACE_PAIRS
        run.SETUP_REPEATS, run.MIN_TRACE_PAIRS = 1, 1

    @classmethod
    def tearDownClass(cls):
        run.SETUP_REPEATS, run.MIN_TRACE_PAIRS = cls._saved

    def toy(self, name: str) -> workloads.Workload:
        return workloads.build(name, 1, toy=True)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, _ = run.run(self.toy(name), 0.2, trace, self.mods)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m, v in result["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), m)
                        if key == "end_to_end":
                            self.assertGreater(v["value"], 0, m)

    def assert_counted(self, wl, outs, index, broken_text):
        broken = list(outs)
        broken[index] = dataclasses.replace(outs[index], result=broken_text)
        tally = checks.Tally()
        run.check_reference(wl, broken, self.mods, tally)
        self.assertGreater(tally.failed, 0)
        self.assertGreater(tally.error_share, 0)

    def test_broken_scan_output_is_counted(self):
        wl = self.toy("scan-exact")
        outs = run.run_batch(wl, self.mods, 1)
        clean = checks.Tally()
        run.check_reference(wl, outs, self.mods, clean)
        self.assertEqual(clean.failed, 0)
        text = outs[0].result
        row = json.loads(text.splitlines()[3])
        cases = {
            "missing key": _edit_row(text, 3, usec=None),
            "extra key": _edit_row(text, 3, rule="exact evaluation"),
            "wrong sign": _edit_row(text, 3, exact_sign=-row["exact_sign"]),
            "zero for l1 > l2": _edit_row(text, 3, certificate="zero_exact", exact_sign=0),
            "wrong class": _edit_row(text, 3, **{"class": (row["class"] + 1) % 4}),
            "not json": text.replace("}\n", "\n", 1),
            "dropped row": "".join(text.splitlines(keepends=True)[1:]),
        }
        for what, broken in cases.items():
            with self.subTest(what):
                self.assert_counted(wl, outs, 0, broken)

    def test_broken_margin_and_proof_output_are_counted(self):
        wl = self.toy("scan-lines")
        outs = run.run_batch(wl, self.mods, 1)
        self.assertEqual(outs[0].kind, "ratio6")
        self.assert_counted(wl, outs, 0, _edit_row(outs[0].result, 0, margin=-0.25))
        wl = self.toy("proof-check")
        outs = run.run_batch(wl, self.mods, 1)
        failed = outs[0].result.replace('"passed": true', '"passed": false')
        self.assert_counted(wl, outs, 0, failed)
        c_index = len(wl.proof.lemmas)
        poly = json.loads(outs[c_index].result)
        poly["coefficients"][0] = str(int(poly["coefficients"][0]) + 1)
        self.assert_counted(wl, outs, c_index, json.dumps(poly))
        self.assert_counted(wl, outs, len(outs) - 1, 0)

    def test_inputs_depend_only_on_the_seed(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 7), workloads.build(name, 7))
            self.assertNotEqual(workloads.build(name, 7), workloads.build(name, 8))

    def test_scan_exact_pair_count_is_steady(self):
        for seed in range(20):
            count = len(workloads.build("scan-exact", seed).scans[0].pairs())
            self.assertLess(abs(count - workloads.SCAN_EXACT_PAIRS), 120)

    def test_refuses_to_run_without_the_program(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            argv = [sys.executable, *SPEC["command"][1:], "--workload", "scan-exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
