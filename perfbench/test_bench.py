#!/usr/bin/env python3
"""Self-tests of the benchmark in smoke mode (tiny family, short phases).

Checks the result document of every workload, traced and untraced, against
BENCHMARK.json: the exact metric names and units, a correct run with no
failed operation, and positive end-to-end values. Also checks that a seed
fixes the request sequence and hot set, and that the benchmark refuses to
run without the source tree.

    python3 perfbench/test_bench.py
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=1, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_document(self, workload, trace):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(doc["correct"], proc.stdout)
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared],
            [(name, m["unit"]) for name, m in doc["metrics"].items()])
        if not trace:
            for name, metric in doc["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return doc

    def test_documents(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_document(workload, trace)

    def test_traced_cold_covers_the_engine(self):
        metrics = self.check_document("survey-cold", 1)["metrics"]
        self.assertGreater(metrics["re.reduce.calls"]["value"], 0)
        self.assertEqual(metrics["trace.verdict_mismatches"]["value"], 0)
        # Self times partition the spans, so together they cannot exceed
        # the traced wall; they cover most of it (the rest is the loop
        # between rows).
        shares = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".share"))
        self.assertLessEqual(shares, 1.0 + 1e-9)
        self.assertGreater(shares, 0.5)
        # The 48-member smoke family spends about a third of its pass
        # writing its tiny tier; the full family's engine coverage is
        # about 0.94.
        self.assertGreater(metrics["trace.engine_coverage"]["value"], 0.2)

    def test_seed_fixes_the_requests(self):
        def digest(seed):
            out = run("service-mix", seed=seed).stdout
            return re.search(r"^digest .*$", out, re.M).group(0)
        self.assertEqual(digest(1), digest(1))
        self.assertNotEqual(digest(1), digest(2))


class WithoutSourceTest(unittest.TestCase):
    def test_refuses_without_the_source_tree(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("survey-cold", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
