"""Schema test for the benchmark: every workload, smoke-sized, traced and not.

    python3 -m unittest perfbench/test_run.py      (from the repository root)

Each run must end with the result line, pass its output checks, and print
exactly the metrics BENCHMARK.json declares, each with its declared unit,
so the benchmark and its declaration cannot drift apart.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900, check=False)


class SmokeSchema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)

    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float))
        return printed

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, declared in (("0", self.spec["end_to_end"]), ("1", self.spec["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run("--workload", w["name"], "--seed", "3", "--seconds", "1",
                               "--trace", trace, "--smoke")
                    printed = self.check_result(proc, declared)
                    if trace == "0":
                        for m in declared:
                            self.assertGreater(printed[m["name"]]["value"], 0, m["name"])

    def test_bad_arguments_print_no_result(self):
        proc = run("--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
