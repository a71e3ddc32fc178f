#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py          # from the checkout root

Checks that BENCHMARK.json is well formed, that the result validation in
run.py catches a result that does not match it, that the driver's
correctness plumbing reports a corrupted result as an error (the C++
self-test), and that a short pass of every workload, untraced and traced,
prints exactly the metric names and units BENCHMARK.json lists.  The
short passes take a few minutes: the quality seeds are a fixed amount of
work whatever --seconds says.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def good_result(expected):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.25, "unit": u}
                        for n, u in expected.items()}}


class SpecTest(unittest.TestCase):
    def test_keys_names_and_bounds(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class ValidationTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_metrics(0)

    def test_matching_result_passes(self):
        self.assertEqual(run.result_problems(good_result(self.expected),
                                             self.expected), [])

    def test_missing_renamed_or_misunited_metrics_are_caught(self):
        r = good_result(self.expected)
        r["metrics"]["step_usec"] = r["metrics"].pop("step_us")
        r["metrics"]["final_cov"]["unit"] = "%"
        problems = " ".join(run.result_problems(r, self.expected))
        self.assertIn("missing metrics: step_us", problems)
        self.assertIn("not in BENCHMARK.json: step_usec", problems)
        self.assertIn("final_cov has unit", problems)

    def test_non_finite_value_and_bad_counts_are_caught(self):
        r = good_result(self.expected)
        r["metrics"]["idle_frac"]["value"] = float("nan")
        r["attempted"] = 0
        problems = " ".join(run.result_problems(r, self.expected))
        self.assertIn("idle_frac has no finite value", problems)
        self.assertIn("attempted", problems)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        run.build(run.build_dir())

    def test_corrupted_result_is_reported_as_error(self):
        selftest = os.path.join(run.build_dir(), "perfbench_selftest")
        proc = subprocess.run([selftest], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # The failed checks of the corrupted doubles are described.
        self.assertIn("final loads 7 != generated 10 - consumed 4",
                      proc.stderr)

    def test_bad_arguments_print_no_result(self):
        driver = os.path.join(run.build_dir(), "perfbench_driver")
        proc = subprocess.run([driver, "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_every_workload_prints_the_listed_metrics(self):
        spec = load_spec()
        for w in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", w, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace)],
                        capture_output=True, text=True, timeout=300)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    expected = run.expected_metrics(trace)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        expected)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
