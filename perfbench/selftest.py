#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds through run.py on first use.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(*args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=900)


def short_run(workload, seed, trace=0):
    """A 2-second run: (record line, result line)."""
    out = run("--workload", workload, "--seed", str(seed),
              "--seconds", "2", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class ResultShape(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        spec = json.loads(SPEC.read_text())
        # service_mix is not in BENCHMARK.json (see README) but must keep
        # working.
        workloads = [w["name"] for w in spec["workloads"]] + ["service_mix"]
        for workload in dict.fromkeys(workloads):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    record, result = short_run(workload, 3, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], record["failures"])
                    self.assertEqual(
                        {name: m["unit"]
                         for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[key]})
                    if trace:
                        self.assertTrue(record["passes_agree"])


class Determinism(unittest.TestCase):
    def test_paper_suite_digest_repeats(self):
        # Verdicts, search effort and SAT totals must not depend on the
        # clock: two runs of the same inputs give one digest.
        first, first_result = short_run("paper_suite", 7)
        second, second_result = short_run("paper_suite", 7)
        self.assertTrue(first_result["correct"])
        self.assertTrue(second_result["correct"])
        self.assertEqual(first["digest"], second["digest"])
        self.assertEqual(first_result["metrics"]["solved"],
                         second_result["metrics"]["solved"])

    def test_other_seed_changes_inputs(self):
        self.assertNotEqual(short_run("paper_suite", 7)[0]["digest"],
                            short_run("paper_suite", 8)[0]["digest"])


class RenamedHits(unittest.TestCase):
    # A tier-1 hit for a variable-renamed copy of a solved spec returns
    # the functions in the numbering of the copy that filled the cache,
    # so they fail check_certificate against the formula that was sent.
    # service_mix sends no renamed copies until the service translates
    # hits; this test starts passing (an unexpected success) once it does.
    @unittest.expectedFailure
    def test_renamed_hit_certifies(self):
        out = run("--check-renamed", "--seed", "1")
        self.assertEqual(out.returncode, 0, out.stdout)


if __name__ == "__main__":
    unittest.main()
