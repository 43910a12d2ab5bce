"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark binary (release) and runs smoke-sized workloads:
a few seconds each instead of a full run.
"""

import argparse
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def args(workload, trace=0):
    return argparse.Namespace(workload=workload, seed=7, seconds=1.0, trace=trace)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.TMP.mkdir(exist_ok=True)
        cls.scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP))
        # Keep smoke results out of the real result directory (a trace
        # run prices tracing against earlier untraced records there).
        cls.saved = run.OUT, run.REFERENCE
        run.OUT = cls.scratch / "out"

    @classmethod
    def tearDownClass(cls):
        run.OUT, run.REFERENCE = cls.saved
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def assert_metrics(self, result, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], float)

    def test_smoke_runs_emit_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result, record = run.run(args(workload, trace), smoke=True)
                    self.assertTrue(result["correct"], record["errors"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assert_metrics(result, declared)
                    self.assertEqual(record["seed"], 7)
                    self.assertEqual(record["profile"], "release")

    def test_a_flipped_reference_stat_fails_the_check(self):
        reference = run.load_reference()
        cell = "hasher/ibex/-O2"
        stages = [dict(stage=k, **v) for k, v in reference[cell].items()]
        self.assertEqual(run.check_cell(cell, stages, reference), [])
        flipped = json.loads(json.dumps(reference))
        flipped[cell]["fps"]["stats"]["cycles"] += 1
        self.assertTrue(run.check_cell(cell, stages, flipped))
        # Bounds may tighten but never loosen.
        tighter = json.loads(json.dumps(reference))
        tighter[cell]["bound"]["stats"]["wcet_cycles"] -= 1
        self.assertTrue(run.check_cell(cell, stages, tighter))
        looser = json.loads(json.dumps(reference))
        looser[cell]["bound"]["stats"]["wcet_cycles"] += 1
        self.assertEqual(run.check_cell(cell, stages, looser), [])

        # End to end: a run against the flipped file is refused.
        path = self.scratch / "flipped.json"
        path.write_text(json.dumps({"schema": 1, "cells": flipped}))
        run.REFERENCE = path
        try:
            result, record = run.run(args("cold-platform"), smoke=True)
        finally:
            run.REFERENCE = self.saved[1]
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("cycles" in e for e in record["errors"]), record["errors"])

    def test_a_wrong_mutant_verdict_fails_the_check(self):
        baseline = {"cc-dead-store": "killed:equivalence"}
        ok = [{"class": "cc-dead-store", "verdict": "killed:equivalence"}]
        moved = [{"class": "cc-dead-store", "verdict": "killed:fps"}]
        self.assertEqual(run.mutant_errors(ok, baseline), [])
        self.assertTrue(run.mutant_errors(moved, baseline))

    def test_a_request_for_an_unknown_app_raises_the_error_ratio(self):
        bad = run.verify_line("bad-0", ("ci-a", "no-such-app", "ibex", "cell"))
        binary = run.build()
        attempted, failed, metrics, detail = run.run_warm(
            binary, args("warm-serve", trace=1), smoke=True, extra_traffic=[bad])
        self.assertGreaterEqual(failed, 1)
        self.assertGreater(metrics["error_ratio"], 0.0)
        self.assertTrue(any("no-such-app" in e for e in detail["errors"]), detail["errors"])


if __name__ == "__main__":
    unittest.main()
