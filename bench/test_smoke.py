"""Smoke test of the benchmark itself: every workload at a tiny length.

    python3 -m unittest bench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that the outputs pass their checks, that a tampered output digest
is rejected, and that a directory without the package sources fails
without printing a result.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


class SmokeTest(unittest.TestCase):
    def check_result(self, done, wanted):
        self.assertEqual(done.returncode, 0, done.stderr)
        record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in wanted}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, got in result["metrics"].items():
            self.assertEqual(got["unit"], units[name], name)
            self.assertIsInstance(got["value"], (int, float), name)
            self.assertTrue(math.isfinite(got["value"]), name)
        return record

    def test_every_workload_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = bench("--workload", workload["name"], "--seed", "0",
                                 "--seconds", "1", "--trace", str(trace))
                    record = self.check_result(done, wanted)
                    if trace == 0:
                        self.assertEqual(set(record["ungated_metrics"]), set(run.UNGATED))
                        timed = {m["name"] for m in wanted} - {"peak_rss_mb"} | set(run.UNGATED)
                        self.assertEqual(set(record["raw_metrics"]), timed)
                        for name, got in {**record["metrics"], **record["ungated_metrics"]}.items():
                            self.assertGreater(got["value"], 0, name)
                        self.assertEqual(record["error_rate"], 0)

    def test_tampered_digest_is_rejected(self):
        digests = run.load_digests()["local-exact"]
        tampered = dict(digests, golden="0" * 64)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "local-exact", "--seed", "0", "--seconds", "1"],
                            digests=tampered)
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])

    def test_missing_digest_is_a_mismatch_or_a_warning(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            recorded = run.check_digests({"seeds": {}}, "a", "b", run.DIGEST_SEEDS[0])
        self.assertIs(recorded["golden"]["match"], False)
        self.assertIs(recorded["seed"]["match"], False)
        self.assertEqual(err.getvalue(), "")
        with contextlib.redirect_stderr(err):
            outside = run.check_digests({"golden": "a"}, "a", "b", run.DIGEST_SEEDS.stop)
        self.assertIs(outside["golden"]["match"], True)
        self.assertIsNone(outside["seed"]["match"])
        self.assertIn("not compared", err.getvalue())

    def test_without_sources_fails_without_result(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "bench")
        try:
            done = bench("--workload", "small-sweep", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
