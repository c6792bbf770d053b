"""Self-test of the benchmark harness (a few seconds).

    python3 bench/selftest.py

Checks that a tampered stdout, a wrong exit code and a timeout each count
as a failed job; that seeded inputs repeat; that the tracer's call counts
repeat; that the smoke run passes; that SIGTERM stops the running job; and
that without a source tree the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
import workloads
from workloads import Job

FAST = ["ledger", "ty:7"]   # a CLI verb that answers in a fraction of a second


def fast_job(**kw) -> Job:
    fields = dict(name="ledger", kind="cli", args=FAST,
                  oracle=workloads.oracle_lines("fpdim: 14"))
    fields.update(kw)
    return Job(**fields)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        self.deadline = time.monotonic() + 120

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_job(self, job, seen=None, trace_file=None):
        return run.run_job(job, self.work, self.deadline, {} if seen is None else seen,
                           trace_file)

    def test_good_job_passes_and_repeats(self):
        seen = {}
        first, second = self.run_job(fast_job(), seen), self.run_job(fast_job(), seen)
        self.assertIsNone(first.error)
        self.assertIsNone(second.error)
        self.assertEqual(first.stdout, second.stdout)

    def test_each_failure_kind_counts(self):
        tampered = self.run_job(fast_job(), seen={"ledger": "fpdim: 99\n"})
        wrong_exit = self.run_job(fast_job(exit_code=1))
        bad_oracle = self.run_job(fast_job(oracle=workloads.oracle_lines("fpdim: 99")))
        t0 = time.monotonic()
        slow = self.run_job(Job("slow", "cli", ["table", "a6"],
                                workloads.oracle_lines("never"), timeout=0.5))
        self.assertLess(time.monotonic() - t0, 5)
        self.assertEqual(tampered.error, "stdout differs from the job's first run")
        self.assertEqual(wrong_exit.error, "exit code 0, want 1")
        self.assertEqual(bad_oracle.error, "missing line 'fpdim: 99'")
        self.assertEqual(slow.error, "timed out")
        good = self.run_job(fast_job())
        e2e = run.end_to_end([good, tampered, wrong_exit, bad_oracle, slow], [1.0],
                             [run.REF_S])
        self.assertEqual(e2e["failed_ratio"], 4 / 5)
        self.assertAlmostEqual(e2e["wall_s"], good.run.wall_s, places=12)

    def test_trace_counts_repeat(self):
        reports = []
        for i in range(2):
            path = self.work / f"trace{i}.json"
            res = self.run_job(fast_job(), trace_file=path)
            self.assertIsNone(res.error)
            reports.append(json.loads(path.read_text()))
        calls = [{k: v[0] for k, v in r["stats"].items()} for r in reports]
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["catexpr.fpdim"], 0)
        self.assertEqual(calls[0]["cli.main"], 1)


class InputsTest(unittest.TestCase):
    def test_seeded_inputs_repeat_and_vary(self):
        for make in (workloads.lattice_jobs, workloads.build_jobs):
            a, b, c = make(7), make(7), make(8)
            self.assertEqual([(j.args, j.files) for j in a], [(j.args, j.files) for j in b])
            self.assertNotEqual([(j.args, j.files) for j in a],
                                [(j.args, j.files) for j in c])

    def test_corruption_retargets_one_mult_entry(self):
        dump = "HOPF v1\nDIM 3\nMULT\n0 0 : 0 : 1\n0 1 : 1 : 1\nCOMULT\nEND\n"
        bad = workloads.corrupt_dump(dump, random.Random(3))
        diff = [(x, y) for x, y in zip(dump.split("\n"), bad.split("\n")) if x != y]
        self.assertEqual(len(diff), 1)
        old, new = diff[0]
        self.assertEqual(old.split(":")[0], new.split(":")[0])
        self.assertNotEqual(old.split(":")[1], new.split(":")[1])


class EndToEndTest(unittest.TestCase):
    def test_smoke_run(self):
        proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--smoke"],
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        spec = json.loads(run.SPEC.read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertIn("failed_ratio 0.000", proc.stdout)

    def test_sigterm_stops_the_running_job(self):
        proc = subprocess.Popen([sys.executable, str(run.BENCH / "run.py"), "--smoke"],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        time.sleep(1.5)
        proc.terminate()
        self.assertEqual(proc.wait(timeout=30), 128 + 15)
        work = str(run.WORK.resolve())
        left = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                if os.readlink(f"/proc/{pid}/cwd").startswith(work):
                    left.append(pid)
            except OSError:
                pass
        self.assertEqual(left, [])

    def test_without_source_tree_fails_without_result(self):
        run.WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
        try:
            shutil.copy(run.SPEC, bare / "BENCHMARK.json")
            shutil.copytree(run.BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
