"""Self-tests of the benchmark, at tiny scale.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a tampered digest trips the correctness gate and counts as a
failure, that traced self times are non-negative and add up to the traced
wall time, and that the benchmark refuses to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cli_session  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, res = bench(w["name"], trace)
                    self.assertEqual(rc, 0)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in
                                            res["metrics"].values()))


class SelfTimes(unittest.TestCase):
    def test_self_times_sum_to_traced_wall(self):
        for workload in ("cli_certify", "threshold_scan"):
            with self.subTest(workload=workload):
                rc, res = bench(workload, 1)
                self.assertEqual(rc, 0)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
                self.assertTrue(all(v >= -1e-9 for v in selfs.values()),
                                selfs)
                self.assertTrue(math.isclose(
                    sum(selfs.values()), m["bench.traced_wall_s"],
                    rel_tol=1e-9))
                self.assertGreater(m["trace_overhead_ratio"], 0)


class Gate(unittest.TestCase):
    def test_tampered_digest_counts_as_failure(self):
        digests = json.loads(cli_session.DIGESTS.read_text())
        digests["tiny"]["any_seed"]["x.pts"] = "0" * 64
        r = run.Run()
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        try:
            run.cli_certify(r, work, cli_session.DEFAULT_SEED, 0.0, "tiny",
                            False, digests)
        finally:
            shutil.rmtree(work)
        self.assertEqual(len(r.failures), 1, r.failures)
        self.assertIn("x.pts digest", r.failures[0])
        self.assertEqual(r.attempted, len(cli_session.steps("tiny")))

    def test_untampered_session_passes(self):
        r = run.Run()
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        try:
            run.cli_certify(r, work, cli_session.DEFAULT_SEED, 0.0, "tiny",
                            False)
        finally:
            shutil.rmtree(work)
        self.assertEqual(r.failures, [])

    def test_bad_witness_is_caught(self):
        import workloads
        sys.path.insert(0, str(ROOT / "src"))
        from cupcap import PointSet, StructureWitness, WitnessKind
        ps = PointSet.of([(0, 0), (1, 5), (2, 1), (3, 4)])
        not_a_cup = StructureWitness(WitnessKind.CUP, ps[:3])
        self.assertIsNotNone(workloads._check_witness(not_a_cup, ps, 3, 3,
                                                      True))
        self.assertIsNotNone(workloads._check_witness(None, ps, 3, 3, True))


class Refusal(unittest.TestCase):
    def test_fails_without_sources(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            rc, res = bench("threshold_scan", 0, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main()
