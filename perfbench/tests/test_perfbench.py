"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench/tests -v

The traced-run tests start the benchmark as a child process (two traced
runs per workload, about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import patterns  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def traced_record(workload: str, seed: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.WORKDIR / f"run-{workload}-seed{seed}-trace1.json").read_text())
    return {"result": result, "record": record}


class TracedRunsRepeat(unittest.TestCase):
    """Two traced runs at one seed: identical call counts and outputs."""

    def check(self, workload: str) -> None:
        first, second = traced_record(workload, 7), traced_record(workload, 7)
        for run_ in (first, second):
            self.assertTrue(run_["result"]["correct"], run_["record"]["failure_codes"])
        calls = [{k: v["value"] for k, v in r["result"]["metrics"].items()
                  if k.endswith((".calls", ".failed")) or k == "scalars.max_bits"}
                 for r in (first, second)]
        self.assertEqual(calls[0], calls[1])
        self.assertEqual(first["record"]["outputs_sha256"], second["record"]["outputs_sha256"])
        self.assertEqual(first["record"]["operation_counts"], second["record"]["operation_counts"])
        if workload == "patterns":
            scalar_calls = {k: v for k, v in calls[0].items() if k.startswith("scalars.")}
            self.assertEqual(set(scalar_calls.values()), {0})

    def test_replay(self):
        self.check("replay")

    def test_corpus(self):
        self.check("corpus")

    def test_patterns(self):
        self.check("patterns")

    def test_cli(self):
        self.check("cli")


class SeedsChangeInputsNotMix(unittest.TestCase):
    def test_corpus(self):
        shapes = workloads.CORPUS_SCHEDULE
        a = [corpus.make_session(1, i, s) for i, s in enumerate(shapes)]
        b = [corpus.make_session(2, i, s) for i, s in enumerate(shapes)]
        self.assertEqual([s.shape for s in a], [s.shape for s in b])
        self.assertEqual([[c.name for c in s.checks] for s in a],
                         [[c.name for c in s.checks] for s in b])
        self.assertTrue(all(x.text != y.text for x, y in zip(a, b)))
        again = [corpus.make_session(1, i, s) for i, s in enumerate(shapes)]
        self.assertEqual([s.text for s in a], [s.text for s in again])

    def test_patterns(self):
        count = 3 * len(patterns.MIX)
        a = [patterns.make_query(1, i) for i in range(count)]
        b = [patterns.make_query(2, i) for i in range(count)]
        self.assertEqual([q["kind"] for q in a], [q["kind"] for q in b])
        self.assertNotEqual(a, b)


class Construction(unittest.TestCase):
    def test_split_extension_is_drawn(self):
        """Quadratic cores also get etale(d) witnesses with d = core d."""
        shape = corpus.Shape("quad", 2, 2, ("vE",))
        sessions = [corpus.make_session(0, i, shape) for i in range(40)]
        split = [s for s in sessions if f"quadratic({s.ext})" == s.kind]
        self.assertTrue(split and len(split) < len(sessions))

    def test_zero_divisor_block(self):
        """M = e1·I + e2·C is invertible, its first column holds zero
        divisors, and it carries diag(a, b) to [[0, b], [b, 0]]."""
        from algebra import Kind, m_ctrans, m_identity, m_mul, p_const, s_mul, s_zero

        a, b = corpus.Q(-3, 2), corpus.Q(2)
        for z in corpus.SPLIT_DS:
            zk = Kind("quat", None, z)
            e1, e2 = corpus.split_idempotents(zk)
            self.assertEqual(s_mul(zk, e1, e2), s_zero(zk))
            self.assertEqual(s_mul(zk, e1, e1), e1)
            m, m_inv = corpus.zero_divisor_block(zk, a, b)
            self.assertEqual(m_mul(zk, m, m_inv), m_identity(zk, 2))
            for row in m:  # each first-column entry kills e1 or e2
                self.assertIn(s_zero(zk), [s_mul(zk, row[0][0], e) for e in (e1, e2)])
            target = ((), p_const(zk, b)), (p_const(zk, b), ())
            self.assertEqual(m_mul(zk, m_mul(zk, m_ctrans(zk, m), target), m),
                             ((p_const(zk, a), ()), ((), p_const(zk, b))))

    def test_zero_divisor_witness_meets_only_the_known_defect(self):
        """verify(wZ) passes its identity; horders may only refuse u as
        not invertible (the recorded defect), and the op is then marked
        as a known defect."""
        import horders as h

        shape = corpus.Shape("quat", 2, 2, ("vZ",))
        for i in range(4):
            session = corpus.make_session(5, i, shape)
            (check,) = h.run_session(h.parse_session(session.text)).checks
            self.assertTrue(check.actual == "true" or check.detail.startswith("NotInvertible"),
                            check.detail)
            code = workloads.check_report(session, [(check.name, check.actual, check.detail)])
            self.assertIn(code, (None, workloads.KNOWN + "verify:NotInvertible"))

    def test_every_check_kind_is_scheduled(self):
        scheduled = {key for shape in workloads.CORPUS_SCHEDULE for key in shape.checks}
        self.assertEqual(scheduled, set(corpus.CHECK_LINES))

    def test_host_factor_uses_the_probes_around_each_op(self):
        result = {"probes": [0.010, 0.030, 0.020], "probe_of": [0, 0, 1]}
        for got, want in zip(run.host_factors(result, 0.010), [0.5, 0.5, 0.4]):
            self.assertAlmostEqual(got, want)

    def test_tail_keeps_ten_ops_beyond(self):
        for n in (11, 15, 48, 100, 1000):
            value, pct, beyond = run.tail([float(i) for i in range(n)])
            self.assertGreaterEqual(beyond, 10)
            self.assertEqual(value, float(n - 1 - beyond))
            if pct < 99:
                # the next percentile up would leave fewer than 10 beyond
                self.assertLess(n - max(1, -(-(pct + 1) * n // 100)), 10)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_metrics())

    def test_refuses_without_the_package(self):
        bare = run.WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
