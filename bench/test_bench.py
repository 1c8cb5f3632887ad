"""Fast self-test of the benchmark.

    python3 bench/test_bench.py

Runs each workload on a handful of its operations, plain and traced,
checks that every metric of BENCHMARK.json comes out with its unit, that
the oracle flags corrupted outputs, and that the benchmark refuses to run
where there is no program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str) -> list:
    """A few cheap operations of each kind the workload has."""
    ops = workloads.build(workload, 0)
    if workload == "construct":
        return ops[:3] + ops[-2:]  # (t, 2, 1..3) and the t = 6 golden pair
    if workload == "certify":
        return ops[:3] + ops[8:11] + [next(op for op in ops if op.kind == k) for k in ("family", "scan")]
    return ops[:9] + ops[-3:]  # every kind at one t, and the README fixtures


class Workloads(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        cli = run.load_program()
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                ops = tiny(workload)
                runner = run.Runner(cli, ops, workload)
                _, rss_mb = run.measure(runner, 0, min_passes=1)
                self.assertEqual(runner.wrong, 0, runner.failures)
                self.assertEqual(runner.attempted, len(ops))
                values, _ = run.end_to_end(runner, [0.01], [run.probe()], rss_mb)
                self.assert_metrics(run.with_units(values, run.END_TO_END), "end_to_end")

                runner = run.Runner(cli, ops, workload)
                tracer, plain, traced = run.measure_traced(runner, 0)
                self.assertEqual((len(plain), len(traced)), (1, 1))
                self.assertEqual(runner.wrong, 0, runner.failures)
                layers = run.layer_metrics(runner, tracer, plain, traced)
                self.assert_metrics(run.with_units(layers, run.PER_LAYER), "per_layer")
                self.assertGreater(layers["cli.self_s"], 0)
                self.assertAlmostEqual(layers["trace.self_share"], 1, delta=0.2)

    def assert_metrics(self, metrics: dict, kind: str) -> None:
        expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, expected)
        for name, metric in metrics.items():
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            a, b = workloads.build(workload, 7), workloads.build(workload, 7)
            c = workloads.build(workload, 8)
            self.assertEqual(workloads.digest(a), workloads.digest(b))
            self.assertNotEqual(workloads.digest(a), workloads.digest(c))
            self.assertEqual(len(a), len(c))


def _corrupt_digit(text: str, key: str) -> str:
    """Change the last digit of the first value of ``key`` in a JSON text."""
    start = text.index(f'"{key}": "') + len(key) + 5
    end = text.index('"', start)
    last = text[end - 1]
    return text[:end - 1] + ("1" if last != "1" else "2") + text[end:]


class Oracle(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.load_program()

    def output(self, op):
        code, _, out, _, raised = run.Runner(self.cli, [op], "certify").call(op.argv)
        self.assertIsNone(raised)
        self.assertIsNone(oracle.check(op, code, out))
        return code, out

    def test_flags_corrupted_outputs(self):
        golden = workloads.build("construct", 0)[-1]
        code, out = self.output(golden)
        for key in ("square_root", "product_plus_one", "d", "rho_ab"):
            with self.subTest(key=key):
                self.assertIsNotNone(oracle.check(golden, code, _corrupt_digit(out, key)))
        bent = next(op for op in workloads.build("certify", 0) if op.where.get("candidate", "").endswith("-1"))
        code, out = self.output(bent)
        self.assertEqual(code, 1)
        self.assertIsNotNone(oracle.check(bent, 0, out.replace('"all_pass": false', '"all_pass": true')))
        fixture = workloads.build("reduce", 0)[-3]
        code, out = self.output(fixture)
        self.assertIsNotNone(oracle.check(fixture, code, out.replace('"add"', '"mult"', 1)))
        scan = workloads.build("reduce", 0)[0]  # all bad primes at [2]R
        code, out = self.output(scan)
        data = json.loads(out)
        extra = next(e for e in data["entries"] if e["p"] not in data["candidates"])
        data["entries"].remove(extra)
        data["additive"] = [p for p in data["additive"] if p != extra["p"]]
        self.assertIsNotNone(oracle.check(scan, code, json.dumps(data)))

    def test_runner_counts_a_wrong_output_as_failed(self):
        golden = workloads.build("construct", 0)[-1]
        _, out = self.output(golden)
        liar = SimpleNamespace(main=lambda argv: print(_corrupt_digit(out, "square_root"), end="") or 0)
        runner = run.Runner(liar, [golden], "construct")
        runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed, runner.wrong), (1, 1, 1))

    def test_documented_refusals_are_not_failures(self):
        corner = [op for op in workloads.build("construct", 0) if (op.data["m"], op.data["n"]) == (8, 6)][-1]
        unfactorable = workloads._reduce(6, oracle.multiples(Fraction(6), 4)[4], None, 4)
        for workload, op in (("construct", corner), ("reduce", unfactorable)):
            with self.subTest(workload=workload):
                runner = run.Runner(self.cli, [op], workload)
                runner.run_pass()
                self.assertEqual((runner.attempted, runner.failed, runner.refused), (1, 0, 1))
                values, _ = run.end_to_end(runner, [0.01], [run.probe()], 1.0)
                self.assertEqual(values["ok_share"], 0)

    def test_rejects_forged_refusals(self):
        prime = 10**30 + 57  # no factor up to the bound, but prime
        small = 1009 * (10**12 + 39) * (10**15 + 37)  # past bound squared, but 1009 divides it
        for m in (prime, small):
            self.assertFalse(oracle.refusal(
                "UnfactorableError", f"{2 * m} has a cofactor {m} unfactorable at desk scale (bound 1000000)"))
        self.assertFalse(oracle.refusal("ValueError", "Exceeds the limit (9000 digits) for integer string conversion"))
        self.assertFalse(oracle.refusal("ValueError", "t must not be 0"))
        self.assertFalse(oracle.refusal("ConsistencyError", "Exceeds the limit (4300 digits) for integer string conversion"))


class NoProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            cmd = [sys.executable, *CONTRACT["command"][1:], "--workload", "certify",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
