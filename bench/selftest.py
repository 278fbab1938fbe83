"""Smoke self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 bench/selftest.py``.  It checks
that every metric named in BENCHMARK.json is emitted with its unit, that a
corrupted reference or a wrong value counts as a failure, that every seed
does the same work, that the speed scale weighs time correctly, that the trace
guard names a missing layer, that a call counter counts only its caller's
own calls, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

import run
import tracing
import workloads

run.require_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class MetricsEmitted(unittest.TestCase):
    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.NAMES))

    def test_every_metric_with_its_unit(self):
        for workload in workloads.NAMES:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run_benchmark(workload, seed=7, seconds=1, trace=trace, tiny=True)["result"]
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, _units(kind))
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class FailuresCounted(unittest.TestCase):
    def test_corrupted_cli_reference_is_a_failure(self):
        # A tiny cli_mix pass runs exactly one command of the verify_tables class.
        reference = workloads.load_cli_reference()
        for fmt in workloads.FORMATS:
            key = workloads.cli_key(workloads.with_format(fmt, ("verify-tables",)))
            reference[key] = dict(reference[key], sha256="0" * 64)
        result = run.run_benchmark("cli_mix", seed=7, seconds=1, trace=False, tiny=True,
                                   reference=reference)["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_wrong_value_is_a_failure(self):
        sc = run.fresh_import()["seidelchain"]
        blocks = ((1, 5), (5, 4))
        sp = sc.exact_spectrum(sc.BlockString(blocks))
        self.assertIsNone(workloads.check_spectrum(blocks, sp, None, False))

        def shifted(b):
            vals = workloads.quotient_eigenvalues(b)
            vals[-1] += 1e-3
            return vals

        self.assertIsNotNone(workloads.check_spectrum(blocks, sp, None, False, oracle=shifted))

    def test_missing_refusal_is_a_failure(self):
        self.assertIsNotNone(workloads.check_spectrum(((1, 1),), None, None, True))
        self.assertIsNone(workloads.check_spectrum(((1, 1),), None, ValueError("exceeds cap 256"), True))
        self.assertIsNotNone(workloads.check_spectrum(((1, 1),), None, ValueError("other"), True))


class TraceGuard(unittest.TestCase):
    def test_uncalled_layer_is_named(self):
        with self.assertRaisesRegex(tracing.TraceError, "switching.canonical_bits"):
            tracing.Tracer().guard("cli_mix")

    def test_unresolved_name_is_named(self):
        modules = run.fresh_import()
        del modules["intpoly"].refine_root
        with self.assertRaisesRegex(tracing.TraceError, "intpoly.refine_root"):
            tracing.Tracer().install(modules)
        run.fresh_import()


class CallCounters(unittest.TestCase):
    def test_sign_evals_counts_refine_root_own_calls(self):
        modules = run.fresh_import()
        intpoly = modules["intpoly"]
        tracer = tracing.Tracer()
        tracer.install(modules)
        p = (-2, 0, 1)  # x^2 - 2
        tracer.active = True
        intpoly.count_roots_between(intpoly.sturm_chain(p), Fraction(1), Fraction(2))
        intpoly.refine_root(p, Fraction(1), Fraction(2), Fraction(1, 2 ** 10))
        tracer.active = False
        run.fresh_import()
        # Two endpoint signs plus one per bisection from width 1 to 2^-10; the
        # Sturm count's sign evaluations belong to count_roots_between.
        self.assertEqual(tracer.counts["intpoly.refine_root.sign_evals"], 2 + 10)

    def test_trial_divisions_counts_integer_roots_own_calls(self):
        modules = run.fresh_import()
        intpoly = modules["intpoly"]
        tracer = tracing.Tracer()
        tracer.install(modules)
        tracer.active = True
        roots, rest = intpoly.integer_roots((-2, -3, 0, 1))  # (x + 1)^2 (x - 2)
        tracer.active = False
        run.fresh_import()
        self.assertEqual((roots, rest), ({-1: 2, 2: 1}, (1,)))
        # -1: two exact divisions and one with a remainder; -2 and 1 divide the
        # constant term -2 but are not roots; 2 is.
        self.assertEqual(tracer.counts["intpoly.integer_roots.trial_divisions"], 3 + 1 + 1 + 1)


class SameWorkEverySeed(unittest.TestCase):
    @staticmethod
    def _shape(op):
        if op.kind == "cli":
            return op.label, op.data[2:]  # the command without its --format
        if op.kind == "spectrum":
            return op.label, len(op.data), sum(s + t for s, t in op.data)
        return op.label, sum(int(p.split("^")[1]) if "^" in p else 1 for p in op.data.split())

    def test_seeds_differ_only_in_concrete_inputs(self):
        for workload in workloads.NAMES:
            with self.subTest(workload=workload):
                a, b = (workloads.make_passes(workload, seed, 2) for seed in (1, 2))
                self.assertNotEqual(a, b)
                self.assertEqual([[self._shape(op) for op in ops] for ops in a],
                                 [[self._shape(op) for op in ops] for ops in b])

    def test_criterion4_slots_cover_the_distribution(self):
        slots = workloads.criterion4_slots(500)
        self.assertEqual({k for k, _n in slots}, set(range(1, 7)))
        self.assertTrue(all(2 * k <= n <= 60 for k, n in slots))
        self.assertEqual({n for k, n in slots if k == 1}, set(range(2, 61)))


class SpeedScale(unittest.TestCase):
    def test_constant_speed(self):
        probes = [(t, 2 * run.SPEED_REFERENCE_S) for t in (0.0, 0.1, 0.5)]
        self.assertAlmostEqual(run.pass_scale(probes), 0.5)

    def test_intervals_weigh_by_length(self):
        ref = run.SPEED_REFERENCE_S
        # 1 s at the reference speed, then 3 s at half of it (twice the probe time).
        probes = [(0.0, ref), (1.0, ref), (1.0, 2 * ref), (4.0, 2 * ref)]
        self.assertAlmostEqual(run.pass_scale(probes), 4 / 7)


class Statistics(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(list(range(1, 501))), (98.0, 490))
        self.assertEqual(run.tail_percentile(list(range(1, 21))), (90.0, 18))
        self.assertEqual(run.tail_percentile([5.0]), (100.0, 5.0))

    def test_first_failure_per_op(self):
        self.assertEqual(run._first_failure([None, "a", None], [None, "b", "c"]), [None, "a", "c"])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_program(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH, f"{tmp}/bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "spectrum_small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("program sources not found", proc.stderr)


if __name__ == "__main__":
    unittest.main()
