"""Self-tests of the benchmark; they run in well under a minute.

    python3 bench/selftest.py

They cover: a smoke slice of every workload (answers checked, nothing
fails, times scaled by the host gauge), the gauge's single-thread guard,
identical inputs for a repeated seed, an injected wrong answer or
exception being counted as a failure, the known-defect probe, and the
traced run's span accounting.
"""

from __future__ import annotations

import sys
import threading
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402
from sgw import homomorphism, s_factor  # noqa: E402
from sgw.core import SignedGraph  # noqa: E402


class SmokeSlices(unittest.TestCase):
    def test_every_workload(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result = run.measure(name, seed=3, seconds=0, smoke=True)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 2)
                failing = {op["op"]: op["errors"] for op in result["detail"]["ops"]
                           if op["statuses"] != ["ok"]}
                self.assertEqual(failing, {})
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual([m for m, _ in run.END_TO_END], list(metrics))
                for metric in metrics.values():
                    self.assertGreater(metric["value"], 0)
                scale = result["detail"]["gauge_scale"]
                for name, value in result["detail"]["unscaled_s"].items():
                    self.assertAlmostEqual(metrics[name]["value"], value * scale)


class HostGauge(unittest.TestCase):
    def test_refuses_a_second_thread(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            self.assertRaises(SystemExit, run.gauge)
        finally:
            stop.set()
            thread.join()
        self.assertGreater(run.gauge(), 0)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first = workloads.build(name, 7)
                again = workloads.build(name, 7)
                self.assertEqual([(op.label, op.inputs) for op in first],
                                 [(op.label, op.inputs) for op in again])
                if name == "decompose":  # the others are fixed
                    other = workloads.build(name, 8)
                    self.assertNotEqual([op.inputs for op in first],
                                        [op.inputs for op in other])


class InjectedWrongAnswer(unittest.TestCase):
    def _replace(self, module, attr, fn):
        """Make ``module.attr`` call ``fn(original, *args)`` for this test."""
        original = getattr(module, attr)
        setattr(module, attr, lambda *args: fn(original, *args))
        self.addCleanup(setattr, module, attr, original)

    def _inject(self, module, attr, corrupt):
        """Make ``module.attr`` return a corrupted answer for this test."""
        self._replace(module, attr, lambda original, *args: corrupt(original(*args)))

    def _raise(self, module, attr, exc_type):
        """Make ``module.attr`` raise ``exc_type`` for this test."""
        def fn(original, *args):
            raise exc_type()
        self._replace(module, attr, fn)

    def _assert_all_failed(self, ops):
        attempted, failed, correct = run.tally(run.run_pass(ops))
        self.assertEqual(failed, attempted)
        self.assertFalse(correct)

    def test_off_by_one_chromatic_number(self):
        self._inject(homomorphism, "chromatic_number", lambda cert: replace(cert, k=cert.k + 1))
        # the verify suites hold their own binding of chromatic_number
        ops = [op for op in workloads.build("chi_cycles", 1, smoke=True)
               if not op.label.startswith("verify_")]
        self._assert_all_failed(ops)

    def test_wrong_switch_set(self):
        self._inject(s_factor, "s_decompose",
                     lambda dec: replace(dec, switch_set=dec.switch_set ^ {0}))
        self._assert_all_failed(workloads.build("decompose", 1, smoke=True))

    def test_unexpected_exception(self):
        # a cycle-table cell that starts to raise fails the run
        self._raise(homomorphism, "chromatic_number", RecursionError)
        ops = workloads.build("chi_cycles", 1, smoke=True)[:1]
        self.assertEqual(run.run_pass(ops)[0]["status"], "error")
        self._assert_all_failed(ops)

    def test_recursion_probe(self):
        # the 32x32 grid (1024 vertices) passes the recursion limit today
        self.assertIs(workloads.recursion_probe(), True)
        # a wrong homomorphism is neither the defect nor its fix
        self._replace(homomorphism, "find_homomorphism",
                      lambda original, g, t: original(SignedGraph(1, []), t))
        self.assertIsNone(workloads.recursion_probe())
        # any other exception propagates
        self._raise(homomorphism, "find_homomorphism", ValueError)
        self.assertRaises(ValueError, workloads.recursion_probe)


class TracedRun(unittest.TestCase):
    def test_spans_account_for_operation_time(self):
        result = run.measure_traced("decompose", seed=2, smoke=True)
        self.assertTrue(result["correct"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["s_factor.s_decompose.calls"], 4 + 1)  # ops + warm-up
        self.assertEqual(metrics["known_defect.grid32_recursion_error"], 1)
        self.assertGreater(metrics["factor_ordinary.factorize.calls"], 0)
        # the pass's self times, per function plus the operations' own, add
        # up to the traced operation time; the set-up is kept apart
        pass_self_s = result["detail"]["pass_self_s"]
        self.assertAlmostEqual(sum(pass_self_s.values()), result["detail"]["traced_run_s"], places=6)
        self.assertLess(pass_self_s["s_factor.s_decompose"], metrics["s_factor.s_decompose.self_s"])
        # the wrappers are gone again
        self.assertNotIn("wrapper", s_factor.s_decompose.__code__.co_name)

    def test_call_counts_are_exact(self):
        counts = []
        for _ in range(2):
            # as in a fresh interpreter: the lazy tables are empty
            homomorphism.enumerate_targets.cache_clear()
            homomorphism._target_search_data.cache_clear()
            result = run.measure_traced("chi_cycles", seed=2, smoke=True)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(".calls")})
        # sum over k <= 5 of 2^C(k-1,2) * k! canonicalizations
        self.assertEqual(counts[0]["setup.switching.canonical_form.calls"], 7887)
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
