"""Self-tests of the benchmark; run from the repository root:

    python3 bench/selftest.py

They run the CLI a few times (about half a minute in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import layers
import reference
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def brute_pi(m: int, n: int) -> int:
    """Steadily decreasing pair sequences of weight (m, n), counted directly."""

    def count(rm, rn, bound):
        total = int(rm == rn == 0)
        for a in range(min(bound, rm) + 1):
            for b in range(min(bound, rn) + 1):
                if a or b:
                    total += count(rm - a, rn - b, min(a, b))
        return total

    return count(m, n, max(m, n))


def flip_digit(text: str, after: str) -> str:
    """Change the first digit that follows `after`."""
    i = text.index(after) + len(after)
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def run_main(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1])


class ReferenceTest(unittest.TestCase):
    def test_pi_and_d_match_brute_force(self):
        G = reference.g_table(12)
        for m in range(9):
            for n in range(9):
                self.assertEqual(reference.pi(G, m, n), brute_pi(m, n), (m, n))
                want_d = brute_pi(m, n) - (brute_pi(m - 1, n) if m else 0)
                self.assertEqual(reference.d(G, m, n), want_d, (m, n))

    def test_sci_rounds_half_to_even(self):
        self.assertEqual(reference.sci(20208198304276), "2.02082e13")
        self.assertEqual(reference.sci(1234565), "1.23456e6")
        self.assertEqual(reference.sci(7), "7.00000e0")


class NegativeControlTest(unittest.TestCase):
    """One changed digit in a printed value must count as a failure."""

    def check_flipped(self, inv: run.Invocation, after: str):
        env = run.child_env()
        self.assertIsNone(run.invoke(inv, env).problem)
        bad = run.Invocation(inv.args, lambda out: inv.check(flip_digit(out, after)))
        self.assertIsNotNone(run.invoke(bad, env).problem)

    def test_compute_digit(self):
        inv = run.compute_mix(1).invocations[0]
        self.assertEqual(inv.args[-4:], ("--m", "100", "--n", "100"))
        self.check_flipped(inv, "pi(100,100) = 2020")
        self.check_flipped(inv, "D(100,100) = 190")

    def test_table1_digit(self):
        G = reference.g_table(1600)
        inv = run.Invocation(("table1", "--L", "10,40", "--format", "json"),
                             lambda out: reference.check_table1(out, (10, 40), G))
        self.check_flipped(inv, '"pi_exact": "2290')
        self.check_flipped(inv, '"ratio": "0.98')

    def test_verify_failure(self):
        inv = run.verify_deep(1).invocations[0]
        bad = run.Invocation(inv.args, lambda out: inv.check(out.replace("PASS  pi sym", "FAIL  pi sym")))
        self.assertIsNone(run.invoke(inv, run.child_env()).problem)
        self.assertIsNotNone(run.invoke(bad, run.child_env()).problem)


class ResourceTest(unittest.TestCase):
    def test_rusage_is_per_child(self):
        env = run.child_env()
        big = run.spawn([sys.executable, "-c", "x = bytearray(80_000_000)"], env)
        small = run.spawn([sys.executable, "-c", "pass"], env)
        self.assertLess(small[2].ru_maxrss + 50_000, big[2].ru_maxrss)


class CalibrationTest(unittest.TestCase):
    def test_times_are_scaled_and_rss_is_not(self):
        query = run.Result(wall=2.0, cpu=1.5, rss_mb=20.0, problem=None, scale=0.5)
        probe = run.Result(wall=0.2, cpu=0.1, rss_mb=10.0, problem=None, scale=0.5)
        metrics = run.end_to_end([[query]], [probe])
        self.assertEqual(
            (metrics["wall_s"], metrics["query_p90_s"], metrics["cpu_s"], metrics["setup_s"],
             metrics["peak_rss_mb"]),
            (1.0, 1.0, 0.75, 0.1, 20.0),
        )


class DeclarationTest(unittest.TestCase):
    def test_workloads_declared(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS))

    def test_layer_metrics_say_what_they_move(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        for name, (_, moves) in layers.LAYER_METRICS.items():
            for metric, workload in moves:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, run.WORKLOADS, name)

    def test_removed_name_is_absent_not_zero(self):
        everything = {(module, name) for module, name, _, _ in layers.TIMED}
        present = layers.present_metrics(everything - {("crank", "build_crank_table")})
        self.assertNotIn("crank.full_table_s", present)
        self.assertIn("crank.lambert_table_s", present)

    def test_report_matches_declaration(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            report = run_main("--workload", "verify-deep", "--seed", "3", "--seconds", "1",
                              "--trace", str(trace))
            self.assertTrue(report["correct"])
            declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
            got = {name: m["unit"] for name, m in report["metrics"].items()}
            self.assertEqual(got, declared)

    def test_spans_cover_most_of_a_traced_call(self):
        traced = run.invoke(run.verify_deep(1).invocations[0], run.child_env(), traced=True)
        self.assertIsNone(traced.problem)
        _, covered, _ = run.layer_pass([traced])
        self.assertGreater(covered / traced.wall, 0.8)


class EmptyCheckoutTest(unittest.TestCase):
    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".bench-empty-", dir=run.ROOT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(Path(__file__).parent, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", "compute-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
