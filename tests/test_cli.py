import errno
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from steadyparts.asymptotics import asym_pi
from steadyparts.bipartite import pi_value
from steadyparts.cli import asym
from steadyparts.formatting import ratio_string, sci_from_int, sci_from_log
from steadyparts.oracles import verify
from steadyparts.crank import crank_value_direct
from steadyparts.partitions import (
    build_g_table, build_p_table, g_build_bytes, g_table_bytes, p_build_bytes, p_table_bytes,
)
from steadyparts.reports import BATCH, compute, crank_row, table1

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the one abort line of an order or argument past a float's range
PAST_A_FLOAT = (
    "aborted: an order or argument past a float's range (about 1.8e308): "
    "no table of it can be sized and no asymptotic evaluated\n"
)
# arguments that read an int past a float's range: a table order (the first
# three) or the asymptotic formulas' m (the last)
PAST_A_FLOAT_ARGS = [
    ["table1", "--L", str(10 ** 200)],
    ["compute", "--m", str(10 ** 400), "--n", str(10 ** 400)],
    ["crank-row", "--n", str(10 ** 400)],
    ["asym", "--m", str(10 ** 400), "--n", "5"],
]
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")


class CountingStream(io.StringIO):
    """A stdout that counts its writes: each write of an unbuffered stdout
    is a system call."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestTable1:
    def test_csv(self, run_cli):
        res = run_cli(["table1", "--L", "10", "--format", "csv"])
        assert res.code == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "L,pi,A,ratio"
        assert lines[1] == "10,2.02082e13,2.14152e13,0.9436"
        assert lines[2] == "10,3.42924e13,3.78489e13,0.9060"

    def test_json_round_trip(self, run_cli):
        res = run_cli(["table1", "--L", "10", "--format", "json"])
        rows = json.loads(res.stdout)
        assert len(rows) == 2
        diag = rows[0]
        assert set(diag) >= {"L", "pi_exact", "pi_sci", "A_sci", "ratio"}
        assert int(diag["pi_exact"]) == 20208198304276
        assert diag["pi_sci"] == "2.02082e13"

    def test_text(self, run_cli):
        res = run_cli(["table1", "--L", "10"])
        assert "ratio = 0.9436" in res.stdout
        assert "20208198304276" in res.stdout

    def test_rows_are_written_in_one_batch(self):
        # every format writes the bytes that printing each row, or
        # json.dumps of the row dicts, wrote; a few rows are one write
        from steadyparts.cli import cli

        for l_values in ([1], [10, 40]):
            G = build_g_table(max(l_values) ** 2)
            rows = []
            for L in l_values:
                for m, n in ((L * L, L * L), (L * L, L * L + L)):
                    v, a = pi_value(m, n, G), asym_pi(m, n)
                    rows.append({
                        "L": L, "m": m, "n": n, "pi_exact": str(v), "pi_sci": sci_from_int(v),
                        "A_sci": sci_from_log(a), "ratio": ratio_string(math.log(v), a),
                    })
            expected = {
                "text": "".join(
                    f"L={r['L']:>4} {'diagonal ' if r['m'] == r['n'] else 'off-diag '} pi({r['m']},{r['n']}) = "
                    f"{r['pi_sci']}   A = {r['A_sci']}   ratio = {r['ratio']}\n           exact: {r['pi_exact']}\n"
                    for r in rows
                ),
                "csv": "L,pi,A,ratio\n" + "".join(f"{r['L']},{r['pi_sci']},{r['A_sci']},{r['ratio']}\n" for r in rows),
                "json": json.dumps(rows, indent=2) + "\n",
            }
            for fmt, text in expected.items():
                out = CountingStream()
                with redirect_stdout(out):
                    cli(["table1", "--L", ",".join(map(str, l_values)), "--format", fmt])
                assert out.getvalue() == text, (l_values, fmt)
                assert out.writes == 1, (l_values, fmt)

    def test_bad_l_list(self, run_cli):
        res = run_cli(["table1", "--L", "ten"])
        assert res.code == 2
        assert res.stdout == ""

    def test_determinism_across_threads(self, run_cli):
        # 4 cells, 8 threads asked for
        for fmt in ("text", "csv", "json"):
            a = run_cli(["--threads", "1", "table1", "--L", "10,40", "--format", fmt])
            b = run_cli(["--threads", "8", "table1", "--L", "10,40", "--format", fmt])
            assert a.code == b.code == 0
            assert a.stdout == b.stdout

    def test_cell_fault_reads_the_same_on_any_thread_count(self, run_cli, monkeypatch):
        from steadyparts import bipartite

        real = bipartite.pi_value

        def faulty(m, n, G):
            if m >= 1600:  # every cell from L = 40 on
                raise ArithmeticError(f"cell ({m}, {n})")
            return real(m, n, G)

        monkeypatch.setattr(bipartite, "pi_value", faulty)
        raised = {}
        for threads in ("1", "2", "8"):
            with pytest.raises(ArithmeticError) as info:
                run_cli(["--threads", threads, "table1", "--L", "10,40,70"])
            raised[threads] = str(info.value)
        # the first failing cell in order, whatever the thread count
        assert raised == dict.fromkeys(("1", "2", "8"), "cell (1600, 1600)")

    def test_time_guard(self, run_cli, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0")
        res = run_cli(["table1", "--L", "10"])
        assert res.code == 2

    def test_memory_guard(self, run_cli, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", "1024")
        res = run_cli(["table1", "--L", "10"])
        assert res.code == 2


class TestCompute:
    def test_edge_cell(self, run_cli):
        res = run_cli(["compute", "--m", "0", "--n", "7"])
        assert "pi(0,7) = 1" in res.stdout

    def test_two_one(self, run_cli):
        res = run_cli(["compute", "--m", "2", "--n", "1"])
        assert "pi(2,1) = 2" in res.stdout

    def test_table1_cell(self, run_cli):
        res = run_cli(["compute", "--m", "100", "--n", "100"])
        assert "2.02082e13" in res.stdout

    def test_beyond_2n_note(self, run_cli):
        res = run_cli(["compute", "--m", "7", "--n", "2"])
        assert "D(7,2) = 0" in res.stdout
        assert "m > 2n" in res.stdout

    def test_offset_past_a_float_aborts_cleanly(self, run_cli):
        # G to 5 is cheap, but the asymptotic formulas take m and n as floats
        res = run_cli(["compute", "--m", str(10 ** 400), "--n", "5"])
        assert res.code == 2
        assert res.stdout == ""
        assert res.stderr == PAST_A_FLOAT


class TestGuard:
    """Every oversized request aborts cleanly: exit 2, a one-line reason on
    stderr, no traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["table1", "--L", "10"],
            ["compute", "--m", "100", "--n", "100"],
            ["crank-row", "--n", "10"],
            *PAST_A_FLOAT_ARGS,
        ],
    )
    def test_memory_guard_aborts_cleanly(self, run_cli, monkeypatch, args):
        monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", "10")
        res = run_cli(args)
        assert res.code == 2  # a SystemExit: run_cli lets any other exception through
        assert res.stderr.startswith("aborted: ")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    def test_table_estimate_bounds_g_from_above(self):
        # G to N is read through E to N // 2, the one table table1 and compute hold
        values = build_g_table(10000).half
        held = sys.getsizeof(values) + sum(map(sys.getsizeof, values))
        assert held <= g_table_bytes(10000) <= 1.5 * held

    @pytest.mark.parametrize("N", [4500, 10100, 16384, 40200])
    def test_build_estimate_bounds_the_build_peak(self, N):
        # what table1 and compute require: the held E table and the packed
        # prefix, whole (N = 4500, 10100) or beside the resumed tail past it
        build_g_table(2)  # the modules compiled before tracing
        tracemalloc.start()
        try:
            G = build_g_table(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(G.half) == N // 2 + 1
        assert peak <= g_build_bytes(N) <= 1.5 * peak

    def test_table_estimate_bounds_p_from_above(self):
        values = build_p_table(20000)
        held = sys.getsizeof(values) + sum(map(sys.getsizeof, values))
        assert held <= p_table_bytes(20000) <= 1.5 * held

    @pytest.mark.parametrize("n", [1125, 4096, 20000])
    def test_p_build_estimate_bounds_the_build_peak(self, n):
        # what crank-row requires: the blocked prefix and its windows, whole
        # (n = 1125) or beside the resumed tail, which outweighs them at 20000
        build_p_table(2)  # the modules compiled before tracing
        tracemalloc.start()
        try:
            p = build_p_table(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p) == n + 1
        assert peak <= p_build_bytes(n) <= 1.5 * peak

    def test_crank_row_estimate_bounds_what_it_holds(self, run_cli, monkeypatch):
        # crank-row needs the p table's build, whose windows outweigh the
        # table at this n, then holds the table and one batch of BATCH lines:
        # the strings, their join and its encoding.  The guard's estimate lies
        # between the larger of the two, for a batch of the longest lines,
        # and half as much again
        n = 5000
        build_p_table(2)
        tracemalloc.start()
        try:
            p = build_p_table(n)
            build = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sys.getsizeof(p) + sum(map(sys.getsizeof, p))
        for fmt, end in (("text", "\n"), ("csv", "\n"), ("json", "},\n")):
            args = ["crank-row", "--n", str(n), "--format", fmt]
            longest = max(run_cli(args).stdout.split(end), key=len) + end
            batch = [longest] * BATCH
            joined = "".join(batch)
            held = table + sys.getsizeof(batch) + BATCH * sys.getsizeof(longest)
            held += sys.getsizeof(joined) + sys.getsizeof(joined.encode())
            held = max(build, held)
            monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", str(held))
            assert run_cli(args).code == 2, fmt
            monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", str(int(1.5 * held)))
            assert run_cli(args).code == 0, fmt

    def test_crank_row_guard_sizes_the_row(self, run_cli, monkeypatch):
        # 2 MB holds the p table to 20000 (~1.8 MB), not the table and a
        # batch of 1000 lines of up to 179 characters (~0.6 MB more)
        monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", str(2 * 10 ** 6))
        res = run_cli(["crank-row", "--n", "20000"])
        assert res.code == 2
        assert res.stderr.startswith("aborted: ")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""

    def test_time_budget_leaves_the_lines_written(self, run_cli, monkeypatch):
        # crank-row writes each batch once it is summed: a timer that fires
        # in the middle of the row leaves a prefix of it on stdout
        from steadyparts import crank

        full = run_cli(["crank-row", "--n", "2000"]).stdout
        real = crank.crank_value_direct
        calls = itertools.count()

        def stalls(m, n, p):
            if next(calls) == 2500:  # past two batches of lines
                time.sleep(60)
            return real(m, n, p)

        monkeypatch.setattr(crank, "crank_value_direct", stalls)
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0.5")
        res = run_cli(["crank-row", "--n", "2000"])
        assert res.code == 2
        assert res.stderr == "aborted: time budget of 0.5s exceeded\n"
        assert res.stdout.endswith("\n")
        assert full.startswith(res.stdout)
        assert 0 < len(res.stdout) < len(full)

    def test_time_budget_in_the_last_cell_writes_nothing(self, run_cli, monkeypatch):
        # table1 formats every row before it writes any: a timer that fires
        # in its last cell leaves stdout empty
        from steadyparts import bipartite

        real = bipartite.pi_value
        stalled = []

        def stalls(m, n, G):
            if (m, n) == (1600, 1640):  # the last cell of --L 10,40
                stalled.append((m, n))
                time.sleep(60)
            return real(m, n, G)

        monkeypatch.setattr(bipartite, "pi_value", stalls)
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0.5")
        for fmt in ("text", "csv", "json"):
            res = run_cli(["table1", "--L", "10,40", "--format", fmt])
            assert res.code == 2, fmt
            assert res.stderr == "aborted: time budget of 0.5s exceeded\n", fmt
            assert res.stdout == "", fmt
        assert len(stalled) == 3

    def test_compute_time_guard(self, run_cli, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0")
        res = run_cli(["compute", "--m", "100", "--n", "100"])
        assert res.code == 2
        assert res.stderr.startswith("aborted: time budget")

    def test_time_guard_fires_inside_table_build(self, run_cli, monkeypatch):
        # G up to 40000 takes seconds; the timer must stop the build itself
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0.2")
        start = time.monotonic()
        res = run_cli(["compute", "--m", "40000", "--n", "40000"])
        elapsed = time.monotonic() - start
        assert res.code == 2
        assert res.stderr.startswith("aborted: time budget of 0.2s exceeded")
        assert res.stdout == ""
        assert elapsed < 1.5
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("STEADYPARTS_TIME_LIMIT_S", "abc"),
            ("STEADYPARTS_TIME_LIMIT_S", "nan"),
            ("STEADYPARTS_TIME_LIMIT_S", "inf"),
            ("STEADYPARTS_TIME_LIMIT_S", "1e10"),  # would overflow the timer's time_t
            ("STEADYPARTS_MEM_LIMIT_BYTES", "1e9"),
        ],
    )
    def test_malformed_budget_aborts_cleanly(self, run_cli, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        handler = signal.getsignal(signal.SIGALRM)
        res = run_cli(["compute", "--m", "3", "--n", "3"])
        assert res.code == 2  # a SystemExit: run_cli lets any other exception through
        assert res.stderr.startswith("aborted: ")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler

    @staticmethod
    def invoke_in_thread(run_cli, args):
        results = []
        worker = threading.Thread(target=lambda: results.append(run_cli(args)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return results[0]

    def test_runs_off_the_main_thread(self, run_cli):
        # only the main thread can arm the timer; other threads run without it
        res = self.invoke_in_thread(run_cli, ["compute", "--m", "3", "--n", "3"])
        assert res.code == 0, res.stdout
        assert res.stdout.startswith("pi(3,3) = ")

    def test_zero_budget_aborts_off_the_main_thread(self, run_cli, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0")
        res = self.invoke_in_thread(run_cli, ["compute", "--m", "3", "--n", "3"])
        assert res.code == 2
        assert res.stderr.startswith("aborted: time budget")


class TestVerify:
    def test_default_passes(self, run_cli):
        res = run_cli(["verify", "--box", "5"])
        assert res.code == 0
        assert "36/36 cells" in res.stdout
        assert "all checks passed" in res.stdout

    def test_deep_report(self, run_cli):
        res = run_cli(["verify", "--deep"])
        assert res.code == 0
        assert res.stdout == (
            "PASS  three-way pi agreement (121/121 cells)\n"
            "PASS  telescoping D identity (1681 cells, n <= 40)\n"
            "PASS  crank marginals equal p(n) (n <= 100)\n"
            "PASS  pi symmetry (box 10x10)\n"
            "PASS  crank expansion paths agree (order 40)\n"
            "PASS  combinatorial crank counts (2 <= n <= 30)\n"
            "all checks passed\n"
        )

    def test_deep_injected_fault_fails_the_g_checks(self, run_cli):
        # G[2] is off by one: every check that reads G fails, no other
        res = run_cli(["verify", "--deep", "--inject-fault"])
        assert res.code == 1
        verdicts = [line.split(" (")[0].split("  ") for line in res.stdout.splitlines()]
        assert verdicts == [
            ["FAIL", "three-way pi agreement"],
            ["FAIL", "telescoping D identity"],
            ["PASS", "crank marginals equal p(n)"],
            ["FAIL", "pi symmetry"],
            ["PASS", "crank expansion paths agree"],
            ["PASS", "combinatorial crank counts"],
        ]
        assert res.stderr == "3 check(s) failed\n"

    def test_miscounted_crank_fails_only_the_count_check(self, run_cli, monkeypatch):
        # --inject-fault leaves the brute-force counts alone: one count off
        # by one, at (m, n) = (3, 20), must fail that check and no other
        from steadyparts import crank

        real = crank.crank_counts_by_enumeration

        def miscount(N):
            counts = [list(row) for row in real(N)]
            counts[3][20] += 1
            return tuple(map(tuple, counts))

        monkeypatch.setattr(crank, "crank_counts_by_enumeration", miscount)
        res = run_cli(["verify", "--deep"])
        assert res.code == 1
        failed = [line for line in res.stdout.splitlines() if not line.startswith("PASS  ")]
        assert failed == ["FAIL  combinatorial crank counts (2 <= n <= 30)"]
        assert res.stderr == "1 check(s) failed\n"

    @pytest.mark.parametrize(
        "name, corrupt, args, failed",
        [
            pytest.param(
                # M(+-3, 20) off by one in crank-row's closed form, which the
                # table no longer reads: only the deep check that compares
                # the table's cells with it fails
                "crank_value_direct",
                lambda real: lambda m, n, p: real(m, n, p) + ((abs(m), n) == (3, 20)),
                ["verify", "--deep"],
                ["FAIL  crank expansion paths agree (order 40)"],
                id="closed-form-value",
            ),
            pytest.param(
                # M(+-3, 20) off by one in the closed-form table itself
                "build_crank_table",
                lambda real: lambda N: tuple(
                    tuple(v + ((abs(m), n) == (3, 20)) for n, v in enumerate(row))
                    for m, row in zip([*range(N + 1), *range(-N, 0)], real(N))
                ),
                ["verify", "--deep"],
                [
                    "FAIL  telescoping D identity (1681 cells, n <= 40)",
                    "FAIL  crank marginals equal p(n) (n <= 100)",
                    "FAIL  crank expansion paths agree (order 40)",
                    "FAIL  combinatorial crank counts (2 <= n <= 30)",
                ],
                id="closed-form-table",
            ),
            pytest.param(
                # p(60) off by one in the p the crank table reads: the
                # marginals are compared with a p from another route
                "divide_by_euler",
                lambda real: lambda coeffs: [x + (i == 60) for i, x in enumerate(real(coeffs))],
                ["verify"],
                ["FAIL  crank marginals equal p(n) (n <= 100)"],
                id="table-p",
            ),
        ],
    )
    def test_corrupted_closed_form_fails_verify(self, run_cli, monkeypatch, name, corrupt, args, failed):
        from steadyparts import crank

        monkeypatch.setattr(crank, name, corrupt(getattr(crank, name)))
        res = run_cli(args)
        assert res.code == 1
        assert [line for line in res.stdout.splitlines() if not line.startswith("PASS  ")] == failed
        assert res.stderr == f"{len(failed)} check(s) failed\n"

    def test_injected_fault_fails(self, run_cli):
        res = run_cli(["verify", "--box", "5", "--inject-fault"])
        assert res.code == 1
        assert "FAIL" in res.stdout
        # the G route against the box expansion read transposed
        assert "FAIL  pi symmetry (box 5x5)" in res.stdout

    def test_box_beyond_product_cap_is_a_usage_error(self, run_cli):
        res = run_cli(["verify", "--box", "61"])
        assert res.code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: ")
        assert "argument --box: 61 is not in the range 1<=x<=60" in res.stderr


class TestCrankRow:
    def test_row_four(self, run_cli):
        res = run_cli(["crank-row", "--n", "4", "--format", "csv"])
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "m,M"
        values = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
        assert sum(values.values()) == 5  # p(4)
        assert values == {v: values[v] for v in values}  # parse sanity
        assert values[-4] == values[4] == 1

    def test_row_zero(self, run_cli):
        res = run_cli(["crank-row", "--n", "0"])
        assert "= 1" in res.stdout

    def test_json_is_written_in_batches(self):
        # each write of an unbuffered stdout is a system call; json.dump
        # wrote about 48000 chunks at n = 2000, one at a time.  Every format
        # writes the bytes that printing the whole row wrote
        from steadyparts.cli import cli

        for n in (0, 1, 2000):  # M(0, 1) = -1 puts a minus sign in a string of M
            p = build_p_table(n)
            row = [(m, crank_value_direct(m, n, p)) for m in range(-n, n + 1)]
            expected = {
                "text": "".join(f"M({m},{n}) = {v}\n" for m, v in row),
                "csv": "m,M\n" + "".join(f"{m},{v}\n" for m, v in row),
                "json": json.dumps([{"m": m, "M": str(v)} for m, v in row], indent=2) + "\n",
            }
            for fmt, text in expected.items():
                out = CountingStream()
                with redirect_stdout(out):
                    cli(["crank-row", "--n", str(n), "--format", fmt])
                assert out.getvalue() == text, (n, fmt)
                assert out.writes <= 20, (n, fmt)


class TestAsym:
    def test_both_values(self, run_cli):
        res = run_cli(["asym", "--m", "100", "--n", "110"])
        assert "asym_pi(100,110) = 3.78489e13" in res.stdout
        assert "asym_D(100,110)" in res.stdout

    def test_inapplicable_d(self, run_cli):
        res = run_cli(["asym", "--m", "10", "--n", "4"])
        assert "n/a" in res.stdout


class TestHelp:
    def test_lists_the_commands(self, run_cli):
        res = run_cli(["--help"])
        assert res.code == 0
        lines = [line.split() for line in res.stdout.splitlines()]
        for name, run in [("table1", table1), ("compute", compute), ("verify", verify),
                          ("crank-row", crank_row), ("asym", asym)]:
            assert [name, *run.__doc__.split()] in lines
        assert "--inject-fault" not in res.stdout

    @pytest.mark.parametrize("command", ["table1", "compute", "verify", "crank-row", "asym"])
    def test_each_command(self, run_cli, command):
        res = run_cli([command, "--help"])
        assert res.code == 0
        assert res.stdout.split()[:3] == ["usage:", "steadyparts", command]
        assert "--inject-fault" not in res.stdout


class TestUsage:
    """A command line that does not parse exits 2 with argparse's two
    lines on stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["frobnicate"], "steadyparts: error: argument COMMAND: invalid choice: 'frobnicate'"),
            ([], "steadyparts: error: the following arguments are required: COMMAND"),
            (["compute", "--m", "1", "--n", "1", "--bogus"], "steadyparts compute: error: unrecognized arguments: --bogus"),
            (["compute", "--n", "1"], "steadyparts compute: error: the following arguments are required: --m"),
            (["compute", "--m", "-5", "--n", "1"], "steadyparts compute: error: argument --m: -5 is not in the range x>=0"),
            (["compute", "--m", "x", "--n", "1"], "steadyparts compute: error: argument --m: 'x' is not a valid integer"),
            (["crank-row", "--n", "3", "--format", "xml"], "steadyparts crank-row: error: argument --format: invalid choice: 'xml'"),
            (["--threads", "0", "asym", "--m", "1", "--n", "1"], "steadyparts: error: argument --threads: 0 is not in the range x>=1"),
            (["verify", "--box", "0"], "steadyparts verify: error: argument --box: 0 is not in the range 1<=x<=60"),
        ],
    )
    def test_exits_2_with_usage(self, run_cli, args, message):
        res = run_cli(args)
        assert res.code == 2
        assert res.stdout == ""
        usage, error = res.stderr.splitlines()
        assert usage.startswith("usage: steadyparts")
        assert error.startswith(message)

    def test_equals_sign_and_repeated_option(self, run_cli):
        # the last --n wins
        assert run_cli(["asym", "--m=5", "--n", "3", "--n=7"]) == run_cli(["asym", "--m", "5", "--n", "7"])
        assert run_cli(["asym", "--m", "5", "--n", "7"]).stdout.startswith("asym_pi(5,7) = ")

    def test_short_help(self, run_cli):
        res = run_cli(["asym", "-h"])
        assert res.code == 0
        assert res.stdout.startswith("usage: steadyparts asym [-h] --m M --n N\n")


class TestProcess:
    """The CLI as its own process, as a shell runs it."""

    @staticmethod
    def env():
        # without PYTHONUNBUFFERED, stdout is block-buffered as a shell runs
        # it, so output still in the buffer at exit would show up as missing
        env = {**os.environ, "PYTHONPATH": SRC}
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def run_module(self, *args, env=None, prefix=(), **streams):
        """`python [prefix] -m steadyparts.cli args` run to the end, through
        the process entry point.  stdout and stderr come back as bytes
        unless `streams` points them elsewhere; it may also give `input`."""
        return subprocess.run(
            [sys.executable, *prefix, "-m", "steadyparts.cli", *args],
            timeout=60, env={**self.env(), **(env or {})},
            **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
        )

    def test_success_writes_the_in_process_bytes(self, run_cli):
        args = ["table1", "--L", "10,40", "--format", "json"]
        proc = self.run_module(*args)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout == run_cli(args).stdout.encode()

    def test_long_output_arrives_whole(self):
        proc = self.run_module("crank-row", "--n", "3000")
        lines = proc.stdout.decode().splitlines()
        assert proc.returncode == 0
        assert len(lines) == 6001
        assert lines[-1] == "M(3000,3000) = 1"

    def test_verify_failure_exits_1(self):
        proc = self.run_module("verify", "--inject-fault")
        assert proc.returncode == 1
        assert proc.stderr == b"3 check(s) failed\n"

    def test_guard_abort_exits_2(self):
        proc = self.run_module("asym", "--m", "1", "--n", "1", env={"STEADYPARTS_TIME_LIMIT_S": "0"})
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"aborted: time budget of 0s exceeded\n"

    @pytest.mark.parametrize("args", PAST_A_FLOAT_ARGS)
    def test_past_a_float_exits_2_with_one_line(self, args):
        proc = self.run_module(*args)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == PAST_A_FLOAT.encode()

    def test_usage_error_exits_2(self):
        proc = self.run_module("table1", "--L", "ten")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"usage: steadyparts table1")
        assert b"cannot parse L list 'ten'" in proc.stderr

    def test_profiler_still_reports(self):
        # a profiler's report is written at exit, which a success must not skip
        proc = self.run_module("asym", "--m", "100", "--n", "100", prefix=("-m", "cProfile"))
        out = proc.stdout.decode()
        assert proc.returncode == 0
        assert out.startswith("asym_pi(100,100) = 2.14152e13\nasym_D(100,100)  = 2.17138e12\n")
        assert " function calls " in out

    def test_debugger_session_goes_on(self, tmp_path):
        # pdb removes its trace function on `continue`, then restarts the
        # program once it finishes.  The script sets the command line
        # itself, because CPython 3.13.0's pdb reads every argument after
        # `-m module` as one of its own
        script = tmp_path / "asym.py"
        script.write_text(
            "import sys\nfrom steadyparts.cli import main\n"
            "sys.argv[1:] = ['asym', '--m', '1', '--n', '1']\nmain()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pdb", str(script)], input=b"continue\nquit\n",
            capture_output=True, timeout=60, env=self.env(),
        )
        assert proc.returncode == 0
        assert b"asym_pi(1,1) = 3.00678e0\n" in proc.stdout
        assert b"The program finished and will be restarted" in proc.stdout

    def test_closed_fd_1_exits_1_with_one_line(self):
        # the shell starts the child with fd 1 closed, so sys.stdout is None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m steadyparts.cli asym --m 1 --n 1 >&-', sys.executable],
            stderr=subprocess.PIPE, timeout=60, env=self.env(),
        )
        assert proc.returncode == 1
        assert proc.stderr == b"error: cannot write output: stdout is closed\n"

    @needs_dev_full
    def test_full_device_exits_1_with_one_line(self):
        for args in (["asym", "--m", "1", "--n", "1"], ["--help"]):
            with open("/dev/full", "wb") as full:
                proc = self.run_module(*args, stdout=full)
            assert proc.returncode == 1
            assert proc.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()

    @needs_dev_full
    def test_guard_abort_exits_2_when_stderr_cannot_be_written(self):
        with open("/dev/full", "wb") as full:
            proc = self.run_module("asym", "--m", "1", "--n", "1", env={"STEADYPARTS_TIME_LIMIT_S": "0"}, stderr=full)
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_closed_stdout_exits_1_quietly(self):
        # 6001 lines, far more than a pipe buffers: the writes after the
        # reader leaves fail with EPIPE
        proc = subprocess.Popen(
            [sys.executable, "-m", "steadyparts.cli", "crank-row", "--n", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(),
        )
        assert proc.stdout.readline() == b"M(-3000,3000) = 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def modules_after(self, probe: str) -> set:
        """The names in sys.modules after `probe` runs in a fresh interpreter.
        -S leaves site-packages off the path, so only the package's own
        imports and the stdlib can load."""
        probe += "\nprint(' '.join(sys.modules))"
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=self.env(), check=True,
        ).stdout
        return set(out.splitlines()[-1].split())

    def test_bench_tracer_counts_through_the_tables(self, monkeypatch):
        # bench/tracer.py's count hooks read build_p_table's and
        # build_c_table's tables through `.values()` and invert's argument
        # through `.coeffs`; no bytecode is written, for a stray
        # bench/__pycache__ moves the benchmark's RSS
        proc = subprocess.run(
            [sys.executable, "bench/tracer.py", "verify", "--deep"], cwd=Path(SRC).parent,
            capture_output=True, text=True, timeout=120, env={**self.env(), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "all checks passed"
        marker, _, line = proc.stderr.splitlines()[-1].partition(" ")
        assert marker == "@@steadyparts-spans"
        record = json.loads(line)
        counts = [span[5] for span in record["spans"] if span[5]]
        for name in ("partitions.table_entries", "series.product_terms"):
            assert any(c.get(name, 0) > 0 for c in counts), name
        # every per-layer metric BENCHMARK.json declares keeps a timed function
        # that resolves, as bench/selftest.py requires: deleting a layer's
        # only resolving function drops its metric
        root = Path(SRC).parent
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_layers", root / "bench" / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        declared = {metric["name"] for metric in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
        assert layers.present_metrics({tuple(x) for x in record["resolved"]}) == declared

    def test_imports_only_the_stdlib(self):
        out = self.modules_after("import sys, steadyparts.cli")
        assert "steadyparts.cli" in out
        for name in ("click", "typing", "json", "concurrent.futures", "logging", "decimal", "argparse", "gettext", "locale"):
            assert name not in out

    @pytest.mark.parametrize("command", [["table1", "--L", "10"], ["crank-row", "--n", "10"]])
    def test_json_format_loads_no_json(self, command):
        # each writes its JSON as fixed text
        args = [*command, "--format", "json"]
        out = self.modules_after(f"import sys\nfrom steadyparts.cli import cli\ncli({args!r})")
        assert "steadyparts.reports" in out
        assert "json" not in out

    def test_threads_load_no_pool(self):
        out = self.modules_after(
            "import sys\nfrom steadyparts.cli import cli\ncli(['--threads', '2', 'table1', '--L', '10'])"
        )
        assert "steadyparts.cli" in out
        assert "concurrent.futures" not in out
        assert "logging" not in out

    def test_imports_every_package_module(self):
        # bench/tracer.py wraps only the package modules in sys.modules after
        # this import; they are registered there, compiled on first use
        files = Path(SRC, "steadyparts").glob("*.py")
        package = {f"steadyparts.{path.stem}" for path in files if path.stem != "__init__"}
        assert package
        assert package <= self.modules_after("import sys, steadyparts.cli")

    def test_tracer_wraps_every_layer(self):
        # as bench/tracer.py's install: snapshot the package's modules right
        # after the import, then rebind each function in every namespace
        probe = (
            "import importlib, sys\nimport steadyparts.cli\n"
            "package = [m for key, m in sys.modules.items() if key.split('.')[0] == 'steadyparts']\n"
            "fired = set()\n"
            "def wrap(name, fn):\n"
            "    def traced(*args):\n"
            "        fired.add(name)\n"
            "        return fn(*args)\n"
            "    return traced\n"
            "for module, name in [('partitions', 'build_g_table'), ('bipartite', 'pi_value'),\n"
            "                     ('crank', 'build_crank_table'), ('bipartite', 'gf_table')]:\n"
            "    fn = getattr(importlib.import_module('steadyparts.' + module), name)\n"
            "    wrapper = wrap(name, fn)\n"
            "    for mod in package:\n"
            "        for attr, value in list(vars(mod).items()):\n"
            "            if value is fn:\n"
            "                setattr(mod, attr, wrapper)\n"
            "steadyparts.cli.cli(['verify', '--deep'])\n"
            "print('fired', sorted(fired))\n"
            "fired.clear()\n"
            "steadyparts.cli.cli(['compute', '--m', '30', '--n', '40'])\n"
            "print('fired', sorted(fired))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=self.env(), check=True,
        ).stdout.splitlines()
        assert [line for line in out if line.startswith("fired ")] == [
            "fired ['build_crank_table', 'build_g_table', 'gf_table', 'pi_value']",  # verify --deep
            "fired ['build_g_table', 'pi_value']",  # compute
        ]

    @pytest.mark.parametrize(
        "args, unused",
        [
            (["asym", "--m", "100", "--n", "100"], ["bipartite", "crank", "partitions", "series", "reports", "oracles", "usage"]),
            (["compute", "--m", "100", "--n", "100"], ["crank", "oracles", "usage"]),
            (["table1", "--L", "10"], ["crank", "oracles", "usage"]),
            (["verify", "--box", "3"], ["asymptotics", "formatting", "reports", "usage"]),
        ],
    )
    def test_runs_only_the_modules_a_command_calls(self, args, unused):
        # a module that has run holds __builtins__; reading its __dict__
        # through object.__getattribute__ does not load it
        probe = (
            f"import sys\nfrom steadyparts.cli import cli\ncli({args!r})\n"
            f"print([name for name in {unused!r}\n"
            "       if '__builtins__' in object.__getattribute__(sys.modules['steadyparts.' + name], '__dict__')])"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60, env=self.env(), check=True,
        ).stdout
        assert out.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("args", [["asym", "--help"], ["compute", "--m", "x", "--n", "1"]])
    def test_help_and_usage_errors_load_the_usage_module(self, args):
        probe = (
            f"import sys\nfrom steadyparts.cli import cli\ntry:\n    cli({args!r})\nexcept SystemExit:\n    pass\n"
            "print('__builtins__' in object.__getattribute__(sys.modules['steadyparts.usage'], '__dict__'))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60, env=self.env(), check=True,
        ).stdout
        assert out.splitlines()[-1] == "True"

    def test_out_of_memory_exits_2_with_one_line(self):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS on this platform")
        # the process caps its own address space at 1 GiB once started, and
        # a budget of 10^15 bytes lets through a request whose first list, p to
        # 2.5e8, takes 2 GB
        probe = (
            "import resource\nfrom steadyparts.cli import main\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 2 ** 30 if hard == resource.RLIM_INFINITY else min(2 ** 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "main()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, "compute", "--m", str(10 ** 9), "--n", str(10 ** 9)],
            capture_output=True, text=True, timeout=60,
            env={**self.env(), "STEADYPARTS_MEM_LIMIT_BYTES": str(10 ** 15)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("aborted: out of memory")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="the memory cap reads /proc/self/statm")
    def test_memory_budget_caps_the_process(self):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS on this platform")
        # the guard sizes no verify run, so the cap alone stops it.  An
        # uncapped run reports how far its address space grew past the size
        # the entry point caps from; a sixteenth, an eighth and a quarter of
        # that growth must each end at the cap with one abort line and no
        # stdout, never a traceback or a SystemError.  Not a half: the peak
        # can hold a fresh 1 MiB object arena that is barely used, and a
        # capped run falls back to malloc where that arena does not fit, so
        # the first check to print, the three-way pi box, finishes under a
        # cap of 0.5 to 0.8 of the growth (1.4 to 1.6 MiB of 2 or 3 MiB on
        # x86-64 Linux, CPython 3.11).  No setrlimit here: the entry point
        # caps its own address space
        probe = (
            "import sys\nfrom steadyparts.cli import cli\n"
            "def size(field):\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) * 1024 for line in status if line.startswith(field + ':'))\n"
            "start = size('VmSize')\n"
            "cli(['verify', '--deep', '--box', '60'])\n"
            "print(size('VmPeak') - start)"
        )
        uncapped = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=self.env(), check=True,
        )
        growth = int(uncapped.stdout.splitlines()[-1])
        for budget in (growth // 16, growth // 8, growth // 4):
            proc = self.run_module("verify", "--deep", "--box", "60", env={"STEADYPARTS_MEM_LIMIT_BYTES": str(budget)})
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"aborted: out of memory")
            assert proc.stderr.count(b"\n") == 1

    def test_memory_budget_past_any_cap_runs(self):
        # 10^30 bytes is past what setrlimit takes: no cap, and no traceback
        proc = self.run_module("asym", "--m", "1", "--n", "1", env={"STEADYPARTS_MEM_LIMIT_BYTES": str(10 ** 30)})
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_time_budget_aborts_a_stuck_cell(self):
        # every cell blocks for good: the timer must still end the process
        probe = (
            "import threading\nfrom steadyparts import bipartite, cli\n"
            "bipartite.pi_value = lambda m, n, G: threading.Event().wait()\n"
            "cli.cli(['--threads', '2', 'table1', '--L', '10'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={**self.env(), "STEADYPARTS_TIME_LIMIT_S": "0.2"},
        )
        assert proc.returncode == 2
        assert proc.stderr == "aborted: time budget of 0.2s exceeded\n"
        assert proc.stdout == ""


def test_every_public_name_resolves():
    # each function has one name, on the module that defines it; the package
    # binds only its modules, which load on first use
    import steadyparts

    assert set(steadyparts.__all__) <= set(dir(steadyparts))
    for module, name in [
        ("bipartite", "pi_value"), ("partitions", "build_g_table"), ("series", "CoefficientTable"),
        ("asymptotics", "asym_M"), ("crank", "crank_value_direct"), ("oracles", "verify"), ("reports", "table1"),
    ]:
        assert module in steadyparts.__all__
        assert getattr(getattr(steadyparts, module), name) is not None
        assert not hasattr(steadyparts, name)


# Byte identity of the CLI: (command, exit status, sha256 of stdout) for
# table1 --L 10,40,70,100 and crank-row --n 300 in the three formats, compute
# on the eight cells of bench/run.py's compute_cells(1) and on four tiny
# ones, verify --deep and asym --m 100 --n 100.  Three more cross the end of
# G's packed prefix (partitions.PACKED_ORDERS = 8192 orders of E): table1
# --L 200 runs the resumed divisions to E(20100), compute at mu = 16384
# ends E at order 8192, the first past the prefix, and mu = 16386 at 8193.
# Every command writes nothing to stderr.  A change meant to alter these bytes regenerates the digests:
#     for args, _, _ in CLI_DIGESTS:
#         res = invoke_cli(args.split())  # tests/conftest.py
#         print(args, res.code, hashlib.sha256(res.stdout.encode()).hexdigest())
CLI_DIGESTS = [
    ("table1 --L 10,40,70,100 --format text", 0, "7fb83bb4f1a7945753ea4b3ea7b3642a6c3fa60c728b77e52362b0a00a421e81"),
    ("table1 --L 10,40,70,100 --format csv", 0, "109beb035b6b41b2911c95f34003bbf13873f479831cb85da5695cfd8d9e98bf"),
    ("table1 --L 10,40,70,100 --format json", 0, "8ae18c728dfe625fea2d475d4056a77815335cd7bfe593208e6ededc79cbf386"),
    ("compute --m 100 --n 100", 0, "c999fcf7f33ff3c11ef274f9f3ed4641cd3bebcf339df50970b8c3285e22e93d"),
    ("compute --m 1508 --n 1508", 0, "469197ae021ccff89a0d0007224413ae16b6148f21bad911280e7c2213bf013d"),
    ("compute --m 2036 --n 2041", 0, "081776619f330a981b874db41b68559bee61cc76a2f946fb621389ab0e0279bf"),
    ("compute --m 4083 --n 2531", 0, "ed8a034a882041f9eee8fe52e6bd85e5d447da60144509ee00a21b0fa336f9c8"),
    ("compute --m 7395 --n 3030", 0, "901bdbc176dc2dfa9e3e88c36f3ced2d058632f94da6d7d7b45c4ae66663dc29"),
    ("compute --m 3524 --n 8664", 0, "6d9086512f276296f8d3c06fbcac69e2b9f64e85024612e7403340b69b2e5504"),
    ("compute --m 4013 --n 4013", 0, "b24c4b53b77dc9210f8a4c28f39fa251a61aec48ca6f99747f99255ff32c796d"),
    ("compute --m 4506 --n 4538", 0, "595d3a394b04f2794aaf64f59b9bcf4ffa33571cc41a67ec2f90624e5a883b7d"),
    ("compute --m 0 --n 0", 0, "7ebfcf9846a3d71679d15dc66969331b25ea16105adfc775c240c94968501b18"),
    ("compute --m 1 --n 0", 0, "fdbc09036809ed601260784633ec929a8ccbe051c71056d9db4e05e3d16f1c78"),
    ("compute --m 2 --n 1", 0, "c51fc2fea287d74c1bf67eaa0bfb9808ffb3d79a5812568a3b112f2cc6167bdb"),
    ("compute --m 0 --n 5", 0, "31b1e51b46d65c854f5c87c6948f66c6e3700b73768a0a5f2fb3aba4cffed984"),
    ("crank-row --n 300 --format text", 0, "209a918c68b8a2c64ebb6c1a03565c3b776f3191853457c5e0a5ab7eef89148c"),
    ("crank-row --n 300 --format csv", 0, "61a3b153e388c673b610d87bfd1e40648404cd1fd6acdf57f071be0286399a7b"),
    ("crank-row --n 300 --format json", 0, "cdfc51f58dbb90f8dc6da27006c5ca1675304b983a3ccb5dbd255b737b89d87e"),
    ("verify --deep", 0, "95f63f58b2cb3c6adbb3c393bcfcb9d2ad367bf667f53270b7444c95d5cec0f8"),
    ("asym --m 100 --n 100", 0, "aba4f8903c32e6bf1b71a884e10f67e72a8c9e5cff0c79ebe11b4d031b81d9a6"),
    ("table1 --L 200", 0, "949813bce0cea63d5c05121359ce9824176e5f81d61d2fd8afdf79b99d0df7c5"),
    ("compute --m 16384 --n 16384", 0, "062f103f659a4f99b476012c0871cd393229683e7c0c9e0f04a40c29f3aca317"),
    ("compute --m 16390 --n 16386", 0, "8a2258b119a3f51841e3463d8cb2b1f1a8e04158b8aeb651f25cc04ce415b408"),
]


def test_cli_bytes_match_their_digests(run_cli):
    changed = []
    for args, code, digest in CLI_DIGESTS:
        res = run_cli(args.split())
        if (res.code, res.stderr, hashlib.sha256(res.stdout.encode()).hexdigest()) != (code, "", digest):
            changed.append(args)
    assert changed == []
