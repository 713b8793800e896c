import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from steadyparts.cli import G_GROWTH, asym, compute, crank_row, table1, table_bytes, verify
from steadyparts.partitions import build_g_table

SRC = str(Path(__file__).resolve().parent.parent / "src")


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

    def test_bad_l_list(self, run_cli):
        res = run_cli(["table1", "--L", "ten"])
        assert res.code == 2
        assert res.stdout == ""

    def test_determinism_across_threads(self, run_cli):
        a = run_cli(["--threads", "1", "table1", "--L", "10", "--format", "json"])
        b = run_cli(["--threads", "8", "table1", "--L", "10", "--format", "json"])
        assert a.stdout == b.stdout

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


class TestGuard:
    """Every table-building command aborts cleanly: exit 2, a one-line
    reason on stderr, no traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["table1", "--L", "10"],
            ["compute", "--m", "100", "--n", "100"],
            ["crank-row", "--n", "10"],
        ],
    )
    def test_memory_guard_aborts_cleanly(self, run_cli, monkeypatch, args):
        monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", "10")
        res = run_cli(args)
        assert res.code == 2  # a SystemExit: run_cli lets any other exception through
        assert res.stderr.startswith("aborted: ")
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    def test_table_estimate_bounds_g_from_above(self):
        values = build_g_table(10000).values()
        held = sys.getsizeof(values) + sum(map(sys.getsizeof, values))
        assert held <= table_bytes(10000, G_GROWTH) <= 1.5 * held

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


class TestAsym:
    def test_both_values(self, run_cli):
        res = run_cli(["asym", "--m", "100", "--n", "110"])
        assert "asym_pi(100,110) = 3.78489e13" in res.stdout
        assert "asym_D(100,110)" in res.stdout

    def test_inapplicable_d(self, run_cli):
        res = run_cli(["asym", "--m", "10", "--n", "4"])
        assert "n/a" in res.stdout


class TestHelp:
    def test_lists_the_commands(self, run_cli, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to this width
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


class TestProcess:
    """The CLI as its own process, as a shell runs it."""

    @staticmethod
    def env():
        return {**os.environ, "PYTHONPATH": SRC}

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

    def test_imports_only_the_stdlib(self):
        # -S leaves site-packages off the path, so only the package's own
        # imports and the stdlib can load
        probe = "import sys, steadyparts.cli; print(' '.join(sys.modules))"
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=self.env(), check=True,
        ).stdout.split()
        assert "steadyparts.cli" in out
        for name in ("click", "typing", "json", "concurrent.futures", "logging"):
            assert name not in out
