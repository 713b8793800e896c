import json
import signal
import threading
import time

import pytest
from click.testing import CliRunner

from steadyparts.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(cli, args, obj={}, catch_exceptions=False)


class TestTable1:
    def test_csv(self, runner):
        res = invoke(runner, ["table1", "--L", "10", "--format", "csv"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "L,pi,A,ratio"
        assert lines[1] == "10,2.02082e13,2.14152e13,0.9436"
        assert lines[2] == "10,3.42924e13,3.78489e13,0.9060"

    def test_json_round_trip(self, runner):
        res = invoke(runner, ["table1", "--L", "10", "--format", "json"])
        rows = json.loads(res.output)
        assert len(rows) == 2
        diag = rows[0]
        assert set(diag) >= {"L", "pi_exact", "pi_sci", "A_sci", "ratio"}
        assert int(diag["pi_exact"]) == 20208198304276
        assert diag["pi_sci"] == "2.02082e13"

    def test_text(self, runner):
        res = invoke(runner, ["table1", "--L", "10"])
        assert "ratio = 0.9436" in res.output
        assert "20208198304276" in res.output

    def test_bad_l_list(self, runner):
        res = runner.invoke(cli, ["table1", "--L", "ten"], obj={})
        assert res.exit_code != 0

    def test_determinism_across_threads(self, runner):
        a = invoke(runner, ["--threads", "1", "table1", "--L", "10", "--format", "json"])
        b = invoke(runner, ["--threads", "8", "table1", "--L", "10", "--format", "json"])
        assert a.output == b.output

    def test_time_guard(self, runner, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0")
        res = runner.invoke(cli, ["table1", "--L", "10"], obj={})
        assert res.exit_code == 2

    def test_memory_guard(self, runner, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", "1024")
        res = runner.invoke(cli, ["table1", "--L", "10"], obj={})
        assert res.exit_code == 2


class TestCompute:
    def test_edge_cell(self, runner):
        res = invoke(runner, ["compute", "--m", "0", "--n", "7"])
        assert "pi(0,7) = 1" in res.output

    def test_two_one(self, runner):
        res = invoke(runner, ["compute", "--m", "2", "--n", "1"])
        assert "pi(2,1) = 2" in res.output

    def test_table1_cell(self, runner):
        res = invoke(runner, ["compute", "--m", "100", "--n", "100"])
        assert "2.02082e13" in res.output

    def test_beyond_2n_note(self, runner):
        res = invoke(runner, ["compute", "--m", "7", "--n", "2"])
        assert "D(7,2) = 0" in res.output
        assert "m > 2n" in res.output


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
    def test_memory_guard_aborts_cleanly(self, runner, monkeypatch, args):
        monkeypatch.setenv("STEADYPARTS_MEM_LIMIT_BYTES", "10")
        res = runner.invoke(cli, args, obj={})
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("aborted: ")
        assert res.stdout == ""
        assert "Traceback" not in res.output

    def test_compute_time_guard(self, runner, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0")
        res = runner.invoke(cli, ["compute", "--m", "100", "--n", "100"], obj={})
        assert res.exit_code == 2
        assert res.stderr.startswith("aborted: time budget")

    def test_time_guard_fires_inside_table_build(self, runner, monkeypatch):
        # G up to 40000 takes seconds; the timer must stop the build itself
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0.2")
        start = time.monotonic()
        res = runner.invoke(cli, ["compute", "--m", "40000", "--n", "40000"], obj={})
        elapsed = time.monotonic() - start
        assert res.exit_code == 2
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
    def test_malformed_budget_aborts_cleanly(self, runner, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        handler = signal.getsignal(signal.SIGALRM)
        res = runner.invoke(cli, ["compute", "--m", "3", "--n", "3"], obj={})
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("aborted: ")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler

    @staticmethod
    def invoke_in_thread(runner, args):
        results = []
        worker = threading.Thread(target=lambda: results.append(runner.invoke(cli, args, obj={})))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return results[0]

    def test_runs_off_the_main_thread(self, runner):
        # only the main thread can arm the timer; other threads run without it
        res = self.invoke_in_thread(runner, ["compute", "--m", "3", "--n", "3"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("pi(3,3) = ")

    def test_zero_budget_aborts_off_the_main_thread(self, runner, monkeypatch):
        monkeypatch.setenv("STEADYPARTS_TIME_LIMIT_S", "0")
        res = self.invoke_in_thread(runner, ["compute", "--m", "3", "--n", "3"])
        assert res.exit_code == 2
        assert res.stderr.startswith("aborted: time budget")


class TestVerify:
    def test_default_passes(self, runner):
        res = invoke(runner, ["verify", "--box", "5"])
        assert res.exit_code == 0
        assert "36/36 cells" in res.output
        assert "all checks passed" in res.output

    def test_injected_fault_fails(self, runner):
        res = runner.invoke(cli, ["verify", "--box", "5", "--inject-fault"], obj={})
        assert res.exit_code == 1
        assert "FAIL" in res.output
        # the G route against the box expansion read transposed
        assert "FAIL  pi symmetry (box 5x5)" in res.output

    def test_box_beyond_product_cap_is_a_usage_error(self, runner):
        res = invoke(runner, ["verify", "--box", "61"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "Usage:" in res.stderr
        assert "Invalid value for '--box': 61 is not in the range 1<=x<=60." in res.stderr


class TestCrankRow:
    def test_row_four(self, runner):
        res = invoke(runner, ["crank-row", "--n", "4", "--format", "csv"])
        lines = res.output.strip().splitlines()
        assert lines[0] == "m,M"
        values = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
        assert sum(values.values()) == 5  # p(4)
        assert values == {v: values[v] for v in values}  # parse sanity
        assert values[-4] == values[4] == 1

    def test_row_zero(self, runner):
        res = invoke(runner, ["crank-row", "--n", "0"])
        assert "= 1" in res.output


class TestAsym:
    def test_both_values(self, runner):
        res = invoke(runner, ["asym", "--m", "100", "--n", "110"])
        assert "asym_pi(100,110) = 3.78489e13" in res.output
        assert "asym_D(100,110)" in res.output

    def test_inapplicable_d(self, runner):
        res = invoke(runner, ["asym", "--m", "10", "--n", "4"])
        assert "n/a" in res.output
