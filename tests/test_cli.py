import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from steadyparts.cli import asym, table_bytes
from steadyparts.oracles import verify
from steadyparts.partitions import build_g_table
from steadyparts.reports import G_GROWTH, compute, crank_row, table1

SRC = str(Path(__file__).resolve().parent.parent / "src")
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")


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
        assert res.stderr == "aborted: the asymptotic formulas take m and n up to about 1.8e308\n"


class TestGuard:
    """Every oversized request aborts cleanly: exit 2, a one-line reason on
    stderr, no traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["table1", "--L", "10"],
            ["compute", "--m", "100", "--n", "100"],
            ["crank-row", "--n", "10"],
            # orders and arguments past a float's range
            ["table1", "--L", str(10 ** 200)],
            ["compute", "--m", str(10 ** 400), "--n", str(10 ** 400)],
            ["crank-row", "--n", str(10 ** 400)],
            ["asym", "--m", str(10 ** 400), "--n", "5"],
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

    def test_imports_only_the_stdlib(self):
        out = self.modules_after("import sys, steadyparts.cli")
        assert "steadyparts.cli" in out
        for name in ("click", "typing", "json", "concurrent.futures", "logging", "decimal", "argparse", "gettext", "locale"):
            assert name not in out

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
            (["asym", "--m", "100", "--n", "100"], ["bipartite", "crank", "partitions", "series", "reports", "oracles"]),
            (["compute", "--m", "100", "--n", "100"], ["crank", "oracles"]),
            (["table1", "--L", "10"], ["crank", "oracles"]),
            (["verify", "--box", "3"], ["reports"]),
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
        # the guard sizes only the p table, 1.8 MB at n = 20000, and lets a
        # 2 MB budget through; the row's 40001 values take several MB more.
        # No setrlimit here: the entry point caps its own address space
        proc = self.run_module("crank-row", "--n", "20000", env={"STEADYPARTS_MEM_LIMIT_BYTES": str(2 * 10 ** 6)})
        assert proc.returncode == 2
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
    # the package's names resolve on first use, through one name -> module map
    import steadyparts

    assert {"pi_value", "build_g_table", "CoefficientTable", "asym_M", "crank_of"} <= set(steadyparts.__all__)
    assert set(steadyparts.__all__) <= set(dir(steadyparts))
    for name in steadyparts.__all__:
        assert getattr(steadyparts, name) is not None
