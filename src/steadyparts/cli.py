"""Command-line front end: parse the command line, then run one command
under a resource guard.  `steadyparts --help` lists the commands.

Only asym's body is here.  table1, compute and crank-row are in
steadyparts.reports, verify is in steadyparts.oracles, and the text of
--help and of a usage error is in steadyparts.usage.  The package compiles
those on first use (see steadyparts/__init__), so a process compiles only
the command it runs, and a command line that parses compiles no help text;
asym reads asymptotics and formatting through their modules for the same
reason, and verify compiles neither.

A resource guard (default 8 GiB / 30 minutes, overridable through
STEADYPARTS_TIME_LIMIT_S and STEADYPARTS_MEM_LIMIT_BYTES) aborts oversized
requests cleanly, and so do a MemoryError that gets past it and an
OverflowError from a size or an asymptotic past a float's range.
"""

import os
import sys
import types

# the C module that signal wraps: importing signal itself builds its IntEnum
# classes, about 1 ms of every process
from _signal import ITIMER_REAL, SIGALRM, setitimer, signal

from . import asymptotics, bipartite, formatting, oracles, reports, usage

DEFAULT_TIME_LIMIT_S = 30 * 60
DEFAULT_MEM_LIMIT_BYTES = 8 * 1024 ** 3
# longest time budget: within the timer's range even where time_t is 32 bits
MAX_TIME_LIMIT_S = 1e9


class ResourceGuard:
    """Coarse time/memory guard for one command, used as a context manager.

    The time budget is one SIGALRM timer, armed on entry and disarmed on exit;
    when it fires, the command aborts wherever it is, inside table builds
    too.  It arms wherever signal() takes a handler, the main thread of the
    main interpreter; elsewhere a budget of 0 or less still aborts at once.
    The guard also lifts int-to-str's digit limit: exact values print whole.
    ``require`` checks the memory budget, before a table is built, against
    a size from steadyparts.partitions.  A budget that does not parse, or a
    time budget above MAX_TIME_LIMIT_S, aborts at once.
    """

    def __init__(self):
        try:
            self.time_limit_s = float(os.environ.get("STEADYPARTS_TIME_LIMIT_S") or DEFAULT_TIME_LIMIT_S)
            self.mem_limit_bytes = int(os.environ.get("STEADYPARTS_MEM_LIMIT_BYTES") or DEFAULT_MEM_LIMIT_BYTES)
            if not self.time_limit_s <= MAX_TIME_LIMIT_S:  # nan fails this too
                raise ValueError(f"time budget must be at most {MAX_TIME_LIMIT_S:g}s, got {self.time_limit_s:g}")
        except ValueError as exc:
            _fail_guard(f"malformed budget: {exc}")

    def _time_out(self, signum=None, frame=None):
        _fail_guard(f"time budget of {self.time_limit_s:g}s exceeded")

    def __enter__(self):
        if self.time_limit_s <= 0:
            self._time_out()
        # the limit exists from CPython 3.10.7 and 3.11; 0 is none
        self._digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if self._digits:
            sys.set_int_max_str_digits(0)
        try:
            self._previous = signal(SIGALRM, self._time_out)
        except ValueError:  # off the main thread, or outside the main interpreter
            self._armed = False
        else:
            self._armed = True
            setitimer(ITIMER_REAL, self.time_limit_s)
        return self

    def __exit__(self, *exc_info):
        if self._armed:
            setitimer(ITIMER_REAL, 0)
            signal(SIGALRM, self._previous)
        if self._digits:
            sys.set_int_max_str_digits(self._digits)

    def require(self, nbytes: int):
        """Abort unless nbytes fit in the memory budget."""
        if nbytes > self.mem_limit_bytes:
            _fail_guard(f"request needs ~{nbytes} bytes of table storage, budget is {self.mem_limit_bytes}")


def _to_devnull(stream):
    # as the Python docs advise for a closed pipe: point a stream that cannot
    # be written at devnull, so that the flush at exit cannot fail again
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _stderr_line(line: str):
    """Write one line to stderr.  Write nothing when stderr is closed, where
    print would fall back to stdout, or when it cannot be written: the exit
    status still tells."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            _to_devnull(sys.stderr)


def _fail_guard(reason: str):
    _stderr_line(f"aborted: {reason}")
    sys.exit(2)


def _cannot_write(reason: str):
    _stderr_line(f"error: cannot write output: {reason}")
    sys.exit(1)


def asym(args, guard):
    """Asymptotic main terms for pi(m,n) and D(m,n)."""
    m, n = args.m, args.n
    print(f"asym_pi({m},{n}) = {formatting.sci_from_log(asymptotics.asym_pi(m, n))}")
    if asymptotics.asym_D_applies(m, n):
        print(f"asym_D({m},{n})  = {formatting.sci_from_log(asymptotics.asym_D(m, n))}")
    else:
        print(f"asym_D({m},{n})  = n/a (requires 1 <= m <= 2n with min(m, 2n-m) >= 1)")


def _int_range(lo: int, hi: int | None = None):
    """An option parser: an int of at least lo, and at most hi if given."""
    bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer") from None
        if value < lo or (hi is not None and value > hi):
            raise ValueError(f"{value} is not in the range {bounds}")
        return value

    return parse


def _l_list(text: str) -> list[int]:
    """An option parser: the distinct L values of a comma-separated list, sorted."""
    try:
        l_values = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise ValueError(f"cannot parse L list {text!r}") from None
    if not l_values or min(l_values) < 1:
        raise ValueError("L values must be positive integers")
    return l_values


def _box(text: str) -> int:
    """An option parser: a box side from 1 to bipartite's product cap."""
    return _int_range(1, bipartite.PRODUCT_CAP)(text)


FORMATS = ("csv", "json", "text")


def _format(text: str) -> str:
    """An option parser: one of FORMATS."""
    if text not in FORMATS:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, FORMATS))})")
    return text


# An option is (flag, dest, parse, default, help).  parse reads the text
# given after the flag; None marks a switch, which takes no text and is True
# when given.  default is the text read when the flag is absent (False for a
# switch), or None for a required option.  help is a string, a function that
# returns one when --help is shown, or None to leave the option out of --help.
FORMAT = ("--format", "fmt", _format, "text", "output format: csv, json or text")
# the options that come before the command
GLOBAL_OPTIONS = (
    ("--threads", "threads", _int_range(1), "1", "accepted for compatibility; table1 runs its cells on one thread"),
)
# command -> (a function that returns its run function, options)
COMMANDS = {
    "table1": (lambda: reports.table1, (("--L", "l_values", _l_list, "10,40", "comma-separated list of L values"), FORMAT)),
    "compute": (lambda: reports.compute, (("--m", "m", _int_range(0), None, ""), ("--n", "n", _int_range(0), None, ""))),
    "verify": (lambda: oracles.verify, (
        ("--deep", "deep", None, False, "also compare the closed-form crank table with per-cell values, Lambert and brute force"),
        ("--box", "box", _box, "10", lambda: f"side of the checked pi box, 1..{bipartite.PRODUCT_CAP}"),
        ("--inject-fault", "inject_fault", None, False, None),  # a negative control for the tests
    )),
    "crank-row": (lambda: reports.crank_row, (("--n", "n", _int_range(0), None, ""), FORMAT)),
    "asym": (lambda: asym, (("--m", "m", _int_range(1), None, ""), ("--n", "n", _int_range(1), None, ""))),
}


def _options(command: str | None) -> tuple:
    return GLOBAL_OPTIONS if command is None else COMMANDS[command][1]


def _usage_error(command: str | None, message: str):
    """argparse's usage error: the usage line, then the message; exit 2."""
    _stderr_line(usage.line(command, _options(command)))
    _stderr_line(f"{usage.prog(command)}: error: {message}")
    sys.exit(2)


def _parse(argv: list[str]):
    """The run function and the option values of a command line: the
    global options, a command, then the command's options, each given as
    `--flag text` or `--flag=text`.  A repeated option keeps its last value,
    and no flag may be abbreviated.  -h or --help prints the help of the
    command read so far and exits 0.  A line that does not parse is a usage
    error, with argparse's message."""
    command = None
    values = {}
    unknown = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print(usage.help_text(command, _options(command), COMMANDS), flush=True)
            sys.exit(0)
        flag, has_text, text = token.partition("=")
        option = next((o for o in _options(command) if o[0] == flag), None)
        if option is None:
            if command is not None or token.startswith("-"):
                unknown.append(token)
            elif token in COMMANDS:
                command = token
            else:
                choices = ", ".join(map(repr, COMMANDS))
                _usage_error(None, f"argument COMMAND: invalid choice: {token!r} (choose from {choices})")
            continue
        _, dest, parse, _, _ = option
        if parse is None:
            if has_text:
                _usage_error(command, f"argument {flag}: ignored explicit argument {text!r}")
            values[dest] = True
            continue
        if not has_text:
            text = next(tokens, None)
            # as in argparse, a negative number is a value, not a flag
            if text is None or (text.startswith("-") and not text[1:].isdigit()):
                _usage_error(command, f"argument {flag}: expected one argument")
        try:
            values[dest] = parse(text)
        except ValueError as exc:  # the message is argparse's
            _usage_error(command, f"argument {flag}: {exc}")
    if command is None:
        _usage_error(None, "the following arguments are required: COMMAND")
    find, options = COMMANDS[command]
    missing = [flag for flag, dest, _, default, _ in options if default is None and dest not in values]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage_error(command, f"unrecognized arguments: {' '.join(unknown)}")
    for _, dest, parse, default, _ in GLOBAL_OPTIONS + options:
        if dest not in values:
            values[dest] = default if parse is None else parse(default)
    return find(), types.SimpleNamespace(**values)


def cli(args: list[str] | None = None) -> None:
    """Parse `args` (default: sys.argv[1:]) and run one command under one
    ResourceGuard.  On return the command's output is flushed.

    A run function returns None, or the line that says why the command
    failed, which goes to stderr after the output.

    Exit status: 0 on success, and after -h or --help; 1 when the command
    failed (verify found a failure), when the reader closes stdout early
    (quietly) or when stdout cannot be written (one `error: cannot write
    output: ...` line on stderr); 2 on a usage error (usage and message on
    stderr), a guard abort, a MemoryError or an OverflowError (one
    `aborted: ...` line on stderr).
    """
    try:
        # parsing compiles the command's module, which needs memory too
        run, ns = _parse(sys.argv[1:] if args is None else args)
        if sys.stdout is None:  # fd 1 was closed before the interpreter started
            _cannot_write("stdout is closed")
        with ResourceGuard() as guard:
            failure = run(ns, guard)
        sys.stdout.flush()  # the output comes before the failure when both streams share a file
        if failure is None:
            return
        _stderr_line(failure)
        sys.exit(1)
    except MemoryError:
        # leaving this block drops the traceback, whose frames hold the
        # command's tables, so that the abort line has memory to be written
        reason = "out of memory: the tables this request needs do not fit in the memory this process may use"
    except OverflowError:
        # a table order or an asymptotic's m or n, read as a float before any output
        reason = "an order or argument past a float's range (about 1.8e308): no table of it can be sized and no asymptotic evaluated"
    except OSError as exc:
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            sys.exit(1)  # the reader closed stdout early (`| head`)
        _cannot_write(exc.strerror or str(exc))
    _fail_guard(reason)


# click's Group.main signature, kept for bench/tracer.py until ROADMAP item 1 moves it to cli(argv)
cli.main = lambda args=None, prog_name=None, obj=None: cli(args)


def _watched() -> bool:
    """Whether a tracer, profiler or debugger is hooked into this process.
    pdb drops its trace function on `continue` when no breakpoint is set,
    so a loaded bdb (pdb's base) counts too.  From Python 3.12, cProfile
    and coverage may hook in through sys.monitoring rather than
    sys.setprofile or sys.settrace."""
    if sys.gettrace() is not None or sys.getprofile() is not None or "bdb" in sys.modules:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def _cap_address_space():
    """Cap the address space at the memory budget, when one is set, plus its
    size now, so that a command that needs more than the guard estimates
    ends in a clean abort.  Not in cli(): in-process callers set 10-byte budgets."""
    try:
        budget = max(int(os.environ["STEADYPARTS_MEM_LIMIT_BYTES"]), 0)
        import resource

        with open("/proc/self/statm") as statm:  # Linux; elsewhere nothing is capped
            cap = budget + int(statm.read().split()[0]) * resource.getpagesize()
    except (KeyError, ValueError, ImportError, OSError):
        return  # no budget, or a malformed one, which the guard reports
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if cap < (sys.maxsize if soft == resource.RLIM_INFINITY else soft):  # a lower cap stays
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def main() -> None:
    """The process entry point, for `python -m steadyparts.cli` and the
    `steadyparts` script.

    Once cli() returns, the command has succeeded and its output is
    flushed, so the process ends at once with status 0.  That skips the
    interpreter's teardown, which frees every loaded module and object one
    by one and costs several ms per process.  Under a tracer or profiler
    (coverage, cProfile, pdb, `python -m trace`) the process exits
    normally, so that their exit hooks still run; so does every failure,
    through SystemExit.
    """
    _cap_address_space()
    cli()
    if not _watched():
        if sys.stderr is not None:
            sys.stderr.flush()
        os._exit(0)


if __name__ == "__main__":
    main()
