"""Command-line front end.

Commands:
  table1     -- exact pi(L^2, L^2) and pi(L^2, L^2 + L) next to their
                asymptotic main terms A and the ratio pi/A.
  compute    -- exact pi(m,n) and D(m,n) for one cell, with asymptotics.
  verify     -- run the cross-check suites (three-way agreement, telescoping,
                crank marginals, symmetry); nonzero exit on any failure.
  crank-row  -- the crank counts M(m, n) for one n.
  asym       -- asymptotic values only.

A resource guard (default 8 GiB / 30 minutes, overridable through
STEADYPARTS_TIME_LIMIT_S and STEADYPARTS_MEM_LIMIT_BYTES) aborts oversized
requests cleanly.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
import threading

# json is imported where --format json needs it, to keep it out of start-up.
# Every steadyparts module is imported here, eagerly: bench/tracer.py takes
# its snapshot of the package's modules right after `import steadyparts.cli`
# and wraps the layer functions it finds there, so a package module imported
# later, inside a command, would never be traced.
from .asymptotics import C, asym_D, asym_pi
from .bipartite import (
    PRODUCT_CAP,
    alpha_row,
    d_value,
    d_value_by_crank,
    enumerate_steady,
    gf_table,
    pi_value,
    pi_value_by_alpha,
)
from .crank import build_crank_table, crank_value_direct
from .formatting import ratio_string, sci_from_int, sci_from_log
from .partitions import build_g_table, build_p_table, c_values_via_inversion
from .series import CoefficientTable

DEFAULT_TIME_LIMIT_S = 30 * 60
DEFAULT_MEM_LIMIT_BYTES = 8 * 1024 ** 3
# longest time budget: within the timer's range even where time_t is 32 bits
MAX_TIME_LIMIT_S = 1e9

# log p(n) ~ pi sqrt(2n/3) and log G(n) ~ C sqrt(n): the growth of the
# tables' entries, from which the memory guard sizes a table
P_GROWTH = math.pi * math.sqrt(2 / 3)
G_GROWTH = C

# the orders verify's telescoping and crank-marginal checks run to
TELESCOPE_N = 40
MARGINAL_N = 100


class ResourceGuard:
    """Coarse time/memory guard for one command, used as a context manager.

    The time budget is one SIGALRM timer, armed on entry and disarmed on exit;
    when it fires, the command aborts wherever it is, inside table builds
    too.  Signals reach only the main thread, so a command run from another
    thread gets no timer; a budget of 0 or less still aborts it at once.
    The memory budget is checked before a table is built.  A budget that
    does not parse, or a time budget above MAX_TIME_LIMIT_S, aborts at once.
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
        self._armed = threading.current_thread() is threading.main_thread()
        if self._armed:
            self._previous = signal.signal(signal.SIGALRM, self._time_out)
            signal.setitimer(signal.ITIMER_REAL, self.time_limit_s)
        return self

    def __exit__(self, *exc_info):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def require_table(self, N: int, growth: float):
        try:
            need = table_bytes(N, growth)
        except OverflowError:  # N past a float's range: no budget holds it
            _fail_guard(f"request needs a table too large to size, budget is {self.mem_limit_bytes}")
        if need > self.mem_limit_bytes:
            _fail_guard(
                f"request needs ~{need} bytes of table storage, "
                f"budget is {self.mem_limit_bytes}"
            )


def table_bytes(N: int, growth: float) -> int:
    """Bytes a table of entries 0..N takes, from above, when entry n has
    about growth * sqrt(n) / ln 2 bits: an int is a 28-byte header and
    4 bytes per 30 bits, plus 16 bytes of list and tuple slots.  The bits
    sum to at most growth * (2/3) (N + 1)^1.5 / ln 2."""
    bits = growth * (N + 1) ** 1.5 / (1.5 * math.log(2))
    return math.ceil(44 * (N + 1) + bits / 7.5)


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


def _asym_pi(m: int, n: int) -> float:
    """asym_pi(m, n), or a clean abort when m or n is past a float's range
    (about 1.8e308), which the formula's floats cannot take.  asym_D, called
    after it on the same cell, reads no larger ints."""
    try:
        return asym_pi(m, n)
    except OverflowError:
        _fail_guard("the asymptotic formulas take m and n up to about 1.8e308")


def _table1_rows(l_values, guard):
    # both cells of a row have min(m, n) = L^2
    mu_max = max(L * L for L in l_values)
    guard.require_table(mu_max, G_GROWTH)
    G = build_g_table(mu_max)

    # the cells run in order on this thread, whatever --threads says: the
    # big-integer loops hold the GIL, so worker threads only add start-up
    rows = []
    for L in sorted(l_values):
        for m, n in ((L * L, L * L), (L * L, L * L + L)):
            v = pi_value(m, n, G)
            a = asym_pi(m, n)
            rows.append({
                "L": L,
                "m": m,
                "n": n,
                "pi_exact": str(v),
                "pi_sci": sci_from_int(v),
                "A_sci": sci_from_log(a),
                "ratio": ratio_string(math.log(v), a),
            })
    return rows


def table1(args, guard):
    """Exact vs. asymptotic values of pi on and near the diagonal."""
    rows = _table1_rows(args.l_values, guard)
    if args.fmt == "csv":
        print("L,pi,A,ratio")
        for r in rows:
            print(f"{r['L']},{r['pi_sci']},{r['A_sci']},{r['ratio']}")
    elif args.fmt == "json":
        import json

        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            kind = "diagonal " if r["m"] == r["n"] else "off-diag "
            print(
                f"L={r['L']:>4} {kind} pi({r['m']},{r['n']}) = {r['pi_sci']}"
                f"   A = {r['A_sci']}   ratio = {r['ratio']}"
            )
            print(f"           exact: {r['pi_exact']}")


def compute(args, guard):
    """Exact pi(m,n) and D(m,n) for one cell, with asymptotics and ratios."""
    m, n = args.m, args.n
    mu = min(m, n)
    # D needs G up to min(m, 2n - m), which is at most mu
    guard.require_table(mu, G_GROWTH)
    G = build_g_table(mu)
    v = pi_value(m, n, G)
    a = _asym_pi(m, n) if v > 0 and mu >= 1 else None
    print(f"pi({m},{n}) = {v}")
    if a is not None:
        print(
            f"  sci = {sci_from_int(v)}   asym = {sci_from_log(a)}"
            f"   ratio = {ratio_string(math.log(v), a)}"
        )
    if m > 2 * n:
        print(f"D({m},{n}) = 0 (vanishes identically for m > 2n; no asymptotic applies)")
        return
    d = d_value(m, n, G)
    print(f"D({m},{n}) = {d}")
    if d > 0 and 1 <= m <= 2 * n and min(m, 2 * n - m) >= 1:
        ad = asym_D(m, n)
        print(
            f"  sci = {sci_from_int(d)}   asym = {sci_from_log(ad)}"
            f"   ratio = {ratio_string(math.log(d), ad)}"
        )


def _verify_checks(box: int, deep: bool, fault: bool):
    """Yield (name, passed, detail) tuples for each cross-check suite.

    The fast path (pi_value and d_value over the G table) is checked against
    routes that never touch G: the c/alpha convolution and the crank
    convolution over a c table from dense series inversion, the Carlitz box
    expansion and brute-force enumeration.
    """
    # p is read to the marginals' order; every pi cell checked has
    # min(m, n) and |m - n| at most K
    K = max(TELESCOPE_N, box)
    p = build_p_table(max(MARGINAL_N, box))
    c = c_values_via_inversion(K)
    alpha = [alpha_row(s, K, p) for s in range(K + 1)]
    G = build_g_table(K)
    if fault:
        # negative control: corrupt one G value and watch the checks fail
        vals = list(G.values())
        vals[min(2, len(vals) - 1)] += 1
        G = CoefficientTable(vals)

    g = gf_table(box, box)
    bad = sum(
        1
        for m in range(box + 1)
        for n in range(box + 1)
        if not (
            pi_value(m, n, G)
            == pi_value_by_alpha(m, n, c, alpha)
            == g[m][n]
            == enumerate_steady(m, n)
        )
    )
    total = (box + 1) ** 2
    yield ("three-way pi agreement", bad == 0, f"{total - bad}/{total} cells")

    # one product table; the order-t table is its rows |m| <= t cut at n <= t
    crank_big = build_crank_table(MARGINAL_N)
    t = TELESCOPE_N
    crank = tuple(row[:t + 1] for row in crank_big[:t + 1] + crank_big[len(crank_big) - t:])
    bad = 0
    for n in range(TELESCOPE_N + 1):
        running = 0
        below = 0  # pi(m - 1, n) by the c/alpha convolution; pi(-1, n) = 0
        for m in range(2 * n + 1):
            dv = d_value(m, n, G)
            running += dv
            here = pi_value_by_alpha(m, n, c, alpha)
            if not dv == d_value_by_crank(m, n, c, crank) == here - below:
                bad += 1
            below = here
            if running != pi_value(m, n, G):
                bad += 1
    yield ("telescoping D identity", bad == 0, f"{(TELESCOPE_N + 1) ** 2} cells, n <= {TELESCOPE_N}")

    bad = sum(
        1
        for n in range(MARGINAL_N + 1)
        if sum(crank_big[m][n] for m in range(-n, n + 1)) != p.coeff(n)
    )
    yield ("crank marginals equal p(n)", bad == 0, f"n <= {MARGINAL_N}")

    # pi(m, n) through G against pi(n, m) from the box expansion
    bad = sum(1 for m in range(box + 1) for n in range(m) if pi_value(m, n, G) != g[n][m])
    yield ("pi symmetry", bad == 0, f"box {box}x{box}")

    if deep:
        from .crank import build_crank_table_lambert, crank_counts_by_enumeration

        same = build_crank_table_lambert(TELESCOPE_N) == crank
        yield ("crank expansion paths agree", same, f"order {TELESCOPE_N}")

        counts = crank_counts_by_enumeration(30)
        bad = sum(1 for n in range(2, 31) for m in range(-n, n + 1) if counts[n].get(m, 0) != crank[m][n])
        yield ("combinatorial crank counts", bad == 0, "2 <= n <= 30")


def verify(args, guard):
    """Run the oracle cross-check suites; exit nonzero on any failure."""
    failures = 0
    for name, passed, detail in _verify_checks(box=args.box, deep=args.deep, fault=args.inject_fault):
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name} ({detail})")
        if not passed:
            failures += 1
    if failures:
        sys.stdout.flush()  # the report comes before the verdict when both streams share a file
        _stderr_line(f"{failures} check(s) failed")
        sys.exit(1)
    print("all checks passed")


def crank_row(args, guard):
    """Crank counts M(m, n) for m = -n .. n at a single n."""
    n = args.n
    guard.require_table(n, P_GROWTH)
    p = build_p_table(n)
    values = [(m, crank_value_direct(m, n, p)) for m in range(-n, n + 1)]
    if args.fmt == "csv":
        print("m,M")
        for m, v in values:
            print(f"{m},{v}")
    elif args.fmt == "json":
        import json

        print(json.dumps([{"m": m, "M": str(v)} for m, v in values], indent=2))
    else:
        for m, v in values:
            print(f"M({m},{n}) = {v}")


def asym(args, guard):
    """Asymptotic main terms for pi(m,n) and D(m,n)."""
    m, n = args.m, args.n
    print(f"asym_pi({m},{n}) = {sci_from_log(_asym_pi(m, n))}")
    if 1 <= m <= 2 * n and min(m, 2 * n - m) >= 1:
        print(f"asym_D({m},{n})  = {sci_from_log(asym_D(m, n))}")
    else:
        print(f"asym_D({m},{n})  = n/a (requires 1 <= m <= 2n with min(m, 2n-m) >= 1)")


def _int_range(lo: int, hi: int | None = None):
    """An argparse type: an int of at least lo, and at most hi if given."""
    bounds = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value

    return parse


def _l_list(text: str) -> list[int]:
    """An argparse type: the distinct L values of a comma-separated list, sorted."""
    try:
        l_values = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse L list {text!r}") from None
    if not l_values or min(l_values) < 1:
        raise argparse.ArgumentTypeError("L values must be positive integers")
    return l_values


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steadyparts",
        description="Exact bipartite partition counts and their uniform asymptotics.",
        allow_abbrev=False,
    )
    parser.add_argument("--threads", type=_int_range(1), default=1,
                        help="accepted for compatibility; table1 runs its cells on one thread")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(run):
        name = run.__name__.replace("_", "-")
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    def add_format(sub):
        sub.add_argument("--format", dest="fmt", choices=("csv", "json", "text"), default="text",
                         help="output format (default: text)")

    sub = command(table1)
    sub.add_argument("--L", dest="l_values", type=_l_list, default="10,40",
                     help="comma-separated list of L values (default: 10,40)")
    add_format(sub)

    sub = command(compute)
    sub.add_argument("--m", required=True, type=_int_range(0))
    sub.add_argument("--n", required=True, type=_int_range(0))

    sub = command(verify)
    sub.add_argument("--deep", action="store_true",
                     help="also compare both crank expansions and brute-force crank counts")
    sub.add_argument("--box", type=_int_range(1, PRODUCT_CAP), default=10,
                     help=f"side of the checked pi box, 1..{PRODUCT_CAP} (default: 10)")
    sub.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    sub = command(crank_row)
    sub.add_argument("--n", required=True, type=_int_range(0))
    add_format(sub)

    sub = command(asym)
    sub.add_argument("--m", required=True, type=_int_range(1))
    sub.add_argument("--n", required=True, type=_int_range(1))
    return parser


def cli(args: list[str] | None = None) -> None:
    """Parse `args` (default: sys.argv[1:]) and run one command under one
    ResourceGuard.  On return the command's output is flushed.

    Exit status: 0 on success; 1 when verify finds a failure, when the
    reader closes stdout early (quietly) or when stdout cannot be written
    (one `error: cannot write output: ...` line on stderr); 2 on a usage
    error (usage on stderr) or a guard abort (one `aborted: ...` line on
    stderr).
    """
    ns = _parser().parse_args(args)
    if sys.stdout is None:  # fd 1 was closed before the interpreter started
        _cannot_write("stdout is closed")
    try:
        with ResourceGuard() as guard:
            ns.run(ns, guard)
        sys.stdout.flush()
    except OSError as exc:
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            sys.exit(1)  # the reader closed stdout early (`| head`)
        _cannot_write(exc.strerror or str(exc))


# click's Group.main signature, through which bench/tracer.py calls the CLI
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
    cli()
    if not _watched():
        if sys.stderr is not None:
            sys.stderr.flush()
        os._exit(0)


if __name__ == "__main__":
    main()
