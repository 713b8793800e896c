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

import math
import os
import signal
import sys
import threading

import click

# json and concurrent.futures (which pulls in logging) are imported where
# --format json and --threads > 1 need them, to keep them out of start-up.
# Every steadyparts module is imported here, eagerly: bench/tracer.py wraps
# the layer functions of the package modules loaded with this one, so a
# lazily imported package module would drop out of the trace.
from .asymptotics import asym_D, asym_pi
from .bipartite import (
    PRODUCT_CAP,
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

# rough size of one big-integer table entry at desk scale, for the memory guard
_BYTES_PER_CELL = 256

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

    def require_cells(self, cells: int):
        need = cells * _BYTES_PER_CELL
        if need > self.mem_limit_bytes:
            _fail_guard(
                f"request needs ~{need} bytes of table storage, "
                f"budget is {self.mem_limit_bytes}"
            )


def _fail_guard(reason: str):
    click.echo(f"aborted: {reason}", err=True)
    sys.exit(2)


@click.group()
@click.option("--threads", default=1, type=click.IntRange(min=1), help="Worker threads for per-cell computation.")
@click.pass_context
def cli(ctx, threads):
    """Exact bipartite partition counts and their uniform asymptotics."""
    ctx.ensure_object(dict)
    ctx.obj["threads"] = threads
    # the time budget runs until the subcommand returns
    ctx.obj["guard"] = ctx.with_resource(ResourceGuard())


def _table1_rows(l_values, threads, guard):
    # both cells of a row have min(m, n) = L^2
    mu_max = max(L * L for L in l_values)
    guard.require_cells(mu_max + 1)
    G = build_g_table(mu_max)

    cells = []
    for L in sorted(l_values):
        cells.append((L, L * L, L * L))
        cells.append((L, L * L, L * L + L))

    def one(cell):
        L, m, n = cell
        v = pi_value(m, n, G)
        a = asym_pi(m, n)
        return {
            "L": L,
            "m": m,
            "n": n,
            "pi_exact": str(v),
            "pi_sci": sci_from_int(v),
            "A_sci": sci_from_log(a),
            "ratio": ratio_string(math.log(v), a),
        }

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, cells))
    else:
        rows = [one(cell) for cell in cells]
    rows.sort(key=lambda r: (r["L"], r["n"]))
    return rows


@cli.command()
@click.option("--L", "l_list", default="10,40", show_default=True, help="Comma-separated list of L values.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="text", show_default=True)
@click.pass_context
def table1(ctx, l_list, fmt):
    """Exact vs. asymptotic values of pi on and near the diagonal."""
    try:
        l_values = sorted({int(tok) for tok in l_list.split(",") if tok.strip()})
    except ValueError:
        raise click.BadParameter(f"cannot parse L list {l_list!r}")
    if not l_values or min(l_values) < 1:
        raise click.BadParameter("L values must be positive integers")
    rows = _table1_rows(l_values, ctx.obj["threads"], ctx.obj["guard"])
    if fmt == "csv":
        click.echo("L,pi,A,ratio")
        for r in rows:
            click.echo(f"{r['L']},{r['pi_sci']},{r['A_sci']},{r['ratio']}")
    elif fmt == "json":
        import json

        click.echo(json.dumps(rows, indent=2))
    else:
        for r in rows:
            kind = "diagonal " if r["m"] == r["n"] else "off-diag "
            click.echo(
                f"L={r['L']:>4} {kind} pi({r['m']},{r['n']}) = {r['pi_sci']}"
                f"   A = {r['A_sci']}   ratio = {r['ratio']}"
            )
            click.echo(f"           exact: {r['pi_exact']}")


@cli.command()
@click.option("--m", "m", required=True, type=click.IntRange(min=0))
@click.option("--n", "n", required=True, type=click.IntRange(min=0))
@click.pass_context
def compute(ctx, m, n):
    """Exact pi(m,n) and D(m,n) for one cell, with asymptotics and ratios."""
    mu = min(m, n)
    # D needs G up to min(m, 2n - m), which is at most mu
    ctx.obj["guard"].require_cells(mu + 1)
    G = build_g_table(mu)
    v = pi_value(m, n, G)
    click.echo(f"pi({m},{n}) = {v}")
    if v > 0 and mu >= 1:
        a = asym_pi(m, n)
        click.echo(
            f"  sci = {sci_from_int(v)}   asym = {sci_from_log(a)}"
            f"   ratio = {ratio_string(math.log(v), a)}"
        )
    if m > 2 * n:
        click.echo(f"D({m},{n}) = 0 (vanishes identically for m > 2n; no asymptotic applies)")
        return
    d = d_value(m, n, G)
    click.echo(f"D({m},{n}) = {d}")
    if d > 0 and 1 <= m <= 2 * n and min(m, 2 * n - m) >= 1:
        ad = asym_D(m, n)
        click.echo(
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
    # p is read to the marginals' order and by alpha rows up to the box
    p = build_p_table(max(MARGINAL_N, box))
    c = c_values_via_inversion(max(TELESCOPE_N, box))
    G = build_g_table(max(TELESCOPE_N, box))
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
            == pi_value_by_alpha(m, n, c, p)
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
            here = pi_value_by_alpha(m, n, c, p)
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

        bad = 0
        for n in range(2, 31):
            counts = crank_counts_by_enumeration(n)
            for m in range(-n, n + 1):
                if counts.get(m, 0) != crank[m][n]:
                    bad += 1
        yield ("combinatorial crank counts", bad == 0, "2 <= n <= 30")


@cli.command()
@click.option("--deep", is_flag=True, help="Also compare both crank expansions and brute-force crank counts.")
@click.option("--box", default=10, show_default=True, type=click.IntRange(min=1, max=PRODUCT_CAP))
@click.option("--inject-fault", is_flag=True, hidden=True)
@click.pass_context
def verify(ctx, deep, box, inject_fault):
    """Run the oracle cross-check suites; exit nonzero on any failure."""
    failures = 0
    for name, passed, detail in _verify_checks(box=box, deep=deep, fault=inject_fault):
        status = "PASS" if passed else "FAIL"
        click.echo(f"{status}  {name} ({detail})")
        if not passed:
            failures += 1
    if failures:
        click.echo(f"{failures} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")


@cli.command("crank-row")
@click.option("--n", "n", required=True, type=click.IntRange(min=0))
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="text", show_default=True)
@click.pass_context
def crank_row(ctx, n, fmt):
    """Crank counts M(m, n) for m = -n .. n at a single n."""
    ctx.obj["guard"].require_cells(n + 1)
    p = build_p_table(n)
    values = [(m, crank_value_direct(m, n, p)) for m in range(-n, n + 1)]
    if fmt == "csv":
        click.echo("m,M")
        for m, v in values:
            click.echo(f"{m},{v}")
    elif fmt == "json":
        import json

        click.echo(json.dumps([{"m": m, "M": str(v)} for m, v in values], indent=2))
    else:
        for m, v in values:
            click.echo(f"M({m},{n}) = {v}")


@cli.command()
@click.option("--m", "m", required=True, type=click.IntRange(min=1))
@click.option("--n", "n", required=True, type=click.IntRange(min=1))
def asym(m, n):
    """Asymptotic main terms for pi(m,n) and D(m,n)."""
    click.echo(f"asym_pi({m},{n}) = {sci_from_log(asym_pi(m, n))}")
    if 1 <= m <= 2 * n and min(m, 2 * n - m) >= 1:
        click.echo(f"asym_D({m},{n})  = {sci_from_log(asym_D(m, n))}")
    else:
        click.echo(f"asym_D({m},{n})  = n/a (requires 1 <= m <= 2n with min(m, 2n-m) >= 1)")


if __name__ == "__main__":
    cli()
