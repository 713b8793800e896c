"""The table commands: table1, compute and crank-row.  Each builds one table
under the resource guard it is given and prints values read from it;
table1 and crank-row write their rows through one writer, write_rows.

steadyparts.cli parses the command line and calls these; this module is
compiled only when one of them runs.  bipartite, crank and partitions are
imported as modules and called through their attributes, since `from
.bipartite import pi_value` would load bipartite here: so compute and
table1 do not load crank.  bench/tracer.py still wraps their functions:
after `import steadyparts.cli` every module is in sys.modules, and the
tracer's read of each module's namespace loads it in place.
"""

import math
import sys

from . import bipartite, crank, partitions
from .asymptotics import asym_D, asym_D_applies, asym_pi
from .formatting import ratio_string, sci_from_int, sci_from_log


# lines to a write: each write of an unbuffered stdout is a system call
BATCH = 1000
# table1's and crank-row's (head, row, separator, tail) in each format.  The
# json is the text json.dumps(rows, indent=2) writes, then a newline, for rows
# {"L": L, "m": m, "n": n, "pi_exact": ..., "pi_sci": ..., "A_sci": ...,
# "ratio": ...} and {"m": m, "M": ...}: L, m and n are ints and every string
# is digits, "-", "." and "e", so nothing is escaped
TABLE1_FORMATS = {
    "text": ("", "L={L:>4} {kind} pi({m},{n}) = {sci}   A = {asym}   ratio = {ratio}\n           exact: {v}", "\n", ""),
    "csv": ("L,pi,A,ratio\n", "{L},{sci},{asym},{ratio}", "\n", ""),
    "json": ("[\n", '  {{\n    "L": {L},\n    "m": {m},\n    "n": {n},\n    "pi_exact": "{v}",\n    "pi_sci": "{sci}",\n'
             '    "A_sci": "{asym}",\n    "ratio": "{ratio}"\n  }}', ",\n", "]\n"),
}
ROW_FORMATS = {
    "text": ("", "M({m},{n}) = {v}", "\n", ""),
    "csv": ("m,M\n", "{m},{v}", "\n", ""),
    "json": ("[\n", '  {{\n    "m": {m},\n    "M": "{v}"\n  }}', ",\n", "]\n"),
}
# compute's line under a value that has an asymptotic
COMPARISON = "  sci = {sci}   asym = {asym}   ratio = {ratio}"


def write_rows(template, rows):
    """Write the rows, each already formatted from the template's row,
    between its head and tail: a separator after each row but the last,
    which ends in a newline.  BATCH lines go to a write, so rows formatted
    as they are written leave whole lines on stdout when a command aborts."""
    head, _, sep, tail = template
    rows = iter(rows)
    batch = [head]
    last = next(rows)
    for row in rows:
        batch.append(last + sep)
        last = row
        if len(batch) == BATCH:
            sys.stdout.write("".join(batch))
            batch = []
    batch += (last + "\n", tail)
    sys.stdout.write("".join(batch))


def _versus(v, a):
    """The fields sci, asym and ratio: the exact value v and the asymptotic
    whose natural log is a, each to 6 digits, and their ratio."""
    return {"sci": sci_from_int(v), "asym": sci_from_log(a), "ratio": ratio_string(math.log(v), a)}


def table1(args, guard):
    """Exact vs. asymptotic values of pi on and near the diagonal."""
    template = TABLE1_FORMATS[args.fmt]
    row = template[1]
    # both cells of a row have min(m, n) = L^2
    mu_max = max(L * L for L in args.l_values)
    guard.require(partitions.g_build_bytes(mu_max))
    G = partitions.build_g_table(mu_max)

    # the cells run in order on this thread, whatever --threads says: the
    # big-integer loops hold the GIL, so worker threads only add start-up.
    # Every row is formatted before any is written, so an abort writes none
    rows = []
    for L in args.l_values:
        for m, n, kind in ((L * L, L * L, "diagonal "), (L * L, L * L + L, "off-diag ")):
            v = bipartite.pi_value(m, n, G)
            rows.append(row.format(L=L, m=m, n=n, kind=kind, v=v, **_versus(v, asym_pi(m, n))))
    write_rows(template, rows)


def compute(args, guard):
    """Exact pi(m,n) and D(m,n) for one cell, with asymptotics and ratios."""
    m, n = args.m, args.n
    mu = min(m, n)
    # pi and D both read G up to mu
    guard.require(partitions.g_build_bytes(mu))
    G = partitions.build_g_table(mu)
    v = bipartite.pi_value(m, n, G)
    # asym_pi reads m as a float: one past a float's range aborts before any output
    compared = [COMPARISON.format(**_versus(v, asym_pi(m, n)))] if mu >= 1 else []
    print(f"pi({m},{n}) = {v}", *compared, sep="\n")
    if m > 2 * n:
        print(f"D({m},{n}) = 0 (vanishes identically for m > 2n; no asymptotic applies)")
        return
    d = bipartite.d_value(m, n, G)
    print(f"D({m},{n}) = {d}")
    if d > 0 and asym_D_applies(m, n):
        print(COMPARISON.format(**_versus(d, asym_D(m, n))))


def crank_row(args, guard):
    """Crank counts M(m, n) for m = -n .. n at a single n."""
    n = args.n
    template = ROW_FORMATS[args.fmt]
    _, row, sep, _ = template
    # it holds the p table and one batch of lines: each a string (a 49-byte
    # header), a list slot and its characters twice more, in the join and its
    # encoding.  A value is -p(n) <= M(m, n) <= p(n) < e^(pi sqrt(2n/3))
    longest = len(row.format(m=-n, n=n, v="")) + len(sep) + 2 + math.pi * math.sqrt(2 * n / 3) / math.log(10)
    guard.require(partitions.p_table_bytes(n) + math.ceil(BATCH * (57 + 3 * longest)))
    p = partitions.build_p_table(n)
    rows = (row.format(m=m, n=n, v=crank.crank_value_direct(m, n, p)) for m in range(-n, n + 1))
    write_rows(template, rows)
