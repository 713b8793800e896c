"""The table commands: table1, compute and crank-row.  Each builds one table
under the resource guard it is given and prints values read from it.

steadyparts.cli parses the command line and calls these; this module is
compiled only when one of them runs.  bipartite, crank and partitions are
imported as modules and called through their attributes, since `from
.bipartite import pi_value` would load bipartite here: so compute and
table1 do not load crank.  bench/tracer.py still wraps their functions:
after `import steadyparts.cli` every module is in sys.modules, and the
tracer's read of each module's namespace loads it in place.  json is
imported where --format json needs it, to keep it out of the other formats.
"""

import math
import sys
from itertools import chain, islice

from . import bipartite, crank, partitions
from .asymptotics import asym_D, asym_D_applies, asym_pi
from .formatting import ratio_string, sci_from_int, sci_from_log


def _table1_rows(l_values, guard):
    # both cells of a row have min(m, n) = L^2
    mu_max = max(L * L for L in l_values)
    guard.require(partitions.g_table_bytes(mu_max))
    G = partitions.build_g_table(mu_max)

    # the cells run in order on this thread, whatever --threads says: the
    # big-integer loops hold the GIL, so worker threads only add start-up
    rows = []
    for L in sorted(l_values):
        for m, n in ((L * L, L * L), (L * L, L * L + L)):
            v = bipartite.pi_value(m, n, G)
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

        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
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
    guard.require(partitions.g_table_bytes(mu))
    G = partitions.build_g_table(mu)
    v = bipartite.pi_value(m, n, G)
    a = asym_pi(m, n) if mu >= 1 else None
    print(f"pi({m},{n}) = {v}")
    if a is not None:
        print(
            f"  sci = {sci_from_int(v)}   asym = {sci_from_log(a)}"
            f"   ratio = {ratio_string(math.log(v), a)}"
        )
    if m > 2 * n:
        print(f"D({m},{n}) = 0 (vanishes identically for m > 2n; no asymptotic applies)")
        return
    d = bipartite.d_value(m, n, G)
    print(f"D({m},{n}) = {d}")
    if d > 0 and asym_D_applies(m, n):
        ad = asym_D(m, n)
        print(
            f"  sci = {sci_from_int(d)}   asym = {sci_from_log(ad)}"
            f"   ratio = {ratio_string(math.log(d), ad)}"
        )


# lines to a write: each write of an unbuffered stdout is a system call
BATCH = 1000
# crank-row's (head, row, separator, tail) in each format; the last row ends
# in a newline.  json is json.dump(rows, indent=2) and a newline for the rows
# {"m": m, "M": str(M)}: m is an int and M digits, so nothing is escaped
ROW_FORMATS = {
    "text": ("", "M({m},{n}) = {v}", "\n", ""),
    "csv": ("m,M\n", "{m},{v}", "\n", ""),
    "json": ("[\n", '  {{\n    "m": {m},\n    "M": "{v}"\n  }}', ",\n", "]\n"),
}


def crank_row(args, guard):
    """Crank counts M(m, n) for m = -n .. n at a single n."""
    n = args.n
    head, row, sep, tail = ROW_FORMATS[args.fmt]
    # it holds the p table and one batch of lines: each a string (a 49-byte
    # header), a list slot and its characters twice more, in the join and its
    # encoding.  A value is -p(n) <= M(m, n) <= p(n) < e^(pi sqrt(2n/3))
    longest = len(row.format(m=-n, n=n, v="")) + len(sep) + 2 + math.pi * math.sqrt(2 * n / 3) / math.log(10)
    guard.require(partitions.p_table_bytes(n) + math.ceil(BATCH * (57 + 3 * longest)))
    p = partitions.build_p_table(n)
    rows = (
        row.format(m=m, n=n, v=crank.crank_value_direct(m, n, p)) + (sep if m < n else "\n")
        for m in range(-n, n + 1)
    )
    lines = chain((head,), rows, (tail,))
    while batch := list(islice(lines, BATCH)):
        sys.stdout.write("".join(batch))
