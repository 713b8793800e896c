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
from itertools import islice

from . import bipartite, crank, partitions
from .asymptotics import asym_D, asym_pi
from .formatting import ratio_string, sci_from_int, sci_from_log


def _print_json(rows):
    """Print `rows` as json.dump(rows, indent=2) would, then a newline, in
    batches of the encoder's small chunks: each write may be a system call."""
    import json

    chunks = json.JSONEncoder(indent=2).iterencode(rows)
    while batch := list(islice(chunks, 4096)):
        sys.stdout.write("".join(batch))
    print()


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
        _print_json(rows)
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
    a = asym_pi(m, n) if v > 0 and mu >= 1 else None
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
    if d > 0 and 1 <= m <= 2 * n and min(m, 2 * n - m) >= 1:
        ad = asym_D(m, n)
        print(
            f"  sci = {sci_from_int(d)}   asym = {sci_from_log(ad)}"
            f"   ratio = {ratio_string(math.log(d), ad)}"
        )


def crank_row(args, guard):
    """Crank counts M(m, n) for m = -n .. n at a single n."""
    n = args.n
    # the row is 2n + 1 pairs (m, M(m, n)): a 2-tuple, the int m and a list
    # slot each, 92 bytes.  M(m, n) <= p(n - |m|), as M(m, n) is at most the
    # count of crank >= |m|, an alternating sum of falling p values led by
    # p(n - |m|); so the row's ints take at most two more p tables
    nbytes = 3 * partitions.p_table_bytes(n) + 92 * (2 * n + 1)
    if args.fmt == "json":
        # and a dict per pair: 232 bytes (184 from Python 3.11), a list slot,
        # and M as a string, a 49-byte header and at most log10 p(n) + 1 digits
        nbytes += (2 * n + 1) * (290 + math.pi * math.sqrt(2 * n / 3) / math.log(10))
    guard.require(math.ceil(nbytes))
    p = partitions.build_p_table(n)
    values = [(m, crank.crank_value_direct(m, n, p)) for m in range(-n, n + 1)]
    if args.fmt == "csv":
        print("m,M")
        for m, v in values:
            print(f"{m},{v}")
    elif args.fmt == "json":
        _print_json([{"m": m, "M": str(v)} for m, v in values])
    else:
        for m, v in values:
            print(f"M({m},{n}) = {v}")
