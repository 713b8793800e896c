"""The verify command: the fast path checked against independent routes.

steadyparts.cli parses the command line and calls verify; this module is
compiled only when it runs.  The package's modules are imported as modules
and called through their attributes, as in steadyparts.reports, so that
bench/tracer.py's wrappers reach every call.
"""

from operator import ne

from . import bipartite, crank, partitions, series

# the orders verify's telescoping and crank-marginal checks run to
TELESCOPE_N = 40
MARGINAL_N = 100


def _verify_checks(box: int, deep: bool, fault: bool):
    """Yield (name, passed, detail) tuples for each cross-check suite.

    The fast path (pi_value and d_value over the G table) is checked against
    routes that never touch G: the c/alpha convolution and the crank
    convolution over a c table from dense series inversion, the Carlitz box
    expansion and brute-force enumeration.
    """
    # every pi cell checked has min(m, n) and |m - n| at most K
    K = max(TELESCOPE_N, box)
    p = partitions.build_p_table(K)
    c = partitions.c_values_via_inversion(K)
    alpha = [series.theta_row(p, s, K) for s in range(K + 1)]
    # thousands of small cells read each coefficient many times: index a
    # tuple, not the reader
    G = tuple(partitions.build_g_table(K))
    if fault:
        # negative control: corrupt one G value and watch the checks fail
        i = min(2, len(G) - 1)
        G = G[:i] + (G[i] + 1,) + G[i + 1:]

    g = bipartite.gf_table(box, box)
    steady = bipartite.enumerate_steady(box, box)
    bad = sum(
        1
        for m in range(box + 1)
        for n in range(box + 1)
        if not (
            bipartite.pi_value(m, n, G)
            == bipartite.pi_value_by_alpha(m, n, c, alpha)
            == g[m][n]
            == steady[m][n]
        )
    )
    total = (box + 1) ** 2
    yield ("three-way pi agreement", bad == 0, f"{total - bad}/{total} cells")

    # one closed-form table; the order-t table is its rows |m| <= t cut at n <= t
    crank_big = crank.build_crank_table(MARGINAL_N)
    t = TELESCOPE_N
    crank_t = tuple(row[:t + 1] for row in crank_big[:t + 1] + crank_big[len(crank_big) - t:])
    bad = 0
    for n in range(TELESCOPE_N + 1):
        below = 0  # pi(m - 1, n) by the c/alpha convolution; pi(-1, n) = 0
        for m in range(2 * n + 1):
            here = bipartite.pi_value_by_alpha(m, n, c, alpha)
            if not bipartite.d_value(m, n, G) == bipartite.d_value_by_crank(m, n, c, crank_t) == here - below:
                bad += 1
            below = here
    yield ("telescoping D identity", bad == 0, f"{(TELESCOPE_N + 1) ** 2} cells, n <= {TELESCOPE_N}")

    # column n is zero for |m| > n, so each column sums to its marginal;
    # closed-form columns sum to any p they read, so take p by dense inversion
    p_dense = series.invert(series.euler_product(1, MARGINAL_N))
    bad = sum(map(ne, map(sum, zip(*crank_big)), p_dense))
    yield ("crank marginals equal p(n)", bad == 0, f"n <= {MARGINAL_N}")

    # pi(m, n) through G against pi(n, m) from the box expansion
    bad = sum(1 for m in range(box + 1) for n in range(m) if bipartite.pi_value(m, n, G) != g[n][m])
    yield ("pi symmetry", bad == 0, f"box {box}x{box}")

    if deep:
        # the table's rows against the Lambert expansion, and its cells
        # against crank-row's per-cell closed form, which the table never reads
        same = crank.build_crank_table_lambert(TELESCOPE_N) == crank_t and all(
            crank.crank_value_direct(m, n, p) == crank_t[m][n] for n in range(t + 1) for m in range(n + 1)
        )
        yield ("crank expansion paths agree", same, f"order {TELESCOPE_N}")

        counts = crank.crank_counts_by_enumeration(30)
        bad = sum(1 for m in range(-30, 31) if counts[m][2:] != crank_t[m][2:31])
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
        return f"{failures} check(s) failed"
    print("all checks passed")
