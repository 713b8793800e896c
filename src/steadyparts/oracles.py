"""The verify command: the fast path checked against independent routes.

steadyparts.cli parses the command line and calls verify; this module is
compiled only when it runs.  The package's modules are imported as modules
and called through their attributes, as in steadyparts.reports, so that
bench/tracer.py's wrappers reach every call.
"""

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
    # p is read to the marginals' order; every pi cell checked has
    # min(m, n) and |m - n| at most K
    K = max(TELESCOPE_N, box)
    p = partitions.build_p_table(max(MARGINAL_N, box))
    c = partitions.c_values_via_inversion(K)
    alpha = [bipartite.alpha_row(s, K, p) for s in range(K + 1)]
    G = partitions.build_g_table(K)
    if fault:
        # negative control: corrupt one G value and watch the checks fail
        vals = list(G.values())
        vals[min(2, len(vals) - 1)] += 1
        G = series.CoefficientTable(vals)

    g = bipartite.gf_table(box, box)
    bad = sum(
        1
        for m in range(box + 1)
        for n in range(box + 1)
        if not (
            bipartite.pi_value(m, n, G)
            == bipartite.pi_value_by_alpha(m, n, c, alpha)
            == g[m][n]
            == bipartite.enumerate_steady(m, n)
        )
    )
    total = (box + 1) ** 2
    yield ("three-way pi agreement", bad == 0, f"{total - bad}/{total} cells")

    # one product table; the order-t table is its rows |m| <= t cut at n <= t
    crank_big = crank.build_crank_table(MARGINAL_N)
    t = TELESCOPE_N
    crank_t = tuple(row[:t + 1] for row in crank_big[:t + 1] + crank_big[len(crank_big) - t:])
    bad = 0
    for n in range(TELESCOPE_N + 1):
        running = 0
        below = 0  # pi(m - 1, n) by the c/alpha convolution; pi(-1, n) = 0
        for m in range(2 * n + 1):
            dv = bipartite.d_value(m, n, G)
            running += dv
            here = bipartite.pi_value_by_alpha(m, n, c, alpha)
            if not dv == bipartite.d_value_by_crank(m, n, c, crank_t) == here - below:
                bad += 1
            below = here
            if running != bipartite.pi_value(m, n, G):
                bad += 1
    yield ("telescoping D identity", bad == 0, f"{(TELESCOPE_N + 1) ** 2} cells, n <= {TELESCOPE_N}")

    bad = sum(
        1
        for n in range(MARGINAL_N + 1)
        if sum(crank_big[m][n] for m in range(-n, n + 1)) != p.coeff(n)
    )
    yield ("crank marginals equal p(n)", bad == 0, f"n <= {MARGINAL_N}")

    # pi(m, n) through G against pi(n, m) from the box expansion
    bad = sum(1 for m in range(box + 1) for n in range(m) if bipartite.pi_value(m, n, G) != g[n][m])
    yield ("pi symmetry", bad == 0, f"box {box}x{box}")

    if deep:
        same = crank.build_crank_table_lambert(TELESCOPE_N) == crank_t
        yield ("crank expansion paths agree", same, f"order {TELESCOPE_N}")

        counts = crank.crank_counts_by_enumeration(30)
        bad = sum(1 for n in range(2, 31) for m in range(-n, n + 1) if counts[n].get(m, 0) != crank_t[m][n])
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
