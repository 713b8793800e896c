"""Independent routes for the tests, and the verify command that checks
the fast path against them.

* ``pi_value_by_alpha``      -- pi through the c/alpha convolution, one sum
                                against a row alpha(s, 0..K) the caller
                                builds, which is ``theta_row(p, s, K)``;
* ``d_value_by_crank``       -- D through the crank convolution c * M, one
                                sum against a slice of one crank row;
* ``g_values_via_chain``     -- G by the chain p -> c = p/(q^2;q^2) ->
                                G = c/(q;q) of pentagonal divisions;
* ``c_values_via_inversion`` -- c by dense inversion of (q;q)(q^2;q^2);
* ``euler_product``, ``mul``   -- the pentagonal expansion of (q^s;q^s)_inf
                                and the schoolbook product, which it,
                                verify and crank's Lambert table read
                                beside ``series.invert``;
* ``theta_row``              -- every order of ``series.theta_coefficient``'s
                                sum at once: the alpha rows, and the rows
                                of crank's closed-form table.

The box oracles ``bipartite.gf_table`` and ``bipartite.enumerate_steady``
and the crank oracles stay in their modules, where bench/layers.py times
them.  The routes slice the p and c tuples; none keeps a table alive
between calls.

steadyparts.cli parses the command line and calls verify; no other command
compiles this module, crank-row included, though crank reads it.  The
package's modules are imported as modules and called through their
attributes, as in steadyparts.reports, so that bench/tracer.py's wrappers
reach every call.
"""

from collections.abc import Sequence
from operator import add, mul as times, ne, sub

from . import bipartite, crank, partitions, series

# the orders verify's telescoping and crank-marginal checks run to
TELESCOPE_N = 40
MARGINAL_N = 100


def pi_value_by_alpha(m: int, n: int, c: Sequence[int], alpha) -> int:
    """Oracle for pi(m, n): sum_{0 <= k <= min(m,n)} c(min(m,n) - k) alpha(|m-n|, k),
    where alpha(s, k) = sum_{l >= 0} (-1)^l p(k - l(l+1)/2 - l s) and
    `alpha` is anything indexed alpha[s][k], such as rows of
    ``theta_row`` over p."""
    if m < 0 or n < 0:
        raise ValueError("pi takes nonnegative arguments")
    mu = min(m, n)
    if len(c) <= mu:
        raise IndexError("c table too short for pi_value_by_alpha")
    row = alpha[abs(m - n)]
    if len(row) <= mu:
        raise IndexError("alpha row too short for pi_value_by_alpha")
    return sum(map(times, c[mu::-1], row))


def d_value_by_crank(m: int, n: int, c: Sequence[int], M) -> int:
    """Oracle for D(m, n) through the crank convolution:

        D(m,n) = sum_{0 <= k <= L} c(L - k) M(n - L, n - L + k),
        L = min(2n - m, m),

    and D(m,n) = 0 outright when m > 2n.  `M` is anything indexed M[m][n]:
    the rows of a full crank table, or {0: crank_column(0, N, p)} for
    the diagonal cells, which read only row 0.
    """
    if m < 0 or n < 0:
        raise ValueError("d_value_by_crank takes nonnegative arguments")
    if m > 2 * n:
        return 0
    L = min(2 * n - m, m)
    if len(c) <= L:
        raise IndexError("c table too short for d_value_by_crank")
    base = n - L
    row = M[base]
    if len(row) <= n:
        raise IndexError("crank table too short for d_value_by_crank")
    return sum(map(times, c[L::-1], row[base:n + 1]))


def g_values_via_chain(N: int) -> series.CoefficientTable:
    """Independent path: G as the c table divided by (q;q)_inf once more."""
    return series.CoefficientTable(series.divide_by_euler(list(partitions.build_c_table(N)), 1))


def c_values_via_inversion(N: int) -> series.CoefficientTable:
    """Independent path: invert the dense product (q;q)_inf (q^2;q^2)_inf."""
    return series.invert(mul(euler_product(1, N), euler_product(2, N)))


def mul(a: Sequence[int], b: Sequence[int]) -> series.CoefficientTable:
    """Schoolbook product truncated at the order of the shorter factor.

    Zero coefficients of `a` are skipped; the series fed through here are
    frequently sparse (pentagonal-number supports).
    """
    n = min(len(a), len(b))
    # slices are plain tuples, which index faster than a tuple subclass
    bc = b[:n]
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j in range(n - i):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return series.CoefficientTable(out)


def euler_product(exponent_step: int, order: int) -> series.CoefficientTable:
    """(q^s; q^s)_infinity truncated at `order`, via the pentagonal theorem.

    The coefficients are 0 or +-1, supported on s times the generalized
    pentagonal numbers k(3k-1)/2 and k(3k+1)/2, with sign (-1)^k.
    """
    if exponent_step < 1:
        raise ValueError("exponent step must be a positive integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [1] + [0] * order
    for g, sign in series.pentagonal_offsets(order, exponent_step):
        out[g] = sign
    return series.CoefficientTable(out)


def theta_row(values, s: int, K: int) -> tuple:
    """The row K(0..K, s) of ``series.theta_coefficient`` over `values`,
    empty for K < 0.

    Term l of every entry at once is `values` shifted right by
    l(l+1)/2 + l s, so the row starts as values[0..K] and each shift that
    stays below K adds or subtracts one slice of `values`: O(sqrt(K)) slice
    passes, and no code shared with ``series.theta_coefficient``'s loop.
    """
    if s < 0:
        raise ValueError("theta_row takes a nonnegative s")
    if len(values) <= K:
        raise IndexError("values too short for theta_row")
    row = list(values[:K + 1])
    l = 1
    while (off := l * (l + 1) // 2 + l * s) <= K:
        row[off:] = map(sub if l % 2 else add, row[off:], values[:K + 1 - off])
        l += 1
    return tuple(row)


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
    c = c_values_via_inversion(K)
    alpha = [theta_row(p, s, K) for s in range(K + 1)]
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
            == pi_value_by_alpha(m, n, c, alpha)
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
            here = pi_value_by_alpha(m, n, c, alpha)
            if not bipartite.d_value(m, n, G) == d_value_by_crank(m, n, c, crank_t) == here - below:
                bad += 1
            below = here
    yield ("telescoping D identity", bad == 0, f"{(TELESCOPE_N + 1) ** 2} cells, n <= {TELESCOPE_N}")

    # column n is zero for |m| > n, so each column sums to its marginal;
    # closed-form columns sum to any p they read, so take p by dense inversion
    p_dense = series.invert(euler_product(1, MARGINAL_N))
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
