"""Bipartite partition counts pi(m, n) with steadily decreasing parts.

The fast path is one table plus one short sum per cell.  Swapping the order
of summation in the paper's convolutions writes every cell as an alternating
sum of O(sqrt(mu)) coefficients of G = c * p, the series
1/((q;q)^2 (q^2;q^2)) that ``partitions.build_g_table`` builds.  That sum is
``series.theta_coefficient`` K(k, s) over G:

* ``pi_value``  -- pi(m, n) = K(mu, s), mu = min(m, n), s = |m - n|;
* ``d_value``   -- the first difference D(m, n) = pi(m, n) - pi(m-1, n) as
                   K(L, b) - K(L - 1, b + 1), from the crank identity with
                   ``crank_value_direct``'s closed form put in.

Independent routes are kept as oracles, for the tests and ``verify`` only:

* ``pi_value_by_alpha``     -- the c/alpha convolution, one sum against a
                               row ``alpha_row(s, K, p)`` the caller builds;
* ``d_value_by_crank``      -- D through the crank convolution c * M, one sum
                               against a slice of one crank row;
* ``gf_table``              -- direct box expansion of the Carlitz generating
                               function 1/((x;xy)(x^2y^2;x^2y^2)(y;xy));
* ``enumerate_steady``      -- the number of part-pair sequences satisfying
                               min(a_i, b_i) >= max(a_{i+1}, b_{i+1}), by a
                               memoised recursion over the first pair;
                               ``steady_partitions`` lists them.

No oracle keeps a table alive between calls.
"""

from collections.abc import Sequence
from functools import cache
from operator import add, mul, sub

from .series import CoefficientTable, theta_coefficient


def pi_value(m: int, n: int, G: CoefficientTable) -> int:
    """pi(m, n) = sum_{l >= 0} (-1)^l G(mu - l(l+1)/2 - l s), with
    mu = min(m, n) and s = |m - n|: ``theta_coefficient`` over G.

    This is the c/alpha convolution with its two sums swapped: the inner sum
    over k of c(mu - k) p(k - l(l+1)/2 - l s) is one coefficient of G = c * p.
    """
    if m < 0 or n < 0:
        raise ValueError("pi takes nonnegative arguments")
    mu = min(m, n)
    if G.max_index < mu:
        raise IndexError("G table too short for pi_value")
    return theta_coefficient(G.values(), mu, abs(m - n))


def d_value(m: int, n: int, G: CoefficientTable) -> int:
    """D(m, n) with L = min(m, 2n - m) and b = n - L:

        D(m,n) = sum_{k >= 1} (-1)^(k-1) [G(L - k(k-1)/2 - b(k-1))
                                         - G(L - k(k+1)/2 - b(k-1))]
               = K(L, b) - K(L - 1, b + 1),

    with K = ``theta_coefficient`` over G; L < 0, so D = 0, when m > 2n.
    This is ``d_value_by_crank`` with ``crank_value_direct``'s closed form
    for M(b, .) put in and the sums swapped.
    """
    if m < 0 or n < 0:
        raise ValueError("d_value takes nonnegative arguments")
    L = min(2 * n - m, m)
    if G.max_index < L:
        raise IndexError("G table too short for d_value")
    b = n - L
    g = G.values()
    return theta_coefficient(g, L, b) - theta_coefficient(g, L - 1, b + 1)


def alpha_row(s: int, K: int, p_table: CoefficientTable) -> tuple:
    """The row alpha(s, 0..K), where

        alpha(s, k) = sum over l >= 0 of (-1)^l p(k - l(l+1)/2 - l s).

    Term l of every entry at once is p shifted right by l(l+1)/2 + l s, so
    the row starts as p(0..K) and each shift that stays below K adds or
    subtracts one slice of p: O(sqrt(K)) slices in all.
    """
    if s < 0 or K < 0:
        raise ValueError("alpha takes nonnegative arguments")
    if p_table.max_index < K:
        raise IndexError("p table too short for alpha")
    p = p_table.values()
    row = list(p[:K + 1])
    l = 1
    while (off := l * (l + 1) // 2 + l * s) <= K:
        row[off:] = map(sub if l % 2 else add, row[off:], p[:K + 1 - off])
        l += 1
    return tuple(row)


def pi_value_by_alpha(m: int, n: int, c_table: CoefficientTable, alpha) -> int:
    """Oracle for pi(m, n): sum_{0 <= k <= min(m,n)} c(min(m,n) - k) alpha(|m-n|, k),
    with `alpha` anything indexed alpha[s][k], such as rows of ``alpha_row``."""
    if m < 0 or n < 0:
        raise ValueError("pi takes nonnegative arguments")
    mu = min(m, n)
    if c_table.max_index < mu:
        raise IndexError("c table too short for pi_value_by_alpha")
    row = alpha[abs(m - n)]
    if len(row) <= mu:
        raise IndexError("alpha row too short for pi_value_by_alpha")
    c = c_table.values()
    return sum(map(mul, c[mu::-1], row))


def d_value_by_crank(m: int, n: int, c_table: CoefficientTable, M) -> int:
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
    if c_table.max_index < L:
        raise IndexError("c table too short for d_value_by_crank")
    base = n - L
    row = M[base]
    if len(row) <= n:
        raise IndexError("crank table too short for d_value_by_crank")
    c = c_table.values()
    return sum(map(mul, c[L::-1], row[base:n + 1]))


def is_steady(parts: Sequence[tuple[int, int]]) -> bool:
    """True when `parts` is a sequence of part-pairs (a_i, b_i) != (0, 0)
    with nonnegative components and min(a_i, b_i) >= max(a_{i+1}, b_{i+1})."""
    if any(a < 0 or b < 0 or (a, b) == (0, 0) for a, b in parts):
        return False
    return all(min(a1, b1) >= max(a2, b2) for (a1, b1), (a2, b2) in zip(parts, parts[1:]))


class EnumerationCapExceeded(ValueError):
    pass


def _check_weight(m: int, n: int, cap: int):
    if m < 0 or n < 0:
        raise ValueError("steady pair sequences take nonnegative weights")
    if m + n > cap:
        raise EnumerationCapExceeded(f"total weight {m + n} exceeds the enumeration cap {cap}")


def enumerate_steady(m: int, n: int) -> int:
    """The number of steadily decreasing pair sequences of total weight (m, n).

    The cap on m + n is twice ``PRODUCT_CAP``: it admits the corner of the
    largest box ``verify`` checks, and keeps the memo's recursion, one frame
    per unit of weight, well inside Python's recursion limit.
    """
    _check_weight(m, n, 2 * PRODUCT_CAP)
    return _steady_counts(m, n)[-1]


def steady_partitions(m: int, n: int) -> list[tuple]:
    """List the steadily decreasing pair sequences of total weight (m, n)
    up to 40, each a tuple of (a, b) pairs.

    At each level we choose a pair (a, b) != (0, 0) with max(a, b) bounded
    by the min of the previous pair; individual components may be zero.
    The empty sequence is the unique witness for (0, 0).
    """
    _check_weight(m, n, 40)

    def walk(rm: int, rn: int, bound: int):
        if rm == 0 and rn == 0:
            yield ()
        for a in range(min(bound, rm) + 1):
            for b in range(min(bound, rn) + 1):
                if a or b:
                    for rest in walk(rm - a, rn - b, min(a, b)):
                        yield ((a, b),) + rest

    return list(walk(m, n, max(m, n)))


@cache
def _steady_counts(rm: int, rn: int) -> tuple:
    """Running counts over the bound: entry B is the number of steadily
    decreasing pair sequences of total weight (rm, rn) whose pairs have
    max(a, b) <= B, for B = 0..max(rm, rn).  A larger bound admits no more
    pairs, so a caller clamps its bound to the last entry.

    Entry B adds to entry B - 1 the shell of first pairs with max(a, b) = B:
    a = B with b <= B, and b = B with a < B.  One memo serves every call,
    and a whole ``verify`` box reuses it."""
    total = 1 if rm == 0 and rn == 0 else 0
    counts = [total]
    for bound in range(1, max(rm, rn) + 1):
        if bound <= rm:
            for b in range(min(bound, rn) + 1):
                rest = _steady_counts(rm - bound, rn - b)
                total += rest[min(b, len(rest) - 1)]
        if bound <= rn:
            for a in range(min(bound - 1, rm) + 1):
                rest = _steady_counts(rm - a, rn - bound)
                total += rest[min(a, len(rest) - 1)]
        counts.append(total)
    return tuple(counts)


class ProductCapExceeded(ValueError):
    pass


# largest box bound gf_table expands
PRODUCT_CAP = 60


def gf_table(M: int, N: int) -> tuple:
    """Expand the Carlitz product over the (M+1) x (N+1) box; pi(m, n) is
    g[m][n] of the returned tuple of row tuples.

    Starting from 1, every factor 1/(1 - x^a y^b) of the product is applied
    in place as a geometric series, g[i][k] += g[i - a][k - b] in ascending
    order: x (xy)^j and y (xy)^j for j >= 0, (xy)^{2j} for j >= 1.  A factor
    whose degrees leave the box changes nothing.
    """
    if M < 0 or N < 0:
        raise ValueError("box bounds must be nonnegative")
    if max(M, N) > PRODUCT_CAP:
        raise ProductCapExceeded(f"box bound {max(M, N)} exceeds the product cap {PRODUCT_CAP}")
    g = [[0] * (N + 1) for _ in range(M + 1)]
    g[0][0] = 1
    factors = [(j + 1, j) for j in range(M)] + [(j, j + 1) for j in range(N)]
    factors += [(2 * j, 2 * j) for j in range(1, min(M, N) // 2 + 1)]
    for a, b in factors:
        for i in range(a, M + 1):
            src, dst = g[i - a], g[i]
            for k in range(b, N + 1):
                dst[k] += src[k - b]
    return tuple(map(tuple, g))
