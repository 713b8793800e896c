"""Exact crank tables M(m, n).

A table holds the coefficients of the crank generating function

    (q;q)_inf / ((zeta q;q)_inf (zeta^{-1} q;q)_inf)

expanded to q-order N, as 2N+1 row tuples indexed M[m][n]: rows m = 0..N,
then m = -N..-1, so a negative m is Python's negative index.  Every route
returns that layout, or one row or value of it, and the tests compare them:

* ``build_crank_table``            -- the closed form's rows, each the
                                      shifted difference of two
                                      ``series.theta_row`` rows over p;
                                      ``crank_column`` is one of them;
* ``crank_value_direct``           -- one M(m, n) in closed form, a
                                      difference of two
                                      ``series.theta_coefficient`` sums over
                                      the p tuple: crank-row's route, which
                                      runs over m at fixed n;
* ``build_crank_table_lambert``    -- the (1 - zeta) * Lambert-sum form of
                                      the same generating function, the one
                                      series expansion of the table and the
                                      closed form's small-order oracle;
* ``crank_counts_by_enumeration``  -- the combinatorial counts, by brute
                                      force over the partitions of N.

Note the generating-function convention at n = 1: M(0,1) = -1 and
M(+-1,1) = 1, which differ from the combinatorial counts, M(-1,1) = 1 and
0 elsewhere.  The tests pin this down; it is what makes the D(m,n)
convolution identity exact.
"""

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from operator import neg, sub

from .series import divide_by_euler, euler_product, invert, mul, theta_coefficient, theta_row


def build_crank_table(N: int) -> tuple:
    """Full table to order N over the p table: the rows m = 0..N, each from
    the theta rows T_m and T_{m+1}, so that every T_s serves two rows; the
    rows m = -N..-1 repeat them, as M(-m, n) = M(m, n)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    p = divide_by_euler([1] + [0] * N)
    T = [theta_row(p, s, N - s) for s in range(N + 2)]
    rows = [_crank_row(m, T[m], T[m + 1]) for m in range(N + 1)]
    return tuple(rows + rows[:0:-1])


def _crank_row(m: int, T: tuple, U: tuple) -> tuple:
    """The row M(m, 0..N), m >= 0, from the theta rows over p
    T = theta_row(p, m, N - m) and U = theta_row(p, m + 1, N - m - 1):
    M(m, n) = T[n - m] - U[n - m - 1] (``crank_value_direct``), 0 for n < m."""
    return (0,) * m + T[:1] + tuple(map(sub, T[1:], U))


def build_crank_table_lambert(N: int) -> tuple:
    """Full table to order N from the (1 - zeta) * Lambert-sum form.

    The k = 0 term of the bilateral sum is 1/(1 - zeta); multiplied by
    (1 - zeta) it contributes exactly 1, so only the k != 0 terms need a
    series expansion:

      k > 0:  (-1)^k q^{k(k+1)/2} * sum_i zeta^i  q^{ki}        (i >= 0)
      k < 0:  with k = -j, (-1)^{j+1} q^{j(j-1)/2} * sum_i zeta^{-i} q^{ji}
              (i >= 1, after pulling 1/(1 - zeta q^{-j}) into a convergent
              geometric series in zeta^{-1} q^{j}).
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    grid = [[0] * (N + 1) for _ in range(2 * N + 1)]
    k = 1
    while (base := k * (k + 1) // 2) <= N:
        # term k puts zeta^i at q^(base + k i), i >= 0; term -k puts
        # zeta^-(i+1) at the same power, k(k-1)/2 + k (i+1), sign flipped
        sign = -1 if k % 2 else 1
        for i, n in enumerate(range(base, N + 1, k)):
            grid[i][n] += sign
            grid[-1 - i][n] -= sign
        k += 1
    # times (1 - zeta): descending m, so each source row is still the old one
    for m in range(N, -N, -1):
        grid[m][:] = map(sub, grid[m], grid[m - 1])
    grid[0][0] += 1
    p_series = invert(euler_product(1, N))
    return tuple(mul(row, p_series) for row in grid)


def crank_column(m: int, N: int, p_table: Sequence[int]) -> tuple:
    """The row M(m, 0..N), as ``build_crank_table`` builds it."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if len(p_table) <= N:
        raise IndexError("p table too short for the requested crank column")
    m = abs(m)
    if m > N:
        return (0,) * (N + 1)
    return _crank_row(m, theta_row(p_table, m, N - m), theta_row(p_table, m + 1, N - m - 1))


def crank_value_direct(m: int, n: int, p_table: Sequence[int]) -> int:
    """Single M(m, n) from the closed form

        M(m, n) = sum_{k >= 1} (-1)^{k-1}
                  [ p(n - k(k-1)/2 - |m| k) - p(n - k(k+1)/2 - |m| k) ]
                = K(n - |m|, |m|) - K(n - |m| - 1, |m| + 1),

    with K = ``series.theta_coefficient`` over p, which follows from the
    Lambert form by extracting the zeta^m coefficient; O(sqrt(n))
    p-lookups, and M = 0 for |m| > n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = abs(m)
    return theta_coefficient(p_table, n - m, m) - theta_coefficient(p_table, n - m - 1, m + 1)


def _zs1(n: int) -> Iterator[tuple]:
    """Walk the partitions of n in decreasing lexicographic order, yielding
    ZS1's live state (parts, h, size) at each: the partition is parts[:size],
    non-increasing, and parts[:h + 1] are its parts above 1, so h = -1 when
    every part is 1.  The list is the same object every time, changed in
    place between yields.

    Algorithm ZS1 of Zoghbi and Stojmenovic (Int. J. Comput. Math. 70,
    1998): the parts live in one list pre-filled with ones.  Each step
    lowers the last part above 1 by one and refills the freed amount (the
    trailing ones plus one) with copies of the lowered part and a
    remainder; a part of 2 just becomes a 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = [1] * n
    size, h = min(n, 1), -1  # the partition (n), or () for n = 0
    if n > 1:
        parts[0], h = n, 0
    yield parts, h, size
    while h >= 0:
        k = parts[h]
        if k == 2:
            parts[h] = 1
            h -= 1
            size += 1
        else:
            k -= 1
            parts[h] = k
            freed = size - h
            while freed >= k:
                h += 1
                parts[h] = k
                freed -= k
            size = h + 1
            if freed:
                size += 1
                if freed > 1:
                    h += 1
                    parts[h] = freed
        yield parts, h, size


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n as non-increasing tuples of positive parts, in
    decreasing lexicographic order (ZS1, see ``_zs1``)."""
    for parts, _, size in _zs1(n):
        yield tuple(parts[:size])


def crank_of(partition: Sequence[int]) -> int:
    """Crank statistic: largest part if there are no ones, else mu - omega
    with omega = number of ones and mu = number of parts exceeding omega.

    `partition` is non-increasing, so the parts exceeding omega are a prefix
    and mu is found by bisection."""
    if not partition:
        return 0
    ones = partition.count(1)
    if ones == 0:
        return partition[0]
    return bisect_left(partition, -ones, key=neg) - ones


def crank_counts_by_enumeration(N: int) -> tuple:
    """Combinatorial crank counts to order N (brute force), laid out as
    ``build_crank_table`` lays out its table: 2N+1 row tuples M[m][n], where
    M(m, n) is the number of partitions of n with crank m.

    One walk over the partitions of N serves every order: a partition of n
    is a partition of N with N - n of its ones removed.  So each partition
    lam + (t ones) of N yields lam + (w ones) for w = t, t-1, .., 0, whose
    crank is lam's largest part at w = 0 and otherwise the number of parts
    of lam above w, less w; a pointer walks down lam as w grows.  The walk
    is ``_zs1``'s, read in place: lam is parts[:h + 1] and t is size - h - 1.

    Agrees with the generating-function table for n = 0 and n >= 2; the
    column n = 1 holds the combinatorial count M(-1, 1) = 1 (see the module
    docstring).
    """
    # columns[n][m], a negative crank m from the end; the table is their
    # transpose
    columns = [[0] * (2 * N + 1) for _ in range(N + 1)]
    for parts, h, size in _zs1(N):
        above = h + 1
        t = size - above
        columns[N - t][parts[0] if above else 0] += 1
        for w in range(1, t + 1):
            while above and parts[above - 1] <= w:
                above -= 1
            columns[N - t + w][above - w] += 1
    return tuple(zip(*columns))
