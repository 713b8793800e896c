"""Exact crank tables M(m, n).

A table holds the coefficients of the crank generating function

    (q;q)_inf / ((zeta q;q)_inf (zeta^{-1} q;q)_inf)

expanded to q-order N, as 2N+1 row tuples indexed M[m][n]: rows m = 0..N,
then m = -N..-1, so a negative m is Python's negative index.  Three routes
produce the same numbers and are compared in the tests:

* ``build_crank_table``          -- quotient-of-products expansion, with
                                    each q-order packed into one int of
                                    W-bit zeta fields, so the geometric
                                    factors are swept by shifts and adds;
                                    W holds p(N) and a sign bit;
* ``build_crank_table_lambert``  -- the (1 - zeta) * Lambert-sum form of the
                                    same generating function;
* ``crank_column``               -- a closed form in p(n) for one fixed crank
                                    value, obtained by expanding the Lambert
                                    sum geometrically; each value
                                    (``crank_value_direct``) is a difference
                                    of two ``series.theta_coefficient`` sums
                                    over p; this is the only route that
                                    scales to q-orders in the thousands.

Note the generating-function convention at n = 1: M(0,1) = -1 and
M(+-1,1) = 1, which differ from the combinatorial counts.  The tests pin
this down; it is what makes the D(m,n) convolution identity exact.
"""

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Sequence
from operator import neg, sub

from .series import CoefficientTable, divide_by_euler, euler_product, invert, mul, theta_coefficient


def build_crank_table(N: int) -> tuple:
    """Full table to order N from the quotient-of-products form.

    Each q-order n is one Python int, the column
    C_n = sum_m M(m, n) Y^(m + N) with Y = 2^W: field m + N holds the
    coefficient of zeta^m, so multiplying by zeta is ``<< W`` and by
    zeta^{-1} is ``>> W``.  The columns start as (q;q)_N in field N and are
    multiplied by the geometric factors 1/(1 - zeta q^j) and
    1/(1 - zeta^{-1} q^j) for j = 1..N, one ascending pass each:
    C_n += C_{n-j} << W, then C_n += C_{n-j} >> W.  Every partial product
    has |zeta-degree| <= q-degree, so a source column n - j < N has empty
    fields at m = -N and m = N: the right shift is exact, and the left
    shift stays inside the 2N + 1 fields.  No field is masked or truncated
    on the way; the ints are exact whatever carries pass between fields,
    and only the final decode needs every field to fit in W bits.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    # |M(m, n)| <= p(n) <= p(N): for n >= 2 M counts the partitions of n
    # with crank m, and for n <= 1 |M| <= 1 = p(n).  One bit more holds the
    # sign, so every final field lies in [-2^(W-1), 2^(W-1)).
    W = divide_by_euler([1] + [0] * N)[-1].bit_length() + 1
    C = [e << (N * W) for e in euler_product(1, N).coeffs]
    for j in range(1, N + 1):
        for n in range(j, N + 1):
            C[n] += C[n - j] << W
        for n in range(j, N + 1):
            C[n] += C[n - j] >> W
    # decode: a bias of 2^(W-1) in every field makes each field a plain
    # W-bit digit; column n reads only its fields |m| <= n
    half = 1 << (W - 1)
    mask = (1 << W) - 1
    bias = half * (((1 << (W * (2 * N + 1))) - 1) // mask)
    columns = []
    for n, x in enumerate(C):
        x = (x + bias) >> (W * (N - n))
        fields = []
        for _ in range(2 * n + 1):
            fields.append((x & mask) - half)
            x >>= W
        pad = [0] * (N - n)
        columns.append(pad + fields + pad)
    rows = list(zip(*columns))  # rows m = -N..N
    return tuple(rows[N:] + rows[:N])


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
    return tuple(mul(CoefficientTable(row), p_series).coeffs for row in grid)


def crank_column(m: int, N: int, p_table: CoefficientTable) -> tuple:
    """M(m, n) for n = 0..N from the closed form in partition numbers;
    this is the route used at orders where the full 2-D expansion is out
    of reach."""
    if p_table.max_index < N:
        raise IndexError("p table too short for the requested crank column")
    return tuple(crank_value_direct(m, n, p_table) for n in range(N + 1))


def crank_value_direct(m: int, n: int, p_table: CoefficientTable) -> int:
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
    p = p_table.values()
    return theta_coefficient(p, n - m, m) - theta_coefficient(p, n - m - 1, m + 1)


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n as non-increasing tuples of positive parts, in
    decreasing lexicographic order.

    Algorithm ZS1 of Zoghbi and Stojmenovic (Int. J. Comput. Math. 70,
    1998): the parts live in one list pre-filled with ones, and h marks the
    last part above 1.  Each step lowers that part by one and refills the
    freed amount (the trailing ones plus one) with copies of the lowered
    part and a remainder; a part of 2 just becomes a 1.
    """
    if n == 0:
        yield ()
        return
    parts = [1] * n
    parts[0] = n
    size, h = 1, 0
    yield (n,)
    while parts[0] != 1:
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


def crank_counts_by_enumeration(N: int) -> list[Counter]:
    """Combinatorial crank counts for every n = 0..N (brute force): entry n
    counts the cranks of the partitions of n.

    One walk over the partitions of N serves every order: a partition of n
    is a partition of N with N - n of its ones removed.  So each partition
    lam + (t ones) of N yields lam + (w ones) for w = t, t-1, .., 0, whose
    crank is lam's largest part at w = 0 and otherwise the number of parts
    of lam above w, less w; a pointer walks down lam as w grows.

    Agrees with the generating-function table for n = 0 and n >= 2; the
    n = 1 row intentionally differs (see module docstring).
    """
    # rows[n][m], a negative crank m from the end: plain list increments,
    # about twice as fast as Counter's
    rows = [[0] * (2 * N + 1) for _ in range(N + 1)]
    for partition in partitions_of(N):
        t = partition.count(1)
        above = len(partition) - t
        rows[N - t][partition[0] if above else 0] += 1
        for w in range(1, t + 1):
            while above and partition[above - 1] <= w:
                above -= 1
            rows[N - t + w][above - w] += 1
    return [Counter({m: v for m in range(-n, n + 1) if (v := row[m])}) for n, row in enumerate(rows)]
