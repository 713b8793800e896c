"""Exact crank tables M(m, n).

A table holds the coefficients of the crank generating function

    (q;q)_inf / ((zeta q;q)_inf (zeta^{-1} q;q)_inf)

expanded to q-order N, as 2N+1 row tuples indexed M[m][n]: rows m = 0..N,
then m = -N..-1, so a negative m is Python's negative index.  Three routes
produce the same numbers and are compared in the tests:

* ``build_crank_table``          -- quotient-of-products expansion (geometric
                                    factors swept in place over one grid);
* ``build_crank_table_lambert``  -- the (1 - zeta) * Lambert-sum form of the
                                    same generating function;
* ``crank_column``               -- a closed form in p(n) for one fixed crank
                                    value, obtained by expanding the Lambert
                                    sum geometrically; this is the only route
                                    that scales to q-orders in the thousands.

Note the generating-function convention at n = 1: M(0,1) = -1 and
M(+-1,1) = 1, which differ from the combinatorial counts.  The tests pin
this down; it is what makes the D(m,n) convolution identity exact.
"""

from __future__ import annotations

from operator import add, sub
from typing import Dict, Iterator, Sequence

from .series import CoefficientTable, euler_product, invert, mul


def build_crank_table(N: int) -> tuple:
    """Full table to order N from the quotient-of-products form.

    Seeds the grid, zeta^m q^n at grid[m][n], with the finite product
    (q;q)_N and multiplies it in place by the geometric factors
    1/(1 - zeta q^j) and 1/(1 - zeta^{-1} q^j) for j = 1..N.  The zeta-span
    clamp to [-N, N] is lossless: every partial product here has
    |zeta-degree| bounded by the q-degree.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    grid = [[0] * (N + 1) for _ in range(2 * N + 1)]
    grid[0] = list(euler_product(1, N).coeffs)
    for j in range(1, N + 1):
        # new[m][n] = old[m][n] + new[m -+ 1][n - j]; sweeping the rows
        # away from the source row finishes each source before it is read
        for m in range(1 - N, N + 1):
            row = grid[m]
            row[j:] = map(add, row[j:], grid[m - 1])
        for m in range(N - 1, -N - 1, -1):
            row = grid[m]
            row[j:] = map(add, row[j:], grid[m + 1])
    return tuple(map(tuple, grid))


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
    while k * (k + 1) // 2 <= N:
        sign = -1 if k % 2 else 1
        base = k * (k + 1) // 2
        i = 0
        while base + k * i <= N and i <= N:
            grid[i][base + k * i] += sign
            i += 1
        j = k
        sign_neg = 1 if j % 2 else -1  # (-1)^(j+1)
        base = j * (j - 1) // 2
        i = 1
        while base + j * i <= N and i <= N:
            grid[-i][base + j * i] += sign_neg
            i += 1
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
                  [ p(n - k(k-1)/2 - |m| k) - p(n - k(k+1)/2 - |m| k) ],

    which follows from the Lambert form by extracting the zeta^m coefficient;
    O(sqrt(n)) p-lookups.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = abs(m)
    if m > n:
        return 0
    total = 0
    k = 1
    while k * (k - 1) // 2 + m * k <= n:
        sign = 1 if k % 2 else -1
        total += sign * (
            p_table.coeff(n - k * (k - 1) // 2 - m * k)
            - p_table.coeff(n - k * (k + 1) // 2 - m * k)
        )
        k += 1
    return total


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n as non-increasing tuples of positive parts, in
    decreasing lexicographic order.

    Each step takes the next partition in that order: drop the trailing ones,
    lower the last part k > 1 by one and refill the freed amount with parts
    of at most k - 1.
    """
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        freed = 1
        while parts[-1] == 1:
            parts.pop()
            freed += 1
            if not parts:
                return
        k = parts[-1] - 1
        parts[-1] = k
        q, r = divmod(freed, k)
        parts += [k] * q
        if r:
            parts.append(r)


def crank_of(partition: Sequence[int]) -> int:
    """Crank statistic: largest part if there are no ones, else mu - omega
    with omega = number of ones and mu = number of parts exceeding omega."""
    if not partition:
        return 0
    ones = partition.count(1)
    if ones == 0:
        return partition[0]
    mu = sum(1 for part in partition if part > ones)
    return mu - ones


def crank_counts_by_enumeration(n: int) -> Dict[int, int]:
    """Combinatorial crank counts over all partitions of n (brute force).

    Agrees with the generating-function table for n = 0 and n >= 2; the
    n = 1 row intentionally differs (see module docstring).
    """
    counts: Dict[int, int] = {}
    for part in partitions_of(n):
        c = crank_of(part)
        counts[c] = counts.get(c, 0) + 1
    return counts
