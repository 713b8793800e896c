"""Exact crank tables M(m, n).

The table stores the coefficients of the crank generating function

    (q;q)_inf / ((zeta q;q)_inf (zeta^{-1} q;q)_inf)

expanded as a q-series with Laurent coefficients in zeta.  Three routes
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
from typing import Dict, Iterable, Iterator, Sequence

from .partitions import CoefficientTable, build_p_table
from .series import BigSeries, euler_product, invert, mul


class CrankTable:
    """M(m, n) values for n <= max_order, stored for m >= 0 only.

    Negative m resolves through the symmetry M(m,n) = M(-m,n); |m| > n
    returns 0 without a lookup.  A table may hold all columns (full build)
    or just a selected set (large-order column build).
    """

    __slots__ = ("_columns", "max_order")

    def __init__(self, columns: Dict[int, Sequence[int]], max_order: int):
        self._columns = {m: tuple(col) for m, col in columns.items()}
        self.max_order = max_order
        for m, col in self._columns.items():
            if m < 0:
                raise ValueError("store nonnegative crank columns only")
            if len(col) != max_order + 1:
                raise ValueError(f"column {m} has wrong length")

    def value(self, m: int, n: int) -> int:
        if n < 0 or n > self.max_order:
            raise IndexError(f"q-order {n} outside [0, {self.max_order}]")
        m = abs(m)
        if m > n:
            return 0
        col = self._columns.get(m)
        if col is None:
            raise KeyError(f"crank column {m} not present in this table")
        return col[n]

    def columns(self) -> Dict[int, tuple]:
        return dict(self._columns)

    def row_sum(self, n: int) -> int:
        """Sum over all m of M(m, n); equals p(n) when the table is sound."""
        total = self.value(0, n)
        for m in range(1, n + 1):
            total += 2 * self.value(m, n)
        return total


def build_crank_table(N: int) -> CrankTable:
    """Full table to order N from the quotient-of-products form.

    Seeds a grid, zeta^m q^n at grid[m + N][n], with the finite product
    (q;q)_N and multiplies it in place by the geometric factors
    1/(1 - zeta q^j) and 1/(1 - zeta^{-1} q^j) for j = 1..N.  The zeta-span
    clamp to [-N, N] is lossless: every partial product here has
    |zeta-degree| bounded by the q-degree.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    grid = [[0] * (N + 1) for _ in range(2 * N + 1)]
    grid[N] = list(euler_product(1, N).coeffs)
    for j in range(1, N + 1):
        # new[off][n] = old[off][n] + new[off -+ 1][n - j]; sweeping the rows
        # away from the source row finishes each source before it is read
        for off in range(1, 2 * N + 1):
            row = grid[off]
            row[j:] = map(add, row[j:], grid[off - 1])
        for off in range(2 * N - 1, -1, -1):
            row = grid[off]
            row[j:] = map(add, row[j:], grid[off + 1])
    return CrankTable({m: grid[m + N] for m in range(N + 1)}, N)


def build_crank_table_lambert(N: int) -> CrankTable:
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
            grid[i + N][base + k * i] += sign
            i += 1
        j = k
        sign_neg = 1 if j % 2 else -1  # (-1)^(j+1)
        base = j * (j - 1) // 2
        i = 1
        while base + j * i <= N and i <= N:
            grid[N - i][base + j * i] += sign_neg
            i += 1
        k += 1
    # times (1 - zeta): descending rows, so each source row is still the old one
    for off in range(2 * N, 0, -1):
        grid[off][:] = map(sub, grid[off], grid[off - 1])
    grid[N][0] += 1
    p_series = invert(euler_product(1, N))
    cols = {m: mul(BigSeries(grid[m + N]), p_series).coeffs for m in range(N + 1)}
    return CrankTable(cols, N)


def crank_column(m: int, N: int, p_table: CoefficientTable) -> tuple:
    """The q-expansion of the crank-m column, via partition numbers:

        M(m, n) = sum_{k >= 1} (-1)^{k-1}
                  [ p(n - k(k-1)/2 - |m| k) - p(n - k(k+1)/2 - |m| k) ].

    Follows from the Lambert form by extracting the zeta^m coefficient.
    O(sqrt(N)) p-lookups per value; this is the route used at orders where
    the full 2-D expansion is out of reach.
    """
    if p_table.max_index < N:
        raise IndexError("p table too short for the requested crank column")
    m = abs(m)
    col = [0] * (N + 1)
    k = 1
    while k * (k - 1) // 2 + m * k <= N:
        sign = 1 if k % 2 else -1  # (-1)^(k-1)
        a = k * (k - 1) // 2 + m * k
        b = k * (k + 1) // 2 + m * k
        for n in range(a, N + 1):
            col[n] += sign * p_table.coeff(n - a)
        for n in range(b, N + 1):
            col[n] -= sign * p_table.coeff(n - b)
        k += 1
    return tuple(col)


def build_crank_columns(ms: Iterable[int], N: int, p_table: CoefficientTable | None = None) -> CrankTable:
    """Table holding only the requested crank columns, built per column."""
    if p_table is None:
        p_table = build_p_table(N)
    cols = {abs(m): crank_column(m, N, p_table) for m in ms}
    return CrankTable(cols, N)


def crank_value_direct(m: int, n: int, p_table: CoefficientTable) -> int:
    """Single M(m, n) from the closed form, without building a column."""
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
    """All partitions of n as non-increasing tuples of positive parts."""
    def rec(remaining: int, cap: int, prefix: list):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def crank_of(partition: Sequence[int]) -> int:
    """Crank statistic: largest part if there are no ones, else mu - omega
    with omega = number of ones and mu = number of parts exceeding omega."""
    if not partition:
        return 0
    ones = sum(1 for part in partition if part == 1)
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
