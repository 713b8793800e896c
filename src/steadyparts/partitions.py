"""Exact coefficient tables of three eta-quotients, all built by one primitive.

* ``p(n)`` -- 1/(q;q)_inf, the partition numbers;
* ``c(n)`` -- 1/((q;q)_inf (q^2;q^2)_inf), cubic partitions;
* ``G(n)`` -- 1/((q;q)_inf^2 (q^2;q^2)_inf) = (c * p)(n), the one series every
  pi and D cell is a short alternating sum over (see ``bipartite``).

Each table is the previous one divided by (q^s;q^s)_inf through Euler's
sparse pentagonal recurrence (``divide_by_euler``): p = 1/(q;q), c = p/(q^2;q^2),
G = c/(q;q).  Independent routes are kept as oracles for the tests and for
``verify``: dense series inversion for p and c, and the convolution
c(n) = sum p(n - 2b) p(b).
"""

from __future__ import annotations

import operator
from typing import Sequence

from .series import euler_product, invert, mul


class CoefficientTable:
    """a(n) for 0 <= n <= max_index of a series with a(0) = 1; the accessor is
    total: a(n < 0) = 0."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[int]):
        self._values = tuple(values)
        if not self._values or self._values[0] != 1:
            raise ValueError("the constant coefficient must be 1")

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    def coeff(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.max_index:
            raise IndexError(f"coefficient {n} beyond table max index {self.max_index}")
        return self._values[n]

    def values(self) -> tuple:
        return self._values


def _pentagonal_offsets(limit: int, step: int = 1) -> list[tuple[int, int]]:
    """(step * generalized pentagonal number, sign) pairs up to `limit`,
    ascending; sign is the recurrence's: +1 for k odd, -1 for k even."""
    offsets = []
    k = 1
    while step * k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k % 2 == 0 else 1
        offsets.append((step * k * (3 * k - 1) // 2, sign))
        g2 = step * k * (3 * k + 1) // 2
        if g2 <= limit:
            offsets.append((g2, sign))
        k += 1
    return offsets


def divide_by_euler(coeffs: list, step: int = 1) -> list:
    """Divide the series `coeffs` by (q^step; q^step)_inf in place, truncated
    to len(coeffs) terms, and return the list.

    (q^s;q^s)_inf has O(sqrt(N/s)) nonzero terms (Euler's pentagonal number
    theorem), so the quotient costs O(N^1.5) big-integer additions.  Between
    two consecutive offsets the set of offsets that reach back into the list
    is fixed, so each stretch runs one plain pair of loops.
    """
    offsets = _pentagonal_offsets(len(coeffs) - 1, step)
    ends = [g for g, _ in offsets] + [len(coeffs)]
    start = 0
    for active, end in enumerate(ends):
        plus = [g for g, sign in offsets[:active] if sign > 0]
        minus = [g for g, sign in offsets[:active] if sign < 0]
        for n in range(start, end):
            s = coeffs[n]
            for g in plus:
                s += coeffs[n - g]
            for g in minus:
                s -= coeffs[n - g]
            coeffs[n] = s
        start = end
    return coeffs


def build_p_table(N: int) -> CoefficientTable:
    """Partition numbers up to N by Euler's pentagonal recurrence."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return CoefficientTable(divide_by_euler([1] + [0] * N))


def p_values_via_inversion(N: int) -> tuple:
    """Independent path: coefficients of 1/(q;q)_infinity via series inversion."""
    return invert(euler_product(1, N)).coeffs


def build_c_table(N: int) -> CoefficientTable:
    """Cubic partition numbers up to N: the p table divided by (q^2;q^2)_inf."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return CoefficientTable(divide_by_euler(list(build_p_table(N).values()), 2))


def build_g_table(N: int) -> CoefficientTable:
    """G(0..N), the coefficients of 1/((q;q)^2 (q^2;q^2)): the c table
    divided by (q;q)_inf once more."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return CoefficientTable(divide_by_euler(list(build_c_table(N).values()), 1))


def c_values_via_inversion(N: int) -> tuple:
    """Independent path: invert the dense product (q;q)_inf (q^2;q^2)_inf."""
    return invert(mul(euler_product(1, N), euler_product(2, N))).coeffs


def c_values_via_convolution(N: int, p_table: CoefficientTable) -> tuple:
    """Independent path: c(n) = sum over 2b <= n of p(n - 2b) p(b)."""
    if p_table.max_index < N:
        raise IndexError("p table too short for the requested convolution")
    p = p_table.values()
    # p[n::-2] is p(n - 2b) for b = 0..n//2
    return tuple(sum(map(operator.mul, p[n::-2], p[: n // 2 + 1])) for n in range(N + 1))
