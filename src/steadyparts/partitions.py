"""Exact coefficient tables of three eta-quotients, all built by one primitive.

* ``p(n)`` -- 1/(q;q)_inf, the partition numbers;
* ``c(n)`` -- 1/((q;q)_inf (q^2;q^2)_inf), cubic partitions;
* ``G(n)`` -- 1/((q;q)_inf^2 (q^2;q^2)_inf) = (c * p)(n), the one series every
  pi and D cell is a short alternating sum over (see ``bipartite``).

Each table is the previous one divided by (q^s;q^s)_inf through Euler's
sparse pentagonal recurrence (``series.divide_by_euler``): p = 1/(q;q),
c = p/(q^2;q^2), G = c/(q;q).  Independent routes are kept as oracles for the
tests and for ``verify``: dense series inversion for p and c, and the
convolution c(n) = sum p(n - 2b) p(b).
"""

from __future__ import annotations

import operator

from .series import CoefficientTable, divide_by_euler, euler_product, invert, mul


def build_p_table(N: int) -> CoefficientTable:
    """Partition numbers up to N by Euler's pentagonal recurrence."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return CoefficientTable(divide_by_euler([1] + [0] * N))


def p_values_via_inversion(N: int) -> CoefficientTable:
    """Independent path: coefficients of 1/(q;q)_infinity via series inversion."""
    return invert(euler_product(1, N))


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


def c_values_via_inversion(N: int) -> CoefficientTable:
    """Independent path: invert the dense product (q;q)_inf (q^2;q^2)_inf."""
    return invert(mul(euler_product(1, N), euler_product(2, N)))


def c_values_via_convolution(N: int, p_table: CoefficientTable) -> tuple:
    """Independent path: c(n) = sum over 2b <= n of p(n - 2b) p(b)."""
    if p_table.max_index < N:
        raise IndexError("p table too short for the requested convolution")
    p = p_table.values()
    # p[n::-2] is p(n - 2b) for b = 0..n//2
    return tuple(sum(map(operator.mul, p[n::-2], p[: n // 2 + 1])) for n in range(N + 1))
