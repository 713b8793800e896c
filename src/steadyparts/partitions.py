"""Exact coefficient tables of three eta-quotients, built by sparse division.

* ``p(n)`` -- 1/(q;q)_inf, the partition numbers;
* ``c(n)`` -- 1/((q;q)_inf (q^2;q^2)_inf), cubic partitions;
* ``G(n)`` -- 1/((q;q)_inf^2 (q^2;q^2)_inf) = (c * p)(n), the one series every
  pi and D cell is a short alternating sum over (see ``bipartite``).

p comes from Euler's sparse pentagonal recurrence (``series.divide_by_euler``).
G is built through Gauss's identity phi(-q) = (q;q)^2/(q^2;q^2), applied at
q^2 and at q: G = P(q^4) / (phi(-q^2) phi(-q)), with P = 1/(q;q).  So one
pentagonal division at order N/4 and two divisions by phi(-q)
(``series.divide_by_phi``, +-2 at the squares) replace three full-length
pentagonal divisions.

Independent routes are kept as oracles for the tests: the chain
p -> c = p/(q^2;q^2) -> G = c/(q;q) of pentagonal divisions
(``build_c_table``, ``g_values_via_chain``), and dense series inversion for
c (``c_values_via_inversion``, which ``verify`` uses).  p is checked against
Euler's identity (q;q)_inf * P(q) = 1 through ``series.mul``.
"""

from __future__ import annotations

from .series import CoefficientTable, divide_by_euler, divide_by_phi, euler_product, invert, mul


def build_p_table(N: int) -> CoefficientTable:
    """Partition numbers up to N by Euler's pentagonal recurrence."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return CoefficientTable(divide_by_euler([1] + [0] * N))


def build_c_table(N: int) -> CoefficientTable:
    """Cubic partition numbers up to N: the p table divided by (q^2;q^2)_inf."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return CoefficientTable(divide_by_euler(list(build_p_table(N).values()), 2))


def build_g_table(N: int) -> CoefficientTable:
    """G(0..N), the coefficients of 1/((q;q)^2 (q^2;q^2)) = P(q^4) / (phi(-q^2) phi(-q)).

    Spreading a series onto the even indices substitutes q^2 for q, so two
    rounds of spread-then-divide-by-phi(-q) take P(q^4) to G:
    P(q^2)/phi(-q) = 1/(q;q)^2, and 1/(q^2;q^2)^2 / phi(-q) = G.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    half = divide_by_phi(_spread(build_p_table(N // 4).values(), N // 2 + 1))
    full = _spread(half, N + 1)
    # drop the list, so each value it held is freed once its slot in `full`
    # is overwritten by the division
    del half
    return CoefficientTable(divide_by_phi(full))


def _spread(values, length: int) -> list:
    """`values` on the even indices of a zero list of `length`: the series
    with q^2 put in for q."""
    out = [0] * length
    out[::2] = values
    return out


def g_values_via_chain(N: int) -> CoefficientTable:
    """Independent path: G as the c table divided by (q;q)_inf once more."""
    return CoefficientTable(divide_by_euler(list(build_c_table(N).values()), 1))


def c_values_via_inversion(N: int) -> CoefficientTable:
    """Independent path: invert the dense product (q;q)_inf (q^2;q^2)_inf."""
    return invert(mul(euler_product(1, N), euler_product(2, N)))
