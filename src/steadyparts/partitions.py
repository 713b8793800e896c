"""Exact coefficient tables of three eta-quotients, built by sparse division.

* ``p(n)`` -- 1/(q;q)_inf, the partition numbers;
* ``c(n)`` -- 1/((q;q)_inf (q^2;q^2)_inf), cubic partitions;
* ``G(n)`` -- 1/((q;q)_inf^2 (q^2;q^2)_inf) = (c * p)(n), the one series every
  pi and D cell is a short alternating sum over (see ``bipartite``).

p comes from Euler's sparse pentagonal recurrence (``series.divide_by_euler``).
G is read, not built.  Jacobi's phi(q) phi(-q) = phi(-q^2)^2 and Gauss's
phi(-q) = (q;q)^2/(q^2;q^2) give G(q) = E(q^2) phi(q), with

    E = P(q^2) / phi(-q)^3 = (q^2;q^2)^2 / (q;q)^6,   P = 1/(q;q),

so ``build_g_table(N)`` builds only E to N/2: one pentagonal division at
order N/4 and three divisions by phi(-q) (``series.divide_by_phi``, +-2 at
the squares) at order N/2.  phi(q) = 1 + 2 sum_{j >= 1} q^(j^2), so each
coefficient of G is a sum of O(sqrt(k)) entries of E, done when it is read:
a pi or D cell reads only O(sqrt(mu)) coefficients of G, and the full table
to mu is never formed.

Independent routes are kept as oracles for the tests: the chain
p -> c = p/(q^2;q^2) -> G = c/(q;q) of pentagonal divisions
(``build_c_table``, ``g_values_via_chain``), and dense series inversion for
c (``c_values_via_inversion``, which ``verify`` uses).  p is checked against
Euler's identity (q;q)_inf * P(q) = 1 through ``series.mul``.  Every table
but G's reader is a tuple, a ``series.CoefficientTable``.
"""

import math

# read through the module, so that a process that sizes no G table
# (verify) never compiles asymptotics
from . import asymptotics
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
    return CoefficientTable(divide_by_euler(list(build_p_table(N)), 2))


class HalfOrderG:
    """The read-only sequence G(0..length-1) over E = ``half``, where
    G(q) = E(q^2) phi(q) and phi(q) = 1 + 2 sum_{j >= 1} q^(j^2):

        G(k) = [k even] E(k/2) + 2 sum_{j >= 1, j = k (mod 2), j^2 <= k} E((k - j^2)/2).

    Reading G(k) costs about sqrt(k)/2 additions.  A caller that reads every
    coefficient many times, as ``verify``'s small cells do, indexes
    tuple(G) instead.  An index outside 0..length-1, negative ones too,
    raises IndexError, which ends iteration, tuple(G) and list(G).
    """

    __slots__ = ("half", "_length")

    def __init__(self, half, length: int):
        self.half = tuple(half)
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self._length:
            raise IndexError(f"coefficient {k} outside G's indices 0..{self._length - 1}")
        e = self.half
        h = k >> 1
        # the terms j = k (mod 2) read E at h - 2i^2 (k even, j = 2i) or at
        # h - 2i(i+1) (k odd, j = 2i+1), whose gaps grow by 4
        if k & 1:
            head, gap = 0, 0
        else:
            head, gap = e[h], 2
            h -= 2
        total = 0
        while h >= 0:
            total += e[h]
            gap += 4
            h -= gap
        return head + 2 * total


def build_g_table(N: int) -> HalfOrderG:
    """G(0..N), the coefficients of 1/((q;q)^2 (q^2;q^2)) = E(q^2) phi(q), as
    a ``HalfOrderG`` over E(0..N//2), E = P(q^2) / phi(-q)^3.

    P(q^2) is the p table to N//4 spread onto the even indices (q^2 put in
    for q); three in-place divisions by phi(-q) take it to E.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    half = [0] * (N // 2 + 1)
    half[::2] = build_p_table(N // 4)
    for _ in range(3):
        divide_by_phi(half)
    return HalfOrderG(half, N + 1)


def _table_bytes(N: int, growth: float) -> int:
    """Bytes a table of entries 0..N takes, from above, which the CLI's memory
    guard checks before a build.  Entry n has about growth * sqrt(n) / ln 2
    bits: an int is a 28-byte header and 4 bytes per 30 bits, plus 16 bytes
    of list and tuple slots.  The bits sum to at most growth * (2/3)
    (N + 1)^1.5 / ln 2.  An N past a float's range raises OverflowError."""
    bits = growth * (N + 1) ** 1.5 / (1.5 * math.log(2))
    return math.ceil(44 * (N + 1) + bits / 7.5)


def p_table_bytes(N: int) -> int:
    """Bytes ``build_p_table(N)`` holds, from above: log p(n) ~ pi sqrt(2n/3)."""
    return _table_bytes(N, math.pi * math.sqrt(2 / 3))


def g_table_bytes(N: int) -> int:
    """Bytes ``build_g_table(N)`` holds, from above: E to N // 2, where
    log E(i) ~ log G(2i) ~ C sqrt(2i)."""
    return _table_bytes(N // 2, math.sqrt(2) * asymptotics.C)


def g_values_via_chain(N: int) -> CoefficientTable:
    """Independent path: G as the c table divided by (q;q)_inf once more."""
    return CoefficientTable(divide_by_euler(list(build_c_table(N)), 1))


def c_values_via_inversion(N: int) -> CoefficientTable:
    """Independent path: invert the dense product (q;q)_inf (q^2;q^2)_inf."""
    return invert(mul(euler_product(1, N), euler_product(2, N)))
