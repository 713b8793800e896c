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
order N/4 and three divisions by phi(-q) (+-2 at the squares) at order N/2.
phi(q) = 1 + 2 sum_{j >= 1} q^(j^2), so each coefficient of G is a sum of
O(sqrt(k)) entries of E, done when it is read: a pi or D cell reads only
O(sqrt(mu)) coefficients of G, and the full table to mu is never formed.

The three divisions share one sweep below order PACKED_ORDERS.  Entry n
there is the int a1 | a2 << W1 | a3 << (W1 + W2) of the three quotients
at order n, a1 = P(q^2)/phi(-q) = 1/(q;q)^2, a2 = a1/phi(-q) and a3 = E,
so each square offset costs one addition of packed ints, the sums of
each sign kept apart as in ``series._divide_sparse``, and each order
unpacks the two sums and forms a1, a2 and a3 in turn.  No field carries:

* all three quotients have nonnegative coefficients, since
  1/(q;q) and 1/phi(-q) = prod (1 + q^k)/(1 - q^k) do;
* for x = e^(-t), log 1/(x;x)_inf = sum_k x^k / (k (1 - x^k)) <=
  sum_k 1/(k^2 t) = pi^2/(6t), because x^k/(1 - x^k) <= 1/(kt);
* so Cauchy's bound, a(i) <= x^(-i) f(x) for a series f of nonnegative
  coefficients, gives a1(i) <= exp(it + pi^2/(3t)), and at
  t = pi/sqrt(3i), a1(i) <= exp(pi sqrt(4i/3));
* a2 = (q^2;q^2)/(q;q)^4 and 0 < (x^2;x^2)_inf <= 1, so
  a2(i) <= exp(it + 2 pi^2/(3t)) <= exp(pi sqrt(8i/3));
* ``_packed_widths`` gives each field those bits at the largest order,
  and bit_length(isqrt(length) + 1) + 1 more, as the sum of at most
  isqrt(length) + 1 terms is less than 2^W.  a3 is the top field and
  needs no width.

Past the prefix, three ``series.divide_by_phi`` passes resume at order
PACKED_ORDERS, each over its own quotient's field split off the packed
prefix.  8192 orders cover every G to N <= 16383 (every L <= 127 of
Table 1) and keep the prefix near 2 MB at any N.  Packing every order
is the same code up to N = 16383, but at N = 90000 (L = 300) it ran
slower and peaked at 36 MB, against 20 MB.

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

# orders of E built by the packed sweep; the rest by three resumed divisions
PACKED_ORDERS = 8192


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


def _packed_widths(length: int) -> tuple[int, int]:
    """Bits (W1, W2) of the fields that hold a1 = 1/(q;q)^2 and
    a2 = 1/((q;q)^2 phi(-q)) at orders below `length` in the packed sweep:
    the bounds a1(i) <= exp(pi sqrt(4i/3)) and a2(i) <= exp(pi sqrt(8i/3)) of
    the module docstring, at i = length - 1, plus room for a sum of up to
    isqrt(length) + 1 such terms and one bit for rounding."""
    top = length - 1
    room = (math.isqrt(length) + 1).bit_length() + 1
    return tuple(math.ceil(math.pi * math.sqrt(c * top / 3) / math.log(2)) + room for c in (4, 8))


def _packed_sweep(half: list, length: int, w1: int, w2: int) -> None:
    """Divide half[0..length-1] by phi(-q) three times over in one pass, in
    place: entry n, the numerator's coefficient on entry, leaves as
    a1 | a2 << w1 | a3 << (w1 + w2), the three quotients at order n.

    The update of ``series._divide_sparse`` over packed entries: up and down
    sum every field at once, and no field carries (module docstring)."""
    m1, m2, w12 = (1 << w1) - 1, (1 << w2) - 1, w1 + w2
    plus, minus = [], []
    root = 1
    for n in range(length):
        if n == root * root:
            (minus if root & 1 else plus).append(n)
            root += 1
        up = 0
        for h in plus:
            up += half[n - h]
        down = 0
        for h in minus:
            down += half[n - h]
        a1 = half[n] - 2 * ((up & m1) - (down & m1))
        a2 = a1 - 2 * ((up >> w1 & m2) - (down >> w1 & m2))
        a3 = a2 - 2 * ((up >> w12) - (down >> w12))
        half[n] = a1 | a2 << w1 | a3 << w12


def build_g_table(N: int) -> HalfOrderG:
    """G(0..N), the coefficients of 1/((q;q)^2 (q^2;q^2)) = E(q^2) phi(q), as
    a ``HalfOrderG`` over E(0..N//2), E = P(q^2) / phi(-q)^3.

    P(q^2) is the p table to N//4 spread onto the even indices (q^2 put in
    for q).  Its first PACKED_ORDERS orders are divided by phi(-q) three
    times in one packed sweep; past them, three in-place divisions by phi(-q)
    resume, each over its own quotient's field split off the packed prefix.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    half = [0] * (N // 2 + 1)
    half[::2] = build_p_table(N // 4)
    head = min(len(half), PACKED_ORDERS)
    w1, w2 = _packed_widths(head)
    _packed_sweep(half, head, w1, w2)
    if head < len(half):
        # each pass past the prefix reads its own quotient there, split off
        # the packed entries, so the prefix never holds more bits than they do
        packed = half[:head]
        for width in (w1, w2):
            mask = (1 << width) - 1
            for n in range(head):
                half[n] = packed[n] & mask
                packed[n] >>= width
            divide_by_phi(half, head)
        half[:head] = packed
        divide_by_phi(half, head)
    else:
        for n in range(head):
            half[n] >>= w1 + w2
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


def g_build_bytes(N: int) -> int:
    """Bytes ``build_g_table(N)`` needs at its peak, from above: the E table
    it keeps, and for each entry of the packed prefix its two lower fields of
    W1 + W2 bits, one more int header and 30-bit digit where the entry is
    split for the passes past the prefix, and a list slot."""
    head = min(N // 2 + 1, PACKED_ORDERS)
    w1, w2 = _packed_widths(head)
    return g_table_bytes(N) + math.ceil(head * (40 + (w1 + w2) / 7.5))


def g_values_via_chain(N: int) -> CoefficientTable:
    """Independent path: G as the c table divided by (q;q)_inf once more."""
    return CoefficientTable(divide_by_euler(list(build_c_table(N)), 1))


def c_values_via_inversion(N: int) -> CoefficientTable:
    """Independent path: invert the dense product (q;q)_inf (q^2;q^2)_inf."""
    return invert(mul(euler_product(1, N), euler_product(2, N)))
