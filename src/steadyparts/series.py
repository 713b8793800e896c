"""Truncated power series in q over Python's arbitrary-precision integers.

``CoefficientTable`` is a series truncated (inclusively) at a fixed order;
every table in the package is one.  Euler's pentagonal number theorem gives
(q^s;q^s)_inf a sparse support, enumerated once by ``_pentagonal_offsets``;
it feeds two routes:

* ``divide_by_euler`` -- sparse division by (q^s;q^s)_inf, in place; the
  p, c and G tables in ``partitions`` are a chain of such divisions;
* ``euler_product``, ``mul``, ``invert`` -- the pentagonal expansion of
  (q^s;q^s)_inf, the schoolbook product and the triangular inverse: the dense
  oracles the sparse tables are checked against, and the Lambert route in
  ``crank`` takes its 1/(q;q)_inf factor from them.

Every coefficient is a plain Python int; no floats enter this module.
Tables are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable


class CoefficientTable:
    """a(n) for 0 <= n <= max_index of a truncated series; the accessor is
    total below: a(n < 0) = 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least a constant term")

    @property
    def max_index(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.max_index:
            raise IndexError(f"coefficient {n} beyond table max index {self.max_index}")
        return self.coeffs[n]

    def values(self) -> tuple:
        return self.coeffs


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


def mul(a: CoefficientTable, b: CoefficientTable) -> CoefficientTable:
    """Schoolbook product truncated at min(a.max_index, b.max_index).

    Zero coefficients of `a` are skipped; the series fed through here are
    frequently sparse (pentagonal-number supports).
    """
    n = min(a.max_index, b.max_index)
    bc = b.coeffs
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs[: n + 1]):
        if ai:
            for j in range(n - i + 1):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return CoefficientTable(out)


def invert(a: CoefficientTable) -> CoefficientTable:
    """Multiplicative inverse by the triangular recurrence.

    Exact over the integers because the constant term must be +-1.
    """
    ac = a.coeffs
    a0 = ac[0]
    if a0 not in (1, -1):
        raise ValueError(f"constant term must be +-1 to invert over Z, got {a0}")
    n = a.max_index
    support = [k for k in range(1, n + 1) if ac[k]]
    b = [0] * (n + 1)
    b[0] = a0  # 1/a0 == a0 when a0 is +-1
    for j in range(1, n + 1):
        s = 0
        for k in support:
            if k > j:
                break
            s += ac[k] * b[j - k]
        b[j] = -a0 * s
    return CoefficientTable(b)


def euler_product(exponent_step: int, order: int) -> CoefficientTable:
    """(q^s; q^s)_infinity truncated at `order`, via the pentagonal theorem.

    The coefficients are 0 or +-1, supported on s times the generalized
    pentagonal numbers k(3k-1)/2 and k(3k+1)/2, with sign (-1)^k.
    """
    if exponent_step < 1:
        raise ValueError("exponent step must be a positive integer")
    out = [1] + [0] * order
    for g, sign in _pentagonal_offsets(order, exponent_step):
        out[g] = -sign
    return CoefficientTable(out)
