"""Dense truncated power series in q over Python's arbitrary-precision integers.

``BigSeries`` is a series truncated (inclusively) at a fixed order N; ``mul``,
``invert`` and ``euler_product`` are its schoolbook product, triangular
inverse and the pentagonal expansion of (q^s;q^s)_inf.  They are the dense
oracles: the sparse tables in ``partitions`` are checked against them, and the
Lambert route in ``crank`` takes its 1/(q;q)_inf factor from them.

Every coefficient is a plain Python int; no floats enter this module.
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable


class BigSeries:
    """A power series in q truncated (inclusively) at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(int(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a BigSeries needs at least a constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> int:
        if 0 <= j <= self.order:
            return self.coeffs[j]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, BigSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"BigSeries([{head}{tail}], order={self.order})"

    @classmethod
    def one(cls, order: int) -> "BigSeries":
        return cls([1] + [0] * order)

    def __mul__(self, other: "BigSeries") -> "BigSeries":
        return mul(self, other)


def mul(a: BigSeries, b: BigSeries) -> BigSeries:
    """Schoolbook product truncated at min(a.order, b.order).

    Zero coefficients of `a` are skipped; the series fed through here are
    frequently sparse (pentagonal-number supports).
    """
    n = min(a.order, b.order)
    bc = b.coeffs
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs[: n + 1]):
        if ai:
            for j in range(n - i + 1):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return BigSeries(out)


def invert(a: BigSeries) -> BigSeries:
    """Multiplicative inverse by the triangular recurrence.

    Exact over the integers because the constant term must be +-1.
    """
    a0 = a[0]
    if a0 not in (1, -1):
        raise ValueError(f"constant term must be +-1 to invert over Z, got {a0}")
    n = a.order
    support = [k for k in range(1, n + 1) if a.coeffs[k]]
    ac = a.coeffs
    b = [0] * (n + 1)
    b[0] = a0  # 1/a0 == a0 when a0 is +-1
    for j in range(1, n + 1):
        s = 0
        for k in support:
            if k > j:
                break
            s += ac[k] * b[j - k]
        b[j] = -a0 * s
    return BigSeries(b)


def euler_product(exponent_step: int, order: int) -> BigSeries:
    """(q^s; q^s)_infinity truncated at `order`, via the pentagonal theorem.

    The coefficients are 0 or +-1, supported on s times the generalized
    pentagonal numbers k(3k-1)/2 and k(3k+1)/2, with sign (-1)^k.
    """
    if exponent_step < 1:
        raise ValueError("exponent step must be a positive integer")
    out = [0] * (order + 1)
    out[0] = 1
    k = 1
    while True:
        placed = False
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            e = exponent_step * g
            if e <= order:
                out[e] += sign
                placed = True
        if not placed:
            break
        k += 1
    return BigSeries(out)

