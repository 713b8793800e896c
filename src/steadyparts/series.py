"""Truncated power series in q over Python's arbitrary-precision integers.

``CoefficientTable`` is a series truncated (inclusively) at a fixed order;
every table in the package is one.  ``theta_coefficient`` is the fast
path's one short sum per cell: a coefficient of a table times the partial
theta series sum_l (-1)^l q^(l(l+1)/2 + l s), which gives pi and D over the
G table and the crank counts M over the p table.

Two classical series have a sparse support: Euler's pentagonal number
theorem puts the terms of (q^s;q^s)_inf at s times the generalized
pentagonal numbers (enumerated once, by ``_pentagonal_offsets``), and
Gauss's identity phi(-q) = (q;q)_inf^2 / (q^2;q^2)_inf = sum_k (-1)^k q^(k^2)
puts those of phi(-q) at the squares.  They feed two routes:

* ``divide_by_euler`` and ``divide_by_phi`` -- sparse division by
  (q^s;q^s)_inf and by phi(-q), in place, both through one loop over
  (offset, weight) pairs; ``partitions`` builds its tables with them;
* ``euler_product``, ``mul``, ``invert`` -- the pentagonal expansion of
  (q^s;q^s)_inf, the schoolbook product and the triangular inverse: the dense
  oracles the sparse tables are checked against, and the Lambert route in
  ``crank`` takes its 1/(q;q)_inf factor from them.

Every coefficient is a plain Python int; no floats enter this module.
Tables are immutable after construction and safe to share across threads.
"""

import math
from collections.abc import Iterable


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


def theta_coefficient(values, k: int, s: int) -> int:
    """K(k, s) = sum_{l >= 0} (-1)^l t(k - l(l+1)/2 - l s), the coefficient
    of q^k in t(q) * sum_{l >= 0} (-1)^l q^(l(l+1)/2 + l s), where t(n) is
    values[n] for 0 <= n <= k.  K(k < 0, s) = 0.

    O(sqrt(k)) terms for s >= 0: the offset of term l grows by l + s.
    """
    total = 0
    l = 0
    while k >= 0:
        total += -values[k] if l % 2 else values[k]
        l += 1
        k -= l + s
    return total


def _pentagonal_offsets(limit: int, step: int = 1) -> list[tuple[int, int]]:
    """(offset, coefficient) pairs of (q^step; q^step)_inf up to `limit`,
    ascending: step times the generalized pentagonal numbers k(3k-1)/2 and
    k(3k+1)/2, each with coefficient (-1)^k."""
    offsets = []
    k = 1
    while step * k * (3 * k - 1) // 2 <= limit:
        sign = 1 if k % 2 == 0 else -1
        offsets.append((step * k * (3 * k - 1) // 2, sign))
        g2 = step * k * (3 * k + 1) // 2
        if g2 <= limit:
            offsets.append((g2, sign))
        k += 1
    return offsets


def _square_offsets(limit: int) -> list[tuple[int, int]]:
    """(offset, coefficient) pairs of phi(-q) = sum_{k in Z} (-1)^k q^(k^2)
    up to `limit`, ascending: k^2 with coefficient 2 (-1)^k for k >= 1."""
    return [(k * k, 2 if k % 2 == 0 else -2) for k in range(1, math.isqrt(limit) + 1)]


def _divide_sparse(coeffs: list, terms: list[tuple[int, int]]) -> list:
    """Divide the series `coeffs` in place by 1 + sum w q^g over the
    (g, w) pairs of `terms` (ascending, g >= 1), truncated to len(coeffs)
    terms, and return the list.

    The quotient obeys a(n) -= sum w a(n - g), so a divisor with O(sqrt(N))
    terms costs O(N^1.5) big-integer additions.  Between two consecutive
    offsets the set of offsets that reach back into the list is fixed, so
    each stretch runs one plain loop per weight class; each class is summed
    once per n and scaled once, and weights +-1 are not multiplied at all.
    """
    ends = [g for g, _ in terms] + [len(coeffs)]
    start = 0
    for active, end in enumerate(ends):
        classes: dict[int, list[int]] = {}
        for g, w in terms[:active]:
            classes.setdefault(w, []).append(g)
        by_weight = list(classes.items())
        for n in range(start, end):
            s = coeffs[n]
            for w, offsets in by_weight:
                t = 0
                for g in offsets:
                    t += coeffs[n - g]
                if w == 1:
                    s -= t
                elif w == -1:
                    s += t
                else:
                    s -= w * t
            coeffs[n] = s
        start = end
    return coeffs


def divide_by_euler(coeffs: list, step: int = 1) -> list:
    """Divide the series `coeffs` by (q^step; q^step)_inf in place, truncated
    to len(coeffs) terms, and return the list.

    (q^s;q^s)_inf has O(sqrt(N/s)) nonzero terms (Euler's pentagonal number
    theorem), so the quotient costs O(N^1.5) big-integer additions.
    """
    return _divide_sparse(coeffs, _pentagonal_offsets(len(coeffs) - 1, step))


def divide_by_phi(coeffs: list) -> list:
    """Divide the series `coeffs` by phi(-q) = (q;q)_inf^2 / (q^2;q^2)_inf in
    place, truncated to len(coeffs) terms, and return the list.

    Gauss's identity puts phi(-q)'s O(sqrt(N)) nonzero terms at the squares,
    each +-2, so the quotient costs O(N^1.5) big-integer additions.
    """
    return _divide_sparse(coeffs, _square_offsets(len(coeffs) - 1))


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
        out[g] = sign
    return CoefficientTable(out)
