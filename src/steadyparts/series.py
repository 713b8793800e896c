"""Truncated power series in q over Python's arbitrary-precision integers.

A series truncated (inclusively) at order N is the tuple of its N + 1
coefficients, a ``CoefficientTable``; readers take any sequence indexed from
0.  Every table the package builds is one, except G, which ``partitions``
reads through a table of half its order.  ``theta_coefficient`` is the fast
path's one short sum per cell: a coefficient of a table times the partial
theta series sum_l (-1)^l q^(l(l+1)/2 + l s), which gives pi and D over G
and the crank counts M over the p table.  ``theta_row`` is the same sum for
every order up to K at once, from slice passes: the crank table's rows and
the c/alpha oracle's alpha rows, both over p.

Two classical series have a sparse support: Euler's pentagonal number
theorem puts the terms of (q^s;q^s)_inf at s times the generalized
pentagonal numbers (enumerated once, by ``_pentagonal_offsets``), and
Gauss's identity phi(-q) = (q;q)_inf^2 / (q^2;q^2)_inf = sum_k (-1)^k q^(k^2)
puts those of phi(-q) at the squares.  They feed two routes:

* ``divide_by_euler`` and ``divide_by_phi`` -- sparse division by
  (q^s;q^s)_inf and by phi(-q), in place, both through one loop over
  (offset, sign) pairs, sign +-1, and one scale, 2 for phi(-q);
  ``partitions`` builds its tables with them;
* ``euler_product``, ``mul``, ``invert`` -- the pentagonal expansion of
  (q^s;q^s)_inf, the schoolbook product and the triangular inverse: the dense
  oracles the sparse tables are checked against, and the Lambert route in
  ``crank`` takes its 1/(q;q)_inf factor from them.

Every coefficient is a plain Python int; no floats enter this module.
Tables are immutable and safe to share across threads.
"""

import math
from collections.abc import Sequence
from operator import add, sub


class CoefficientTable(tuple):
    """a(0..N) of a series truncated at order N, equal to the plain tuple.

    Its two members serve only bench/layers.py's count hooks: ``table_size``
    calls ``.values()`` on ``build_p_table``'s and ``build_c_table``'s
    results, and ``product_terms`` reads ``.coeffs`` on ``invert``'s first
    argument.  Both are deleted with ROADMAP item 1, as ``cli.main`` is.
    """

    __slots__ = ()

    def values(self) -> tuple:
        return self

    @property
    def coeffs(self) -> tuple:
        return self


def theta_coefficient(values, k: int, s: int) -> int:
    """K(k, s) = sum_{l >= 0} (-1)^l t(k - l(l+1)/2 - l s), the coefficient
    of q^k in t(q) * sum_{l >= 0} (-1)^l q^(l(l+1)/2 + l s), where t(n) is
    values[n] for 0 <= n <= k, `values` any sequence indexed from 0.
    K(k < 0, s) = 0.

    O(sqrt(k)) terms for s >= 0: the offset of term l grows by l + s.  The
    even and odd terms are summed apart, each a sum of ints of one sign for
    a positive t, and K is their difference, as in ``_divide_sparse``.
    """
    plus = minus = 0
    step = s
    while k >= 0:
        plus += values[k]
        step += 1
        k -= step
        if k < 0:
            break
        minus += values[k]
        step += 1
        k -= step
    return plus - minus


def theta_row(values, s: int, K: int) -> tuple:
    """The row K(0..K, s) of ``theta_coefficient`` over `values`, empty for
    K < 0.

    Term l of every entry at once is `values` shifted right by
    l(l+1)/2 + l s, so the row starts as values[0..K] and each shift that
    stays below K adds or subtracts one slice of `values`: O(sqrt(K)) slice
    passes, and no code shared with ``theta_coefficient``'s loop.
    """
    if s < 0:
        raise ValueError("theta_row takes a nonnegative s")
    if len(values) <= K:
        raise IndexError("values too short for theta_row")
    row = list(values[:K + 1])
    l = 1
    while (off := l * (l + 1) // 2 + l * s) <= K:
        row[off:] = map(sub if l % 2 else add, row[off:], values[:K + 1 - off])
        l += 1
    return tuple(row)


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
    """(offset, sign) pairs of phi(-q) = 1 + 2 sum_{k >= 1} (-1)^k q^(k^2) up
    to `limit`, ascending: k^2 with sign (-1)^k; the 2 is the scale
    ``divide_by_phi`` passes."""
    return [(k * k, 1 if k % 2 == 0 else -1) for k in range(1, math.isqrt(limit) + 1)]


def _divide_sparse(coeffs: list, terms: list[tuple[int, int]], scale: int = 1, start: int = 0) -> list:
    """Divide the series `coeffs` in place by 1 + scale sum sign q^g over the
    (g, sign) pairs of `terms` (ascending, g >= 1, sign +-1), truncated to
    len(coeffs) terms, and return the list.

    Each order takes one update, a(n) -= scale (up - down), where up sums
    a(n - g) over the offsets g <= n of sign +1 and down over those of sign -1,
    so O(sqrt(N)) terms cost O(N^1.5) big-integer additions.  The two sums are
    kept apart: adding big ints of one sign is cheaper than of mixed signs.

    The division resumes at order `start`: coeffs[:start] must already hold
    the quotient there, and only the orders from `start` on are updated.
    """
    plus, minus = [], []
    pending = iter(terms)
    g, sign = next(pending, (len(coeffs), 1))
    for n in range(start, len(coeffs)):
        # the first order takes every offset up to `start`, later ones at most one
        while g <= n:
            (plus if sign > 0 else minus).append(g)
            g, sign = next(pending, (len(coeffs), 1))
        up = 0
        for h in plus:
            up += coeffs[n - h]
        down = 0
        for h in minus:
            down += coeffs[n - h]
        coeffs[n] -= scale * (up - down)
    return coeffs


def divide_by_euler(coeffs: list, step: int = 1) -> list:
    """Divide the series `coeffs` by (q^step; q^step)_inf in place, truncated
    to len(coeffs) terms, and return the list.

    (q^s;q^s)_inf has O(sqrt(N/s)) nonzero terms (Euler's pentagonal number
    theorem), so the quotient costs O(N^1.5) big-integer additions.
    """
    return _divide_sparse(coeffs, _pentagonal_offsets(len(coeffs) - 1, step))


def divide_by_phi(coeffs: list, start: int = 0) -> list:
    """Divide the series `coeffs` by phi(-q) = (q;q)_inf^2 / (q^2;q^2)_inf in
    place, truncated to len(coeffs) terms, and return the list; from order
    `start` on, over a quotient already in coeffs[:start], as in
    ``_divide_sparse``.

    Gauss's identity puts phi(-q)'s O(sqrt(N)) nonzero terms at the squares,
    each +-2, so the quotient costs O(N^1.5) big-integer additions.
    """
    return _divide_sparse(coeffs, _square_offsets(len(coeffs) - 1), 2, start)


def mul(a: Sequence[int], b: Sequence[int]) -> CoefficientTable:
    """Schoolbook product truncated at the order of the shorter factor.

    Zero coefficients of `a` are skipped; the series fed through here are
    frequently sparse (pentagonal-number supports).
    """
    n = min(len(a), len(b))
    # slices are plain tuples, which index faster than a tuple subclass
    bc = b[:n]
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j in range(n - i):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return CoefficientTable(out)


def invert(a: Sequence[int]) -> CoefficientTable:
    """Multiplicative inverse by the triangular recurrence, to the order of `a`.

    Exact over the integers because the constant term must be +-1.
    """
    ac = a[:]  # a plain tuple, as in mul
    a0 = ac[0]
    if a0 not in (1, -1):
        raise ValueError(f"constant term must be +-1 to invert over Z, got {a0}")
    n = len(ac)
    support = [k for k in range(1, n) if ac[k]]
    b = [0] * n
    b[0] = a0  # 1/a0 == a0 when a0 is +-1
    for j in range(1, n):
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
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [1] + [0] * order
    for g, sign in _pentagonal_offsets(order, exponent_step):
        out[g] = sign
    return CoefficientTable(out)
