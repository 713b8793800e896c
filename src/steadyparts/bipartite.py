"""Bipartite partition counts pi(m, n) with steadily decreasing parts.

The fast path is one table plus one short sum per cell.  Swapping the order
of summation in the paper's convolutions writes every cell as an alternating
sum of O(sqrt(mu)) coefficients of G = c * p, the series
1/((q;q)^2 (q^2;q^2)) that ``partitions.build_g_table`` reads through a
table of half its order.  That sum is ``series.theta_coefficient`` K(k, s)
over G, and G is any sequence of its coefficients: the reader, or a tuple
when many cells share small orders:

* ``pi_value``  -- pi(m, n) = K(mu, s), mu = min(m, n), s = |m - n|;
* ``d_value``   -- the first difference D(m, n) = pi(m, n) - pi(m-1, n),
                   two ``pi_value`` sums.

Two box oracles are kept here, for the tests and ``verify`` only:

* ``gf_table``              -- direct box expansion of the Carlitz generating
                               function 1/((x;xy)(x^2y^2;x^2y^2)(y;xy));
* ``enumerate_steady``      -- the numbers of part-pair sequences satisfying
                               min(a_i, b_i) >= max(a_{i+1}, b_{i+1}) over a
                               box, by the first pair and the rest, in layers
                               by the largest part allowed.

The two convolution oracles, ``pi_value_by_alpha`` and ``d_value_by_crank``,
are in ``steadyparts.oracles``, which no command but ``verify`` compiles.
"""

from collections.abc import Sequence
from operator import add

from .series import theta_coefficient


def pi_value(m: int, n: int, G: Sequence[int]) -> int:
    """pi(m, n) = sum_{l >= 0} (-1)^l G(mu - l(l+1)/2 - l s), with
    mu = min(m, n) and s = |m - n|: ``theta_coefficient`` over G.

    This is the c/alpha convolution with its two sums swapped: the inner sum
    over k of c(mu - k) p(k - l(l+1)/2 - l s) is one coefficient of G = c * p.
    """
    if m < 0 or n < 0:
        raise ValueError("pi takes nonnegative arguments")
    mu = min(m, n)
    if len(G) <= mu:
        raise IndexError("G table too short for pi_value")
    return theta_coefficient(G, mu, abs(m - n))


def d_value(m: int, n: int, G: Sequence[int]) -> int:
    """D(m, n) = pi(m, n) - pi(m - 1, n) by its definition: two ``pi_value``
    sums over G, which must reach min(m, n).  It vanishes for m > 2n."""
    return pi_value(m, n, G) - (pi_value(m - 1, n, G) if m else 0)


# largest box bound gf_table and enumerate_steady take
PRODUCT_CAP = 60


def _check_box(M: int, N: int) -> None:
    """Raise ValueError unless 0 <= M, N <= PRODUCT_CAP."""
    if M < 0 or N < 0:
        raise ValueError("box bounds must be nonnegative")
    if max(M, N) > PRODUCT_CAP:
        raise ValueError(f"box bound {max(M, N)} exceeds the product cap {PRODUCT_CAP}")


def enumerate_steady(M: int, N: int) -> tuple:
    """Count the steadily decreasing pair sequences, min(a_i, b_i) >=
    max(a_{i+1}, b_{i+1}), over the (M+1) x (N+1) box; the count of weight
    (m, n) is s[m][n] of the returned tuple of row tuples, as in ``gf_table``.

    Layer B counts the sequences whose pairs have max(a, b) <= B.  Layer 0
    is the empty sequence; layer B is layer B - 1 plus each first pair
    (B, b) or (b, B) with b < B followed by layer b shifted by the pair,
    plus (B, B) followed by layer B itself, swept in ascending rows in place.
    Every term adds one shifted row slice.
    """
    _check_box(M, N)
    s = [[0] * (N + 1) for _ in range(M + 1)]
    s[0][0] = 1
    layers = [s]
    for B in range(1, max(M, N) + 1):
        s = [row[:] for row in s]
        for b, rest in enumerate(layers):
            if b <= N:
                for i in range(B, M + 1):
                    s[i][b:] = map(add, s[i][b:], rest[i - B])
            if B <= N:
                for i in range(b, M + 1):
                    s[i][B:] = map(add, s[i][B:], rest[i - b])
        for i in range(B, M + 1):
            s[i][B:] = map(add, s[i][B:], s[i - B])
        layers.append(s[:M + 1 - B])  # later layers read layer B at rows 0..M - B
    return tuple(map(tuple, s))


def gf_table(M: int, N: int) -> tuple:
    """Expand the Carlitz product over the (M+1) x (N+1) box; pi(m, n) is
    g[m][n] of the returned tuple of row tuples.

    Starting from 1, every factor 1/(1 - x^a y^b) of the product is applied
    in place as a geometric series, g[i][k] += g[i - a][k - b] in ascending
    order: x (xy)^j and y (xy)^j for j >= 0, (xy)^{2j} for j >= 1.  A factor
    whose degrees leave the box changes nothing.
    """
    _check_box(M, N)
    g = [[0] * (N + 1) for _ in range(M + 1)]
    g[0][0] = 1
    factors = [(j + 1, j) for j in range(M)] + [(j, j + 1) for j in range(N)]
    factors += [(2 * j, 2 * j) for j in range(1, min(M, N) // 2 + 1)]
    for a, b in factors:
        for i in range(a, M + 1):
            src, dst = g[i - a], g[i]
            for k in range(b, N + 1):
                dst[k] += src[k - b]
    return tuple(map(tuple, g))
