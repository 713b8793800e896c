"""Log-domain evaluation of the uniform asymptotic formulas.

Quantities like e^{c sqrt(10^4)} overflow hardware floats, so every
asymptotic function returns the natural logarithm of its value as a float,
and only the presentation layer turns it into a mantissa/exponent string.
Exact integers are compared in the same domain through ``math.log``, which
takes Python ints of any size.
"""

import math

# Growth constant of the bipartite asymptotics.
C = 2.0 * math.pi * math.sqrt(5.0 / 12.0)

# Quadratic coefficient of the saddle function at its maximum:
# 2^{-4} 3^{-3/2} 5^{5/2}.
KAPPA = 5.0 ** 2.5 / (16.0 * 3.0 ** 1.5)


def _uniform(log_a: float, c: float, mu: int, s: int, power: float, damping: int) -> float:
    """log of a e^{c sqrt(mu)} / mu^power (1 + e^{-c s / (2 sqrt(mu))})^{-damping},
    the shape every uniform asymptotic here takes; log1p keeps the damping
    stable for large s."""
    z = c * s / (2.0 * math.sqrt(mu))
    return log_a + c * math.sqrt(mu) - power * math.log(mu) - damping * math.log1p(math.exp(-z))


def asym_p(n: int) -> float:
    """Hardy-Ramanujan main term: p(n) ~ e^{2 pi sqrt(n/6)} / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * math.pi * math.sqrt(n / 6.0) - math.log(4.0 * math.sqrt(3.0) * n)


def asym_c(n: int) -> float:
    """Cubic partition main term: c(n) ~ e^{pi sqrt(n)} / (8 n^{5/4})."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.pi * math.sqrt(n) - math.log(8.0) - 1.25 * math.log(n)


def f_saddle(x: float) -> float:
    """Saddle function sqrt(1 - x) + sqrt(2x/3) on [0, 1].

    Increasing on [0, 2/5], decreasing on [2/5, 1], with maximum
    f(2/5) = sqrt(5/3) and quadratic coefficient KAPPA there.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("f_saddle is defined on [0, 1]")
    return math.sqrt(1.0 - x) + math.sqrt(2.0 * x / 3.0)


def asym_M(k: int, ell: int) -> float:
    """Uniform crank asymptotic:

    M(k, k + ell) ~ pi/(12 sqrt(2)) (1 + e^{-pi k / sqrt(6 ell)})^{-2}
                    e^{2 pi sqrt(ell/6)} / ell^{3/2},

    the uniform shape with c = 2 pi / sqrt(6), mu = ell and s = k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ell < 1:
        raise ValueError("ell must be positive")
    return _uniform(math.log(math.pi / (12.0 * math.sqrt(2.0))), 2.0 * math.pi / math.sqrt(6.0), ell, k, 1.5, 2)


def asym_D_applies(m: int, n: int) -> bool:
    """Whether asym_D(m, n) is defined: min(m, 2n - m) >= 1 with m <= 2n, that is 1 <= m < 2n."""
    return 1 <= m < 2 * n


def asym_D(m: int, n: int) -> float:
    """Uniform first-difference asymptotic, for ``asym_D_applies(m, n)``,
    with mu = min(m, 2n - m):

    D(m, n) ~ (5c/96) e^{c sqrt(mu)} / mu^2 (1 + e^{-c|n-m|/(2 sqrt(mu))})^{-2}.
    """
    if not asym_D_applies(m, n):
        raise ValueError("asym_D requires 1 <= m < 2n")
    return _uniform(math.log(5.0 * C / 96.0), C, min(m, 2 * n - m), abs(n - m), 2.0, 2)


def asym_pi(m: int, n: int) -> float:
    """Uniform bipartite asymptotic with mu = min(m, n) >= 1:

    pi(m, n) ~ (5/48) e^{c sqrt(mu)} / mu^{3/2} (1 + e^{-c|n-m|/(2 sqrt(mu))})^{-1}.

    On the diagonal the damping halves this to (5/96) e^{c sqrt(n)} / n^{3/2}.
    """
    mu = min(m, n)
    if mu < 1:
        raise ValueError("asym_pi requires min(m, n) >= 1")
    return _uniform(math.log(5.0 / 48.0), C, mu, abs(n - m), 1.5, 1)
