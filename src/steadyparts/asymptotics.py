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


def _log_damping(z: float, power: int) -> float:
    """log of (1 + e^{-z})^{-power} for z >= 0; stable for large z."""
    if z < 0:
        raise ValueError("damping argument must be nonnegative")
    return -power * math.log1p(math.exp(-z))


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
                    e^{2 pi sqrt(ell/6)} / ell^{3/2}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ell < 1:
        raise ValueError("ell must be positive")
    z = math.pi * k / math.sqrt(6.0 * ell)
    return (
        math.log(math.pi / (12.0 * math.sqrt(2.0)))
        + 2.0 * math.pi * math.sqrt(ell / 6.0)
        - 1.5 * math.log(ell)
        + _log_damping(z, 2)
    )


def asym_D(m: int, n: int) -> float:
    """Uniform first-difference asymptotic, valid for 1 <= m <= 2n with
    mu = min(m, 2n - m) >= 1:

    D(m, n) ~ (5c/96) e^{c sqrt(mu)} / mu^2 (1 + e^{-c|n-m|/(2 sqrt(mu))})^{-2}.
    """
    if not 1 <= m <= 2 * n:
        raise ValueError("asym_D requires 1 <= m <= 2n")
    mu = min(m, 2 * n - m)
    if mu < 1:
        raise ValueError("asym_D requires min(m, 2n - m) >= 1")
    z = C * abs(n - m) / (2.0 * math.sqrt(mu))
    return (
        math.log(5.0 * C / 96.0)
        + C * math.sqrt(mu)
        - 2.0 * math.log(mu)
        + _log_damping(z, 2)
    )


def asym_pi(m: int, n: int) -> float:
    """Uniform bipartite asymptotic with mu = min(m, n) >= 1:

    pi(m, n) ~ (5/48) e^{c sqrt(mu)} / mu^{3/2} (1 + e^{-c|n-m|/(2 sqrt(mu))})^{-1}.

    On the diagonal the damping halves this to (5/96) e^{c sqrt(n)} / n^{3/2}.
    """
    mu = min(m, n)
    if mu < 1:
        raise ValueError("asym_pi requires min(m, n) >= 1")
    z = C * abs(n - m) / (2.0 * math.sqrt(mu))
    return (
        math.log(5.0 / 48.0)
        + C * math.sqrt(mu)
        - 1.5 * math.log(mu)
        + _log_damping(z, 1)
    )
