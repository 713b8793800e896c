"""Log-domain evaluation of the uniform asymptotic formulas.

Quantities like e^{c sqrt(10^4)} overflow hardware floats, so every
asymptotic value is carried as a natural logarithm (``LogValue``) and only
turned into a mantissa/exponent string at the presentation layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Growth constant of the bipartite asymptotics.
C = 2.0 * math.pi * math.sqrt(5.0 / 12.0)

# Quadratic coefficient of the saddle function at its maximum:
# 2^{-4} 3^{-3/2} 5^{5/2}.
KAPPA = 5.0 ** 2.5 / (16.0 * 3.0 ** 1.5)


@dataclass(frozen=True)
class LogValue:
    """A positive real stored as its natural log; -inf encodes zero."""

    log: float

    @classmethod
    def of(cls, x: float) -> "LogValue":
        if x < 0:
            raise ValueError("LogValue represents nonnegative quantities")
        if x == 0:
            return cls(-math.inf)
        return cls(math.log(x))

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(-math.inf)

    def is_zero(self) -> bool:
        return self.log == -math.inf

    def __mul__(self, other: "LogValue") -> "LogValue":
        return LogValue(self.log + other.log)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.is_zero():
            raise ZeroDivisionError("division by LogValue zero")
        return LogValue(self.log - other.log)

    def __lt__(self, other: "LogValue") -> bool:
        return self.log < other.log

    def __le__(self, other: "LogValue") -> bool:
        return self.log <= other.log

    def ratio_to(self, other: "LogValue") -> float:
        """self / other as an ordinary float; both must fit after the division."""
        return math.exp(self.log - other.log)


def log_of_bigint(v: int) -> LogValue:
    """Natural log of a positive integer of any size (math.log takes Python
    ints beyond float range)."""
    if v <= 0:
        raise ValueError("log_of_bigint needs a positive integer")
    return LogValue(math.log(v))


def _log_damping(z: float, power: int) -> float:
    """log of (1 + e^{-z})^{-power} for z >= 0; stable for large z."""
    if z < 0:
        raise ValueError("damping argument must be nonnegative")
    return -power * math.log1p(math.exp(-z))


def asym_p(n: int) -> LogValue:
    """Hardy-Ramanujan main term: p(n) ~ e^{2 pi sqrt(n/6)} / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return LogValue(2.0 * math.pi * math.sqrt(n / 6.0) - math.log(4.0 * math.sqrt(3.0) * n))


def asym_c(n: int) -> LogValue:
    """Cubic partition main term: c(n) ~ e^{pi sqrt(n)} / (8 n^{5/4})."""
    if n < 1:
        raise ValueError("n must be positive")
    return LogValue(math.pi * math.sqrt(n) - math.log(8.0) - 1.25 * math.log(n))


def f_saddle(x: float) -> float:
    """Saddle function sqrt(1 - x) + sqrt(2x/3) on [0, 1].

    Increasing on [0, 2/5], decreasing on [2/5, 1], with maximum
    f(2/5) = sqrt(5/3) and quadratic coefficient KAPPA there.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("f_saddle is defined on [0, 1]")
    return math.sqrt(1.0 - x) + math.sqrt(2.0 * x / 3.0)


def asym_M(k: int, ell: int) -> LogValue:
    """Uniform crank asymptotic:

    M(k, k + ell) ~ pi/(12 sqrt(2)) (1 + e^{-pi k / sqrt(6 ell)})^{-2}
                    e^{2 pi sqrt(ell/6)} / ell^{3/2}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ell < 1:
        raise ValueError("ell must be positive")
    z = math.pi * k / math.sqrt(6.0 * ell)
    return LogValue(
        math.log(math.pi / (12.0 * math.sqrt(2.0)))
        + 2.0 * math.pi * math.sqrt(ell / 6.0)
        - 1.5 * math.log(ell)
        + _log_damping(z, 2)
    )


def asym_D(m: int, n: int) -> LogValue:
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
    return LogValue(
        math.log(5.0 * C / 96.0)
        + C * math.sqrt(mu)
        - 2.0 * math.log(mu)
        + _log_damping(z, 2)
    )


def asym_pi(m: int, n: int) -> LogValue:
    """Uniform bipartite asymptotic with mu = min(m, n) >= 1:

    pi(m, n) ~ (5/48) e^{c sqrt(mu)} / mu^{3/2} (1 + e^{-c|n-m|/(2 sqrt(mu))})^{-1}.

    On the diagonal the damping halves this to (5/96) e^{c sqrt(n)} / n^{3/2}.
    """
    mu = min(m, n)
    if mu < 1:
        raise ValueError("asym_pi requires min(m, n) >= 1")
    z = C * abs(n - m) / (2.0 * math.sqrt(mu))
    return LogValue(
        math.log(5.0 / 48.0)
        + C * math.sqrt(mu)
        - 1.5 * math.log(mu)
        + _log_damping(z, 1)
    )
