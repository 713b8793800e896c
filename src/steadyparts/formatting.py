"""Presentation helpers: scientific notation and ratio strings.

Exact integers are rounded half-to-even on the 6th significant digit;
natural logs (floats) are converted through base-10 mantissa/exponent form.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, ROUND_HALF_EVEN

_LN10 = math.log(10.0)


def sci_from_int(v: int, sig: int = 6) -> str:
    """'2.02082e13'-style string for a positive integer, round-half-even."""
    if v <= 0:
        raise ValueError("sci_from_int takes a positive integer")
    ctx = Context(prec=sig, rounding=ROUND_HALF_EVEN)
    d = ctx.plus(Decimal(v))
    t = d.as_tuple()
    digits = "".join(map(str, t.digits)).ljust(sig, "0")
    exp10 = t.exponent + len(t.digits) - 1
    return f"{digits[0]}.{digits[1:]}e{exp10}"


def sci_from_log(log: float, sig: int = 6) -> str:
    """Scientific-notation string for the value whose natural log is `log`."""
    l10 = log / _LN10
    exp10 = math.floor(l10)
    mantissa = 10.0 ** (l10 - exp10)
    s = f"{mantissa:.{sig - 1}f}"
    if s.startswith("10"):
        exp10 += 1
        s = f"{mantissa / 10.0:.{sig - 1}f}"
    return f"{s}e{exp10}"


def ratio_string(log_numer: float, log_denom: float, places: int = 4) -> str:
    """numer/denom, given as natural logs, printed with a fixed number of
    decimals."""
    return f"{math.exp(log_numer - log_denom):.{places}f}"
