"""Presentation helpers: scientific notation and ratio strings, in Table 1's
precision of 6 significant digits and 4 decimals.

Exact integers are rounded half-to-even on the 6th significant digit;
natural logs (floats) are converted through base-10 mantissa/exponent form.
"""

import math

_LN10 = math.log(10.0)
_LOG10_2 = math.log10(2.0)


def sci_from_int(v: int) -> str:
    """'2.02082e13'-style string for a positive integer, round-half-even."""
    if v <= 0:
        raise ValueError("sci_from_int takes a positive integer")
    # 2^(b-1) <= v < 2^b puts floor(log10 v) at floor((b-1) log10 2) or one more
    exp10 = int((v.bit_length() - 1) * _LOG10_2)
    if v >= 10 ** (exp10 + 1):
        exp10 += 1
    cut = exp10 - 5  # digits dropped past the 6th
    if cut <= 0:
        head = v * 10 ** -cut
    else:
        unit = 10 ** cut
        head, rest = divmod(v, unit)
        if 2 * rest > unit or (2 * rest == unit and head & 1):
            head += 1
            if head == 10 ** 6:  # 9999995 -> 1.00000e7
                head //= 10
                exp10 += 1
    digits = str(head)
    return f"{digits[0]}.{digits[1:]}e{exp10}"


def sci_from_log(log: float) -> str:
    """Scientific-notation string for the value whose natural log is `log`."""
    l10 = log / _LN10
    exp10 = math.floor(l10)
    mantissa = 10.0 ** (l10 - exp10)
    s = f"{mantissa:.5f}"
    if s.startswith("10"):
        exp10 += 1
        s = f"{mantissa / 10.0:.5f}"
    return f"{s}e{exp10}"


def ratio_string(log_numer: float, log_denom: float) -> str:
    """numer/denom, given as natural logs, printed with 4 decimals."""
    return f"{math.exp(log_numer - log_denom):.4f}"
