"""Reference values and output checks, independent of the steadyparts package.

G(k) are the coefficients of 1/((q;q)^2 (q^2;q^2)), built by three sparse
divisions by Euler's pentagonal series.  Swapping the order of summation in
the paper's convolutions gives every pi and D cell as one short sum over G:

    pi(m, n) = sum_l (-1)^l G(mu - l(l+1)/2 - l s),     mu = min, s = |m - n|
    D(m, n)  = sum_{k>=1} (-1)^(k-1) [G(L - k(k-1)/2 - b(k-1))
                                      - G(L - k(k+1)/2 - b(k-1))],
               L = min(m, 2n - m), b = n - L, and D = 0 for m > 2n.

Each check takes a command's stdout and returns None when it is right, or a
one-line description of the first thing that is wrong.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_EVEN, Context, Decimal

# 6-digit values and 4-decimal ratios of Table 1, as the acceptance suite
# states them: L -> (diagonal pi, ratio, off-diagonal pi, ratio).
TABLE1 = {
    10: ("2.02082e13", "0.9436", "3.42924e13", "0.9060"),
    40: ("2.29293e64", "0.9858", "4.00991e64", "0.9754"),
    70: ("2.99238e116", "0.9919", "5.25671e116", "0.9859"),
    100: ("7.15231e168", "0.9943", "1.25872e169", "0.9901"),
}

VERIFY_CHECKS = (
    "three-way pi agreement",
    "telescoping D identity",
    "crank marginals equal p(n)",
    "pi symmetry",
    "crank expansion paths agree",
    "combinatorial crank counts",
)


def _divide_by_euler(f: list, step: int) -> list:
    """f / (q^step; q^step)_inf, truncated to len(f) terms."""
    top = len(f) - 1
    terms = []  # (exponent, coefficient) of the series minus its constant 1
    k = 1
    while step * k * (3 * k - 1) // 2 <= top:
        sign = -1 if k % 2 else 1
        for e in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if e <= top:
                terms.append((e, sign))
        k += 1
    g = list(f)
    for n in range(len(g)):
        s = g[n]
        for e, sign in terms:
            if e > n:
                break
            s -= sign * g[n - e]
        g[n] = s
    return g


def g_table(N: int) -> list:
    """G(0..N), the coefficients of 1/((q;q)^2 (q^2;q^2))."""
    g = [1] + [0] * N
    return _divide_by_euler(_divide_by_euler(_divide_by_euler(g, 1), 1), 2)


def pi(G: list, m: int, n: int) -> int:
    mu, s = min(m, n), abs(m - n)
    total = 0
    l = 0
    while (k := mu - l * (l + 1) // 2 - l * s) >= 0:
        total += -G[k] if l % 2 else G[k]
        l += 1
    return total


def d(G: list, m: int, n: int) -> int:
    if m > 2 * n:
        return 0
    L = min(m, 2 * n - m)
    b = n - L
    total = 0
    k = 1
    while (hi := L - k * (k - 1) // 2 - b * (k - 1)) >= 0:
        lo = L - k * (k + 1) // 2 - b * (k - 1)
        term = G[hi] - (G[lo] if lo >= 0 else 0)
        total += term if k % 2 else -term
        k += 1
    return total


def sci(v: int) -> str:
    """6 significant digits, rounded half-to-even, as '2.02082e13'."""
    t = Context(prec=6, rounding=ROUND_HALF_EVEN).plus(Decimal(v)).as_tuple()
    digits = "".join(map(str, t.digits)).ljust(6, "0")
    return f"{digits[0]}.{digits[1:]}e{t.exponent + len(t.digits) - 1}"


def check_table1(out: str, l_values, G: list) -> str | None:
    rows = json.loads(out)
    want = [(L, L * L, L * L + off) for L in sorted(l_values) for off in (0, L)]
    got = [(r["L"], r["m"], r["n"]) for r in rows]
    if got != want:
        return f"table1 rows {got} != {want}"
    for r in rows:
        L, m, n = r["L"], r["m"], r["n"]
        if r["pi_exact"] != str(pi(G, m, n)):
            return f"table1 pi({m},{n}) exact value differs"
        want_sci, want_ratio = TABLE1[L][2:] if n > m else TABLE1[L][:2]
        if (r["pi_sci"], r["ratio"]) != (want_sci, want_ratio):
            return f"table1 pi({m},{n}) prints {r['pi_sci']} ratio {r['ratio']}"
    return None


def check_compute(out: str, m: int, n: int, G: list) -> str | None:
    """pi and D lines must carry the exact values, and their sci lines the
    6-digit rounding of them."""
    v, dv = pi(G, m, n), d(G, m, n)
    want = [(f"pi({m},{n}) = {v}", "line")]  # (text, "line" or "prefix")
    if v > 0 and min(m, n) >= 1:
        want.append((f"  sci = {sci(v)}   asym = ", "prefix"))
    if m > 2 * n:
        want.append((f"D({m},{n}) = 0 (vanishes", "prefix"))
    else:
        want.append((f"D({m},{n}) = {dv}", "line"))
        if dv > 0 and min(m, 2 * n - m) >= 1:
            want.append((f"  sci = {sci(dv)}   asym = ", "prefix"))
    lines = out.splitlines()
    if len(lines) != len(want):
        return f"compute {m},{n}: {len(lines)} lines, expected {len(want)}"
    for line, (text, how) in zip(lines, want):
        if line != text if how == "line" else not line.startswith(text):
            return f"compute {m},{n}: {line[:60]!r} does not match {text[:60]!r}"
    return None


def check_verify(out: str) -> str | None:
    lines = out.splitlines()
    passed = {line[6:].split(" (")[0] for line in lines if line.startswith("PASS  ")}
    missing = [name for name in VERIFY_CHECKS if name not in passed]
    if missing:
        return f"verify: no PASS for {missing}"
    if any(line.startswith("FAIL") for line in lines) or lines[-1:] != ["all checks passed"]:
        return "verify: a check failed"
    return None


def check_asym(out: str, G: list) -> str | None:
    """asym_pi(100,100) against pi(100,100) divided by the Table 1 ratio at
    L = 10 (4 decimals, so agreement to 1e-4)."""
    lines = out.splitlines()
    head = "asym_pi(100,100) = "
    if len(lines) != 2 or not lines[0].startswith(head) or not lines[1].startswith("asym_D(100,100)"):
        return f"asym: unexpected output {out[:80]!r}"
    want = pi(G, 100, 100) / float(TABLE1[10][1])
    if abs(float(lines[0][len(head):]) / want - 1) > 1e-4:
        return f"asym: {lines[0]!r} is not near {want:.6g}"
    return None
