"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import random
from operator import add

import pytest

from steadyparts.asymptotics import (
    KAPPA,
    asym_D,
    asym_M,
    asym_c,
    asym_pi,
    f_saddle,
)
from steadyparts.bipartite import (
    d_value,
    d_value_by_crank,
    enumerate_steady,
    gf_table,
    pi_value,
    pi_value_by_alpha,
)
from steadyparts.crank import (
    build_crank_table,
    build_crank_table_lambert,
    crank_column,
    crank_counts_by_enumeration,
)
from steadyparts.formatting import ratio_string, sci_from_int
from steadyparts.partitions import build_c_table, build_g_table, build_p_table
from steadyparts.series import theta_row


@pytest.fixture(scope="module")
def p_big():
    return build_p_table(2600)


@pytest.fixture(scope="module")
def c_big():
    return build_c_table(2600)


@pytest.fixture(scope="module")
def g_big():
    return build_g_table(2600)


@pytest.fixture(scope="module")
def g_stretch():
    """G to 90300, enough for the Table 1 rows up to L = 300."""
    return build_g_table(90300)


def test_g_stretch_reads_its_materialized_product(g_stretch):
    # G = E(q^2) phi(q) formed as a product, one slice pass per square, on
    # windows of 500 orders at both ends and at seeded places up to 90300,
    # against the reader's per-order sums
    N = len(g_stretch) - 1
    spread = [0] * (N + 1)
    spread[::2] = g_stretch.half
    rng = random.Random(2019)
    for a in [0, N - 499] + rng.sample(range(N - 499), 6):
        b = a + 500
        window = spread[a:b]
        j = 1
        while j * j < b:
            lo = max(a, j * j)
            shifted = spread[lo - j * j:b - j * j]
            window[lo - a:] = map(add, window[lo - a:], map(add, shifted, shifted))
            j += 1
        assert [g_stretch[k] for k in range(a, b)] == window, a


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def exact_over_asym(value, approx):
    return math.exp(math.log(value) - approx)


def test_criterion_1_table1_diagonal(g_big):
    expect = {10: ("2.02082e13", "0.9436"), 40: ("2.29293e64", "0.9858")}
    ok = True
    details = []
    for L, (want_sci, want_ratio) in expect.items():
        v = pi_value(L * L, L * L, g_big)
        got_sci = sci_from_int(v)
        got_ratio = ratio_string(math.log(v), asym_pi(L * L, L * L))
        details.append(f"L={L}: {got_sci} ratio {got_ratio}")
        ok = ok and got_sci == want_sci and got_ratio == want_ratio
    report("1. Table 1 diagonal (L=10,40)", ok, "; ".join(details))


def test_criterion_1_stretch_rows(g_stretch):
    G = g_stretch
    expect = {
        70: ("2.99238e116", "0.9919", "5.25671e116", "0.9859"),
        100: ("7.15231e168", "0.9943", "1.25872e169", "0.9901"),
        200: ("1.23831e344", "0.9971", "2.18391e344", "0.9950"),
        300: ("5.07222e519", "0.9981", "8.95183e519", "0.9967"),
    }
    ok = True
    details = []
    for L, (diag_sci, diag_ratio, off_sci, off_ratio) in expect.items():
        v = pi_value(L * L, L * L, G)
        w = pi_value(L * L, L * L + L, G)
        got = (
            sci_from_int(v),
            ratio_string(math.log(v), asym_pi(L * L, L * L)),
            sci_from_int(w),
            ratio_string(math.log(w), asym_pi(L * L, L * L + L)),
        )
        details.append(f"L={L}: {got}")
        ok = ok and got == (diag_sci, diag_ratio, off_sci, off_ratio)
    report("1s. Table 1 stretch rows (L=70,100,200,300)", ok, "; ".join(details))


def test_criterion_2_table1_off_diagonal(g_big):
    expect = {10: ("3.42924e13", "0.9060"), 40: ("4.00991e64", "0.9754")}
    ok = True
    details = []
    for L, (want_sci, want_ratio) in expect.items():
        v = pi_value(L * L, L * L + L, g_big)
        got_sci = sci_from_int(v)
        got_ratio = ratio_string(math.log(v), asym_pi(L * L, L * L + L))
        details.append(f"L={L}: {got_sci} ratio {got_ratio}")
        ok = ok and got_sci == want_sci and got_ratio == want_ratio
    report("2. Table 1 off-diagonal (L=10,40)", ok, "; ".join(details))


def test_criterion_3_three_way_equivalence(p_big, c_big, g_big):
    g = gf_table(10, 10)
    steady = enumerate_steady(10, 10)
    alpha = [theta_row(p_big, s, 10) for s in range(11)]
    bad = 0
    for m in range(11):
        for n in range(11):
            fast = pi_value(m, n, g_big)
            if not fast == pi_value_by_alpha(m, n, c_big, alpha) == g[m][n] == steady[m][n]:
                bad += 1
    report("3. three-way oracle equivalence (121 cells)", bad == 0, f"{121 - bad}/121 agree")


def test_criterion_4_difference_identity(p_big, c_big, g_big):
    crank = build_crank_table(40)
    # the cells have min(m, n) <= 40 and |m - n| <= 80
    alpha = [theta_row(p_big, s, 40) for s in range(81)]
    bad = 0
    cells = 0
    for n in range(41):
        for m in range(3 * n + 1):
            cells += 1
            via_g = d_value(m, n, g_big)
            via_crank = d_value_by_crank(m, n, c_big, crank)
            below = pi_value_by_alpha(m - 1, n, c_big, alpha) if m else 0
            via_diff = pi_value_by_alpha(m, n, c_big, alpha) - below
            if not via_g == via_crank == via_diff:
                bad += 1
            if m > 2 * n and via_g != 0:
                bad += 1
    report("4. D identity, 0<=m<=3n, n<=40", bad == 0, f"{cells} cells exact")


def test_criterion_5_crank_soundness(p_big):
    N = 100
    table = build_crank_table(N)
    # the closed-form table mirrors its rows m >= 0 and sums to whatever p
    # it reads, so the identities are read off the Lambert expansion, which
    # builds rows m and -m apart and reads p by dense inversion
    lam = build_crank_table_lambert(N)
    ok = len(table) == len(lam) == 2 * N + 1
    for n in range(N + 1):
        if sum(lam[m][n] for m in range(-n, n + 1)) != p_big[n]:
            ok = False
        # symmetry M(-m, n) = M(m, n)
        for m in range(1, n + 1):
            if lam[-m][n] != lam[m][n]:
                ok = False
        # support: M(+-m, n) = 0 for every stored m > n
        for m in range(n + 1, N + 1):
            if table[m][n] != 0 or table[-m][n] != 0:
                ok = False
    paths_agree = lam == table
    ok = ok and paths_agree
    # the brute-force counts to 40 against the table's rows |m| <= 40, n >= 2
    counts = crank_counts_by_enumeration(40)
    combinatorial = all(counts[m][2:] == table[m][2:41] for m in range(-40, 41))
    ok = ok and combinatorial
    report(
        "5. crank table soundness (n<=100, both paths, brute force n<=40)",
        ok,
        f"paths_agree={paths_agree} combinatorial={combinatorial}",
    )


def test_criterion_6_asymptotic_convergence(p_big, c_big, g_big, g_stretch):
    m_ratios = {
        k: exact_over_asym(crank_column(k, 420, p_big)[k + 400], asym_M(k, 400)) for k in (0, 10, 20)
    }
    ok_m = all(abs(r - 1) < 0.15 for r in m_ratios.values())

    c_ratio = exact_over_asym(c_big[2000], asym_c(2000))
    ok_c = abs(c_ratio - 1) < 0.10

    d_ratio = exact_over_asym(d_value(2500, 2500, g_big), asym_D(2500, 2500))
    ok_d = abs(d_ratio - 1) < 0.10

    devs = []
    for L in (10, 20, 30, 40, 70, 100, 200):
        v = pi_value(L * L, L * L, g_stretch)
        devs.append(abs(exact_over_asym(v, asym_pi(L * L, L * L)) - 1))
    ok_mono = all(a > b for a, b in zip(devs, devs[1:]))

    report(
        "6. asymptotic convergence (M@400 15%, c@2000 10%, D@2500 10%, monotone pi/A)",
        ok_m and ok_c and ok_d and ok_mono,
        f"M={ {k: round(v, 4) for k, v in m_ratios.items()} } c={c_ratio:.4f} "
        f"D={d_ratio:.4f} devs={[round(d, 4) for d in devs]}",
    )


def test_criterion_7_saddle_function():
    ok_max = abs(f_saddle(0.4) - math.sqrt(5.0 / 3.0)) <= 1e-12 * math.sqrt(5.0 / 3.0)
    t = 1e-3
    est = (f_saddle(0.4) - f_saddle(0.4 + t)) / t**2
    ok_kappa = abs(est - KAPPA) / KAPPA < 0.05
    grid = [i * 1e-3 for i in range(1001)]
    vals = [f_saddle(x) for x in grid]
    ok_mono = all(a < b for a, b in zip(vals[:400], vals[1:401])) and all(
        a > b for a, b in zip(vals[400:-1], vals[401:])
    )
    report(
        "7. saddle function: max value, quadratic coefficient, monotonicity",
        ok_max and ok_kappa and ok_mono,
        f"f(2/5) err={abs(f_saddle(0.4) - math.sqrt(5/3)):.2e} kappa_fd={est:.6f}",
    )


def test_criterion_8_determinism_across_threads(run_cli):
    outputs = []
    for threads in ("1", "8"):
        res = run_cli(["--threads", threads, "table1", "--L", "10"])
        assert res.code == 0
        outputs.append(res.stdout)
    report("8. byte-identical table1 output for --threads 1 and 8", outputs[0] == outputs[1])
