import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steadyparts.bipartite import (
    PRODUCT_CAP,
    d_value,
    d_value_by_crank,
    enumerate_steady,
    gf_table,
    pi_value,
    pi_value_by_alpha,
)
from steadyparts.crank import build_crank_table, crank_column
from steadyparts.partitions import build_c_table, build_g_table, build_p_table
from steadyparts.series import theta_coefficient, theta_row


@pytest.fixture(scope="module")
def p_table():
    return build_p_table(200)


@pytest.fixture(scope="module")
def c_table():
    return build_c_table(200)


@pytest.fixture(scope="module")
def g_table():
    return build_g_table(200)


@pytest.fixture(scope="module")
def crank60():
    return build_crank_table(60)


@pytest.fixture(scope="module")
def alpha200(p_table):
    """The rows alpha(s, 0..200) for s = 0..200."""
    return tuple(theta_row(p_table, s, 200) for s in range(201))


class TestAlpha:
    def test_k_zero(self, p_table):
        for s in range(10):
            assert theta_row(p_table, s, 0) == (1,)

    def test_small_values(self, p_table):
        assert theta_row(p_table, 0, 1)[1] == 0  # p(1) - p(0)
        assert theta_row(p_table, 1, 2)[2] == 1  # p(2) - p(0)

    def test_short_table_raises(self):
        with pytest.raises(IndexError):
            theta_row(build_p_table(10), 0, 11)

    def test_row_matches_definition(self, p_table):
        # and the fast path's kernel, whose alpha(s, k) is K(k, s) over p
        # p(j < 0) = 0; a tuple's negative index would wrap round
        p = p_table
        for s in range(6):
            row = theta_row(p_table, s, 60)
            for k in range(61):
                offsets = (k - l * (l + 1) // 2 - l * s for l in range(k + 1))
                want = sum((-1) ** l * p[j] for l, j in enumerate(offsets) if j >= 0)
                assert row[k] == want == theta_coefficient(p_table, k, s), (s, k)
            assert theta_coefficient(p_table, -1, s) == 0

    def test_rows_give_pi_on_a_box(self, c_table, g_table, p_table, alpha200):
        # rows built to K = 40 cover the 40 x 40 box; rows built to 200 are
        # the same rows, longer
        rows = tuple(theta_row(p_table, s, 40) for s in range(41))
        for s in range(41):
            assert alpha200[s][:41] == rows[s], s
        for m in range(41):
            for n in range(41):
                fast = pi_value(m, n, g_table)
                assert pi_value_by_alpha(m, n, c_table, rows) == fast, (m, n)
                assert pi_value_by_alpha(m, n, c_table, alpha200) == fast, (m, n)

    def test_short_rows_raise(self, c_table, p_table):
        rows = tuple(theta_row(p_table, s, 10) for s in range(11))
        assert pi_value_by_alpha(10, 20, c_table, rows) == pi_value_by_alpha(20, 10, c_table, rows)
        with pytest.raises(IndexError):
            pi_value_by_alpha(10, 21, c_table, rows)  # no row s = 11
        with pytest.raises(IndexError):
            pi_value_by_alpha(11, 11, c_table, rows)  # row s = 0 ends at k = 10


class TestOraclesKeepNoState:
    def test_pi_by_alpha_keeps_no_table(self, c_table, g_table):
        # a tuple cannot be weakly referenced: count its references instead
        p = build_p_table(30)
        held = sys.getrefcount(p), sys.getrefcount(c_table)
        assert pi_value_by_alpha(12, 17, c_table, {5: theta_row(p, 5, 12)}) == pi_value(12, 17, g_table)
        assert (sys.getrefcount(p), sys.getrefcount(c_table)) == held

    def test_enumerate_steady_keeps_no_table(self):
        # the box's layers are locals: once its result is dropped, the traced
        # memory is back within the few KB that CPython's list free list keeps
        enumerate_steady(1, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enumerate_steady(30, 30)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 16384


class TestEnumerate:
    def test_empty_bipartite_number(self):
        assert enumerate_steady(0, 0) == ((1,),)

    def test_one_sided(self):
        assert enumerate_steady(0, 7) == ((1,) * 8,)
        assert enumerate_steady(7, 0) == ((1,),) * 8

    def test_two_one(self):
        # (2, 1) and (1, 1), (1, 0)
        assert enumerate_steady(2, 1)[2][1] == 2

    def test_counts_match_listing(self):
        assert enumerate_steady(14, 14) == gf_table(14, 14)


class TestPiValue:
    def test_edges(self, g_table, c_table, alpha200):
        for k in range(15):
            assert pi_value(0, k, g_table) == pi_value(k, 0, g_table) == 1
            assert pi_value_by_alpha(0, k, c_table, alpha200) == 1
            assert pi_value_by_alpha(k, 0, c_table, alpha200) == 1

    def test_two_one(self, g_table, c_table, alpha200):
        assert pi_value(2, 1, g_table) == pi_value_by_alpha(2, 1, c_table, alpha200) == 2

    def test_table1_leading_digits(self):
        from steadyparts.formatting import sci_from_int

        assert sci_from_int(pi_value(100, 100, build_g_table(100))) == "2.02082e13"

    def test_symmetry(self, g_table, c_table, alpha200):
        # both pi routes read only min(m, n) and |m - n|, so compare them with
        # pi(n, m) from the box expansion, which has no such symmetry built in
        g = gf_table(24, 24)
        for m in range(25):
            for n in range(m):
                assert g[m][n] == g[n][m], (m, n)
                assert pi_value(m, n, g_table) == g[n][m], (m, n)
                assert pi_value_by_alpha(m, n, c_table, alpha200) == g[n][m], (m, n)

    def test_short_table_raises(self):
        with pytest.raises(IndexError):
            pi_value(11, 30, build_g_table(10))
        with pytest.raises(IndexError):
            d_value(11, 30, build_g_table(10))
        # D reads G up to min(m, n) on every cell, also where it vanishes
        with pytest.raises(IndexError):
            d_value(30, 11, build_g_table(10))
        assert d_value(30, 11, build_g_table(11)) == 0

    def test_negative_arguments_raise(self, g_table):
        # d_value relies on pi_value's check
        for value in (pi_value, d_value):
            for m, n in ((-1, 3), (3, -1)):
                with pytest.raises(ValueError, match="nonnegative"):
                    value(m, n, g_table)


class TestThreeWayAgreement:
    def test_box_ten(self, g_table, c_table, alpha200):
        g = gf_table(10, 10)
        steady = enumerate_steady(10, 10)
        for m in range(11):
            for n in range(11):
                fast = pi_value(m, n, g_table)
                assert fast == pi_value_by_alpha(m, n, c_table, alpha200), (m, n)
                assert fast == g[m][n], (m, n)
                assert fast == steady[m][n], (m, n)

    def test_box_sixty(self):
        assert enumerate_steady(PRODUCT_CAP, PRODUCT_CAP) == gf_table(PRODUCT_CAP, PRODUCT_CAP)

    @pytest.mark.parametrize("box", [enumerate_steady, gf_table], ids=lambda box: box.__name__)
    def test_box_cap(self, box):
        for M, N in [(PRODUCT_CAP + 1, PRODUCT_CAP), (PRODUCT_CAP + 1, PRODUCT_CAP + 1), (0, PRODUCT_CAP + 1)]:
            with pytest.raises(ValueError, match="exceeds the product cap 60"):
                box(M, N)
        with pytest.raises(ValueError, match="nonnegative"):
            box(-1, 0)


class TestDValue:
    def test_first_column(self, g_table, c_table, crank60):
        for n in range(0, 61, 5):
            assert d_value(0, n, g_table) == d_value_by_crank(0, n, c_table, crank60) == 1

    def test_one_one(self, g_table, c_table, crank60):
        assert d_value(1, 1, g_table) == d_value_by_crank(1, 1, c_table, crank60) == 0

    def test_vanishing_beyond_2n(self, g_table, c_table, crank60):
        assert d_value(5, 2, g_table) == d_value_by_crank(5, 2, c_table, crank60) == 0
        for n in range(31):
            for m in range(2 * n + 1, 3 * n + 1):
                assert d_value(m, n, g_table) == d_value_by_crank(m, n, c_table, crank60) == 0

    def test_identity_against_difference(self, g_table, c_table, alpha200, crank60):
        # the G path against both oracles on every cell with n <= 40, m <= 3n
        for n in range(41):
            for m in range(3 * n + 1):
                below = pi_value_by_alpha(m - 1, n, c_table, alpha200) if m else 0
                assert (
                    d_value(m, n, g_table)
                    == d_value_by_crank(m, n, c_table, crank60)
                    == pi_value_by_alpha(m, n, c_table, alpha200) - below
                ), (m, n)

    def test_telescoping(self, c_table, alpha200, crank60):
        # d_value is pi_value's first difference, so its sum over m is
        # pi_value over any sequence G, right or wrong: only the crank route
        # is checked here
        for n in range(61):
            running_crank = 0
            for m in range(2 * n + 1):
                running_crank += d_value_by_crank(m, n, c_table, crank60)
                assert running_crank == pi_value_by_alpha(m, n, c_table, alpha200), (m, n)

    def test_three_regimes_match_unified_formula(self, c_table, crank60):
        # the piecewise forms for 0<=m<=n, n<=m<=2n and m>2n all reduce to
        # the single L = min(2n-m, m) convolution
        def regime(m, n):
            if m > 2 * n:
                return 0
            if m <= n:
                L = m
            else:
                L = 2 * n - m
            return sum(
                c_table[L - k] * crank60[n - L][n - L + k] for k in range(L + 1)
            )

        for n in range(31):
            for m in range(3 * n + 1):
                assert regime(m, n) == d_value_by_crank(m, n, c_table, crank60)


@pytest.fixture(scope="module")
def p3000():
    return build_p_table(3000)


@pytest.fixture(scope="module")
def c3000():
    return build_c_table(3000)


@pytest.fixture(scope="module")
def g3000():
    return build_g_table(3000)


class TestGPathAgainstOracles:
    """The G sums against routes that never touch G."""

    @settings(max_examples=20, deadline=None)
    @given(mu=st.integers(0, 3000), s=st.integers(0, 3000), flip=st.booleans())
    @example(mu=3000, s=0, flip=False)
    @example(mu=2999, s=57, flip=True)
    def test_pi_matches_alpha_convolution(self, p3000, c3000, g3000, mu, s, flip):
        m, n = (mu + s, mu) if flip else (mu, mu + s)
        assert pi_value(m, n, g3000) == pi_value_by_alpha(m, n, c3000, {s: theta_row(p3000, s, mu)})

    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(0, 14), N=st.integers(0, 14))
    @example(M=0, N=9)
    @example(M=9, N=0)
    @example(M=13, N=4)
    def test_pi_matches_box_expansion_and_enumeration(self, g_table, M, N):
        box = gf_table(M, N)
        for m in range(M + 1):
            for n in range(N + 1):
                assert pi_value(m, n, g_table) == box[m][n], (m, n)
        assert enumerate_steady(M, N) == box

    @pytest.mark.parametrize(
        "m, n",
        [
            (3000, 3000),  # diagonal
            (2971, 3000),  # near-diagonal
            (3000, 2985),
            (4210, 2900),  # between: n < m < 2n
            (6500, 3000),  # wide: m > 2n, where D = 0
            (2500, 6013),  # tall: m << n
        ],
    )
    def test_reader_and_its_tuple_agree_on_every_cell_shape(self, g3000, m, n):
        table = tuple(g3000)
        assert pi_value(m, n, g3000) == pi_value(m, n, table)
        assert d_value(m, n, g3000) == d_value(m, n, table)

    @pytest.mark.parametrize(
        "m, n", [(3000, 3000), (2971, 3000), (3000, 2985), (4210, 2900), (6500, 3000), (2500, 3000)]
    )
    def test_d_matches_crank_convolution_on_every_cell_shape(self, p3000, c3000, g3000, m, n):
        # D as two pi sums over G against the crank convolution over c and
        # one crank column of p.  The routes share theta_coefficient, which
        # the column reads through crank_value_direct (ROADMAP item 3)
        b = n - min(m, 2 * n - m) if m <= 2 * n else 0
        column = {b: crank_column(b, n, p3000)}
        assert d_value(m, n, g3000) == d_value_by_crank(m, n, c3000, column)

    def test_d_at_2500(self, p3000, c3000, g3000):
        column = {0: crank_column(0, 2500, p3000)}
        assert d_value(2500, 2500, g3000) == d_value_by_crank(2500, 2500, c3000, column)
