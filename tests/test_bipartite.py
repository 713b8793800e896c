import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steadyparts.bipartite import (
    EnumerationCapExceeded,
    ProductCapExceeded,
    alpha,
    d_value,
    d_value_by_crank,
    d_value_by_difference,
    enumerate_steady,
    gf_table,
    is_steady,
    pi_value,
    pi_value_by_alpha,
)
from steadyparts.crank import build_crank_table, crank_column
from steadyparts.partitions import build_c_table, build_g_table, build_p_table


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


class TestAlpha:
    def test_k_zero(self, p_table):
        for s in range(10):
            assert alpha(s, 0, p_table) == 1

    def test_small_values(self, p_table):
        assert alpha(0, 1, p_table) == 0  # p(1) - p(0)
        assert alpha(1, 2, p_table) == 1  # p(2) - p(0)

    def test_short_table_raises(self):
        with pytest.raises(IndexError):
            alpha(0, 11, build_p_table(10))


class TestEnumerate:
    def test_empty_bipartite_number(self):
        assert enumerate_steady(0, 0)[0] == 1

    def test_one_sided(self):
        for k in range(1, 8):
            assert enumerate_steady(0, k)[0] == 1
            assert enumerate_steady(k, 0)[0] == 1

    def test_two_one(self):
        count, pairs = enumerate_steady(2, 1, collect=True)
        assert count == 2
        assert set(pairs) == {((2, 1),), ((1, 1), (1, 0))}

    def test_collected_pairs_are_valid(self):
        for m in range(5):
            for n in range(5):
                count, pairs = enumerate_steady(m, n, collect=True)
                assert count == len(pairs)
                for parts in pairs:
                    assert is_steady(parts)
                    assert sum(a for a, _ in parts) == m
                    assert sum(b for _, b in parts) == n

    def test_counts_match_listing(self):
        for m in range(15):
            for n in range(15 - m):
                assert enumerate_steady(m, n)[0] == enumerate_steady(m, n, collect=True)[0], (m, n)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_steady(30, 30, cap=40)

    def test_steady_pair_rejects_violation(self):
        assert not is_steady(((1, 0), (1, 1)))
        assert not is_steady(((1, 1), (0, 0)))


class TestPiValue:
    def test_edges(self, g_table, c_table, p_table):
        for k in range(15):
            assert pi_value(0, k, g_table) == pi_value(k, 0, g_table) == 1
            assert pi_value_by_alpha(0, k, c_table, p_table) == 1
            assert pi_value_by_alpha(k, 0, c_table, p_table) == 1

    def test_two_one(self, g_table, c_table, p_table):
        assert pi_value(2, 1, g_table) == pi_value_by_alpha(2, 1, c_table, p_table) == 2

    def test_table1_leading_digits(self):
        from steadyparts.formatting import sci_from_int

        assert sci_from_int(pi_value(100, 100, build_g_table(100))) == "2.02082e13"

    def test_symmetry(self, g_table, c_table, p_table):
        # both pi routes read only min(m, n) and |m - n|, so compare them with
        # pi(n, m) from the box expansion, which has no such symmetry built in
        g = gf_table(24, 24)
        for m in range(25):
            for n in range(m):
                assert g[m][n] == g[n][m], (m, n)
                assert pi_value(m, n, g_table) == g[n][m], (m, n)
                assert pi_value_by_alpha(m, n, c_table, p_table) == g[n][m], (m, n)

    def test_short_table_raises(self):
        with pytest.raises(IndexError):
            pi_value(11, 30, build_g_table(10))
        with pytest.raises(IndexError):
            d_value(11, 30, build_g_table(10))


class TestThreeWayAgreement:
    def test_box_ten(self, g_table, c_table, p_table):
        g = gf_table(10, 10)
        for m in range(11):
            for n in range(11):
                fast = pi_value(m, n, g_table)
                assert fast == pi_value_by_alpha(m, n, c_table, p_table), (m, n)
                assert fast == g[m][n], (m, n)
                assert fast == enumerate_steady(m, n)[0], (m, n)

    def test_gf_cap(self):
        with pytest.raises(ProductCapExceeded):
            gf_table(61, 61)


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

    def test_identity_against_difference(self, g_table, c_table, p_table, crank60):
        # the G path against both oracles on every cell with n <= 40, m <= 3n
        for n in range(41):
            for m in range(3 * n + 1):
                assert (
                    d_value(m, n, g_table)
                    == d_value_by_crank(m, n, c_table, crank60)
                    == d_value_by_difference(m, n, c_table, p_table)
                ), (m, n)

    def test_telescoping(self, g_table, c_table, p_table, crank60):
        for n in range(61):
            running = running_crank = 0
            for m in range(2 * n + 1):
                running += d_value(m, n, g_table)
                running_crank += d_value_by_crank(m, n, c_table, crank60)
                assert running == pi_value(m, n, g_table), (m, n)
                assert running_crank == pi_value_by_alpha(m, n, c_table, p_table), (m, n)

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
                c_table.coeff(L - k) * crank60[n - L][n - L + k] for k in range(L + 1)
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
        assert pi_value(m, n, g3000) == pi_value_by_alpha(m, n, c3000, p3000)

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
        assert pi_value(M, N, g_table) == enumerate_steady(M, N)[0]

    def test_d_at_2500(self, p3000, c3000, g3000):
        column = {0: crank_column(0, 2500, p3000)}
        assert d_value(2500, 2500, g3000) == d_value_by_crank(2500, 2500, c3000, column)
