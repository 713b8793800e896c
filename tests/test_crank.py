import pytest

from steadyparts.crank import (
    build_crank_table,
    build_crank_table_lambert,
    crank_column,
    crank_counts_by_enumeration,
    crank_of,
    crank_value_direct,
    partitions_of,
)
from steadyparts.partitions import build_p_table


@pytest.fixture(scope="module")
def table100():
    return build_crank_table(100)


@pytest.fixture(scope="module")
def p200():
    return build_p_table(200)


class TestBuild:
    def test_constant_term(self, table100):
        assert table100[0][0] == 1

    def test_order_one_row(self, table100):
        # hand expansion to q^1: (1-q)(1+zq)(1+z^{-1}q) = 1 + (z + z^{-1} - 1)q + ...
        assert table100[0][1] == -1
        assert table100[1][1] == 1
        assert table100[-1][1] == 1

    def test_rows_m_then_negative_m(self):
        # rows m = 0..N, then m = -N..-1, each holding q-orders 0..N
        table = build_crank_table(3)
        assert len(table) == 7 and all(len(row) == 4 for row in table)
        assert table[3] == table[-3] == (0, 0, 0, 1)

    def test_row_sums_equal_p(self, table100, p200):
        for n in range(101):
            assert sum(table100[m][n] for m in range(-n, n + 1)) == p200.coeff(n)

    def test_both_expansion_paths_agree_to_100(self, table100):
        lam = build_crank_table_lambert(100)
        assert len(lam) == len(table100) == 201
        assert lam == table100

    # the small orders reach the edge rows of the swept triangle
    @pytest.mark.parametrize("N", [*range(13), 40])
    def test_both_expansion_paths_agree_at_small_orders(self, N):
        table = build_crank_table(N)
        assert len(table) == 2 * N + 1
        assert build_crank_table_lambert(N) == table

    def test_column_formula_agrees(self, table100, p200):
        for m in range(-100, 101):
            assert crank_column(m, 100, p200) == table100[m]

    def test_direct_value_agrees(self, table100, p200):
        for n in range(0, 101, 7):
            for m in range(-n, n + 1):
                assert crank_value_direct(m, n, p200) == table100[m][n]

    def test_column_builder(self, table100, p200):
        for m in (0, 3, 5, -3, -5):
            assert crank_column(m, 100, p200) == table100[m]
        with pytest.raises(IndexError):
            crank_column(0, 201, p200)


class TestAccessor:
    def test_outside_support(self, table100):
        assert table100[7][3] == table100[-7][3] == 0

    def test_symmetry(self, table100):
        # M(-m, n) = M(m, n), read from distinct swept rows
        for n in range(101):
            for m in range(1, n + 1):
                assert table100[-m][n] == table100[m][n], (m, n)

    def test_extreme_crank_is_one(self, table100):
        # only the single-part partition of n has crank n (n >= 2)
        for n in range(2, 60):
            assert table100[n][n] == 1

    def test_order_overflow_raises(self, table100):
        with pytest.raises(IndexError):
            table100[0][101]


class TestCombinatorial:
    def test_crank_statistic_examples(self):
        assert crank_of((4,)) == 4  # no ones: largest part
        assert crank_of((2, 1)) == 0  # omega = 1, mu = 1
        assert crank_of((1, 1, 1)) == -3  # omega = 3, mu = 0

    def test_partition_generator_counts(self, p200):
        for n in range(31):
            assert sum(1 for _ in partitions_of(n)) == p200.coeff(n)

    def test_partition_generator_order(self, p200):
        for n in range(21):
            parts = list(partitions_of(n))
            assert len(parts) == p200.coeff(n)
            for part in parts:
                assert sum(part) == n
                assert all(a >= b >= 1 for a, b in zip(part, part[1:] + (1,)))
            # strictly decreasing lexicographic order
            assert all(a > b for a, b in zip(parts, parts[1:]))

    def test_crank_matches_definition(self):
        for n in range(21):
            for partition in partitions_of(n):
                ones = partition.count(1)
                if ones:
                    want = sum(1 for part in partition if part > ones) - ones
                else:
                    want = partition[0] if partition else 0
                assert crank_of(partition) == want, partition

    def test_enumeration_matches_table(self, table100):
        # generating-function convention: rows agree for n >= 2 but not n = 1
        for n in range(2, 31):
            counts = crank_counts_by_enumeration(n)
            for m in range(-n, n + 1):
                assert counts.get(m, 0) == table100[m][n], (m, n)

    def test_n1_row_differs_by_convention(self, table100):
        counts = crank_counts_by_enumeration(1)
        assert counts == {-1: 1}
        assert table100[0][1] == -1  # GF coefficient, not a count


class TestEquidistribution:
    @pytest.mark.parametrize("modulus, residue", [(5, 4), (7, 5), (11, 6)])
    def test_crank_splits_ramanujan_congruences(self, table100, p200, modulus, residue):
        # Andrews-Garvan (1988): for n == residue (mod modulus), the crank
        # classes mod `modulus` each hold p(n) / modulus partitions
        for n in range(residue, 101, modulus):
            share, rest = divmod(p200.coeff(n), modulus)
            assert rest == 0, n
            for r in range(modulus):
                assert sum(table100[m][n] for m in range(-n, n + 1) if m % modulus == r) == share, (n, r)
