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
def lambert100():
    # the closed form's reference: the one series expansion of the table
    return build_crank_table_lambert(100)


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
            assert sum(table100[m][n] for m in range(-n, n + 1)) == p200[n]

    def test_both_expansion_paths_agree_to_100(self, table100, lambert100):
        assert len(lambert100) == len(table100) == 201
        assert lambert100 == table100

    # the small orders reach the edge rows m = +-N and the column n = 1
    @pytest.mark.parametrize("N", [*range(13), 40])
    def test_both_expansion_paths_agree_at_small_orders(self, N):
        table = build_crank_table(N)
        assert len(table) == 2 * N + 1
        assert build_crank_table_lambert(N) == table

    def test_order_200_rows_match_closed_form(self, p200):
        # the Lambert expansion reads p by dense inversion, not through
        # divide_by_euler; row +-200 holds only the one partition with
        # crank +-200
        table = build_crank_table(200)
        lam = build_crank_table_lambert(200)
        assert table == lam
        for m in (0, 1, -1, 2, -2, 7, -7, 50, -50, 200, -200):
            assert lam[m] == crank_column(m, 200, p200), m
        for n in range(201):
            assert sum(table[m][n] for m in range(-n, n + 1)) == p200[n], n

    def test_order_200_table_matches_direct_values(self, p200):
        # the table's theta rows (slice passes) against crank-row's per-cell
        # closed form (theta_coefficient loops) at every cell, |m| > n too
        table = build_crank_table(200)
        for m in range(-200, 201):
            assert list(table[m]) == [crank_value_direct(m, n, p200) for n in range(201)], m

    def test_column_formula_agrees(self, lambert100, p200):
        for m in range(-100, 101):
            assert crank_column(m, 100, p200) == lambert100[m]

    def test_direct_value_agrees(self, lambert100, p200):
        for n in range(0, 101, 7):
            for m in range(-n, n + 1):
                assert crank_value_direct(m, n, p200) == lambert100[m][n]

    def test_direct_values_at_order_1000(self):
        # beyond the full tables' reach: the crank counts of the partitions
        # of 1000 are nonnegative, sum to p(1000), and have second moment
        # sum m^2 M(m, n) = 2n p(n) (Dyson 1989); M(-m, n) = M(m, n)
        n = 1000
        p = build_p_table(2000)
        row = {m: crank_value_direct(m, n, p) for m in range(-n - 1, n + 2)}
        assert row[n + 1] == row[-n - 1] == 0
        assert row[n] == row[-n] == 1
        assert all(row[-m] == row[m] >= 0 for m in range(n + 1))
        assert sum(row.values()) == p[n]
        assert sum(m * m * v for m, v in row.items()) == 2 * n * p[n]
        # near n = 2000, the crank classes mod 5, 7 and 11 are equal at
        # n = 4, 5 and 6 of each modulus (Andrews and Garvan 1988), and the
        # row is unimodal, M(m, n) >= M(m + 1, n) for 0 <= m <= n - 2 (Ji and
        # Zang 2021).  These read the same p table, and theta_coefficient
        # through crank_value_direct, as the values they check: they test
        # the closed form, not p
        for modulus, n in ((5, 1999), (7, 2000), (11, 1997)):
            row = [crank_value_direct(m, n, p) for m in range(n + 1)]
            classes = [0] * modulus
            for m, v in enumerate(row):
                classes[m % modulus] += v
                if m:
                    classes[-m % modulus] += v
            assert classes == [p[n] // modulus] * modulus, n
            assert all(a >= b for a, b in zip(row, row[1:n])), n

    def test_column_builder(self, lambert100, p200):
        for m in (0, 3, 5, -3, -5):
            assert crank_column(m, 100, p200) == lambert100[m]
        with pytest.raises(IndexError):
            crank_column(0, 201, p200)


class TestAccessor:
    def test_outside_support(self, table100):
        assert table100[7][3] == table100[-7][3] == 0

    def test_symmetry(self, lambert100):
        # M(-m, n) = M(m, n); the Lambert form builds rows m and -m apart
        for n in range(101):
            for m in range(1, n + 1):
                assert lambert100[-m][n] == lambert100[m][n], (m, n)

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
            assert sum(1 for _ in partitions_of(n)) == p200[n]

    def test_partition_generator_order(self, p200):
        for n in range(21):
            parts = list(partitions_of(n))
            assert len(parts) == p200[n]
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

    def test_enumeration_matches_table(self):
        # the same layout as the generating-function table, and the same
        # numbers in every column but n = 1
        for N in (0, 1, 2, 25, 30):
            counts = crank_counts_by_enumeration(N)
            table = build_crank_table(N)
            assert len(counts) == len(table) == 2 * N + 1
            assert all(len(row) == N + 1 for row in counts)
            assert [row[:1] + row[2:] for row in counts] == [row[:1] + row[2:] for row in table], N

    def test_n1_row_differs_by_convention(self, table100):
        counts = crank_counts_by_enumeration(1)
        assert [counts[m][1] for m in (-1, 0, 1)] == [1, 0, 0]  # the partition (1,)
        assert [table100[m][1] for m in (-1, 0, 1)] == [1, -1, 1]  # GF coefficients, not counts

    @pytest.mark.parametrize("N", [0, 1, 25])
    def test_one_walk_matches_each_order_alone(self, p200, N):
        # the partitions of n < N come from peeling ones off those of N;
        # crank_of over each order's own walk is the definition-level oracle
        counts = crank_counts_by_enumeration(N)
        for n in range(N + 1):
            column = [0] * (2 * N + 1)
            for partition in partitions_of(n):
                column[crank_of(partition)] += 1
            assert [row[n] for row in counts] == column, n
            assert sum(column) == p200[n], n


class TestEquidistribution:
    @pytest.mark.parametrize("modulus, residue", [(5, 4), (7, 5), (11, 6)])
    def test_crank_splits_ramanujan_congruences(self, table100, p200, modulus, residue):
        # Andrews-Garvan (1988): for n == residue (mod modulus), the crank
        # classes mod `modulus` each hold p(n) / modulus partitions
        for n in range(residue, 101, modulus):
            share, rest = divmod(p200[n], modulus)
            assert rest == 0, n
            for r in range(modulus):
                assert sum(table100[m][n] for m in range(-n, n + 1) if m % modulus == r) == share, (n, r)
