import pytest

from steadyparts.partitions import (
    build_c_table,
    build_g_table,
    build_p_table,
    c_values_via_convolution,
    c_values_via_inversion,
    p_values_via_inversion,
)
from steadyparts.series import CoefficientTable, divide_by_euler, euler_product, mul


def count_partitions(n):
    def rec(remaining, cap):
        if remaining == 0:
            return 1
        return sum(rec(remaining - part, part) for part in range(1, min(cap, remaining) + 1))

    return rec(n, n)


@pytest.fixture(scope="module")
def p2000():
    return build_p_table(2000)


@pytest.fixture(scope="module")
def c2000():
    return build_c_table(2000)


@pytest.fixture(scope="module")
def c2000_dense():
    """c by inverting the dense product (q;q)(q^2;q^2)."""
    return c_values_via_inversion(2000).values()


@pytest.fixture(scope="module")
def c2000_convolved(p2000):
    return c_values_via_convolution(2000, p2000)


class TestPartitionTable:
    def test_p0(self, p2000):
        assert p2000.coeff(0) == 1

    def test_p5(self, p2000):
        assert p2000.coeff(5) == count_partitions(5) == 7

    def test_total_accessor_negative(self, p2000):
        assert p2000.coeff(-3) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            build_p_table(10).coeff(11)

    def test_strictly_increasing(self, p2000):
        for n in range(1, 2000):
            assert p2000.coeff(n + 1) > p2000.coeff(n)

    def test_brute_force_agreement(self, p2000):
        for n in range(31):
            assert p2000.coeff(n) == count_partitions(n)

    def test_recurrence_matches_inversion(self, p2000):
        assert p2000.values() == p_values_via_inversion(2000).values()


class TestCubicTable:
    def test_c0(self, c2000):
        assert c2000.coeff(0) == 1

    def test_small_values(self, c2000):
        # c(2) = p(2)p(0) + p(0)p(1); c(3) = p(3)p(0) + p(1)p(1)
        assert c2000.coeff(2) == 3
        assert c2000.coeff(3) == 4

    def test_negative_accessor(self, c2000):
        assert c2000.coeff(-1) == 0

    def test_at_least_p(self, p2000, c2000):
        for n in range(2, 2001):
            assert c2000.coeff(n) >= p2000.coeff(n)

    def test_inversion_matches_convolution(self, c2000_dense, c2000_convolved):
        assert c2000_dense == c2000_convolved

    def test_sparse_division_matches_oracles(self, c2000, c2000_dense, c2000_convolved):
        assert c2000.values() == c2000_dense
        assert c2000.values() == c2000_convolved


class TestGTable:
    def test_is_c_times_p(self, p2000, c2000):
        G = build_g_table(400)
        for n in range(401):
            assert G.coeff(n) == sum(c2000.coeff(k) * p2000.coeff(n - k) for k in range(n + 1))

    def test_small_values(self):
        # 1/((q;q)^2 (q^2;q^2)) = 1 + 2q + 6q^2 + 12q^3 + ...
        assert build_g_table(3).values() == (1, 2, 6, 12)


class TestDivideByEuler:
    def test_times_euler_product_is_identity(self):
        # dividing 1 by (q^s;q^s) and multiplying back gives 1
        for step in (1, 2, 3):
            quotient = divide_by_euler([1] + [0] * 60, step)
            back = mul(CoefficientTable(quotient), euler_product(step, 60))
            assert back.coeffs == (1,) + (0,) * 60

    def test_in_place(self):
        coeffs = [1, 0, 0, 0]
        assert divide_by_euler(coeffs) is coeffs
        assert coeffs == [1, 1, 2, 3]
