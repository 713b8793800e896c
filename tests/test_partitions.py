import math

import pytest

from combinatorics import count_partitions, partitions_of
from steadyparts import partitions
from steadyparts.oracles import c_values_via_inversion, euler_product, g_values_via_chain, mul
from steadyparts.partitions import P_ORDERS, PACKED_ORDERS, build_c_table, build_g_table, build_p_table
from steadyparts.crank import (
    build_crank_table,
    build_crank_table_lambert,
    crank_column,
    crank_counts_by_enumeration,
)
from steadyparts.series import divide_by_euler, divide_by_phi, invert


@pytest.fixture(scope="module")
def p2000():
    return build_p_table(2000)


@pytest.fixture(scope="module")
def c2000():
    return build_c_table(2000)


@pytest.fixture(scope="module")
def c2000_dense():
    """c by inverting the dense product (q;q)(q^2;q^2)."""
    return c_values_via_inversion(2000)


def test_every_table_is_a_tuple():
    # G's reader aside, a read-only sequence over a table of half its order
    tables = [
        build_p_table(20), build_c_table(20), g_values_via_chain(20), c_values_via_inversion(20),
        euler_product(2, 20), mul(euler_product(1, 20), build_p_table(20)), invert(euler_product(1, 20)),
        *build_crank_table(5), *build_crank_table_lambert(5), *crank_counts_by_enumeration(5),
    ]
    for table in tables:
        assert isinstance(table, tuple)


@pytest.mark.parametrize(
    "build",
    [
        build_p_table, build_c_table, build_g_table, g_values_via_chain, c_values_via_inversion,
        lambda N: euler_product(1, N), build_crank_table, build_crank_table_lambert,
        crank_counts_by_enumeration, lambda N: list(partitions_of(N)), lambda N: crank_column(0, N, build_p_table(5)),
    ],
    ids=[
        "p", "c", "g", "g_chain", "c_inversion", "euler_product", "crank_table", "crank_lambert",
        "crank_enumeration", "partitions_of", "crank_column",
    ],
)
def test_builders_reject_negative_orders(build):
    with pytest.raises(ValueError, match="must be nonnegative"):
        build(-1)


class TestPartitionTable:
    def test_p0(self, p2000):
        assert p2000[0] == 1

    def test_p5(self, p2000):
        assert p2000[5] == count_partitions(5) == 7

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            build_p_table(10)[11]

    def test_strictly_increasing(self, p2000):
        for n in range(1, 2000):
            assert p2000[n + 1] > p2000[n]

    def test_brute_force_agreement(self, p2000):
        for n in range(31):
            assert p2000[n] == count_partitions(n)

    def test_times_euler_product_is_one(self, p2000):
        # Euler: (q;q)_inf * P(q) = 1, through the dense product
        assert mul(euler_product(1, 2000), p2000) == (1,) + (0,) * 2000

    def test_blocked_build_matches_division_at_small_orders(self):
        # every length of the blocked prefix to 301, so every partial last
        # block and every first order of each pentagonal offset
        division = tuple(divide_by_euler([1] + [0] * 300))
        for N in range(301):
            assert build_p_table(N) == division[: N + 1], N

    def test_blocked_build_matches_division_across_the_prefix(self):
        # the blocked prefix is P_ORDERS orders, p(0..4095); from N = 4096 on
        # the resumed division adds orders past it
        division = tuple(divide_by_euler([1] + [0] * 20000))
        for N in (*range(P_ORDERS - 2, P_ORDERS + 5), 20000):
            assert build_p_table(N) == division[: N + 1], N

    def test_a_field_one_bit_too_narrow_changes_p(self):
        # negative control for the width: the decode is exact while every
        # p(n) has a field of its own, and reads the largest, p(top), mod
        # 2^(w - 1) once its field is one bit too narrow
        p = build_p_table(P_ORDERS - 1)
        w = p[-1].bit_length()
        assert partitions._bits(2, P_ORDERS - 1) >= w
        assert tuple(partitions._blocked_p(P_ORDERS, w)) == p
        assert tuple(partitions._blocked_p(P_ORDERS, w - 1)) != p


class TestCubicTable:
    def test_c0(self, c2000):
        assert c2000[0] == 1

    def test_small_values(self, c2000):
        # c(2) = p(2)p(0) + p(0)p(1); c(3) = p(3)p(0) + p(1)p(1)
        assert c2000[2] == 3
        assert c2000[3] == 4

    def test_at_least_p(self, p2000, c2000):
        for n in range(2, 2001):
            assert c2000[n] >= p2000[n]

    def test_sparse_division_matches_oracles(self, c2000, c2000_dense):
        assert c2000 == c2000_dense

    def test_chan_congruence(self, c2000):
        # Chan (2010): c(3n + 2) == 0 (mod 3)
        for n in range(2, 2001, 3):
            assert c2000[n] % 3 == 0, n


class TestGTable:
    def test_is_c_times_p(self, p2000, c2000):
        G = build_g_table(400)
        for n in range(401):
            assert G[n] == sum(c2000[k] * p2000[n - k] for k in range(n + 1))

    def test_small_values(self):
        # 1/((q;q)^2 (q^2;q^2)) = 1 + 2q + 6q^2 + 12q^3 + ...
        assert tuple(build_g_table(3)) == (1, 2, 6, 12)

    def test_gauss_build_matches_chain_at_small_orders(self):
        # every order of E in the packed prefix, which at N <= 300 is all of E
        chain = g_values_via_chain(300)
        for N in range(301):
            assert tuple(build_g_table(N)) == chain[: N + 1], N

    @pytest.mark.parametrize("N", [2001, 10100, 40200])
    def test_gauss_build_matches_chain(self, N):
        assert tuple(build_g_table(N)) == g_values_via_chain(N)

    def test_gauss_build_matches_chain_across_the_packed_prefix(self):
        # E to N // 2 = PACKED_ORDERS - 1 is the packed prefix alone; from
        # N = 2 PACKED_ORDERS on, the resumed divisions add orders past it
        T = PACKED_ORDERS
        chain = g_values_via_chain(2 * T + 3)
        for N in range(2 * T - 2, 2 * T + 4):
            assert tuple(build_g_table(N)) == chain[: N + 1], N

    @pytest.mark.parametrize("field", [0, 1], ids=["W1", "W2"])
    def test_a_field_too_narrow_changes_g(self, monkeypatch, field):
        # negative control for the widths: with W1 or W2 halved, a1 or a2
        # no longer fits its field, so the decode reads it mod 2^W (the sums
        # may carry from field to field, which the decode allows), and G at
        # 10100 is no longer the chain's
        widths = partitions._packed_widths

        def narrow(length):
            w = list(widths(length))
            w[field] //= 2
            return tuple(w)

        monkeypatch.setattr(partitions, "_packed_widths", narrow)
        assert tuple(build_g_table(10100)) != g_values_via_chain(10100)

    @pytest.mark.parametrize("N", [2999, 3000])
    def test_reader_matches_chain_at_every_index(self, N):
        # every k <= N, both parities, from k = 0 on; E runs to N // 2
        G = build_g_table(N)
        chain = g_values_via_chain(N)
        assert len(G) == N + 1
        assert len(G.half) == N // 2 + 1
        assert [G[k] for k in range(4)] == [1, 2, 6, 12]
        assert [G[k] for k in range(N + 1)] == list(chain)

    @pytest.mark.parametrize("N", [0, 1, 2, 3000])
    def test_reader_raises_outside_its_indices(self, N):
        G = build_g_table(N)
        assert G[N] > 0
        for k in (N + 1, N + 2, -1):
            with pytest.raises(IndexError):
                G[k]

    def test_large_order_is_c_times_p(self):
        n = 10000
        c, p = build_c_table(n), build_p_table(n)
        assert build_g_table(n)[n] == sum(c[k] * p[n - k] for k in range(n + 1))


class TestDivideByEuler:
    def test_times_euler_product_is_identity(self):
        # dividing 1 by (q^s;q^s) and multiplying back gives 1
        for step in (1, 2, 3):
            quotient = divide_by_euler([1] + [0] * 60, step)
            assert mul(quotient, euler_product(step, 60)) == (1,) + (0,) * 60

    def test_in_place(self):
        coeffs = [1, 0, 0, 0]
        assert divide_by_euler(coeffs) is coeffs
        assert coeffs == [1, 1, 2, 3]


def phi_minus_q(order):
    """phi(-q) = sum over k in Z of (-1)^k q^(k^2), truncated at `order`."""
    out = [0] * (order + 1)
    r = math.isqrt(order)
    for k in range(-r, r + 1):
        out[k * k] += -1 if k % 2 else 1
    return tuple(out)


class TestDivideByPhi:
    def test_gauss_identity(self):
        # phi(-q) = (q;q)^2 / (q^2;q^2)
        q1 = euler_product(1, 80)
        assert mul(mul(q1, q1), invert(euler_product(2, 80))) == phi_minus_q(80)

    def test_times_phi_is_identity(self):
        numerator = build_p_table(120)
        quotient = divide_by_phi(list(numerator))
        assert mul(quotient, phi_minus_q(120)) == numerator

    def test_in_place(self):
        coeffs = [1, 0, 0, 0, 0]
        assert divide_by_phi(coeffs) is coeffs
        # 1/phi(-q) = (q^2;q^2) / (q;q)^2 = 1 + 2q + 4q^2 + 8q^3 + 14q^4 + ...
        assert coeffs == [1, 2, 4, 8, 14]
