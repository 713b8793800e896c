import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combinatorics import count_partitions
from steadyparts.oracles import euler_product, mul, theta_row
from steadyparts.series import (
    _divide_sparse,
    divide_by_euler,
    invert,
    theta_coefficient,
)


def expand_finite_product(factors, order):
    """Oracle: multiply out (1 - q^e) factors term by term, no shortcuts."""
    out = [1] + [0] * order
    for e in factors:
        new = list(out)
        for i in range(order + 1 - e):
            new[i + e] -= out[i]
        out = new
    return out


def generalized_pentagonal_numbers(limit):
    out = set()
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        out.add(k * (3 * k - 1) // 2)
        if k * (3 * k + 1) // 2 <= limit:
            out.add(k * (3 * k + 1) // 2)
        k += 1
    return out


def one(order):
    return (1,) + (0,) * order


class TestMul:
    def test_binomial_square(self):
        a = (1, 1, 0)
        assert mul(a, a) == (1, 2, 1)

    def test_identity(self):
        a = (3, -1, 4, 1, -5)
        assert mul(a, one(4)) == a

    def test_min_order_truncation(self):
        assert mul([1, 1, 1, 1, 1], [1, 1]) == (1, 2)

    def test_p_series_times_pentagonal_is_one(self):
        pent = euler_product(1, 50)
        p_series = invert(pent)
        assert mul(p_series, pent) == one(50)


class TestInvert:
    def test_geometric(self):
        assert invert((1, -1, 0, 0)) == (1, 1, 1, 1)

    def test_involution(self):
        a = (1, 5, -2, 7, 0, 3)
        assert invert(invert(a)) == a

    def test_negative_unit_constant(self):
        a = (-1, 2, 3)
        assert mul(a, invert(a)) == one(2)

    def test_rejects_nonunit_constant(self):
        with pytest.raises(ValueError):
            invert((2, 1))

    def test_partition_coefficients(self):
        p_series = invert(euler_product(1, 30))
        assert p_series[5] == count_partitions(5) == 7
        for n in range(11):
            assert p_series[n] == count_partitions(n)


class TestEulerProduct:
    def test_step_one_order_five(self):
        assert euler_product(1, 5) == (1, -1, -1, 0, 0, 1)

    def test_step_two_order_three(self):
        assert euler_product(2, 3) == (1, 0, -1, 0)

    def test_order_zero(self):
        assert euler_product(1, 0) == (1,)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            euler_product(0, 5)

    @pytest.mark.parametrize("step,order", [(1, 40), (2, 40), (3, 50)])
    def test_matches_finite_product(self, step, order):
        factors = [step * j for j in range(1, order // step + 1)]
        assert list(euler_product(step, order)) == expand_finite_product(factors, order)

    def test_pentagonal_number_theorem(self):
        s = euler_product(1, 200)
        pents = generalized_pentagonal_numbers(200)
        for n in range(1, 201):
            assert abs(s[n]) <= 1
            assert (s[n] != 0) == (n in pents)


# ascending distinct offsets g >= 1, each with a sign +-1, some past the order
sparse_terms = st.lists(
    st.tuples(st.integers(1, 40), st.sampled_from((1, -1))), max_size=10, unique_by=lambda term: term[0],
).map(sorted)


class TestDivideSparse:
    @given(sparse_terms, st.integers(1, 3), st.lists(st.integers(-99, 99), min_size=1, max_size=35))
    @settings(max_examples=120, deadline=None)
    @example(terms=[], scale=2, numerator=[5, -1, 3])
    @example(terms=[(1, -1)], scale=1, numerator=[1, 0, 0, 0])
    @example(terms=[(2, 1)], scale=3, numerator=[7])
    def test_quotient_times_divisor_is_the_numerator(self, terms, scale, numerator):
        # the divisor 1 + scale sum sign q^g, written out densely
        divisor = [1] + [0] * (len(numerator) - 1)
        for g, sign in terms:
            if g < len(divisor):
                divisor[g] = scale * sign
        coeffs = list(numerator)
        assert _divide_sparse(coeffs, terms, scale) is coeffs
        assert mul(coeffs, divisor) == tuple(numerator)

    @pytest.mark.parametrize("start", [0, 1, 4, 5, 30])
    def test_resumed_division_is_the_full_one(self, start):
        # a list whose first `start` entries already hold the quotient, the
        # numerator past them (none at start = 30, its length): dividing
        # from `start` on completes it
        terms = [(k * k, 1 if k % 2 == 0 else -1) for k in range(1, 6)]
        rng = random.Random(start)
        numerator = [rng.randint(-99, 99) for _ in range(30)]
        quotient = _divide_sparse(list(numerator), terms, 2)
        coeffs = quotient[:start] + numerator[start:]
        assert _divide_sparse(coeffs, terms, 2, start) == quotient


small_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=6, max_size=6).map(tuple)


class TestAlgebraicProperties:
    @given(small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, a, b):
        assert mul(a, b) == mul(b, a)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_invert_is_right_inverse(self, tail):
        a = (1, *tail)
        assert mul(a, invert(a)) == one(len(tail))

    @pytest.mark.parametrize("order", [1, 17, 100, 200])
    def test_invert_at_large_orders(self, order):
        a = euler_product(1, order)
        assert mul(a, invert(a)) == one(order)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_theta_coefficient_recursion(self, t, s):
        # K(k, s) = t(k) - K(k - 1 - s, s + 1) for every sequence t.  By it,
        # crank_value_direct(m - n, n, G), the crank closed form read over G,
        # is pi(m, n) - pi(m - 1, n) for every G: the two pi_value sums that
        # bipartite.d_value takes
        for k in range(len(t)):
            assert theta_coefficient(t, k, s) == t[k] - theta_coefficient(t, k - 1 - s, s + 1)

    @pytest.mark.parametrize("s", [0, 1, 7, 44])
    def test_theta_coefficient_by_its_definition_over_big_ints(self, s):
        # the even and odd terms are summed apart: check the difference
        # against the definition, term by term, over p(0..2000) (up to 46
        # digits), at k < 0 (no terms) and at fixed and seeded k with an odd
        # and with an even number of terms
        p = divide_by_euler([1] + [0] * 2000)
        ks = [-3, -1, 0, 1, 2, s + 1, s + 2, 2000] + random.Random(s).sample(range(2001), 24)
        parities = set()
        for k in ks:
            offsets = [k - l * (l + 1) // 2 - l * s for l in range(k + 1)]
            terms = [(-1) ** l * p[i] for l, i in enumerate(offsets) if i >= 0]
            if k >= 0:
                parities.add(len(terms) % 2)
            assert theta_coefficient(p, k, s) == sum(terms), k
        assert parities == {0, 1}

    @pytest.mark.parametrize("seed", range(4))
    def test_theta_row_matches_theta_coefficient(self, seed):
        # the slice passes against the loop, entry by entry: over p(0..2000)
        # (up to 46 digits) and over mixed-sign ints, at seeded (s, K) with
        # s up to 60, at K = 0, at s > K and at the full length
        p = divide_by_euler([1] + [0] * 2000)
        rng = random.Random(seed)
        mixed = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(2001)]
        cases = [(0, 0), (60, 0), (7, 3), (60, 59), (rng.randrange(61), 2000)]
        cases += [(rng.randrange(61), rng.randrange(2001)) for _ in range(8)]
        for values in (p, mixed):
            for s, K in cases:
                row = theta_row(values, s, K)
                assert len(row) == K + 1
                assert list(row) == [theta_coefficient(values, k, s) for k in range(K + 1)], (s, K)

    def test_theta_row_edges(self):
        # K < 0 is the empty row, as K(k < 0, s) = 0; a negative s or a
        # table that ends before K raises
        assert theta_row((1, 2, 3, 4), 4, -1) == ()
        assert theta_row((1, 2, 3, 4), 0, 3) == (1, 2 - 1, 3 - 2, 4 - 3 + 1)
        with pytest.raises(ValueError):
            theta_row((1, 2, 3, 4), -1, 3)
        with pytest.raises(IndexError):
            theta_row((1, 2, 3, 4), 0, 4)
