import decimal
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steadyparts.asymptotics import (
    C,
    KAPPA,
    asym_D,
    asym_M,
    asym_c,
    asym_p,
    asym_pi,
    f_saddle,
)
from steadyparts.bipartite import pi_value, d_value
from steadyparts.crank import crank_column
from steadyparts.formatting import ratio_string, sci_from_int, sci_from_log
from steadyparts.partitions import build_c_table, build_g_table, build_p_table


@pytest.fixture(scope="module")
def p5000():
    return build_p_table(5000)


@pytest.fixture(scope="module")
def c2000():
    return build_c_table(2000)


def sci_reference(v: int, sig: int) -> str:
    """sci_from_int through decimal's round-half-even context, as the
    formatter once computed it."""
    ctx = decimal.Context(prec=sig, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX)
    t = ctx.plus(decimal.Decimal(v)).as_tuple()
    digits = "".join(map(str, t.digits)).ljust(sig, "0")
    return f"{digits[0]}.{digits[1:]}e{t.exponent + len(t.digits) - 1}"


@st.composite
def int_and_sig(draw):
    """(v, sig): any integer below 10^700, or one at, or one off, a
    round-half tie at sig digits, whose head may be all nines (a carry)."""
    sig = draw(st.integers(min_value=1, max_value=10))
    kind = draw(st.sampled_from(("any", "tie", "carry")))
    if kind == "any":
        return draw(st.integers(min_value=1, max_value=10 ** 700 - 1)), sig
    head = 10 ** sig - 1 if kind == "carry" else draw(st.integers(10 ** (sig - 1), 10 ** sig - 1))
    k = draw(st.integers(min_value=0, max_value=690))
    return (10 * head + 5) * 10 ** k + draw(st.sampled_from((-1, 0, 1))), sig


def ratio(exact: int, approx: float) -> float:
    return math.exp(math.log(exact) - approx)


class TestConstants:
    def test_c_range(self):
        assert 4.05 < C < 4.06

    def test_kappa_value(self):
        assert KAPPA == pytest.approx(5.0 ** 2.5 / (16.0 * 3.0 ** 1.5))


class TestAsymP:
    def test_ratio_at_100(self, p5000):
        assert 0.9 <= ratio(p5000.coeff(100), asym_p(100)) <= 1.1

    def test_monotone(self):
        logs = [asym_p(n) for n in range(10, 1001)]
        assert all(a < b for a, b in zip(logs, logs[1:]))

    def test_ratio_at_5000(self, p5000):
        # leading Hardy-Ramanujan term at n = 5000; deviation is ~0.63%
        assert abs(ratio(p5000.coeff(5000), asym_p(5000)) - 1) < 0.007


class TestAsymC:
    def test_ratio_at_1000(self, c2000):
        assert 0.9 <= ratio(c2000.coeff(1000), asym_c(1000)) <= 1.1

    def test_ratio_improves(self, c2000):
        devs = [abs(ratio(c2000.coeff(n), asym_c(n)) - 1) for n in (100, 500, 1000, 2000)]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_grows_faster_than_p(self):
        for n in range(100, 2001, 100):
            assert asym_c(n) > asym_p(n)


class TestSaddleFunction:
    def test_endpoints(self):
        assert f_saddle(0.0) == 1.0
        assert f_saddle(1.0) == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_maximum_value(self):
        assert f_saddle(0.4) == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)

    def test_quadratic_coefficient(self):
        for t in (1e-2, 1e-3):
            est = (f_saddle(0.4) - f_saddle(0.4 + t)) / t**2
            assert abs(est - KAPPA) / KAPPA < 0.05

    def test_monotone_on_stated_intervals(self):
        grid = [i * 1e-3 for i in range(1001)]
        vals = [f_saddle(x) for x in grid]
        split = 400  # x = 2/5
        assert all(a < b for a, b in zip(vals[:split], vals[1 : split + 1]))
        assert all(a > b for a, b in zip(vals[split:-1], vals[split + 1 :]))

    def test_domain(self):
        with pytest.raises(ValueError):
            f_saddle(1.5)


class TestAsymM:
    def test_k_zero_closed_form(self):
        for ell in (1, 10, 400):
            want = (
                math.log(math.pi / (48.0 * math.sqrt(2.0)))
                + 2.0 * math.pi * math.sqrt(ell / 6.0)
                - 1.5 * math.log(ell)
            )
            assert asym_M(0, ell) == pytest.approx(want, rel=1e-12)

    def test_exact_ratio_at_400(self, p5000):
        for k in (0, 10, 20):
            r = ratio(crank_column(k, 420, p5000)[k + 400], asym_M(k, 400))
            assert abs(r - 1) < 0.15, (k, r)

    def test_increasing_in_k(self):
        limit = (
            math.log(math.pi / (12.0 * math.sqrt(2.0)))
            + 2.0 * math.pi * math.sqrt(400.0 / 6.0)
            - 1.5 * math.log(400.0)
        )
        logs = [asym_M(k, 400) for k in range(0, 200, 10)]
        assert all(a < b for a, b in zip(logs, logs[1:]))
        assert logs[-1] < limit


class TestAsymD:
    def test_diagonal_damping(self):
        # |n-m| = 0 makes the damping factor exactly 1/4
        n = 50
        want = math.log(5.0 * C / 96.0) + C * math.sqrt(n) - 2.0 * math.log(n) + math.log(0.25)
        assert asym_D(n, n) == pytest.approx(want, rel=1e-12)

    def test_exact_ratio_at_2500(self):
        r = ratio(d_value(2500, 2500, build_g_table(2500)), asym_D(2500, 2500))
        assert abs(r - 1) < 0.10, r

    def test_symmetric_about_n(self):
        n = 37
        for m in range(1, 2 * n):
            assert asym_D(m, n) == asym_D(2 * n - m, n)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            asym_D(100, 50)  # m = 2n gives mu = 0
        with pytest.raises(ValueError):
            asym_D(101, 50)  # m > 2n


class TestAsymPi:
    def test_caption_values(self):
        assert sci_from_log(asym_pi(100, 100)) == "2.14152e13"
        assert sci_from_log(asym_pi(1600, 1600)) == "2.32601e64"

    def test_diagonal_specialization(self):
        n = 123
        want = math.log(5.0 / 96.0) + C * math.sqrt(n) - 1.5 * math.log(n)
        assert asym_pi(n, n) == pytest.approx(want, rel=1e-12)

    def test_ratio_columns_of_table1(self):
        G = build_g_table(1600)
        expect = {
            (100, 100): "0.9436",
            (100, 110): "0.9060",
            (1600, 1600): "0.9858",
            (1600, 1640): "0.9754",
        }
        for (m, n), want in expect.items():
            v = pi_value(m, n, G)
            assert ratio_string(math.log(v), asym_pi(m, n)) == want

    def test_monotone_convergence_on_diagonal(self):
        G = build_g_table(1600)
        devs = []
        for L in (10, 20, 30, 40):
            v = pi_value(L * L, L * L, G)
            devs.append(abs(ratio(v, asym_pi(L * L, L * L)) - 1))
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            asym_pi(0, 5)


class TestFormatting:
    def test_sci_small(self):
        assert sci_from_int(1) == "1.00000e0"
        assert sci_from_int(1234567) == "1.23457e6"

    def test_round_half_even(self):
        assert sci_from_int(1000005) == "1.00000e6"
        assert sci_from_int(1000015) == "1.00002e6"
        assert sci_from_int(9999995) == "1.00000e7"  # the carry reaches a new digit
        assert sci_from_int(9999995 * 10 ** 600) == "1.00000e607"

    @given(int_and_sig())
    @settings(max_examples=200, deadline=None)
    @example((1234565, 6))
    @example((1234565 * 10 ** 50, 6))
    @example((1234575 * 10 ** 50, 6))
    @example((9999995, 6))
    @example((9999995 * 10 ** 600, 6))
    @example((9999994999, 6))
    @example((95, 1))
    @example((10 ** 699, 10))
    def test_sci_from_int_matches_decimal(self, case):
        v, sig = case
        assert sci_from_int(v, sig) == sci_reference(v, sig)

    def test_sci_past_the_str_digit_limit(self):
        # str() of an int past 4300 digits raises; the formatter never calls it
        v = 3 * 10 ** 5001 + 7
        assert sci_from_int(v) == "3.00000e5001"
        assert sci_from_int(2 ** 20000 - 1) == sci_reference(2 ** 20000 - 1, 6)

    def test_sci_from_log_rollover(self):
        assert sci_from_log(math.log(9.999999e9)) == "1.00000e10"
