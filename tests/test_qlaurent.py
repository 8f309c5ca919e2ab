import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenalg import (
    LaurentSeries,
    delta_extract,
    qpochhammer,
    series_exp,
    theta,
)


class TestQPochhammer:
    def test_empty_factor(self):
        assert qpochhammer(0.0, 0.3, 50) == 1.0

    def test_single_factor(self):
        assert qpochhammer(0.5, 0.0, 10) == pytest.approx(0.5)

    def test_truncation_against_long_product(self):
        # oracle: the same product at much higher order
        assert abs(qpochhammer(0.5, 0.3, 60) - qpochhammer(0.5, 0.3, 200)) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, 1.1, 10)

    @pytest.mark.parametrize("order", [0, 1, 10, 80, 241])
    def test_matches_the_scalar_loop(self, order):
        # numpy's complex multiply can round x a^n an ulp away from Python's;
        # from there the two products round independently, so their distance
        # grows like sqrt(order) eps
        tol = 4 * np.sqrt(max(order, 1)) * np.finfo(float).eps
        for r in (0.0, 0.3, 0.7, 0.95):
            for ph in np.linspace(-3.0, 3.0, 7):
                a = r * np.exp(1j * ph)
                for x in (0.5 * np.exp(-2.3j), 1.3 * np.exp(0.4j), 0.8, -0.6j):
                    want = qpochhammer_loop(x, a, order)
                    assert abs(qpochhammer(x, a, order) - want) <= tol * abs(want)

    @pytest.mark.parametrize("order", [0, 1, 80])
    def test_array_matches_the_scalar_calls(self, order):
        xs = np.array([[0.5 * np.exp(-2.3j), 1.3 * np.exp(0.4j)], [0.8, -0.6j]])
        a = 0.7 * np.exp(0.9j)
        got = qpochhammer(xs, a, order)
        assert got.shape == xs.shape
        for x, g in zip(xs.ravel(), got.ravel()):
            want = qpochhammer(complex(x), a, order)
            assert type(want) is complex
            assert abs(g - want) <= 1e-15 * abs(want)

    def test_matches_mpmath_at_order_241(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for ph in (0.0, 0.7, -2.5):
                a = 0.9 * np.exp(1j * ph)
                for x in (0.5, 0.3 + 0.4j, -0.7j):
                    want = complex(mpmath.qp(mpmath.mpc(x), mpmath.mpc(a), 241))
                    assert abs(qpochhammer(x, a, 241) - want) <= 1e-14 * abs(want)


def qpochhammer_loop(x, a, order):
    """Reference: one factor at a time, powers of a by repeated multiplication."""
    out, an = 1.0 + 0.0j, 1.0 + 0.0j
    for _ in range(order):
        out *= 1 - x * an
        an *= a
    return out


class TestTheta:
    def test_quasi_periodicity_reference_point(self):
        a, x = 0.3, 0.7 + 0.1j
        assert abs(theta(a * x, a, 80) + theta(x, a, 80) / x) < 1e-10

    def test_zero_at_one(self):
        assert abs(theta(1.0, 0.3, 80)) < 1e-10

    def test_x_zero_rejected(self):
        with pytest.raises(ValueError):
            theta(0.0, 0.3, 80)

    def test_array_matches_the_scalar_calls(self):
        xs = 0.6 * np.exp(1j * np.linspace(-3.0, 3.0, 9))
        for a in (0.3, 0.7 * np.exp(0.4j)):
            got = theta(xs, a, 80)
            want = np.array([theta(complex(x), a, 80) for x in xs])
            assert got.shape == xs.shape
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        assert type(theta(0.6j, 0.3, 80)) is complex

    def test_x_zero_anywhere_in_an_array_rejected(self):
        with pytest.raises(ValueError):
            theta(np.array([0.5, 0.0, 1j]), 0.3, 80)

    def test_quasi_periodicity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.uniform(0.05, 0.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            x = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            lhs = theta(a * x, a, 80)
            rhs = -theta(x, a, 80) / x
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def geometric(order):
    return LaurentSeries(0, np.ones(order + 1, dtype=complex), order)


class TestSeriesExp:
    def test_exp_zero(self):
        z = LaurentSeries(0, np.zeros(6, dtype=complex), 5)
        assert series_exp(z).coeffs[0] == 1.0
        assert np.allclose(series_exp(z).coeffs[1:], 0)

    def test_exp_x_order5(self):
        x = LaurentSeries.from_coeff_map({1: 1.0}, 5)
        e = series_exp(x)
        want = [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120]
        assert np.allclose(e.window(0, 5), want)

    def test_exp_log_geometric(self):
        # oracle: direct expansion of 1/(1-x); log(1/(1-x)) = sum x^m / m
        order = 30
        log = LaurentSeries.from_coeff_map({m: 1.0 / m for m in range(1, order + 1)}, order)
        assert np.allclose(series_exp(log).window(0, order), geometric(order).window(0, order))

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            series_exp(LaurentSeries.from_coeff_map({0: 1.0, 1: 1.0}, 5))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            series_exp(LaurentSeries.from_coeff_map({-1: 1.0}, 5))


small_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def laurent(draw, order=10):
    lo = draw(st.integers(min_value=-3, max_value=2))
    n = draw(st.integers(min_value=1, max_value=5))
    coeffs = draw(st.lists(small_complex, min_size=n, max_size=n))
    return LaurentSeries(lo, np.array(coeffs, dtype=complex), order)


class TestRingAxioms:
    @given(laurent(), laurent(), laurent())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        lo, hi = min(lhs.min_exp, rhs.min_exp), min(lhs.order, rhs.order)
        if hi < lo:
            return
        assert np.allclose(lhs.window(lo, hi), rhs.window(lo, hi), atol=1e-9)

    @given(laurent(), laurent(), laurent())
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, a, b, c):
        b2, c2 = b, c
        lhs = a * (b2 + c2)
        rhs = a * b2 + a * c2
        lo, hi = min(lhs.min_exp, rhs.min_exp), min(lhs.order, rhs.order)
        if hi < lo:
            return
        assert np.allclose(lhs.window(lo, hi), rhs.window(lo, hi), atol=1e-9)

    @given(laurent())
    @settings(max_examples=40, deadline=None)
    def test_add_commutes(self, a):
        b = a.shift(1)
        s1, s2 = a + b, b + a
        assert s1.min_exp == s2.min_exp and np.allclose(s1.coeffs, s2.coeffs)


class TestSeriesBasics:
    def test_truncation_not_extended(self):
        a = LaurentSeries(0, np.ones(4, dtype=complex), 3)
        b = LaurentSeries(2, np.ones(2, dtype=complex), 3)
        prod = a * b
        # b's first unknown exponent (4) hits a's constant term, so the
        # product is known only up to min(o1 + m2, o2 + m1) = 3
        assert prod.order == 3
        with pytest.raises(ValueError):
            prod.coeff(prod.order + 1)

    def test_flip_and_scale(self):
        s = LaurentSeries.from_coeff_map({1: 2.0, 2: 3.0}, 8)
        f = s.flip()
        assert f.coeff(-1) == 2.0 and f.coeff(-2) == 3.0

    def test_evaluate(self):
        s = LaurentSeries.from_coeff_map({-1: 1.0, 2: 2.0}, 8)
        assert s.evaluate(2.0) == pytest.approx(0.5 + 8.0)


def expand_inner_outer(a, b, order=60):
    """Two-sided expansions of 1/((1-xa)(1-xb)), built from geometric factors.

    The outer product is assembled in the variable y = 1/x, where the usual
    top-truncation bookkeeping applies, and flipped back at the end.
    """
    inner_a = LaurentSeries.from_coeff_map({k: a**k for k in range(order + 1)}, order)
    inner_b = LaurentSeries.from_coeff_map({k: b**k for k in range(order + 1)}, order)
    inner = inner_a * inner_b
    # outer factor: 1/(1-xa) = -sum_{n>=1} (xa)^{-n} = -sum_{n>=1} a^{-n} y^n
    ya = LaurentSeries.from_coeff_map({n: -(a ** -n) for n in range(1, order + 1)}, order)
    yb = LaurentSeries.from_coeff_map({n: -(b ** -n) for n in range(1, order + 1)}, order)
    outer = (ya * yb).flip()
    return inner, outer


class TestDeltaExtract:
    def test_single_delta(self):
        order = 50
        inner = LaurentSeries.from_coeff_map({k: 1.0 for k in range(order + 1)}, order)
        outer = LaurentSeries.from_coeff_map({-n: -1.0 for n in range(1, order + 1)}, 0)
        comb = delta_extract(inner, outer, [1.0], window=(-25, 25))
        assert len(comb.weights) == 1
        assert comb.weights[0] == pytest.approx(1.0)

    def test_two_pole_weights(self):
        a, b = 0.4, 0.7
        inner, outer = expand_inner_outer(a, b)
        # one weight per candidate, in the caller's order; 2.0 carries no delta
        comb = delta_extract(inner, outer, [1 / b, 2.0, 1 / a], window=(-20, 20))
        # oracle: partial fractions 1/((1-xa)(1-xb)) = w1/(1-xa) + w2/(1-xb)
        w1, w2 = a / (a - b), -b / (a - b)
        assert comb.weights[0] == pytest.approx(w2, rel=1e-9)
        assert abs(comb.weights[1]) < 1e-9
        assert comb.weights[2] == pytest.approx(w1, rel=1e-9)
        assert comb.residual < 1e-9

    def test_equal_series_empty_comb(self):
        s = LaurentSeries.from_coeff_map({0: 1.0, 1: 0.5}, 20)
        comb = delta_extract(s, s, [0.5], window=(-5, 5))
        assert comb.weights == (0.0,) and comb.residual == 0.0

    def test_not_a_comb_diagnostic(self):
        a, b = 0.4, 0.7
        inner, outer = expand_inner_outer(a, b)
        comb = delta_extract(inner, outer, [1 / a], window=(-20, 20))  # missing pole
        assert comb.residual > 1e-8

    @given(
        st.floats(min_value=0.2, max_value=0.9),
        st.floats(min_value=0.2, max_value=0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_two_pole_recovery(self, a, b):
        if abs(a - b) < 0.05:
            return
        inner, outer = expand_inner_outer(a, b)
        comb = delta_extract(inner, outer, [1 / a, 1 / b], window=(-18, 18))
        assert comb.weights == pytest.approx((a / (a - b), -b / (a - b)), rel=1e-9, abs=1e-9)
