from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fanocalc import exact
from fanocalc.exact import (DeltaMismatchError, arg_less_than, cos_sq_pi_over,
                            integral_form, quad, quad_pow, tan_sq_pi_over)
from quad_reference import (fraction_arg_less_than, fraction_mul,
                            fraction_pow, triple)

rationals = st.fractions(min_value=-10, max_value=10,
                         max_denominator=6)
# Denominators above one make the scale s of integral_form exceed one.
fractional_deltas = st.fractions(
    min_value=-40, max_value=Fraction(-1, 12),
    max_denominator=12).filter(lambda d: d.denominator > 1)
fractional_positives = st.fractions(
    min_value=Fraction(1, 7), max_value=8,
    max_denominator=7).filter(lambda x: x.denominator > 1)


def test_quad_pow_fourth_power_of_one_plus_i():
    z = quad(1, 1, -1)
    assert quad_pow(z, 4) == quad(-4, 0, -1)


def test_quad_pow_cube_with_delta_minus_twelve():
    # (2+s)^3 with s^2 = -12: 8 + 12s + 6s^2 + s^3 = 8 + 12s - 72 - 12s.
    z = quad(2, 1, -12)
    assert quad_pow(z, 3) == quad(-64, 0, -12)


def test_quad_pow_cube_with_delta_minus_three():
    # (3+s)^3 with s^2 = -3: 27 + 27s + 9s^2 + s^3 = 27 + 27s - 27 - 3s.
    z = quad(3, 1, -3)
    assert quad_pow(z, 3) == quad(0, 24, -3)


def test_arg_less_than_exact_third():
    # arg(1 + sqrt(-3)) is exactly pi/3: the cube is the real number -8.
    z = quad(1, 1, -3)
    assert quad_pow(z, 3) == quad(-8, 0, -3)
    assert not arg_less_than(z, 3)


def test_arg_less_than_quarter_below_third():
    z = quad(2, 1, -4)
    assert arg_less_than(z, 3)
    assert quad_pow(z, 2).im_coeff > 0 and quad_pow(z, 3).im_coeff > 0


def test_arg_less_than_not_strict_at_quarter():
    assert not arg_less_than(quad(1, 1, -1), 4)


def test_arg_less_than_rejects_zero_and_bad_inputs():
    with pytest.raises(ValueError):
        arg_less_than(quad(0, 0, -1), 3)
    with pytest.raises(ValueError):
        arg_less_than(quad(1, 1, -1), 1)
    with pytest.raises(ValueError):
        arg_less_than(quad(-1, -1, -1), 3)
    # arg 0 and arg -pi/4: outside (0, pi), where the criterion holds.
    with pytest.raises(ValueError):
        arg_less_than(quad(1, 0, -1), 3)
    with pytest.raises(ValueError):
        arg_less_than(quad(1, -1, -1), 3)


def test_trig_lookup_tables():
    assert tan_sq_pi_over(6) == Fraction(1, 3)
    assert tan_sq_pi_over(4) == 1
    assert tan_sq_pi_over(3) == 3
    assert tan_sq_pi_over(5) is None
    assert tan_sq_pi_over(2) is None
    assert cos_sq_pi_over(2) == 0
    assert cos_sq_pi_over(3) == Fraction(1, 4)
    assert cos_sq_pi_over(4) == Fraction(1, 2)
    assert cos_sq_pi_over(6) == Fraction(3, 4)
    assert cos_sq_pi_over(5) is None
    with pytest.raises(ValueError):
        tan_sq_pi_over(1)
    with pytest.raises(ValueError):
        cos_sq_pi_over(0)


def test_delta_mixing_rejected():
    with pytest.raises(DeltaMismatchError):
        quad(1, 1, -1) * quad(1, 1, -2)
    with pytest.raises(ValueError):
        quad(1, 1, 2)


def test_product_with_a_non_quadnum_is_a_type_error():
    z = quad(1, 1, -1)
    assert z.__mul__(2) is NotImplemented
    with pytest.raises(TypeError):
        z * 2
    with pytest.raises(TypeError):
        2 * z
    with pytest.raises(TypeError):
        z * Fraction(1, 2)


@pytest.mark.parametrize("args", [(0.1, 1, -1), (1, 0.5, -1), (1, 1, -1.0)])
def test_quadnum_rejects_float(args):
    with pytest.raises(TypeError):
        exact.QuadNum(*args)


def test_rational_passes_int_and_fraction_through():
    half = Fraction(1, 2)
    assert exact.rational(half) is half
    assert type(exact.rational(3)) is int
    assert exact.rational("2/4") == half and type(exact.rational(True)) is Fraction
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        exact.rational(0.5)


def test_negative_exponent_is_refused():
    for call in (lambda: exact.zpow((1, 1), -1, -3),
                 lambda: quad_pow(quad(1, 1, -3), -2)):
        with pytest.raises(ValueError, match="^exponent must be nonnegative$"):
            call()


@given(rationals, rationals, fractional_deltas)
def test_integral_form_scales_into_z_sqrt_d(re, im, delta):
    a, b, s, d = integral_form(re, im, delta)
    q = delta.denominator
    assert s > 0 and d == delta.numerator * q
    # s*(re + im*sqrt(delta)) = a + b*sqrt(d), sqrt(d) = q*sqrt(delta).
    assert Fraction(a, s) == re and Fraction(b * q, s) == im


@given(rationals, rationals, fractional_deltas,
       st.integers(min_value=0, max_value=16))
def test_quad_pow_matches_fraction_reference(re, im, delta, m):
    z = quad(re, im, delta)
    assert triple(quad_pow(z, m)) == fraction_pow((re, im, delta), m)


@given(rationals, fractional_positives, fractional_deltas,
       st.integers(min_value=2, max_value=16))
def test_arg_less_than_matches_fraction_reference(re, im, delta, q):
    z = quad(re, im, delta)
    assert arg_less_than(z, q) == fraction_arg_less_than((re, im, delta), q)


@given(rationals, rationals, rationals, rationals, fractional_deltas)
# (1 + sqrt(-3))/2 squared is (-2 + 2*sqrt(-3))/4 before the gcd.
@example(Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), Fraction(3, 2),
         Fraction(-1, 3))
def test_quadnum_matches_fraction_reference(a, b, c, d, delta):
    z, w = quad(a, b, delta), quad(c, d, delta)
    assert triple(z) == (a, b, delta)
    assert all(type(x) is Fraction for x in triple(z))
    want = fraction_mul((a, b, delta), (c, d, delta))
    assert triple(z * w) == want
    assert (z == w) == ((a, b) == (c, d))
    # One value built three ways: equal, with equal hashes.
    built = quad(*want)
    assert z * w == built and hash(z * w) == hash(built)
    square = quad(*fraction_mul(triple(z), triple(z)))
    assert quad_pow(z, 2) == z * z == square
    assert hash(quad_pow(z, 2)) == hash(z * z) == hash(square)
    with pytest.raises(AttributeError):
        z.A = 0
