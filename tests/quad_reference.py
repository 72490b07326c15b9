"""Test oracle for fanocalc.exact: a + b*sqrt(delta) as a triple
(a, b, delta) of Fractions, multiplied by the textbook formula.

It shares no code with the integral form that QuadNum stores, so tests
that compare the two check the kernel against an independent reference.
"""

from fractions import Fraction


def triple(z):
    """The (a, b, delta) Fractions of a QuadNum, read at its API."""
    return z.re, z.im_coeff, z.delta


def fraction_mul(x, y):
    """(a + b*sqrt(delta))(c + d*sqrt(delta))
    = (ac + bd*delta) + (ad + bc)*sqrt(delta)."""
    a, b, delta = x
    c, d, other = y
    assert delta == other
    return a * c + b * d * delta, a * d + b * c, delta


def fraction_pow(x, m):
    """m-th power of a triple by square-and-multiply, the algorithm
    quad_pow ran before the integer kernel."""
    result = (Fraction(1), Fraction(0), x[2])
    while m:
        if m & 1:
            result = fraction_mul(result, x)
        x = fraction_mul(x, x)
        m >>= 1
    return result


def fraction_arg_less_than(x, q):
    """arg(x) < pi/q by the loop arg_less_than ran before the integer
    kernel: x^k keeps a positive imaginary part for k = 2..q."""
    w = x
    for _ in range(2, q + 1):
        w = fraction_mul(w, x)
        if w[1] <= 0:
            return False
    return True


def fraction_is_negative_real(x):
    return x[1] == 0 and x[0] < 0
