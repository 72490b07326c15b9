"""Exact arithmetic in quadratic extensions Q(sqrt(delta)) with delta < 0.

A number a + b*sqrt(delta), with a, b, delta rational and delta negative,
is a genuinely complex number whose argument lies in (0, pi) exactly when
b > 0.  No floating point is used anywhere in this package.

Every number is stored in one integral form.  Write delta = p/q in lowest
terms, so that sqrt(delta) = sqrt(D)/q with D = p*q.  For the least
positive integer s = lcm(den(a), den(b/q)),

    s * (a + b*sqrt(delta)) = A + B*sqrt(D)    with A, B integers,

an element of Z[sqrt(D)] (see integral_form), and gcd(A, B, s) = 1.
Products and powers run on the int pair (A, B) and reduce by one gcd.
Scaling by a positive number changes neither the sign of the imaginary
part nor whether a number is a negative real, so every threshold test is
decided on (A, B) alone.  a, b and delta are Fractions at the API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import Record, integer, refuse_float

RatLike = Fraction | int
IntPair = tuple[int, int]


class DeltaMismatchError(ValueError):
    """Two quadratic numbers over different discriminants were combined."""


class QuadNum(Record):
    """Element a + b*sqrt(delta) of Q(sqrt(delta)), delta < 0 rational,
    held as (A + B*sqrt(D))/s in lowest terms.  That form is unique, so
    two numbers are equal exactly when their fields are; D follows from
    delta and is not compared."""

    __slots__ = ("A", "B", "s", "delta", "D")
    _compare = ("A", "B", "s", "delta")

    def __init__(self, re: RatLike, im_coeff: RatLike, delta: RatLike):
        re, im_coeff, delta = rational(re), rational(im_coeff), rational(delta)
        if delta.numerator >= 0:
            raise ValueError(f"delta must be negative, got {delta}")
        if type(delta) is int:
            delta = Fraction(delta)
        a, b, s, d = integral_form(re, im_coeff, delta)
        # One call per field, not Record._fill: each threshold decision
        # builds a number.
        set_ = object.__setattr__
        set_(self, "A", a)
        set_(self, "B", b)
        set_(self, "s", s)
        set_(self, "delta", delta)
        set_(self, "D", d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.A, self.s)

    @property
    def im_coeff(self) -> Fraction:
        # B*sqrt(D) = B*q*sqrt(delta).
        return Fraction(self.B * self.delta.denominator, self.s)

    def __mul__(self, other: "QuadNum") -> "QuadNum":
        if not isinstance(other, QuadNum):
            return NotImplemented
        if other.delta is not self.delta and other.delta != self.delta:
            raise DeltaMismatchError(
                f"cannot mix sqrt({self.delta}) with sqrt({other.delta})"
            )
        x, y = zmul((self.A, self.B), (other.A, other.B), self.D)
        return _lowest(x, y, self.s * other.s, self)

    def is_zero(self) -> bool:
        return self.A == 0 and self.B == 0

    def __repr__(self) -> str:
        return f"QuadNum({self.re}, {self.im_coeff}, delta={self.delta})"


def rational(x) -> RatLike:
    """x itself if an int or a Fraction, else Fraction(x); no float."""
    if type(x) is int or type(x) is Fraction:
        return x
    refuse_float(x)
    return Fraction(x)


def _lowest(x: int, y: int, s: int, like: QuadNum) -> QuadNum:
    """(x + y*sqrt(D))/s over the discriminant of `like`, in lowest terms."""
    g = gcd(x, y, s)
    z = object.__new__(QuadNum)
    z._fill(x // g, y // g, s // g, like.delta, like.D)
    return z


def quad(re: RatLike, im_coeff: RatLike, delta: RatLike) -> QuadNum:
    return QuadNum(re, im_coeff, delta)


def integral_form(re: RatLike, im_coeff: RatLike,
                  delta: Fraction) -> tuple[int, int, int, int]:
    """(A, B, s, D) with s = lcm(den(re), den(im_coeff/q)) > 0, where
    delta = p/q in lowest terms and D = p*q, such that
    s * (re + im_coeff*sqrt(delta)) = A + B*sqrt(D).  No smaller s works,
    so gcd(A, B, s) = 1."""
    q = delta.denominator
    g = gcd(im_coeff.numerator, q)
    b_num, b_den = im_coeff.numerator // g, im_coeff.denominator * (q // g)
    s = lcm(re.denominator, b_den)
    return (re.numerator * (s // re.denominator), b_num * (s // b_den), s,
            delta.numerator * q)


def zmul(x: IntPair, y: IntPair, d: int) -> IntPair:
    """Product of x = a + b*sqrt(d) and y = c + e*sqrt(d) in Z[sqrt(d)]."""
    a, b = x
    c, e = y
    return a * c + b * e * d, a * e + b * c


def zpow(x: IntPair, m: int, d: int) -> IntPair:
    """m-th power of x in Z[sqrt(d)], m >= 0, by square-and-multiply."""
    if m <= 0:
        if m:
            raise ValueError("exponent must be nonnegative")
        refuse_float(m)  # 0.0 would run no loop below; other floats fail there
        return 1, 0
    result = (1, 0)
    while m:
        if m & 1:
            result = zmul(result, x, d)
        m >>= 1
        if m:
            x = zmul(x, x, d)
    return result


def quad_pow(z: QuadNum, m: int) -> QuadNum:
    """Exact m-th power of z, m >= 0."""
    x, y = zpow((z.A, z.B), m, z.D)
    return _lowest(x, y, z.s ** m, z)


def arg_less_than(z: QuadNum, q: int) -> bool:
    """Decide arg(z) < pi/q exactly, for z in the open upper half plane,
    i.e. arg(z) in (0, pi).

    Criterion: arg(z) < pi/q iff z^k stays in the open upper half plane
    for every k = 2..q.  If arg(z) >= pi/q, the least k with
    k*arg(z) >= pi is at most q and puts k*arg(z) in [pi, 2*pi).
    """
    if z.is_zero():
        raise ValueError("argument of zero is undefined")
    q = integer(q, "q", 2)
    if z.B <= 0:
        raise ValueError("z must lie in the open upper half plane (im > 0)")
    x = w = (z.A, z.B)
    for _ in range(2, q + 1):
        w = zmul(w, x, z.D)
        if w[1] <= 0:
            return False
    return True


# Rational values of cos^2(pi/q).  By Niven's theorem the only q >= 2 with
# rational cos^2(pi/q) are the ones below; absence from the table
# certifies irrationality.  tan^2 = (1 - cos^2)/cos^2 is rational exactly
# where cos^2 is, except at the pole q = 2.
_COS_SQ = {2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}
_TAN_SQ = {q: (1 - c) / c for q, c in _COS_SQ.items() if c}


def tan_sq_pi_over(q: int) -> Fraction | None:
    """tan^2(pi/q) when rational, None otherwise (q=2 is a pole)."""
    return _TAN_SQ.get(integer(q, "q", 2))


def cos_sq_pi_over(q: int) -> Fraction | None:
    """cos^2(pi/q) when rational, None otherwise."""
    return _COS_SQ.get(integer(q, "q", 2))
