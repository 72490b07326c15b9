"""Exact arithmetic in quadratic extensions Q(sqrt(delta)) with delta < 0.

Numbers are stored as a + b*sqrt(delta) with a, b, delta all rational and
delta negative, so every value is a genuinely complex number whose argument
lies in (0, pi) exactly when b > 0.  No floating point is used anywhere in
this package.

Powers and sign tests run on plain ints.  Write delta = p/q in lowest
terms, so that sqrt(delta) = sqrt(D)/q with D = p*q.  For the positive
integer s = lcm(den(a), den(b/q)),

    s * (a + b*sqrt(delta)) = A + B*sqrt(D)    with A, B integers,

an element of Z[sqrt(D)] (see integral_form).  Scaling by a positive
number changes neither the sign of the imaginary part nor whether a
number is a negative real, so every threshold test is decided on int
pairs (A, B); quad_pow divides by s^m once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple, Union

Rat = Fraction
RatLike = Union[Fraction, int]
IntPair = Tuple[int, int]


class DeltaMismatchError(ValueError):
    """Two quadratic numbers over different discriminants were combined."""


@dataclass(frozen=True)
class QuadNum:
    """Element a + b*sqrt(delta) of Q(sqrt(delta)), delta < 0 rational."""

    re: Fraction
    im_coeff: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im_coeff", Fraction(self.im_coeff))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.delta >= 0:
            raise ValueError(f"delta must be negative, got {self.delta}")

    def _check(self, other: "QuadNum") -> None:
        if self.delta != other.delta:
            raise DeltaMismatchError(
                f"cannot mix sqrt({self.delta}) with sqrt({other.delta})"
            )

    def __add__(self, other: "QuadNum") -> "QuadNum":
        self._check(other)
        return QuadNum(self.re + other.re, self.im_coeff + other.im_coeff, self.delta)

    def __sub__(self, other: "QuadNum") -> "QuadNum":
        self._check(other)
        return QuadNum(self.re - other.re, self.im_coeff - other.im_coeff, self.delta)

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.re, -self.im_coeff, self.delta)

    def __mul__(self, other: "QuadNum") -> "QuadNum":
        self._check(other)
        a, b, c, d = self.re, self.im_coeff, other.re, other.im_coeff
        return QuadNum(a * c + b * d * self.delta, a * d + b * c, self.delta)

    def scale(self, s: RatLike) -> "QuadNum":
        s = Fraction(s)
        return QuadNum(self.re * s, self.im_coeff * s, self.delta)

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.re, -self.im_coeff, self.delta)

    def norm(self) -> Fraction:
        """a^2 - delta*b^2; nonnegative, zero only at zero (delta < 0)."""
        return self.re * self.re - self.delta * self.im_coeff * self.im_coeff

    def is_zero(self) -> bool:
        return self.re == 0 and self.im_coeff == 0

    def im_sign(self) -> int:
        """Sign of the imaginary part (sqrt(delta) lies on the positive
        imaginary axis, so this is just the sign of the coefficient)."""
        b = self.im_coeff
        return (b > 0) - (b < 0)

    def __repr__(self) -> str:
        return f"QuadNum({self.re}, {self.im_coeff}, delta={self.delta})"


def quad(re: RatLike, im_coeff: RatLike, delta: RatLike) -> QuadNum:
    return QuadNum(Fraction(re), Fraction(im_coeff), Fraction(delta))


def integral_form(re: RatLike, im_coeff: RatLike,
                  delta: Fraction) -> Tuple[int, int, int, int]:
    """(A, B, s, D) with s = lcm(den(re), den(im_coeff/q)) > 0, where
    delta = p/q in lowest terms and D = p*q, such that
    s * (re + im_coeff*sqrt(delta)) = A + B*sqrt(D)."""
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
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    a, b, s, d = integral_form(z.re, z.im_coeff, z.delta)
    x, y = zpow((a, b), m, d)
    # (x + y*sqrt(D)) / s^m with sqrt(D) = q*sqrt(delta).
    scale = s ** m
    return QuadNum(Fraction(x, scale), Fraction(y * z.delta.denominator, scale),
                   z.delta)


def is_negative_real(z: QuadNum) -> bool:
    """True iff z lies on the strictly negative real axis."""
    return z.im_coeff == 0 and z.re < 0


def arg_less_than(z: QuadNum, q: int) -> bool:
    """Decide arg(z) < pi/q exactly, for z in the open upper half plane,
    i.e. arg(z) in (0, pi).

    Criterion: arg(z) < pi/q iff z^k stays in the open upper half plane
    for every k = 2..q.  If arg(z) >= pi/q, the least k with
    k*arg(z) >= pi is at most q and puts k*arg(z) in [pi, 2*pi).
    """
    if z.is_zero():
        raise ValueError("argument of zero is undefined")
    if q < 2:
        raise ValueError("q must be at least 2")
    if z.im_coeff <= 0:
        raise ValueError("z must lie in the open upper half plane (im > 0)")
    a, b, _, d = integral_form(z.re, z.im_coeff, z.delta)
    w = (a, b)
    for _ in range(2, q + 1):
        w = zmul(w, (a, b), d)
        if w[1] <= 0:
            return False
    return True


# Rational values of tan^2(pi/q) and cos^2(pi/q).  By Niven's theorem the
# only q >= 2 with rational cos(pi/q) or rational cos^2(pi/q) are the ones
# below; absence from the table certifies irrationality.
_TAN_SQ = {3: Fraction(3), 4: Fraction(1), 6: Fraction(1, 3)}
_COS_SQ = {2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}


def tan_sq_pi_over(q: int) -> Optional[Fraction]:
    """tan^2(pi/q) when rational, None otherwise (q=2 is a pole)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return _TAN_SQ.get(q)


def cos_sq_pi_over(q: int) -> Optional[Fraction]:
    """cos^2(pi/q) when rational, None otherwise."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return _COS_SQ.get(q)
