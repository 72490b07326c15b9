"""Independent oracles for the output checks.

sympy reduces ring expressions modulo the relation, and mpmath at 60
digits re-decides the threshold tests.  Neither shares code with
fanocalc.  Both are imported only when the oracle is built, after the
timed loop, so they add nothing to the measured memory or time.
"""

from __future__ import annotations

from fractions import Fraction


def _q(x: Fraction):
    import sympy
    return sympy.Rational(x.numerator, x.denominator)


class RingOracle:
    """Normal forms in Q[G1, G2] / (G1^2 - a*G1*G2 - b*G2^2, G2^(n+1),
    everything of degree above n+1), computed by sympy."""

    def __init__(self):
        import sympy
        self.sp = sympy
        self.g1, self.g2 = sympy.symbols("g1 g2")

    def linear(self, c, a, b):
        return _q(Fraction(c)) + _q(Fraction(a)) * self.g1 \
            + _q(Fraction(b)) * self.g2

    def build(self, spec):
        """sympy polynomial of an op spec (see ring_eval.py)."""
        kind = spec[0]
        g1, g2 = self.g1, self.g2
        if kind == "flat":
            return sum((_q(c) * g1 ** i * g2 ** j for c, i, j in spec[1]),
                       self.sp.Integer(0))
        if kind == "product":
            out = self.sp.Integer(1)
            for a, b, e in spec[1]:
                out *= self.linear(0, a, b) ** e
            return out
        if kind == "power":
            _, c, a, b, k = spec
            return self.linear(c, a, b) ** k
        if kind == "raw":
            return sum((_q(c) * g1 ** i * g2 ** j
                        for (i, j), c in spec[1].items()), self.sp.Integer(0))
        raise ValueError(f"no oracle for {kind}")

    def normal_form(self, poly, n: int, rel_a: Fraction, rel_b: Fraction):
        sp, g1, g2 = self.sp, self.g1, self.g2
        relation = g1 ** 2 - _q(rel_a) * g1 * g2 - _q(rel_b) * g2 ** 2
        rem = sp.rem(sp.expand(poly), relation, g1)
        out = {}
        for (i, j), c in sp.Poly(sp.expand(rem), g1, g2).terms():
            if i + j > n + 1 or j > n or c == 0:
                continue
            out[(i, j)] = Fraction(int(c.p), int(c.q))
        return out

    def degree(self, normal: dict, n: int, degree_s: Fraction) -> Fraction:
        return normal.get((1, n), Fraction(0)) * degree_s


class ThresholdOracle:
    """Re-decides arg_less_than, the conic threshold test and
    solve_nu_prime in floating point at 60 digits.  Each answer is None
    where the margin is too thin to decide, and is then not compared."""

    TINY = 1e-45
    CLEAR = 1e-30

    def __init__(self):
        from mpmath import mp
        mp.dps = 60
        self.mp = mp

    def _num(self, x: Fraction):
        return self.mp.mpf(x.numerator) / x.denominator

    def _negative_real(self, w):
        size = abs(w)
        if abs(w.imag) <= self.TINY * size:
            return w.real < 0
        if abs(w.imag) > self.CLEAR * size:
            return False
        return None

    def decide(self, n: int, tau: Fraction, delta: Fraction):
        """(arg below pi/(n+1), conic test, nu') with None where unclear;
        nu' is 0 when the oracle finds no solution."""
        mp = self.mp
        s = mp.sqrt(-self._num(delta))
        t = self._num(tau)
        z = mp.mpc(t, s)
        arg, limit = mp.atan2(s, t), mp.pi / (n + 1)
        below = None
        if abs(arg - limit) > self.CLEAR:
            below = bool(arg < limit)
        conic = self._negative_real(z ** (n + 1))
        return below, conic, self._nu_prime(n, t, s, z)

    def _nu_prime(self, n, t, s, z):
        mp = self.mp
        zn, zn1 = z ** n, z ** (n + 1)
        if abs(zn1.imag) <= self.TINY * abs(zn1):
            return 0
        ratio = 2 * zn.imag / zn1.imag
        nearest = int(mp.nint(ratio))
        gap = abs(ratio - nearest)
        if gap > self.CLEAR:
            return 0
        if gap > self.TINY * max(1, abs(ratio)):
            return None
        if nearest <= 0:
            return 0
        rho = t - mp.mpf(2) / nearest
        ok = self._negative_real(mp.mpc(rho, s) * zn)
        if ok is None:
            return None
        return nearest if ok else 0
