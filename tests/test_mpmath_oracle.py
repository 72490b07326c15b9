"""Threshold decisions of fanocalc.exact and fanocalc.slope against an
independent oracle: mpmath complex arithmetic at 60 digits.  A case is
compared only where the oracle's margin is clear; the rest is skipped."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fanocalc.exact import arg_less_than, quad, tan_sq_pi_over
from fanocalc.slope import check_rho_tau

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

F = Fraction
DIGITS = 60
TINY = mpmath.mpf("1e-45")  # below this, a relative gap counts as zero
CLEAR = mpmath.mpf("1e-30")  # above this, a relative gap is decided

positives = st.fractions(min_value=F(1, 7), max_value=8, max_denominator=7)
reals = st.fractions(min_value=-8, max_value=8, max_denominator=7)
deltas = st.fractions(min_value=-40, max_value=F(-1, 12), max_denominator=12)


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def mp_arg_less_than(re, im, delta, q):
    """arg(re + im*sqrt(delta)) < pi/q, or None when within CLEAR."""
    with mp.workdps(DIGITS):
        arg = mpmath.atan2(_mpf(im) * mpmath.sqrt(-_mpf(delta)), _mpf(re))
        gap = arg - mpmath.pi / q
        return None if abs(gap) <= CLEAR else bool(gap < 0)


def mp_check_rho_tau(n, tau, rho, delta):
    """(rho + sqrt(delta))(tau + sqrt(delta))^n is a negative real, or
    None when the imaginary part is neither clearly zero nor clearly not."""
    with mp.workdps(DIGITS):
        s = mpmath.sqrt(-_mpf(delta))
        w = mpmath.mpc(_mpf(rho), s) * mpmath.mpc(_mpf(tau), s) ** n
        if abs(w.imag) <= TINY * abs(w):
            return bool(w.real < 0)
        if abs(w.imag) > CLEAR * abs(w):
            return False
        return None


@given(reals, positives, deltas, st.integers(min_value=2, max_value=16))
def test_arg_less_than_against_mpmath(re, im, delta, q):
    want = mp_arg_less_than(re, im, delta, q)
    if want is not None:
        assert arg_less_than(quad(re, im, delta), q) == want


@given(st.integers(min_value=0, max_value=16), positives, reals, deltas)
def test_check_rho_tau_against_mpmath(n, tau, rho, delta):
    want = mp_check_rho_tau(n, tau, rho, delta)
    if want is not None:
        assert check_rho_tau(n, tau, rho, delta) == want


def _true_cases():
    # Exact angles: tau + sqrt(-tau^2 tan^2(pi/(n+1))) has argument
    # pi/(n+1), so with rho = tau the product is a negative real.
    for n in (2, 3, 5):
        for tau in (F(1, 2), F(1), F(5, 3), F(3)):
            yield n, tau, tau, -tau * tau * tan_sq_pi_over(n + 1)
    # Second-contraction thresholds rho = tau - 2/(mu*nu').
    for n, tau, delta, mu, nu_prime in ((2, F(1, 3), F(-2, 9), 3, 4),
                                        (2, F(2, 5), F(-2, 5), 4, 5),
                                        (3, F(1), F(-1, 3), 1, 2),
                                        (4, F(3), F(-3), 1, 1)):
        yield n, tau, tau - F(2, mu * nu_prime), delta


@pytest.mark.parametrize("n,tau,rho,delta", list(_true_cases()))
def test_check_rho_tau_true_cases_against_mpmath(n, tau, rho, delta):
    assert mp_check_rho_tau(n, tau, rho, delta) is True
    assert check_rho_tau(n, tau, rho, delta)
