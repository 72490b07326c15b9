"""Nef and pseudoeffective threshold machinery.

Holds the candidate-invariant tuple for a pair (base manifold, rank-two
bundle) together with the exact consistency checks that tie the two
thresholds tau and rho to the discriminant, and the closed-form conic-case
formulas for the invariants of the rank-three direct image bundle.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from . import Record, integer, refuse_float
from .exact import (_COS_SQ, RatLike, cos_sq_pi_over, integral_form, rational,
                    zmul, zpow)

KINDS = ("P", "D", "C")
# The rational fields of InvariantTuple; the last four are optional.
_RATIONAL_FIELDS = ("nu", "nu_prime", "tau", "tau_prime", "rho", "delta",
                    "c2_over_d", "deg_x", "deg_x_prime", "c1_prime", "y_dot_f")

# The dimensions n with cos^2(pi/(n+1)) rational and nonzero, read off
# exact's Niven table: 2, 3 and 5.  Only these admit the rational angles
# that kinds P and C need.
ADMISSIBLE_N = tuple(q - 1 for q, c in sorted(_COS_SQ.items()) if c)


def require_admissible(n: int) -> None:
    refuse_float(n)
    if n not in ADMISSIBLE_N:
        *rest, last = ADMISSIBLE_N
        raise ValueError(f"n must be {', '.join(map(str, rest))} or {last}")


def _two_pow_cos_pow(n: int) -> int:
    """2^n * cos^(n-1)(pi/(n+1)) = 2 * (4*cos^2(pi/(n+1)))^((n-1)/2), for
    the three dimensions where the half-plane argument condition admits
    solutions: the integer 2, 4 and 18 for n = 2, 3 and 5.  At n = 2 the
    exponent is 1/2 and 4*cos^2(pi/3) = 1, so flooring it changes nothing."""
    require_admissible(n)
    return 2 * int(4 * cos_sq_pi_over(n + 1)) ** ((n - 1) // 2)


class InvariantError(ValueError):
    """A candidate tuple violates one of the structural constraints."""

    def __init__(self, reason: str, message: str):
        super().__init__(f"{reason}: {message}")
        self.reason = reason


def check_rho_tau(n: int, tau: RatLike, rho: RatLike, delta: RatLike) -> bool:
    """True iff (rho + sqrt(delta)) * (tau + sqrt(delta))^n is a strictly
    negative real number, i.e. the two cone thresholds are compatible.

    Decided on integers alone: signs on the numerators, and both factors
    scaled into Z[sqrt(D)] by exact.integral_form (a positive scale keeps
    a negative real negative and real).  A float raises TypeError."""
    tau, rho, delta = rational(tau), rational(rho), rational(delta)
    if delta.numerator >= 0:
        raise ValueError("delta must be negative")
    if tau.numerator <= 0:
        raise ValueError("tau must be positive")
    a, b, _, d = integral_form(tau, 1, delta)
    c, e, _, _ = integral_form(rho, 1, delta)
    x, y = zmul((c, e), zpow((a, b), n, d), d)
    return y == 0 and x < 0


def solve_nu_prime(n: int, tau: RatLike, delta: RatLike,
                   mu: int) -> int | None:
    """Solve for the second-contraction threshold numerator.

    Writing (tau + sqrt(delta))^k = a_k + b_k*sqrt(delta), returns
    nu' = 2*b_n / (mu*b_{n+1}) when that is a positive integer and the
    thresholds tau, rho = tau - 2/(mu*nu') pass check_rho_tau; None
    otherwise.
    """
    tau, delta = rational(tau), rational(delta)
    if delta.numerator >= 0 or tau.numerator <= 0:
        raise ValueError("need delta < 0 and tau > 0")
    mu = integer(mu, "mu", 1)
    a, b, s, d = integral_form(tau, 1, delta)
    # s^k * (a_k + b_k*sqrt(delta)) = X_k + Y_k*sqrt(D) with b_k = q*Y_k/s^k,
    # so b_n/b_{n+1} = s*Y_n/Y_{n+1}.
    z_n = zpow((a, b), n, d)
    y_n, y_n1 = z_n[1], zmul(z_n, (a, b), d)[1]
    if y_n1 == 0:
        return None
    nu_prime, rest = divmod(2 * s * y_n, mu * y_n1)
    if rest or nu_prime <= 0:
        return None
    rho = Fraction(tau.numerator * mu * nu_prime - 2 * tau.denominator,
                   tau.denominator * mu * nu_prime)  # tau - 2/(mu*nu')
    if not check_rho_tau(n, tau, rho, delta):
        return None
    return nu_prime


def c1_prime(n: int, tau: RatLike, tau_prime: RatLike) -> Fraction:
    """First Chern class of the rank-three bundle in the conic case:
    (8/tau)*cos^2(pi/(n+1)) - 4*tau'.  With cos^2 = p/q, tau = a/b and
    tau' = c/e, that is (8pbe - 4qac)/(qae), one Fraction built from
    ints.  A float raises TypeError."""
    require_admissible(n)
    tau, tau_prime = rational(tau), rational(tau_prime)
    if tau == 0:
        raise ValueError("tau must be nonzero")
    p, q = cos_sq_pi_over(n + 1).as_integer_ratio()
    a, b = tau.as_integer_ratio()
    c, e = tau_prime.as_integer_ratio()
    return Fraction(8 * p * b * e - 4 * q * a * c, q * a * e)


def base_degree_ratio(n: int, tau: RatLike) -> Fraction:
    """Factor carrying deg(X) to deg(X') in the conic case:
    tau^(n-1) / (2^n * cos^(n-1)(pi/(n+1)))."""
    tau = Fraction(rational(tau))
    if tau <= 0:
        raise ValueError("tau must be positive")
    return tau ** (n - 1) / _two_pow_cos_pow(n)


def y_dot_f(c1p: RatLike, tau_prime: RatLike, mu: int) -> Fraction:
    """Intersection of the hypersurface class of Y in the ambient
    projective bundle with a fiber of the first projection."""
    return -(Fraction(rational(c1p)) * rational(mu) + 2 * rational(tau_prime))


def pushforward_R(nu: int, nu_prime: int, c2_push_coeff: RatLike) -> Fraction:
    """Coefficient of the ample generator in the pushforward of the conic
    degeneracy divisor to the base:
    (nu'+2)(nu*nu'-1) + 2(nu+1) - c2_push_coeff.  A float raises
    TypeError."""
    nu, nu_prime = rational(nu), rational(nu_prime)
    first = (nu_prime + 2) * (nu * nu_prime - 1) + 2 * (nu + 1)
    return Fraction(first) - Fraction(rational(c2_push_coeff))


def kprime_degree_formulas(n: int, tau: RatLike, nu_prime: int, mu: int,
                           minus_khn: RatLike) -> tuple[Fraction, Fraction]:
    """Closed forms for (-K'*H'^n, K'^2*H'^(n-1)) given -K*H^n."""
    mu, nu_prime = integer(mu, "mu", 1), integer(nu_prime, "nu'", 1)
    tau, minus_khn = Fraction(rational(tau)), Fraction(rational(minus_khn))
    scale = _two_pow_cos_pow(n)  # 2^n * cos^(n-1)(pi/(n+1))
    cos_sq = cos_sq_pi_over(n + 1)
    first = (mu * tau) ** (n - 1) / scale * minus_khn
    # Fraction(mu): at n = 2 the power of mu is negative.
    second = 2 * Fraction(mu) ** (n - 3) * tau ** (n - 2) / scale \
        * (2 * cos_sq - nu_prime * mu * tau) * minus_khn
    return first, second


class InvariantTuple(Record):
    """Full candidate row for a pair (X, E): discrete invariants of the
    base, the bundle, and the second contraction, plus a status."""

    __slots__ = ("n", "kind", "lam", "mu", "mu_prime", "nu", "nu_prime",
                 "tau", "tau_prime", "rho", "i", "i_prime", "c1", "delta",
                 "c2_over_d", "deg_x", "deg_x_prime", "c1_prime", "y_dot_f",
                 "d", "d_prime", "name_x", "name_x_prime", "label", "status",
                 "reason")

    def __init__(self, n: int, kind: str, lam: int, mu: int, mu_prime: int,
                 nu: RatLike, nu_prime: RatLike, tau: RatLike,
                 tau_prime: RatLike, rho: RatLike, i: int, i_prime: int,
                 c1: int, delta: RatLike, c2_over_d: RatLike,
                 deg_x: RatLike | None = None,
                 deg_x_prime: RatLike | None = None,
                 c1_prime: RatLike | None = None,
                 y_dot_f: RatLike | None = None, d: int | None = None,
                 d_prime: int | None = None, name_x: str | None = None,
                 name_x_prime: str | None = None, label: str | None = None,
                 status: str = "candidate", reason: str | None = None):
        self._fill(n, kind, lam, mu, mu_prime, nu, nu_prime, tau, tau_prime,
                   rho, i, i_prime, c1, delta, c2_over_d, deg_x, deg_x_prime,
                   c1_prime, y_dot_f, d, d_prime, name_x, name_x_prime, label,
                   status, reason)
        self.__post_init__()

    def __post_init__(self):
        refuse_float(self.n, self.lam, self.mu, self.mu_prime, self.i,
                     self.i_prime, self.c1, self.d, self.d_prime)
        for f in _RATIONAL_FIELDS:
            v = getattr(self, f)
            if v is not None and type(v) is not Fraction:
                object.__setattr__(self, f, Fraction(rational(v)))
        self._validate()
        if not check_rho_tau(self.n, self.tau, self.rho, self.delta):
            raise InvariantError("rhotau", "thresholds fail the argument condition")

    def _validate(self) -> None:
        if self.kind not in KINDS:
            raise InvariantError("kind", f"unknown kind {self.kind!r}")
        if (self.kind == "P") != (self.lam == 2):
            raise InvariantError("lambda_kind", "lambda must be 2 exactly for kind P")
        if self.kind != "P" and self.lam != 1:
            raise InvariantError("lambda_kind", "lambda must be 1 for kinds D and C")
        if self.mu != self.mu_prime:
            raise InvariantError("mu_mismatch", "mu and mu' must be equal")
        if self.kind in ("D", "C") and self.mu != 1:
            raise InvariantError("mu_one", "mu must be 1 for kinds D and C")
        # Every rational field is a Fraction with a positive denominator, so
        # each ratio rule compares integer cross-products, and a zero mu or
        # nu' fails its rule instead of dividing by zero.
        nu, nu_d = self.nu.numerator, self.nu.denominator
        nup, nup_d = self.nu_prime.numerator, self.nu_prime.denominator
        tau, tau_p, rho, delta = self.tau, self.tau_prime, self.rho, self.delta
        if tau.numerator * self.mu * nu_d != nu * tau.denominator:
            raise InvariantError("tau_def", "tau must equal nu/mu")
        if tau_p.numerator * self.mu_prime * nup_d != nup * tau_p.denominator:
            raise InvariantError("tau_def", "tau' must equal nu'/mu'")
        if (self.i * self.mu - self.lam) * nu_d != nu:
            raise InvariantError("index_relation", "i*mu - nu must equal lambda")
        if (self.i_prime * self.mu_prime - 2) * nup_d != nup:
            raise InvariantError("index_relation", "i'*mu' - nu' must equal 2")
        if delta.numerator >= 0:
            raise InvariantError("delta_sign", "discriminant must be negative")
        c2d, c2d_d = self.c2_over_d.numerator, self.c2_over_d.denominator
        if 4 * c2d * delta.denominator != \
                (self.c1 ** 2 * delta.denominator - delta.numerator) * c2d_d:
            raise InvariantError("c2_discriminant",
                                 "c2/d must equal (c1^2 - delta)/4")
        if self.kind != "P" and (self.c1 - self.i) % 2 == 0:
            raise InvariantError("parity", "c1 - i must be odd")
        if self.kind in ("P", "C"):
            if rho.numerator * tau.denominator != tau.numerator * rho.denominator:
                raise InvariantError("rho_value", "rho must equal tau for kinds P, C")
        # rho*mu*nu' = nu*nu' - 2, times the denominators of rho, nu and nu'.
        elif (rho.numerator * self.mu * nup * nu_d
              != (nu * nup - 2 * nu_d * nup_d) * rho.denominator):
            raise InvariantError("rho_value",
                                 "rho must equal (nu*nu'-2)/(mu*nu') for kind D")
        for v in (self.d, self.d_prime, self.deg_x, self.deg_x_prime):
            if v is not None and v.numerator <= 0:
                raise InvariantError("degree_sign", "degrees must be positive")
        if self.d is not None and c2d * self.d % c2d_d:
            raise InvariantError("c2_integrality", "c2 = (c2/d)*d must be an integer")

    @property
    def c2(self) -> Fraction | None:
        if self.d is None:
            return None
        return self.c2_over_d * self.d

    def with_status(self, status: str, reason: str | None = None,
                    **kwargs) -> "InvariantTuple":
        """Copy with a new status and any changed fields, validated in
        full like every other row."""
        fields = dict(zip(self.__slots__, self._key(self)))  # every field
        fields.update(kwargs, status=status, reason=reason)
        return type(self)(**fields)


CSV_COLUMNS = (
    "n", "kind", "tau", "i", "d", "deg_X", "tau_prime", "i_prime",
    "deg_X_prime", "c1", "Delta", "c2_over_d", "name_X", "name_X_prime",
    "c1_prime", "y_dot_f", "status", "reason",
)


def _cell(value) -> str:
    return "" if value is None else str(value)


def tuple_to_row(t: InvariantTuple) -> tuple[str, ...]:
    # Each column is its field's name lower-cased.
    return tuple(_cell(getattr(t, c.lower())) for c in CSV_COLUMNS)


def tuples_to_csv(tuples) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(tuple_to_row, tuples))
    return buf.getvalue()
