"""Truncated two-generator intersection ring with one quadratic relation.

The ring has generators G1 (fiber-positive) and G2 (pulled back), subject
to G1^2 = rel_a*G1*G2 + rel_b*G2^2, with G2^(n+1) = 0 and everything of
total degree above n+1 truncated.  A degree functional sends G1*G2^n to
degree_s.

Every element has the normal form A(t) + G1*B(t) with t = G2 and A, B in
Q[t]/(t^(n+1)).  Write rel_a = pa/r and rel_b = pb/r, r the lcm of their
denominators.  A RingElem stores one positive int denominator and the
2n+2 int numerators of A and B, in lowest terms, so a product is a few
truncated integer convolutions and one gcd, with no rewriting:

    (A1 + G1 B1)(A2 + G1 B2)
        = (A1 A2 + rel_b t^2 B1 B2) + G1 (A1 B2 + B1 A2 + rel_a t B1 B2).

A raw polynomial reduces in one pass through G1^i = alpha_i*G1*G2^(i-1)
+ beta_i*G2^i, where alpha_(i+1) = rel_a*alpha_i + beta_i and beta_(i+1)
= rel_b*alpha_i.  Coefficients are Fractions at the API boundary.

Basis changes between the (-K, H) and (-K', H') divisor bases (matrix A)
and between the two codimension-two integral bases (matrix B) are handled
as exact 2x2 rational matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

RatLike = Union[Fraction, int]
Monomial = Tuple[int, int]  # (G1 exponent, G2 exponent)
Coeffs = Dict[Monomial, Fraction]
# Every element holds 2n+2 ints, so n is bounded like any other input size.
MAX_N = 1000
# Largest power computed, in bits, estimated before computing it.
MAX_POW_BITS = 1 << 20


class ContextMismatchError(ValueError):
    """Elements of different ring contexts were combined."""


def _exact(x) -> Fraction:
    """x as a Fraction; a float is refused."""
    if isinstance(x, float):
        raise TypeError("exact numbers only, not float")
    return Fraction(x)


@dataclass(frozen=True)
class RingCtx:
    n: int
    gen_names: Tuple[str, str]
    rel_a: Fraction
    rel_b: Fraction
    degree_s: Fraction
    # (r, pa, pb) with rel_a = pa/r and rel_b = pb/r.
    _rel: Tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("rel_a", "rel_b", "degree_s"):
            object.__setattr__(self, name, _exact(getattr(self, name)))
        object.__setattr__(self, "gen_names", tuple(self.gen_names))
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"base dimension n must be from 2 to {MAX_N}")
        if self.degree_s <= 0:
            raise ValueError("degree_s must be positive")
        a, b = self.rel_a, self.rel_b
        r = lcm(a.denominator, b.denominator)
        object.__setattr__(self, "_rel", (r, a.numerator * r // a.denominator,
                                          b.numerator * r // b.denominator))

    def _unit(self, k: int, c: Fraction = Fraction(1)) -> "RingElem":
        vec = [0] * (2 * self.n + 2)
        vec[k] = c.numerator
        return RingElem(self, vec, c.denominator)

    @property
    def gen1(self) -> "RingElem":
        return self._unit(self.n + 1)

    @property
    def gen2(self) -> "RingElem":
        return self._unit(1)

    def element(self, coeffs: Coeffs) -> "RingElem":
        return reduce(coeffs, self)

    def one(self) -> "RingElem":
        return self._unit(0)

    def scalar(self, s: RatLike) -> "RingElem":
        return self._unit(0, _exact(s))


def _lowest(ctx: RingCtx, vec: List[int], den: int) -> "RingElem":
    if den != 1:
        g = gcd(den, *vec)
        if g != 1:
            vec = [v // g for v in vec]
            den //= g
    return RingElem(ctx, vec, den)


def _check(ctx: RingCtx, e: "RingElem") -> None:
    if e.ctx is not ctx and e.ctx != ctx:
        raise ContextMismatchError("elements belong to different contexts")


def check_pow_size(p: int, q: int, k: int,
                   e: Optional["RingElem"] = None) -> None:
    """Refuse (p/q)^k, or e^k for e with scalar part p/q, past
    MAX_POW_BITS with ValueError, before computing it.  (p/q)^k is about
    k times as long as p/q; 0 and +-1 do not grow.  e^k sums C(k, j)
    (p/q)^(k-j) N^j, N = e - p/q, over j <= min(k, n+1), and each factor
    of N adds about the bits of k, of N and of the relation to each slot
    e^k fills: those of degree k*lo to k*hi, lo and hi the least and
    greatest degree in e (slot i <= n holds t^i, slot n+1+i G1*t^i)."""
    bits = 0
    if p and abs(p) != q:
        g = gcd(p, q)
        bits = k * max((p // g).bit_length(), (q // g).bit_length())
    if e is not None:
        n, (r, pa, pb) = e.ctx.n, e.ctx._rel
        nil = sum(map(abs, e.vec)) - abs(p)
        if nil:
            step = (nil * e.den * max(r, abs(pa), abs(pb))).bit_length()
            bits += min(k, n + 1) * (k.bit_length() + step)
        slots = 2 * n + 2  # counted only when all of them are too many
        if bits * slots > MAX_POW_BITS:
            degrees = [i if i <= n else i - n
                       for i, v in enumerate(e.vec) if v]
            lo = k * min(degrees, default=0)
            hi = min(k * max(degrees, default=0), n + 1)
            slots = max(0, 2 * (hi - lo + 1) - (lo == 0) - (hi == n + 1))
        bits *= slots
    if bits > MAX_POW_BITS:
        raise ValueError(f"power too large: about {bits} bits, "
                         f"above the limit of {MAX_POW_BITS}")


def linear_combination(
        ctx: RingCtx,
        terms: Sequence[Tuple[RatLike, Optional[RingElem]]]) -> RingElem:
    """The sum of c*e over (c, e) pairs, c rational and e an element of
    ctx or None for the unit: one lcm of the denominators, one
    multiply-add per term into one int vector, and one reduction."""
    try:
        den = lcm(*(c.denominator * (1 if e is None else e.den)
                    for c, e in terms))
    except AttributeError:
        for c, _ in terms:
            _exact(c)  # a float coefficient is a TypeError
        raise
    vec = [0] * (2 * ctx.n + 2)
    for c, e in terms:
        if e is None:
            vec[0] += c.numerator * (den // c.denominator)
            continue
        _check(ctx, e)
        s = c.numerator * (den // (c.denominator * e.den))
        for k, x in enumerate(e.vec):
            if x:
                vec[k] += s * x
    return _lowest(ctx, vec, den)


def _convolve(out: List[int], at: int, xs, ys, top: int, scale: int) -> None:
    """out[at + i + j] += scale * x_i * y_j for i + j <= top, where xs and
    ys list the nonzero (index, value) pairs of two vectors."""
    for i, c in xs:
        c *= scale
        for j, d in ys:
            if i + j > top:
                break
            out[at + i + j] += c * d


def reduce(raw: Coeffs, ctx: RingCtx) -> "RingElem":
    """Normal form of a raw polynomial {(i, j): coefficient of G1^i*G2^j}.

    Substitutes G1^i -> alpha_i*G1*G2^(i-1) + beta_i*G2^i, kills G2^(n+1)
    and all monomials of total degree above n+1.
    """
    n = ctx.n
    m = n + 1
    r, pa, pb = ctx._rel
    terms = []  # (slot, numerator, denominator)
    for (i, j), c in raw.items():
        c = Fraction(c)
        if not c or i + j > m or j > n:
            continue
        if i < 2:
            terms.append((i * m + j, c.numerator, c.denominator))
            continue
        # G1^i = (alpha*G1*G2^(i-1) + beta*G2^i) / r^i
        alpha, beta, scale = r, 0, r
        for _ in range(i - 1):
            alpha, beta, scale = pa * alpha + r * beta, pb * alpha, scale * r
        terms.append((m + i + j - 1, c.numerator * alpha, c.denominator * scale))
        if i + j <= n:
            terms.append((i + j, c.numerator * beta, c.denominator * scale))
    den = lcm(*(q for _, _, q in terms))
    vec = [0] * (2 * m)
    for k, p, q in terms:
        vec[k] += p * (den // q)
    return _lowest(ctx, vec, den)


class RingElem:
    """A normal form A(t) + G1*B(t) of ctx's ring.

    `vec` holds the numerators of the coefficients of t^0..t^n in A, then
    in B, over the positive denominator `den`, in lowest terms; both are
    never changed after construction.  Use RingCtx to build elements.
    """

    __slots__ = ("ctx", "vec", "den", "_coeffs")

    def __init__(self, ctx: RingCtx, vec: List[int], den: int):
        self.ctx = ctx
        self.vec = vec
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self) -> Mapping[Monomial, Fraction]:
        """Read-only {(i, j): coefficient of G1^i*G2^j}, zeros dropped."""
        if self._coeffs is None:
            m, den = self.ctx.n + 1, self.den
            self._coeffs = MappingProxyType({
                divmod(k, m): Fraction(v, den)
                for k, v in enumerate(self.vec) if v})
        return self._coeffs

    def __add__(self, other: "RingElem") -> "RingElem":
        return linear_combination(self.ctx, ((1, self), (1, other)))

    def __mul__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        ctx = self.ctx
        _check(ctx, other)
        n = ctx.n
        m = n + 1
        r, pa, pb = ctx._rel
        x, y = self.vec, other.vec
        xa = [(i, x[i]) for i in range(m) if x[i]]
        xb = [(i, x[m + i]) for i in range(m) if x[m + i]]
        ya = [(j, y[j]) for j in range(m) if y[j]]
        yb = [(j, y[m + j]) for j in range(m) if y[m + j]]
        out = [0] * (2 * m)
        _convolve(out, 0, xa, ya, n, r)
        _convolve(out, m, xa, yb, n, r)
        _convolve(out, m, xb, ya, n, r)
        _convolve(out, m + 1, xb, yb, n - 1, pa)
        _convolve(out, 2, xb, yb, n - 2, pb)
        return _lowest(ctx, out, self.den * other.den * r)

    def scale(self, s: RatLike) -> "RingElem":
        return linear_combination(self.ctx, ((s, self),))

    def __pow__(self, k: int) -> "RingElem":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        check_pow_size(self.vec[0], self.den, k, self)
        if not k:
            return self.ctx.one()
        # Square up to the lowest set bit of k, and start the product from
        # that factor rather than from one.
        base = self
        while not k & 1:
            base, k = base * base, k >> 1
        result = base
        while k := k >> 1:
            base = base * base
            if k & 1:
                result = result * base
        return result

    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_homogeneous(self, degree: int) -> bool:
        m = self.ctx.n + 1
        return all(sum(divmod(k, m)) == degree
                   for k, v in enumerate(self.vec) if v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.den == other.den and self.vec == other.vec \
            and self.ctx == other.ctx

    def __hash__(self) -> int:
        return hash((self.ctx, tuple(self.vec), self.den))

    def __repr__(self) -> str:
        g1, g2 = self.ctx.gen_names
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            mono = "*".join([g1] * i + [g2] * j) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def intersection_degree(e: RingElem) -> Fraction:
    """Degree of a top-dimensional cycle class.

    The functional sends G1*G2^n to degree_s and G2^(n+1) to zero.
    """
    if any(e.vec[:-1]):
        raise ValueError("intersection_degree needs a class of top degree")
    return Fraction(e.vec[-1], e.den) * e.ctx.degree_s


@dataclass(frozen=True)
class BasisMap:
    """Exact 2x2 rational change of basis."""

    entries: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]

    def __post_init__(self):
        rows = tuple(tuple(_exact(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if self.det() == 0:
            raise ValueError("basis map must be invertible")

    def det(self) -> Fraction:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def inverse(self) -> "BasisMap":
        (a, b), (c, d) = self.entries
        det = self.det()
        return BasisMap(((d / det, -b / det), (-c / det, a / det)))

    def __matmul__(self, other: "BasisMap") -> "BasisMap":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return BasisMap(((a * e + b * g, a * f + b * h),
                         (c * e + d * g, c * f + d * h)))


def basis_map_A(nu: int, nu_prime: int, mu: int, mu_prime: int,
                lam: int) -> BasisMap:
    """Matrix A expressing (-K, H) in the (-K', H') basis.

    Row convention: (-K, H)^T = A * (-K', H')^T.
    """
    if lam not in (1, 2):
        raise ValueError("lambda must be 1 or 2")
    if mu <= 0 or mu_prime <= 0:
        raise ValueError("mu and mu' must be positive")
    a = BasisMap(
        ((Fraction(-nu, lam), Fraction(2 * lam - nu * nu_prime, lam * mu_prime)),
         (Fraction(mu, lam), Fraction(mu * nu_prime, mu_prime * lam))))
    if lam == 1 and abs(a.det()) != 2:
        raise ValueError(f"det(A) must be +-2 for lambda=1, got {a.det()}")
    return a


def _images(m: BasisMap, ctx: RingCtx) -> Tuple[RingElem, RingElem]:
    """p*G1 + q*G2 in ctx for each row (p, q) of m."""
    x, y = ctx.gen1, ctx.gen2
    return tuple(linear_combination(ctx, ((p, x), (q, y)))
                 for p, q in m.entries)


def convert_element(e: RingElem, m: BasisMap, dst: RingCtx) -> RingElem:
    """Rewrite e in the generators of dst, where the generators of e's
    context equal m applied to the generators of dst."""
    g1, g2 = _images(m, dst)
    return linear_combination(dst, [(coeff, (g1 ** i) * (g2 ** j))
                                    for (i, j), coeff in e.coeffs.items()])


def derived_context(ctx: RingCtx, m: BasisMap,
                    gen_names: Optional[Tuple[str, str]] = None) -> RingCtx:
    """Context on the generators (G1', G2') defined by
    (G1, G2)^T = m * (G1', G2')^T, with relation and degree functional
    recomputed so that all intersection numbers agree with ctx."""
    g1p, g2p = _images(m.inverse(), ctx)
    slots = (ctx.n + 2, 2)  # G1*G2 and G2^2

    def in_deg2_basis(e: RingElem) -> Tuple[Fraction, Fraction]:
        if any(v for k, v in enumerate(e.vec) if k not in slots):
            raise ValueError("degenerate map: degree-2 class not in normal span")
        return tuple(Fraction(e.vec[k], e.den) for k in slots)

    p11, p02 = in_deg2_basis(g1p * g1p)
    q11, q02 = in_deg2_basis(g1p * g2p)
    r11, r02 = in_deg2_basis(g2p * g2p)
    det = q11 * r02 - q02 * r11
    if det == 0:
        raise ValueError("degenerate map: cannot solve for the new relation")
    rel_a = (p11 * r02 - p02 * r11) / det
    rel_b = (q11 * p02 - q02 * p11) / det

    degree_s = intersection_degree(g1p * g2p ** ctx.n)
    if degree_s <= 0:
        raise ValueError("degenerate map: new degree functional not positive")
    if intersection_degree(g2p ** (ctx.n + 1)) != 0:
        raise ValueError("degenerate map: new G2^(n+1) does not vanish")
    if gen_names is None:
        gen_names = (ctx.gen_names[0] + "~", ctx.gen_names[1] + "~")
    return RingCtx(ctx.n, gen_names, rel_a, rel_b, degree_s)


@dataclass(frozen=True)
class BReport:
    integral: bool
    det: Fraction
    unimodular: bool
    identity_lhs: Fraction
    identity_rhs: Fraction
    identity_ok: bool

    @property
    def ok(self) -> bool:
        return self.integral and self.unimodular and self.identity_ok


def basis_map_B(nu: int, nu_prime: int, mu: int, c1: int, delta: RatLike,
                d: int, b: int, d_prime: int) -> Tuple[BasisMap, BReport]:
    """Matrix B between the {LH, H^2/d} and {-EH'/b, H'^2/d'} integral
    bases, with its integrality / unimodularity report.

    Violations are reported, never raised: the report carries the
    integral-entries flag, det(B), and the identity
    d*(nu^2 - delta*mu^2) = +-4*b*d'.
    """
    if mu <= 0 or b <= 0 or d <= 0 or d_prime <= 0:
        raise ValueError("mu, b, d, d' must be positive")
    delta = Fraction(delta)
    b11 = Fraction(nu * nu_prime - 1, b)
    b12 = Fraction(d, 4 * b * mu) * (
        nu_prime * mu * mu * delta + 2 * c1 * (1 - nu * nu_prime) * mu
        + nu * (nu * nu_prime - 2)
    )
    b21 = Fraction(nu * mu, d_prime)
    b22 = Fraction(d, 4 * d_prime) * (delta * mu * mu - 2 * c1 * nu * mu + nu * nu)
    bmat = BasisMap(((b11, b12), (b21, b22)))
    det = bmat.det()
    lhs = d * (Fraction(nu * nu) - delta * mu * mu)
    rhs = Fraction(4 * b * d_prime)
    report = BReport(
        integral=all(x.denominator == 1 for x in (b11, b12, b21, b22)),
        det=det,
        unimodular=abs(det) == 1,
        identity_lhs=lhs,
        identity_rhs=rhs,
        identity_ok=lhs == rhs or lhs == -rhs,
    )
    return bmat, report


# -- context serialization ---------------------------------------------------

_CTX_FIELDS = ("n", "gen_names", "rel_a", "rel_b", "degree_s")


def dumps_context(ctx: RingCtx) -> str:
    lines = [
        f"n={ctx.n}",
        f"gen_names={ctx.gen_names[0]},{ctx.gen_names[1]}",
        f"rel_a={ctx.rel_a}",
        f"rel_b={ctx.rel_b}",
        f"degree_s={ctx.degree_s}",
    ]
    return "\n".join(lines) + "\n"


def loads_context(text: str) -> RingCtx:
    """Read the name=value lines of a context; a bad line or value raises
    ValueError naming the line and the field."""
    fields = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name=value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: field {key} is set twice "
                             f"(first on line {fields[key][0]})")
        fields[key] = (lineno, value.strip())
    missing = [f for f in _CTX_FIELDS if f not in fields]
    if missing:
        raise ValueError(f"missing context fields: {', '.join(missing)}")

    def parse(name, convert, kind):
        lineno, value = fields[name]
        try:
            return convert(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: field {name}: {value!r} is not "
                             f"{kind}") from None

    names = tuple(name.strip() for name in fields["gen_names"][1].split(","))
    if len(names) != 2 or "" in names or names[0] == names[1]:
        raise ValueError(f"line {fields['gen_names'][0]}: field gen_names "
                         "must hold exactly two distinct non-empty labels")
    return RingCtx(
        n=parse("n", int, "an integer"),
        gen_names=names,  # type: ignore[arg-type]
        rel_a=parse("rel_a", Fraction, "a rational p/q"),
        rel_b=parse("rel_b", Fraction, "a rational p/q"),
        degree_s=parse("degree_s", Fraction, "a rational p/q"),
    )


def load_context(path) -> RingCtx:
    """Read a context file; a ValueError from its text, or text that is
    not UTF-8, names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return loads_context(fh.read())
        except ValueError as err:  # UnicodeDecodeError is one
            raise ValueError(f"{path}: {err}") from None
