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

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from types import MappingProxyType

from . import Record, integer, refuse_float

# exact has its own; this one keeps `eval` from loading exact.
RatLike = Fraction | int
# Every element holds 2n+2 ints, so n is bounded like any other input size.
MAX_N = 1000
# Largest power computed, in bits, estimated before computing it.
MAX_POW_BITS = 1 << 20


class ContextMismatchError(ValueError):
    """Elements of different ring contexts were combined."""


def _exact(x) -> Fraction:
    """x as a Fraction, itself when it is one; a float is refused."""
    if type(x) is Fraction:
        return x
    refuse_float(x)
    return Fraction(x)


def _gen_names(names) -> tuple[str, str]:
    names = tuple(names)
    if (len(names) != 2 or names[0] == names[1]
            or not all(isinstance(g, str) and g for g in names)):
        raise ValueError("gen_names must hold exactly two distinct "
                         "non-empty labels")
    return names


class RingCtx(Record, namedtuple("RingCtx", "n gen_names rel_a rel_b "
                                            "degree_s rel_ints")):
    __slots__ = ()
    # rel_ints, not compared, is (r, pa, pb, top) with rel_a = pa/r,
    # rel_b = pb/r and top the largest of r, |pa| and |pb|.
    _compare = ("n", "gen_names", "rel_a", "rel_b", "degree_s")

    def __new__(cls, n: int, gen_names: tuple[str, str], rel_a: RatLike,
                rel_b: RatLike, degree_s: RatLike) -> "RingCtx":
        n = integer(n, "n")
        a, b, degree_s = _exact(rel_a), _exact(rel_b), _exact(degree_s)
        if not 2 <= n <= MAX_N:
            raise ValueError(f"base dimension n must be from 2 to {MAX_N}")
        if degree_s <= 0:
            raise ValueError("degree_s must be positive")
        r = lcm(a.denominator, b.denominator)
        pa = a.numerator * r // a.denominator
        pb = b.numerator * r // b.denominator
        return super().__new__(cls, n, _gen_names(gen_names), a, b, degree_s,
                               (r, pa, pb, max(r, abs(pa), abs(pb))))

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

    def element(self, coeffs: dict[tuple[int, int], Fraction]) -> "RingElem":
        return reduce(coeffs, self)

    def one(self) -> "RingElem":
        return self._unit(0)

    def scalar(self, s: RatLike) -> "RingElem":
        return self._unit(0, _exact(s))


def _lowest(ctx: RingCtx, vec: list[int], den: int) -> "RingElem":
    if den != 1:
        g = gcd(den, *vec)
        if g != 1:
            vec = [v // g for v in vec]
            den //= g
    return RingElem(ctx, vec, den)


def _check(ctx: RingCtx, e: "RingElem") -> None:
    if e.ctx is not ctx and e.ctx != ctx:
        raise ContextMismatchError("elements belong to different contexts")


def _span(e: RingElem) -> tuple[int, int]:
    """The least and greatest degree of e's nonzero slots, where slot
    i <= n holds t^i and slot n+1+i G1*t^i; (n+2, 0), an empty span,
    when e = 0."""
    n = e.ctx.n
    degrees = [i if i <= n else i - n for i, _ in e.nonzero]
    return min(degrees, default=n + 2), max(degrees, default=0)


def _slots(n: int, lo: int, hi: int) -> int:
    """How many slots hold degree lo to hi: two per degree, but one for
    degree 0 and for the top degree n+1, past which nothing is kept."""
    hi = min(hi, n + 1)
    return max(0, 2 * (hi - lo + 1) - (lo == 0) - (hi == n + 1))


def refuse_bits(what: str, bits: int) -> None:
    """ValueError when an estimate of `bits` passes MAX_POW_BITS."""
    if bits > MAX_POW_BITS:
        raise ValueError(f"{what} too large: about {bits} bits, "
                         f"above the limit of {MAX_POW_BITS}")


def scalar_bits(p: int, q: int) -> int:
    """The bits of p/q, q > 0, in lowest terms; 0 for 0 and +-1, whose
    products and powers do not grow."""
    if not p or abs(p) == q:
        return 0
    g = gcd(p, q)
    return max((p // g).bit_length(), (q // g).bit_length())


def _refuse(what: str, size: tuple[int, int, int], work: int, count: int,
            *factors: RingElem) -> None:
    """Refuse a result past MAX_POW_BITS with ValueError, before computing
    it.  The result is `count` copies of the product of `factors`, k leaf
    factors (a + N)/q in all, and `size` is (S, V, k): S the sum of the
    bits of their scalar parts a/q, V the most bits of one N/q times the
    relation.  Each slot of the result sums, for each j <= min(k, n+1),
    at most C(k, j) products of j of the N/q and k-j scalar parts, so it
    holds about S plus min(k, n+1) times the bits of k and V; `work`
    counts the passes of that size that build it.  Only the slots of
    degree lo to hi can be filled, lo and hi the sums of the least and
    greatest degrees of the factors."""
    s, v, k = size
    n = factors[0].ctx.n
    bits = s
    if v:  # k if k <= n else n+1 is min(k, n+1) without a call
        bits += (k if k <= n else n + 1) * (k.bit_length() + v) * work
    if bits * (2 * n + 2) > MAX_POW_BITS:  # all slots, then the filled ones
        lo, hi = map(sum, zip(*map(_span, factors)))
        refuse_bits(what, bits * _slots(n, count * lo, count * hi))


def _leaf_size(e: RingElem) -> tuple[int, int, int]:
    """The (S, V, k) of _refuse for a leaf, an element that neither `*`
    nor `**` built, stored on it: one factor (a + N)/q, S the bits of a/q
    and V those of |N|'s numerators times q times the largest of r, |pa|
    and |pb|."""
    p, q = e.vec[0], e.den
    nil = sum([abs(x) for k, x in e.nonzero if k]) * q * e.ctx.rel_ints[3]
    e._size = size = scalar_bits(p, q), nil.bit_length(), 1
    return size


def linear_combination(
        ctx: RingCtx,
        terms: Sequence[tuple[RatLike, RingElem | None]]) -> RingElem:
    """The sum of c*e over (c, e) pairs, c rational and e an element of
    ctx or None for the unit: one lcm of the denominators, one
    multiply-add per term into one int vector, and one reduction."""
    try:
        den = lcm(*(c.denominator * (1 if e is None else e.den)
                    for c, e in terms))
    except AttributeError:
        refuse_float(*(c for c, _ in terms))
        raise
    vec = [0] * (2 * ctx.n + 2)
    for c, e in terms:
        if e is None:
            vec[0] += c.numerator * (den // c.denominator)
            continue
        _check(ctx, e)
        s = c.numerator * (den // (c.denominator * e.den))
        for k, x in e.nonzero:
            vec[k] += s * x
    return _lowest(ctx, vec, den)


def _convolve(out: list[int], at: int, xs, ys, top: int, scale: int) -> None:
    """out[at + i + j] += scale * x_i * y_j for i + j <= top, where xs and
    ys list nonzero (index, value) pairs of two vectors in index order."""
    for i, c in xs:
        c *= scale
        for j, d in ys:
            if i + j > top:
                break
            out[at + i + j] += c * d


def reduce(raw: dict[tuple[int, int], Fraction], ctx: RingCtx) -> "RingElem":
    """Normal form of a raw polynomial {(i, j): coefficient of G1^i*G2^j}.

    Substitutes G1^i -> alpha_i*G1*G2^(i-1) + beta_i*G2^i, kills G2^(n+1)
    and all monomials of total degree above n+1.
    """
    n = ctx.n
    m = n + 1
    r, pa, pb, _ = ctx.rel_ints
    terms = []  # (slot, numerator, denominator)
    for (i, j), c in raw.items():
        c = _exact(c)
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
    never changed after construction, so `nonzero`, `coeffs` and the
    size estimate of a leaf are computed once, when first needed; `*` and
    `**` set that of the elements they build.  Use RingCtx to build
    elements.
    """

    __slots__ = ("ctx", "vec", "den", "_coeffs", "_nonzero", "_size")

    def __init__(self, ctx: RingCtx, vec: list[int], den: int):
        self.ctx = ctx
        self.vec = vec
        self.den = den
        self._coeffs = self._nonzero = self._size = None

    @property
    def nonzero(self) -> list[tuple[int, int]]:
        """The (slot, numerator) pairs of `vec` with a nonzero numerator,
        in slot order; like `vec`, never changed.  A list, not a tuple:
        the interpreter keeps freed tuples of each short length for
        reuse, so tuples of many lengths raise its peak memory."""
        if self._nonzero is None:
            self._nonzero = list(compress(enumerate(self.vec), self.vec))
        return self._nonzero

    @property
    def coeffs(self) -> MappingProxyType[tuple[int, int], Fraction]:
        """Read-only {(i, j): coefficient of G1^i*G2^j}, zeros dropped."""
        if self._coeffs is None:
            m, den = self.ctx.n + 1, self.den
            self._coeffs = MappingProxyType({
                divmod(k, m): Fraction(v, den) for k, v in self.nonzero})
        return self._coeffs

    def __add__(self, other: "RingElem") -> "RingElem":
        return linear_combination(self.ctx, ((1, self), (1, other)))

    def __mul__(self, other: "RingElem") -> "RingElem":
        """The product, refused past MAX_POW_BITS before it is computed: a
        chain of the leaf factors of both."""
        if not isinstance(other, RingElem):
            return NotImplemented
        _check(self.ctx, other)
        s, v, k = self._size or _leaf_size(self)
        s2, v2, k2 = other._size or _leaf_size(other)
        size = s + s2, v if v > v2 else v2, k + k2
        _refuse("product", size, 1, 1, self, other)
        product = self._times(other)
        product._size = size
        return product

    def _times(self, other: "RingElem") -> "RingElem":
        """The product, unchecked, of two elements of one context."""
        ctx = self.ctx
        n = ctx.n
        m = n + 1
        r, pa, pb, _ = ctx.rel_ints
        # Each factor's nonzero pairs split at slot m into its A and B
        # parts.  A B pair keeps its slot, m + i for G1*t^i, so each B
        # factor in a convolution lowers `at` and raises `top` by m.
        x, y = self.nonzero, other.nonzero
        i, j = bisect_left(x, (m,)), bisect_left(y, (m,))
        xa, xb, ya, yb = x[:i], x[i:], y[:j], y[j:]
        out = [0] * (2 * m)
        _convolve(out, 0, xa, ya, n, r)
        _convolve(out, 0, xa, yb, n + m, r)
        _convolve(out, 0, xb, ya, n + m, r)
        _convolve(out, 1 - m, xb, yb, n - 1 + 2 * m, pa)
        _convolve(out, 2 - 2 * m, xb, yb, n - 2 + 2 * m, pb)
        return _lowest(ctx, out, self.den * other.den * r)

    def scale(self, s: RatLike) -> "RingElem":
        return linear_combination(self.ctx, ((s, self),))

    def __pow__(self, k: int) -> "RingElem":
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        # A chain of k copies, refused once: its log2(k) squarings, each
        # about as long as the last, are the work, and are not checked.
        s, v, count = self._size or _leaf_size(self)
        size = k * s, v, k * count
        _refuse("power", size, k.bit_length(), k, self)
        if not k:
            return self.ctx.one()
        # Square up to the lowest set bit of k, and start the product from
        # that factor rather than from one.
        base = self
        while not k & 1:
            base, k = base._times(base), k >> 1
        result = base
        while k := k >> 1:
            base = base._times(base)
            if k & 1:
                result = result._times(base)
        result._size = size
        return result

    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_homogeneous(self, degree: int) -> bool:
        m = self.ctx.n + 1
        return all(sum(divmod(k, m)) == degree for k, _ in self.nonzero)

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


class BasisMap(Record, namedtuple("BasisMap", "entries")):
    """Exact 2x2 rational change of basis."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[RatLike, RatLike],
                                    tuple[RatLike, RatLike]]) -> "BasisMap":
        m = super().__new__(cls, tuple(tuple(_exact(x) for x in row)
                                       for row in entries))
        if m.det() == 0:
            raise ValueError("basis map must be invertible")
        return m

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
    refuse_float(nu, nu_prime)
    lam, mu = integer(lam, "lambda", 1), integer(mu, "mu", 1)
    mu_prime = integer(mu_prime, "mu'", 1)
    if lam not in (1, 2):
        raise ValueError("lambda must be 1 or 2")
    a = BasisMap(
        ((Fraction(-nu, lam), Fraction(2 * lam - nu * nu_prime, lam * mu_prime)),
         (Fraction(mu, lam), Fraction(mu * nu_prime, mu_prime * lam))))
    if lam == 1 and abs(a.det()) != 2:
        raise ValueError(f"det(A) must be +-2 for lambda=1, got {a.det()}")
    return a


def _images(m: BasisMap, ctx: RingCtx) -> tuple[RingElem, RingElem]:
    """p*G1 + q*G2 in ctx for each row (p, q) of m."""
    x, y = ctx.gen1, ctx.gen2
    return tuple(linear_combination(ctx, ((p, x), (q, y)))
                 for p, q in m.entries)


def convert_element(e: RingElem, m: BasisMap, dst: RingCtx) -> RingElem:
    """Rewrite e in the generators of dst, where the generators of e's
    context equal m applied to the generators of dst; dst must have e's
    base dimension n."""
    if dst.n != e.ctx.n:
        raise ContextMismatchError(f"cannot convert an element of dimension "
                                   f"n = {e.ctx.n} into n = {dst.n}")
    g1, g2 = _images(m, dst)
    return linear_combination(dst, [(coeff, (g1 ** i) * (g2 ** j))
                                    for (i, j), coeff in e.coeffs.items()])


def derived_context(ctx: RingCtx, m: BasisMap,
                    gen_names: tuple[str, str] | None = None) -> RingCtx:
    """Context on the generators (G1', G2') defined by
    (G1, G2)^T = m * (G1', G2')^T, with relation and degree functional
    recomputed so that all intersection numbers agree with ctx."""
    (p, q), (r, s) = m.entries
    a, b = ctx.rel_a, ctx.rel_b
    # G1 = p*G1' + q*G2' and G2 = r*G1' + s*G2' turn G1^2 - a*G1*G2 - b*G2^2
    # into A*G1'^2 + B*G1'*G2' + C*G2'^2.  Degree two has rank two, so
    # A = 0 exactly when G1'*G2' and G2'^2 are dependent.
    lead = p * p - a * p * r - b * r * r  # A
    if lead == 0:
        raise ValueError("degenerate map: cannot solve for the new relation")
    rel_a = (a * (p * s + q * r) + 2 * b * r * s - 2 * p * q) / lead  # -B/A
    rel_b = (a * q * s + b * s * s - q * q) / lead  # -C/A

    g1p, g2p = _images(m.inverse(), ctx)
    degree_s = intersection_degree(g1p * g2p ** ctx.n)
    if degree_s <= 0:
        raise ValueError("degenerate map: new degree functional not positive")
    if intersection_degree(g2p ** (ctx.n + 1)) != 0:
        raise ValueError("degenerate map: new G2^(n+1) does not vanish")
    if gen_names is None:
        gen_names = (ctx.gen_names[0] + "~", ctx.gen_names[1] + "~")
    return RingCtx(ctx.n, gen_names, rel_a, rel_b, degree_s)


class BReport(namedtuple("BReport", "integral det unimodular identity_lhs "
                                    "identity_rhs identity_ok")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.integral and self.unimodular and self.identity_ok


def basis_map_B(nu: int, nu_prime: int, mu: int, c1: int, delta: RatLike,
                d: int, b: int, d_prime: int) -> tuple[BasisMap, BReport]:
    """Matrix B between the {LH, H^2/d} and {-EH'/b, H'^2/d'} integral
    bases, with its integrality / unimodularity report.

    Violations are reported, never raised: the report carries the
    integral-entries flag, det(B), and the identity
    d*(nu^2 - delta*mu^2) = +-4*b*d'.
    """
    refuse_float(nu, nu_prime)
    mu, b, c1 = integer(mu, "mu", 1), integer(b, "b", 1), integer(c1, "c1")
    d, d_prime = integer(d, "d", 1), integer(d_prime, "d'", 1)
    delta = _exact(delta)
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

    lineno, value = fields["gen_names"]
    try:
        names = _gen_names(name.strip() for name in value.split(","))
    except ValueError as err:
        raise ValueError(f"line {lineno}: field {err}") from None
    return RingCtx(
        n=parse("n", int, "an integer"),
        gen_names=names,
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
