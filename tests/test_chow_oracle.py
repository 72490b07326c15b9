"""Differential checks of chow's dense integer ring.

Two independent references: the dict-of-Fraction worklist that chow
used before (kept here, as it was, to compare against) and sympy, which
reduces modulo G1^2 - rel_a*G1*G2 - rel_b*G2^2 and G2^(n+1) on its own.
Relations with non-integer coefficients, G1 exponents up to n+2 and
terms above the top degree all occur in the drawn inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fanocalc.chow import (RingCtx, intersection_degree, linear_combination,
                           reduce)
from fanocalc.expr import evaluate_text

F = Fraction


def ref_reduce(raw, ctx):
    """The worklist reduction: rewrite G1^2 until every G1-degree is at
    most one, dropping G2^(n+1) and everything above degree n+1."""
    top = ctx.n + 1
    out = {}
    work = [((i, j), F(c)) for (i, j), c in raw.items() if c]
    while work:
        (i, j), c = work.pop()
        if i + j > top or j > ctx.n:
            continue
        if i >= 2:
            work.append(((i - 1, j + 1), c * ctx.rel_a))
            work.append(((i - 2, j + 2), c * ctx.rel_b))
            continue
        out[(i, j)] = out.get((i, j), F(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(x, y, ctx):
    prod = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            m = (i1 + i2, j1 + j2)
            prod[m] = prod.get(m, F(0)) + c1 * c2
    return ref_reduce(prod, ctx)


def ref_pow(x, k, ctx):
    out = {(0, 0): F(1)}
    for _ in range(k):
        out = ref_mul(out, x, ctx)
    return out


non_integers = st.builds(F, st.integers(-12, 12), st.integers(2, 6)).filter(
    lambda f: f.denominator > 1)
coeff_values = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def contexts(draw, max_n=9):
    return RingCtx(draw(st.integers(2, max_n)), ("G1", "G2"),
                   draw(non_integers), draw(non_integers),
                   draw(st.builds(F, st.integers(1, 40), st.integers(1, 3))))


def raw_polys(ctx, max_size=5):
    """Formal polynomials with G1 exponents up to n+2, reaching above
    the top degree n+1."""
    top = ctx.n + 2
    return st.dictionaries(st.tuples(st.integers(0, top), st.integers(0, top)),
                           coeff_values, max_size=max_size)


@given(st.data())
def test_reduce_matches_worklist(data):
    ctx = data.draw(contexts())
    raw = data.draw(raw_polys(ctx))
    elem = reduce(raw, ctx)
    assert dict(elem.coeffs) == ref_reduce(raw, ctx)


@given(st.data())
def test_linear_combination_matches_worklist(data):
    # The reduction is linear: the sum of c times each reduced polynomial
    # is the reduction of the summed coefficients.  None is the unit.
    ctx = data.draw(contexts())
    terms, total = [], {}
    for _ in range(data.draw(st.integers(0, 5))):
        c = data.draw(coeff_values)
        raw = data.draw(st.one_of(st.none(), raw_polys(ctx)))
        terms.append((c, None if raw is None else reduce(raw, ctx)))
        for m, x in ({(0, 0): 1} if raw is None else raw).items():
            total[m] = total.get(m, F(0)) + c * x
    assert dict(linear_combination(ctx, terms).coeffs) \
        == ref_reduce(total, ctx)


@given(st.data())
def test_product_and_power_match_worklist(data):
    ctx = data.draw(contexts())
    x = ctx.element(data.draw(raw_polys(ctx)))
    y = ctx.element(data.draw(raw_polys(ctx)))
    assert dict((x * y).coeffs) == ref_mul(x.coeffs, y.coeffs, ctx)
    k = data.draw(st.integers(0, 2 * ctx.n + 4))
    assert dict((x ** k).coeffs) == ref_pow(x.coeffs, k, ctx)


@given(st.data())
def test_intersection_degree_matches_worklist(data):
    ctx = data.draw(contexts())
    forms = [ctx.element({(1, 0): data.draw(coeff_values),
                          (0, 1): data.draw(coeff_values)})
             for _ in range(ctx.n + 1)]
    top = ctx.one()
    ref = {(0, 0): F(1)}
    for form in forms:
        top = top * form
        ref = ref_mul(ref, form.coeffs, ctx)
    assert set(ref) <= {(1, ctx.n)}
    assert intersection_degree(top) == ref.get((1, ctx.n), F(0)) * ctx.degree_s


class SympyRing:
    def __init__(self, sp, ctx):
        self.sp, self.ctx = sp, ctx
        self.g1, self.g2 = sp.symbols("g1 g2")
        self.relation = (self.g1 ** 2 - self.q(ctx.rel_a) * self.g1 * self.g2
                         - self.q(ctx.rel_b) * self.g2 ** 2)

    def q(self, f):
        f = F(f)
        return self.sp.Rational(f.numerator, f.denominator)

    def poly(self, coeffs):
        return sum((self.q(c) * self.g1 ** i * self.g2 ** j
                    for (i, j), c in coeffs.items()), self.sp.Integer(0))

    def normal_form(self, poly):
        sp, n = self.sp, self.ctx.n
        rem = sp.rem(sp.expand(poly), self.relation, self.g1)
        out = {}
        for (i, j), c in sp.Poly(sp.expand(rem), self.g1, self.g2).terms():
            if i + j <= n + 1 and j <= n and c != 0:
                out[(i, j)] = F(int(c.p), int(c.q))
        return out


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_ring_matches_sympy(data):
    sp = pytest.importorskip("sympy")
    ctx = data.draw(contexts())
    ring = SympyRing(sp, ctx)
    raw_x = data.draw(raw_polys(ctx, max_size=4))
    raw_y = data.draw(raw_polys(ctx, max_size=4))
    x, y = reduce(raw_x, ctx), reduce(raw_y, ctx)
    assert dict(x.coeffs) == ring.normal_form(ring.poly(raw_x))
    assert dict((x * y).coeffs) == ring.normal_form(
        ring.poly(raw_x) * ring.poly(raw_y))
    k = data.draw(st.integers(0, 4))
    assert dict((x ** k).coeffs) == ring.normal_form(ring.poly(x.coeffs) ** k)
    form = {(1, 0): data.draw(coeff_values), (0, 1): data.draw(coeff_values)}
    top = ctx.element(form) ** (ctx.n + 1)
    want = ring.normal_form(ring.poly(form) ** (ctx.n + 1))
    assert intersection_degree(top) == want.get((1, ctx.n), F(0)) * ctx.degree_s


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sums_of_monomial_products_match_sympy(data):
    # A few monomials, each written one way as a product of powers of the
    # generators, recur across the terms of a sum, as in the flat sums of
    # the ring-eval benchmark: one evaluation multiplies each product once.
    sp = pytest.importorskip("sympy")
    ctx = data.draw(contexts(max_n=5))
    ring = SympyRing(sp, ctx)
    monomials = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
        max_size=3))

    def powers(name, k):  # G^k, or G*G^(k-1)
        if k > 1 and data.draw(st.booleans()):
            return [name, f"{name}^{k - 1}"]
        return [f"{name}^{k}"] if k else []

    texts = {m: "*".join(data.draw(st.permutations(
        powers("G1", m[0]) + powers("G2", m[1])))) for m in monomials}
    terms = data.draw(st.lists(st.tuples(coeff_values,
                                         st.sampled_from(monomials)),
                               min_size=1, max_size=8))
    text = " + ".join(
        ("-" if c < 0 else "") + f"{abs(c.numerator)}/{c.denominator}"
        + (f"*{texts[m]}" if texts[m] else "") for c, m in terms)
    poly = sum((ring.q(c) * ring.g1 ** i * ring.g2 ** j
                for c, (i, j) in terms), sp.Integer(0))
    result = evaluate_text(text, ctx, {"G1": ctx.gen1, "G2": ctx.gen2})
    assert dict(result.element.coeffs) == ring.normal_form(poly)
