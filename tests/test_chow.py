import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fanocalc.chow import (BasisMap, ContextMismatchError, RingCtx,
                           basis_map_A, basis_map_B, convert_element,
                           derived_context, dumps_context, intersection_degree,
                           linear_combination, loads_context)

F = Fraction


def lh_ctx(n, c1, c2_over_d, degree_s):
    return RingCtx(n, ("L", "H"), F(c1), -F(c2_over_d), F(degree_s))


def w36_ctx():
    return lh_ctx(5, -1, F(1, 3), 18)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def contexts(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    return RingCtx(n, ("G1", "G2"), draw(small_fracs), draw(small_fracs),
                   draw(st.fractions(min_value=F(1, 3), max_value=30,
                                     max_denominator=3)))


@st.composite
def ctx_and_elems(draw, count=1):
    ctx = draw(contexts())
    elems = []
    for _ in range(count):
        coeffs = draw(st.dictionaries(
            st.tuples(st.integers(min_value=0, max_value=2),
                      st.integers(min_value=0, max_value=ctx.n)),
            small_fracs, max_size=4))
        elems.append(ctx.element(coeffs))
    return (ctx, *elems)


def test_reduce_truncates_top_power():
    ctx = lh_ctx(3, 0, 1, 2)
    assert (ctx.gen2 ** 4).is_zero()
    assert (ctx.gen1 * ctx.gen2 ** 3 * ctx.gen2).is_zero()


def test_reduce_fifth_power_in_w36_ring():
    ctx = w36_ctx()
    s = ctx.gen1 + ctx.gen2
    assert s ** 5 == ctx.element({(1, 4): F(1, 9)})
    assert (s ** 6).is_zero()


def test_reduce_rejects_mixed_contexts():
    a, b = lh_ctx(3, 0, 1, 2), lh_ctx(3, 0, 1, 4)
    with pytest.raises(ContextMismatchError):
        a.gen1 + b.gen1


@given(st.data())
def test_linear_combination_equals_the_fold_of_scale_and_add(data):
    # Mixed denominators, zero coefficients, None for the unit, and the
    # empty input.
    ctx, *elems = data.draw(ctx_and_elems(count=data.draw(st.integers(0, 5))))
    coeffs = st.one_of(st.just(F(0)), st.fractions(
        min_value=-9, max_value=9, max_denominator=12))
    terms = [(data.draw(coeffs), data.draw(st.sampled_from((e, None))))
             for e in elems]
    want = ctx.scalar(0)
    for c, e in terms:
        want = want + (ctx.one() if e is None else e).scale(c)
    assert linear_combination(ctx, terms) == want


def test_linear_combination_rejects_mixed_contexts():
    a, b = lh_ctx(3, 0, 1, 2), lh_ctx(3, 0, 1, 4)
    for terms in ([(F(2), b.gen1)], [(F(1), a.gen1), (F(0), b.gen2)],
                  [(F(1), None), (F(1, 2), b.one())]):
        with pytest.raises(ContextMismatchError):
            linear_combination(a, terms)


def test_power_refuses_a_scalar_part_past_the_bit_limit():
    # Library callers get the bound too, before any multiplication.
    ctx = w36_ctx()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="power too large"):
        (ctx.gen1 + ctx.scalar(3)) ** 10 ** 9
    assert time.perf_counter() - start < 1.0
    # A scalar part of 0 or +-1 grows only polynomially, and is not capped.
    k = 3_000_000
    power = (ctx.one() + ctx.gen1) ** k
    assert (power.coeffs[0, 0], power.coeffs[1, 0]) == (1, k)


def test_power_bound_counts_the_slots_the_power_fills():
    # At n = 1000 a power with a scalar part fills all 2n+2 slots, so the
    # bound refuses it before the first product; a homogeneous power fills
    # one slot and is computed.
    ctx = RingCtx(1000, ("L", "H"), F(1, 3), F(-2, 7), F(5))
    start = time.perf_counter()
    for base, k in ((ctx.scalar(F(3, 2)) + ctx.gen1, 1001),
                    (ctx.one() + ctx.gen1, 5000),
                    (ctx.gen1 + ctx.gen2 ** 2, 200)):
        with pytest.raises(ValueError, match="^power too large"):
            base ** k
    assert time.perf_counter() - start < 1.0
    top = (ctx.gen1 + ctx.gen2) ** 1001
    assert list(top.coeffs) == [(1, 1000)]


def test_product_with_a_number_is_a_type_error():
    # scale is the one product with a number.
    ctx = w36_ctx()
    assert ctx.gen1.__mul__(2) is NotImplemented
    with pytest.raises(TypeError):
        ctx.gen1 * 2
    with pytest.raises(TypeError):
        F(1, 2) * ctx.gen1
    assert ctx.gen1.scale(F(1, 2)) == ctx.element({(1, 0): F(1, 2)})


def test_ring_context_refuses_float():
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        RingCtx(3, ("L", "H"), 0.5, -3, 1)


@pytest.mark.parametrize("build", [
    lambda ctx: ctx.scalar(0.5),
    lambda ctx: ctx.gen1.scale(0.5),
    lambda ctx: linear_combination(ctx, [(F(1), ctx.gen2), (0.5, ctx.gen1)]),
], ids=["scalar", "scale", "linear_combination"])
def test_element_builders_refuse_float(build):
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        build(w36_ctx())


def test_basis_map_refuses_float():
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        BasisMap(((0.5, 0), (0, 1)))


def test_equal_elements_hash_equal():
    ctx = w36_ctx()
    s = ctx.gen1 + ctx.gen2
    same = ctx.element({(1, 0): F(2), (0, 1): F(2)}).scale(F(1, 2))
    assert s == same and hash(s) == hash(same)
    # Equal contexts built apart give equal elements.
    assert hash(w36_ctx().gen1) == hash(ctx.gen1)
    assert {s, same, s ** 2, ctx.gen1 * ctx.gen1 + ctx.gen1 * ctx.gen2
            + ctx.gen2 * ctx.gen1 + ctx.gen2 * ctx.gen2} == {s, s ** 2}
    assert len({ctx.scalar(0), ctx.gen2 ** 6}) == 1


def test_intersection_degree_examples():
    ctx = lh_ctx(5, -1, F(1, 3), 18)
    minus_k = ctx.element({(1, 0): F(2), (0, 1): F(1)})
    assert intersection_degree(minus_k * ctx.gen2 ** 5) == 36
    assert intersection_degree(ctx.gen2 ** 6) == 0
    with pytest.raises(ValueError):
        intersection_degree(ctx.gen1)


def test_basis_map_A_one_four():
    a = basis_map_A(1, 4, 1, 1, 1)
    ainv = a.inverse()
    assert a.entries == ((F(-1), F(-2)), (F(1), F(4)))
    assert ainv.entries == ((F(-2), F(-1)), (F(1, 2), F(1, 2)))
    assert a @ ainv == BasisMap(((1, 0), (0, 1)))


def test_basis_map_A_determinant():
    a = basis_map_A(1, 2, 1, 1, 1)
    assert a.det() == -2
    with pytest.raises(ValueError):
        basis_map_A(1, 2, 1, 1, 3)


def kprime_map():
    # L = -(-K') - 3H', H = (-K') + 4H' in the tau = 1, tau' = 4 case.
    return BasisMap(((F(-1), F(-3)), (F(1), F(4))))


def test_derived_context_relation_and_degree():
    ctx_p = derived_context(w36_ctx(), kprime_map(), ("-K'", "H'"))
    # K'^2 = 5 K' H' - 7 H'^2 becomes (-K')^2 = -5 (-K') H' - 7 H'^2.
    assert (ctx_p.rel_a, ctx_p.rel_b) == (F(-5), F(-7))
    assert ctx_p.degree_s == 2
    g1, g2 = ctx_p.gen1, ctx_p.gen2
    assert intersection_degree((g1 * g2 ** 5).scale(-1)) == -2  # K'H'^5


def test_derived_context_identity_map():
    ctx = w36_ctx()
    same = derived_context(ctx, BasisMap(((F(1), F(0)), (F(0), F(1)))),
                           ctx.gen_names)
    assert same == ctx


def test_convert_element_roundtrip():
    ctx = w36_ctx()
    m = kprime_map()
    ctx_p = derived_context(ctx, m, ("-K'", "H'"))
    e = ctx.element({(1, 2): F(3, 2), (0, 1): F(-1), (1, 0): F(2)})
    there = convert_element(e, m, ctx_p)
    assert convert_element(there, m.inverse(), ctx) == e


def test_basis_map_B_table_rows():
    b, report = basis_map_B(2, 1, 1, 0, F(-4), 1, 1, 2)
    assert b.entries == ((F(1), F(-1)), (F(1), F(0)))
    assert report.integral and report.unimodular
    assert (report.identity_lhs, report.identity_rhs) == (8, 8)

    b, report = basis_map_B(1, 2, 1, -1, F(-1, 3), 3, 1, 1)
    assert report.integral and report.unimodular
    assert (report.identity_lhs, report.identity_rhs) == (4, 4)


def test_context_serialization_roundtrip():
    ctx = w36_ctx()
    text = dumps_context(ctx)
    assert text.endswith("\n")
    assert loads_context(text) == ctx
    assert loads_context(text.replace(",", " , ")) == ctx  # gen_names=L , H
    derived = derived_context(ctx, kprime_map(), ("-K'", "H'"))
    assert loads_context(dumps_context(derived)) == derived
    with pytest.raises(ValueError):
        loads_context("n=3\n")


@given(ctx_and_elems(count=3))
def test_ring_axioms(data):
    ctx, x, y, z = data
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
