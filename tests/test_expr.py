import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fanocalc import chow, expr
from fanocalc.expr import (Add, ExprError, Lit, Mul, Neg, Pow, Sym,
                           evaluate, evaluate_text, parse_text, to_text,
                           tokenize)
import tokenize_reference

F = Fraction


def test_tokenize_simple_expression():
    tokens = tokenize("(-K + 2*H)^3")
    kinds = [t.kind for t in tokens]
    assert kinds == ["lparen", "minus", "symbol", "plus", "number", "star",
                     "symbol", "rparen", "caret", "number"]
    assert len(tokens) == 10
    assert [t.pos for t in tokens] == sorted(t.pos for t in tokens)


def test_tokenize_primed_symbols():
    tokens = tokenize("K'^2 - 5*K'*H' + 7*H'^2")
    symbols = [t.text for t in tokens if t.kind == "symbol"]
    assert symbols == ["K'", "K'", "H'", "H'"]


def test_tokenize_rationals():
    assert [t.text for t in tokenize("5/3 + 2")] == ["5/3", "+", "2"]
    with pytest.raises(ExprError):
        tokenize("2/0")
    with pytest.raises(ExprError, match="column"):
        tokenize("a ? b")


def test_tokenize_reads_decimal_digits_only():
    # '²' is a digit to str.isdigit, which int does not read: an unknown
    # character at its own column, not a number past the digit limit.
    for text, pos in (("L^²", 3), ("12²", 3)):
        with pytest.raises(ExprError, match="unknown character '²'") as err:
            parse_text(text)
        assert err.value.pos == pos
    # Other decimal digits are numbers, and any decimal zero is zero.
    ctx = lh_ctx()
    assert evaluate_text("٣*L", ctx, base_bindings(ctx)).element \
        == ctx.gen1.scale(3)
    with pytest.raises(ExprError, match="zero denominator") as err:
        tokenize("L + 1/0٠")
    assert err.value.pos == 7


def outcome(tokenizer, text):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenizer(text)]
    except ExprError as err:
        return str(err)


# Every class of character the tokenizer tells apart, with Unicode
# whitespace and an Arabic-Indic digit; '²' is pinned above instead.
TOKEN_ALPHABET = "09/az'Z+-*^() \t\n\xa0\u2003٣@"


@given(st.text(TOKEN_ALPHABET, max_size=30))
def test_tokenize_matches_reference_loop(text):
    assert outcome(tokenize, text) == \
        outcome(tokenize_reference.tokenize, text)


def parsed(parser, text):
    try:
        ast = parser(text)
    except ExprError as err:
        return str(err)
    return ast, repr(ast)  # the repr holds every column


@given(st.text(TOKEN_ALPHABET, max_size=30))
def test_parse_text_matches_parse_of_reference_tokens(text):
    assert parsed(parse_text, text) == \
        parsed(lambda t: expr.parse(tokenize_reference.tokenize(t)), text)


def test_tokenize_time_is_linear_in_trailing_whitespace():
    # In a child process, so that a tokenizer that retries the run of
    # trailing whitespace at each position fails the test by the timeout
    # (100,000 blanks took minutes that way) instead of hanging the suite.
    src = pathlib.Path(expr.__file__).parent.parent
    code = ("from fanocalc.expr import ExprError, parse_text, tokenize\n"
            "print(tokenize('L' + ' ' * 100_000),"
            " tokenize('\\xa0\\t' * 100_000))\n"
            "print(repr(parse_text('L' + ' ' * 100_000)))\n"
            "try:\n"
            "    parse_text('\\xa0\\t' * 100_000)\n"
            "except ExprError as err:\n"
            "    print(err)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("[Token(kind='symbol', text='L', pos=1)] []\n"
                           "Sym(name='L', pos=1)\n"
                           "column 1: empty expression\n")


def test_parse_precedence():
    ast = parse_text("-K+t*H")
    assert ast == Add((Neg(Sym("K")), Mul((Sym("t"), Sym("H")))))
    assert parse_text("(L+H)^5") == Pow(Add((Sym("L"), Sym("H"))), (5,))
    # Unary minus binds below the power.
    assert parse_text("-K^2") == Neg(Pow(Sym("K"), (2,)))
    assert parse_text("2 - 3 - 4") == \
        Add((Lit(F(2)), Neg(Lit(F(3))), Neg(Lit(F(4)))))


def test_parse_errors_carry_positions():
    cases = [
        ("L^H", "column 3: exponent must be an integer literal"),
        ("L +", "column 4: unexpected end of input"),
        ("(L + H", "column 7: unexpected end of input"),
        ("", "column 1: empty expression"),
        ("2 H", "column 3: unexpected 'H'"),  # no implicit multiplication
        # The whole text is scanned before it is parsed: a scan error
        # anywhere comes before a syntax error that precedes it.
        ("L + + ?", "column 7: unknown character '?'"),
        ("L ++ 1/0", "column 8: zero denominator"),
        ("(L))", "column 4: unexpected ')'"),
        ("2^1/2", "column 3: exponent must be an integer literal"),
        ("(L+H(", "column 5: expected ')'"),
    ]
    for text, message in cases:
        with pytest.raises(ExprError) as err:
            parse_text(text)
        assert str(err.value) == message, text


def test_parse_depth_limit():
    deep = "(" * 80 + "L" + ")" * 80
    with pytest.raises(ExprError, match="nested"):
        parse_text(deep)


@pytest.mark.parametrize("opener", ["(", "-", "-("])
def test_parse_depth_counts_parentheses_and_unary_minus(opener):
    # One level per parenthesis and per unary minus, so MAX_DEPTH of them
    # parse and one more is rejected at its own column, the innermost.
    def nested(levels):
        text = "L * H"
        for k in range(levels):
            op = opener[k % len(opener)]
            text = f"({text})" if op == "(" else f"-{text}"
        return text

    parse_text(nested(expr.MAX_DEPTH))
    too_deep = nested(expr.MAX_DEPTH + 1)
    with pytest.raises(ExprError, match="nested") as err:
        parse_text(too_deep)
    assert err.value.pos == expr.MAX_DEPTH + 1
    # Sums and products inside the parentheses add no level, and a closed
    # group gives its level back.
    parse_text("(" * expr.MAX_DEPTH + "1+L*H^2-3*H" + ")" * expr.MAX_DEPTH)
    parse_text(" + ".join(["(-L)"] * (2 * expr.MAX_DEPTH)))


def test_parse_token_cap():
    # MAX_TOKENS tokens parse; one more is refused at its own column.
    half = expr.MAX_TOKENS // 2
    parse_text("-" + "+".join(["L"] * half))
    with pytest.raises(ExprError, match="more than") as err:
        parse_text("+".join(["L"] * (half + 1)))
    assert err.value.pos == expr.MAX_TOKENS + 1


@pytest.mark.parametrize("terms", [2000, 20000])
def test_flat_chains_evaluate_and_print_without_recursion(terms):
    # A chain of one operator is one node, whatever its length.
    ctx = lh_ctx()
    x = ctx.scalar(1) + ctx.gen1
    bindings = {"x": x}
    cases = [
        ("+".join(["x"] * terms), " + ".join(["x"] * terms), x.scale(terms)),
        ("*".join(["x"] * terms), "*".join(["x"] * terms), x ** terms),
        ("x" + "^1" * terms,
         "(" * (terms - 1) + "x^1" + ")^1" * (terms - 1), x),
    ]
    for text, printed, want in cases:
        ast = parse_text(text)
        assert evaluate(ast, ctx, bindings).element == want
        assert to_text(ast) == printed
    assert evaluate_text("*".join(["2"] * terms), ctx, bindings).element \
        == ctx.scalar(2 ** terms)


@pytest.mark.parametrize("op", ["+", "*", "^"])
def test_long_chains_compare_hash_and_print_without_recursion(op):
    # A chain of 5000 is one node, so the dataclass-generated ==, hash
    # and repr walk it without a level of recursion per link.
    def chain(last):
        if op == "^":
            return parse_text("L" + "^2" * 4999 + f"^{last}")
        return parse_text(op.join(["L"] * 4999 + [last]))

    a, b = chain("2" if op == "^" else "L"), chain("2" if op == "^" else "L")
    other = chain("3" if op == "^" else "H")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != other and not a == other
    name = {"+": "Add", "*": "Mul", "^": "Pow"}[op]
    assert repr(a).count(f"{name}(") == 1
    assert {a, b, other} == {a, other}


@pytest.mark.parametrize("text, pos", [
    ("1" * 5000, 1),
    ("L + 2/" + "1" * 5000, 5),
    ("L^" + "1" * 5000, 3),
], ids=["literal", "denominator", "exponent"])
def test_parse_rejects_numbers_past_the_digit_limit(text, pos):
    with pytest.raises(ExprError, match="digits") as err:
        parse_text(text)
    assert err.value.pos == pos


def lh_ctx():
    return chow.RingCtx(5, ("L", "H"), F(-1), F(-1, 3), F(18))


def base_bindings(ctx):
    return {
        "L": ctx.gen1, "H": ctx.gen2,
        "K": ctx.gen1.scale(-2) + ctx.gen2.scale(ctx.rel_a),
        "D": ctx.rel_a ** 2 + 4 * ctx.rel_b,
    }


def test_evaluate_parity_functional():
    # The third-Chern-class functional in the derived (-K', H') ring.
    ctx_p = chow.RingCtx(5, ("-K'", "H'"), F(-5), F(-7), F(2))
    bindings = {"Kp": ctx_p.gen1.scale(-1), "Hp": ctx_p.gen2,
                "cp": F(-10)}
    text = ("1/2*Kp^4*Hp^2 - cp*1/4*Kp^3*Hp^3 + cp^2*1/8*Kp^2*Hp^4"
            " - cp^3*1/16*Kp*Hp^5")
    result = evaluate_text(text, ctx_p, bindings)
    assert result.degree == -395


def test_evaluate_refuses_a_float_binding():
    # Fraction(0.1) would bind the binary expansion of 0.1.
    ctx = lh_ctx()
    with pytest.raises(TypeError, match="^exact numbers only, not float$"):
        evaluate_text("c*L", ctx, {**base_bindings(ctx), "c": 0.1})


def test_evaluate_unbound_symbol():
    ctx = lh_ctx()
    with pytest.raises(ExprError, match="unbound symbol"):
        evaluate_text("L + X", ctx, base_bindings(ctx))


def test_evaluate_rejects_oversized_power():
    ctx = lh_ctx()
    bindings = base_bindings(ctx)
    start = time.perf_counter()
    with pytest.raises(ExprError, match="power too large") as err:
        evaluate_text("2^30000000", ctx, bindings)
    assert err.value.pos == 3
    # The scalar part of a ring element grows the same way.
    with pytest.raises(ExprError, match="power too large") as err:
        evaluate_text("(1/3 + L)^3000000", ctx, bindings)
    assert err.value.pos == 11
    with pytest.raises(ExprError, match="power too large"):
        evaluate_text("2^524289", ctx, bindings)
    assert time.perf_counter() - start < 1.0
    # Scalars 0 and +-1 grow polynomially in k and are not capped, also
    # when the element's denominator is not 1; a power just under the cap
    # is computed.
    for text in ("(1 + L)^3000000", "(-1 + 1/2*H)^3000000", "L^3000000",
                 "(-1)^3000001", "(2*L + 1/2*H + 1)^40"):
        evaluate_text(text, ctx, bindings)
    assert evaluate_text("2^524288", ctx, bindings).element \
        == ctx.scalar(2 ** 524288)


def test_evaluate_computes_each_equal_power_once(monkeypatch):
    calls = []
    pow_ = chow.RingElem.__pow__

    def counted(self, k):
        calls.append(k)
        return pow_(self, k)

    monkeypatch.setattr(chow.RingElem, "__pow__", counted)
    ctx = lh_ctx()
    bindings = base_bindings(ctx)
    result = evaluate_text("L^3*H + 2*L^3 - L^3*H", ctx, bindings)
    assert calls == [3]
    assert result.element == evaluate_text("2*L^3", ctx, bindings).element


def test_evaluate_computes_each_equal_product_once(monkeypatch):
    calls = []
    mul = chow.RingElem.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(chow.RingElem, "__mul__", counted)
    ctx = lh_ctx()
    bindings = base_bindings(ctx)
    result = evaluate_text("L^2*H + 2*L^2*H - 1/2*L^2*H*K + L^2*K"
                           " + L^2*H*K", ctx, bindings)
    # L^2*H, L^2*H*K and L^2*K once each; the power L^2 squares without
    # going through `*`.
    L, H, K = ctx.gen1, ctx.gen2, bindings["K"]
    assert calls == [H, K, K]
    monkeypatch.undo()
    want = (L ** 2 * H).scale(3) + (L ** 2 * H * K).scale(F(1, 2)) \
        + L ** 2 * K
    assert result.element == want


def test_power_memo_lives_for_one_evaluation():
    # One tree in two contexts: each gets its own value of L^2 and of each
    # product.
    ast = parse_text("L^2 + L^2*H + 3*L^2*H - L*H*L")
    other = chow.RingCtx(5, ("L", "H"), F(2), F(-1), F(7))
    values = [evaluate(ast, c, base_bindings(c)).element
              for c in (lh_ctx(), other, lh_ctx())]
    for c, value in zip((lh_ctx(), other), values):
        want = c.gen1 ** 2 + (c.gen1 ** 2 * c.gen2).scale(3)
        assert value == want and value.ctx == c
    assert values[0] == values[2] != values[1]


def test_power_errors_keep_their_column():
    ctx = lh_ctx()
    bindings = base_bindings(ctx)
    for text, pos in (("2^3 + 7^9999999", 9), ("2^3 + 7^9999999 + 2^3", 9),
                      ("7^9999999 + 7^9999999", 3),
                      # Terms are evaluated left to right: the power fails
                      # before the unbound symbol is read.
                      ("7^9999999 + Q", 3)):
        with pytest.raises(ExprError, match="power too large") as err:
            evaluate_text(text, ctx, bindings)
        assert err.value.pos == pos


def test_product_errors_keep_their_column():
    # A product is refused before it is computed, at the column of the
    # first number or symbol of the factor that crossed the limit.
    ctx = lh_ctx()
    bindings = base_bindings(ctx)
    nines = "9" * 4000  # 13288 bits; 78 of them stay below the limit
    start = time.perf_counter()
    for text, pos in (("*".join(["10^100000"] * 4), 31),
                      ("L*" + "*".join(["10^100000"] * 4), 33),
                      ("*".join([nines] * 100), 78 * 4001 + 1)):
        with pytest.raises(ExprError, match="^column [0-9]+: product too "
                           "large: about [0-9]+ bits") as err:
            evaluate_text(text, ctx, bindings)
        assert err.value.pos == pos
    assert evaluate_text("*".join([nines] * 78), ctx, bindings).element \
        == ctx.scalar(int(nines) ** 78)
    # At n = 1000, the factor whose product `*` refuses.
    big = chow.RingCtx(1000, ("L", "H"), F(1, 3), F(-2, 7), F(5))
    texts = [f"({k}+1/{k + 2}*L+H)" for k in range(1, 400)]
    e = evaluate_text(texts[0], big, base_bindings(big)).element
    with pytest.raises(ValueError, match="^product too large"):
        for k, text in enumerate(texts[1:], 1):
            e = e * evaluate_text(text, big, base_bindings(big)).element
    with pytest.raises(ExprError, match="product too large") as err:
        evaluate_text("*".join(texts), big, base_bindings(big))
    assert err.value.pos == len("*".join(texts[:k])) + 3
    assert time.perf_counter() - start < 5.0


def test_integer_literals_parse_to_ints():
    # A literal without "/" is an int and one with it a Fraction; both
    # compare, hash and print alike, and evaluation keeps its types.
    assert [type(parse_text(t).value) for t in ("2", "4/2", "2/3")] == \
        [int, Fraction, Fraction]
    assert Lit(2) == Lit(F(2)) == parse_text("4/2") and \
        hash(Lit(2)) == hash(Lit(F(2)))
    assert to_text(Lit(2)) == to_text(Lit(F(2))) == "2"
    ctx = lh_ctx()
    for text, degree in (("2*3", None), ("-3 + 1", None), ("2^3*L", None),
                         ("3*L*H^5*2", F(108)), ("1/2*L*H^5*4/2", F(18))):
        result = evaluate_text(text, ctx, base_bindings(ctx))
        assert type(result.element) is chow.RingElem
        assert result.degree == degree and type(result.degree) is \
            (Fraction if degree is not None else type(None))


def test_evaluate_truncation_note():
    # A zero with a ring part gets the note; a zero scalar does not.
    ctx = lh_ctx()
    for text, noted in (("H^7", True), ("0*L", True), ("L - L", True),
                        ("0", False), ("2*3", False), ("1 - 1", False)):
        result = evaluate_text(text, ctx, base_bindings(ctx))
        assert (result.note is not None) == noted, text
        assert result.element.is_zero() == (text != "2*3")


def test_roundtrip_corpus():
    # The printer's canonical form, which parses back to the same tree.
    corpus = [
        ("-K + 2*H", "-K + 2*H"), ("(L+H)^5", "(L + H)^5"),
        ("K'^2 - 5*K'*H' + 7*H'^2", "K'^2 - 5*K'*H' + 7*H'^2"),
        ("1/2*L", "1/2*L"), ("-(L*H)", "-(L*H)"), ("((L))", "L"),
        ("3 - 4 - 5", "3 - 4 - 5"), ("L*(H + L)^2", "L*(H + L)^2"),
        ("-(-L)", "--L"), ("0", "0"), ("(L+H)+2", "L + H + 2"),
        ("L+(H+2)", "L + (H + 2)"), ("L^2^3", "(L^2)^3"),
        ("L - (H - 2)", "L - (H - 2)"),
    ]
    for text, printed in corpus:
        ast = parse_text(text)
        assert to_text(ast) == printed, text
        assert parse_text(printed) == ast, text


@st.composite
def chains(draw, depth=3):
    """Trees with n-ary sums and products and stacked exponents, which
    the binary trees of verify.check_parser_roundtrip do not draw."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Lit(draw(st.fractions(min_value=0, max_value=9,
                                         max_denominator=5)))
        return Sym(draw(st.sampled_from(["L", "H", "K'", "x1", "t"])))
    kind = draw(st.sampled_from(["neg", "add", "mul", "pow"]))
    if kind == "neg":
        return Neg(draw(chains(depth=depth - 1)))
    if kind == "pow":
        return Pow(draw(chains(depth=depth - 1)), tuple(draw(
            st.lists(st.integers(0, 5), min_size=1, max_size=3))))
    return (Add if kind == "add" else Mul)(tuple(draw(
        st.lists(chains(depth=depth - 1), min_size=2, max_size=4))))


@given(chains())
def test_print_parse_roundtrip(ast):
    printed = to_text(ast)
    copy = parse_text(printed)
    assert copy == ast and hash(copy) == hash(ast)
    assert to_text(copy) == printed


def test_chains_splice_a_leading_child_of_their_own_kind():
    L, H, two = Sym("L"), Sym("H"), Lit(F(2))
    assert parse_text("(L+H)+2") == parse_text("L+H+2") \
        == Add((Add((L, H)), two)) == Add((L, H, two))
    assert parse_text("L+(H+2)") == Add((L, Add((H, two))))
    assert parse_text("L+(H+2)") != parse_text("L+H+2")
    assert parse_text("(L*H)*2") == Mul((L, H, two))
    assert parse_text("(L^2)^3") == parse_text("L^2^3") \
        == Pow(Pow(L, (2,)), (3,)) == Pow(L, (2, 3))
    # Each exponent keeps its column, so an error names the right one.
    assert parse_text("(L^2)^3").pos == (4, 7)
    with pytest.raises(ExprError, match="power too large") as err:
        evaluate_text("(3^2)^999999", lh_ctx(), {})
    assert err.value.pos == 7


@pytest.mark.parametrize("level, depth, step", [
    pytest.param("(x^2*H+1)", 1, lambda y, ctx: y ** 2 * ctx.gen2
                 + ctx.scalar(1), id="parenthesized-sum"),
    pytest.param("-(x)", 2, lambda y, ctx: y.scale(-1), id="minus-parenthesis"),
])
def test_deepest_trees_compare_hash_print_and_evaluate(level, depth, step):
    # As deep as MAX_DEPTH admits: 64 parentheses, each around a sum of a
    # product of a power, or 32 of -( with two levels each.
    ctx = lh_ctx()
    text, want = "x", ctx.gen1
    for _ in range(expr.MAX_DEPTH // depth):
        text, want = level.replace("x", text, 1), step(want, ctx)
    a, b = parse_text(text), parse_text(text)
    with pytest.raises(ExprError, match="nested"):
        parse_text(level.replace("x", text, 1))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert parse_text(to_text(a)) == a
    bindings = dict(base_bindings(ctx), x=ctx.gen1)
    assert evaluate(a, ctx, bindings).element == want
