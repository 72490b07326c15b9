"""Small expression language for intersection-ring computations.

Supports rational literals ("2", an int, and "5/3", a Fraction),
symbols with an optional prime suffix (K, H, K', H', c1'), unary minus,
sums, products and nonnegative integer powers.  No implicit
multiplication: "2H" is a syntax error, so primed symbols never become
ambiguous.  Precedence, tightest first: ^  unary -  *  binary +/-.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import Record
from .chow import (RingCtx, RingElem, _exact, intersection_degree,
                   linear_combination, refuse_bits, scalar_bits)

MAX_DEPTH = 64
# Longest expression, in tokens.  A flat sum, product or power chain adds
# no nesting level, and evaluation walks it without recursion.
MAX_TOKENS = 50_000

# One token per match, after any whitespace: a number with its optional
# "/denominator" (group 2), a symbol, an operator or parenthesis, or one
# other character; _KINDS names the kind of each group.  \s and \d are
# the Unicode whitespace of str.isspace and the decimal digits that int
# reads.  _scan strips trailing whitespace first, so that every match
# succeeds: a failed one would back off across the run at each position.
_TOKEN = re.compile(r"\s*(?:(\d+(/\d*)?)|([A-Za-z][A-Za-z0-9']*)"
                    r"|(\+)|(-)|(\*)|(\^)|(\()|(\))|(\S))")
_KINDS = (None, "number", None, "symbol", "plus", "minus", "star", "caret",
          "lparen", "rparen", None)


class ExprError(ValueError):
    """Syntax or evaluation error carrying a 1-based column position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"column {pos}: {message}")
        self.pos = pos


# kind is number, symbol, plus, minus, star, caret, lparen, rparen or end;
# pos is the 1-based column.
Token = namedtuple("Token", "kind text pos")


# AST nodes ------------------------------------------------------------------
# A column `pos` is neither compared nor hashed.

class Lit(Record, namedtuple("Lit", "value pos", defaults=(0,))):
    __slots__ = ()
    _compare = ("value",)


class Sym(Record, namedtuple("Sym", "name pos", defaults=(0,))):
    __slots__ = ()
    _compare = ("name",)


class Neg(Record, namedtuple("Neg", "child")):
    __slots__ = ()


# A flat chain of one operator is one node.  Its constructor splices in a
# leading child of its own kind, so (a+b)+c and a+b+c, like (x^2)^3 and
# x^2^3, are one equal node, while a+(b+c) stays distinct.  A tree is then
# only as deep as its parentheses and unary minuses, which MAX_DEPTH
# bounds, and ==, hash and repr stay shallow.

class Add(Record, namedtuple("Add", "terms")):  # a - b is a + Neg(b)
    __slots__ = ()

    def __new__(cls, terms: tuple[Node, ...]) -> "Add":
        if isinstance(terms[0], Add):
            terms = terms[0].terms + terms[1:]
        return super().__new__(cls, terms)


class Mul(Record, namedtuple("Mul", "factors")):
    __slots__ = ()

    def __new__(cls, factors: tuple[Node, ...]) -> "Mul":
        if isinstance(factors[0], Mul):
            factors = factors[0].factors + factors[1:]
        return super().__new__(cls, factors)


class Pow(Record, namedtuple("Pow", "base exponents pos")):
    """base^e1^e2..., which is (base^e1)^e2...; `pos` holds the column of
    each exponent, all 0 when not given."""

    __slots__ = ()
    _compare = ("base", "exponents")

    def __new__(cls, base: Node, exponents: tuple[int, ...],
                pos: tuple[int, ...] = ()) -> "Pow":
        pos = pos or (0,) * len(exponents)
        if isinstance(base, Pow):
            exponents, pos = base.exponents + exponents, base.pos + pos
            base = base.base
        return super().__new__(cls, base, exponents, pos)


Node = Lit | Sym | Neg | Add | Mul | Pow


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, pos) triple of each token, all scanned before any
    is parsed: a scan error, then the token cap, then a syntax error."""
    tokens = []
    for m in _TOKEN.finditer(text.rstrip()):
        group = m.lastindex
        tok = m[group]
        pos = m.start(group) + 1
        kind = _KINDS[group]
        if kind is None:
            raise ExprError(f"unknown character {tok!r}", pos)
        # Any decimal zero, such as the Arabic-Indic one, reads as 0.
        if group == 1 and (denom := m[2]) and not any(map(int, denom[1:])):
            raise ExprError("zero denominator" if denom != "/" else
                            "expected digits after '/'", m.start(2) + 2)
        tokens.append((kind, tok, pos))
    if len(tokens) > MAX_TOKENS:
        raise ExprError(f"more than {MAX_TOKENS} tokens",
                        tokens[MAX_TOKENS][2])
    return tokens


def tokenize(text: str) -> list[Token]:
    return list(map(Token._make, _scan(text)))


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:
        # Past the interpreter's limit on decimal-to-int conversion.
        raise ExprError("number has more than "
                        f"{sys.get_int_max_str_digits()} digits",
                        pos) from None


class _Parser:
    """Reads (kind, text, pos) triples, from _scan or tokenize."""

    def __init__(self, tokens: list[tuple[str, str, int]]):
        # An end token after the last one, at the column that follows it,
        # so that reading the next token needs no bounds test.
        _, text, pos = tokens[-1]
        self.tokens = [*tokens, ("end", "", pos + len(text))]
        self.index = self.depth = 0

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] == "end":
            raise ExprError("unexpected end of input", tok[2])
        self.index += 1
        return tok

    def _enter(self, pos: int) -> None:
        """One nesting level per open parenthesis or unary minus."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError("expression too deeply nested", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", pos)
        return node

    def expr(self) -> Node:
        terms = [self.term()]
        tokens = self.tokens
        while (kind := tokens[self.index][0]) in ("plus", "minus"):
            self.index += 1
            rhs = self.term()
            terms.append(rhs if kind == "plus" else Neg(rhs))
        return Add(tuple(terms)) if len(terms) > 1 else terms[0]

    def term(self) -> Node:
        factors = [self.factor()]
        tokens = self.tokens
        while tokens[self.index][0] == "star":
            self.index += 1
            factors.append(self.factor())
        return Mul(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self) -> Node:
        """A unary minus and its operand, or an atom and its exponents."""
        tokens = self.tokens
        kind, text, pos = tokens[self.index]
        self.index += 1
        if kind == "symbol":
            node = Sym(text, pos)
        elif kind == "number":
            p, _, q = text.partition("/")
            node = Lit(Fraction(_int(p, pos), _int(q, pos)) if q
                       else _int(p, pos), pos)
        elif kind == "minus":
            self._enter(pos)
            node = Neg(self.factor())
            self.depth -= 1
            return node
        elif kind == "lparen":
            self._enter(pos)
            node = self.expr()
            kind, _, pos = self.next()
            if kind != "rparen":
                raise ExprError("expected ')'", pos)
            self.depth -= 1
        else:
            raise ExprError("unexpected end of input" if kind == "end"
                            else f"unexpected {text!r}", pos)
        exponents, cols = [], []
        while tokens[self.index][0] == "caret":
            self.index += 1
            kind, text, pos = self.next()
            if kind != "number" or "/" in text:
                raise ExprError("exponent must be an integer literal", pos)
            exponents.append(_int(text, pos))
            cols.append(pos)
        return Pow(node, tuple(exponents), tuple(cols)) if exponents else node


def parse(tokens: list[Token]) -> Node:
    if not tokens:
        raise ExprError("empty expression", 1)
    return _Parser(tokens).parse()


def parse_text(text: str) -> Node:
    return parse(_scan(text))


def to_text(node: Node) -> str:
    """Pretty printer; parse(to_text(parse(s))) equals parse(s)."""

    def wrap(child: Node, *kinds) -> str:
        text = to_text(child)
        return f"({text})" if isinstance(child, kinds) else text

    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        # Unary minus binds below ^ but above *; Add and Mul children
        # would reassociate without parentheses.
        return "-" + wrap(node.child, Add, Mul)
    if isinstance(node, Add):
        first, *rest = node.terms
        return to_text(first) + "".join(
            f" - {wrap(term.child, Add)}" if isinstance(term, Neg)
            else f" + {wrap(term, Add)}" for term in rest)
    if isinstance(node, Mul):
        first, *rest = node.factors
        return "*".join([wrap(first, Add),
                         *(wrap(factor, Add, Mul) for factor in rest)])
    if isinstance(node, Pow):
        # x^a^b parses as (x^a)^b, and prints with its parentheses.
        text = wrap(node.base, Neg, Add, Mul)
        return "(" * (len(node.exponents) - 1) + text + ")".join(
            f"^{k}" for k in node.exponents)
    raise TypeError(f"unknown node {node!r}")


# Evaluation -----------------------------------------------------------------

Bindings = dict[str, Fraction | RingElem]
_ONE = Fraction(1)

# element is a RingElem, degree a Fraction or None, note a str or None.
EvalResult = namedtuple("EvalResult", "element degree note", defaults=(None,))


def _column(node: Node) -> int:
    """The column of the first number or symbol of node."""
    while type(node) not in (Sym, Lit):
        node = (node.child if type(node) is Neg else node.terms[0]
                if type(node) is Add else node.factors[0]
                if type(node) is Mul else node.base)
    return node.pos


def _checked(factor: Node, check, *args):
    """check(*args), whose ValueError becomes an ExprError at the column
    of the factor of a product that crossed a size limit."""
    try:
        return check(*args)
    except ValueError as err:
        raise ExprError(str(err), _column(factor)) from None


def _eval(node: Node, ctx: RingCtx, bindings: Bindings,
          memo: dict) -> tuple[int | Fraction, RingElem | None]:
    # A value during evaluation is a pair (c, e) for c*e: a rational c, an
    # int or a Fraction, and a RingElem e, or c alone when e is None.
    # A chain is evaluated left to right in a loop, so its length costs no
    # recursion depth, and a sum is reduced once, by linear_combination.
    # `memo` lives for one evaluation.  It holds the value of each power
    # of a symbol or literal, keyed by the name or value and the tuple of
    # exponents, so the repeated L^2 of a sum is computed once.  A power
    # that raised is not in it, and neither is a power of a compound base,
    # whose key would walk its whole subtree.  It also holds each product
    # of two elements, keyed by the pair of their ids, with both factors,
    # so that neither id is reused while the memo lives: the L^2*H of a
    # sum is then multiplied once.
    kind = type(node)
    if kind is Pow:
        base = node.base
        key = ((base.name if type(base) is Sym else base.value, node.exponents)
               if type(base) in (Sym, Lit) else None)
        pair = memo.get(key)
        if pair is None:
            c, e = _eval(base, ctx, bindings, memo)
            try:
                if e is None:
                    for k, pos in zip(node.exponents, node.pos):
                        refuse_bits("power", k * scalar_bits(
                            c.numerator, c.denominator))
                        c **= k
                else:
                    # Fold c into e, so that the power sees the scalar part
                    # and (2*L)^k stays bounded by nilpotency.
                    if c != 1:
                        e, c = e.scale(c), _ONE
                    for k, pos in zip(node.exponents, node.pos):
                        e **= k
            except ValueError as err:
                raise ExprError(str(err), pos) from None
            pair = c, e
            if key is not None:
                memo[key] = pair
        return pair
    if kind is Mul:
        # Each product is refused past MAX_POW_BITS before it is computed:
        # a scalar one by the bits of its two factors, and one of elements
        # by `*`.
        c, e = _eval(node.factors[0], ctx, bindings, memo)
        for factor in node.factors[1:]:
            c2, e2 = _eval(factor, ctx, bindings, memo)
            if c2 is not _ONE:  # as an element's symbol, power or sum has
                _checked(factor, refuse_bits, "product",
                         scalar_bits(c.numerator, c.denominator)
                         + scalar_bits(c2.numerator, c2.denominator))
                c *= c2
            if e2 is None:
                continue
            if e is None:
                e = e2
                continue
            key = id(e), id(e2)
            product = memo.get(key)
            if product is None:
                product = memo[key] = \
                    e, e2, _checked(factor, RingElem.__mul__, e, e2)
            e = product[2]
        return c, e
    if kind is Sym:
        if node.name not in bindings:
            raise ExprError(f"unbound symbol {node.name!r}", node.pos)
        v = bindings[node.name]
        return (_ONE, v) if isinstance(v, RingElem) else (_exact(v), None)
    if kind is Lit:
        return node.value, None
    if kind is Neg:
        c, e = _eval(node.child, ctx, bindings, memo)
        return -c, e
    if kind is Add:
        pairs = [_eval(term, ctx, bindings, memo) for term in node.terms]
        if all(e is None for _, e in pairs):
            return sum(c for c, _ in pairs), None
        return _ONE, linear_combination(ctx, pairs)
    raise TypeError(f"unknown node {node!r}")


def evaluate(ast: Node, ctx: RingCtx, bindings: Bindings) -> EvalResult:
    """Evaluate to a normal-form ring element; when the result is
    homogeneous of top degree, also report its intersection degree."""
    c, e = _eval(ast, ctx, bindings, {})
    elem = ctx.scalar(c) if e is None else e if c == 1 else e.scale(c)
    degree = None
    note = None
    if not elem.is_zero() and elem.is_homogeneous(ctx.n + 1):
        degree = intersection_degree(elem)
    if elem.is_zero() and e is not None:
        note = "result vanishes in the truncated ring"
    return EvalResult(elem, degree, note)


def evaluate_text(text: str, ctx: RingCtx, bindings: Bindings) -> EvalResult:
    return evaluate(parse_text(text), ctx, bindings)
