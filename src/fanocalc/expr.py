"""Small expression language for intersection-ring computations.

Supports rational literals ("2", "5/3"), symbols with an optional prime
suffix (K, H, K', H', c1'), unary minus, sums, products and nonnegative
integer powers.  No implicit multiplication: "2H" is a syntax error, so
primed symbols never become ambiguous.  Precedence, tightest first:
^  unary -  *  binary +/-.
"""

from __future__ import annotations

import string
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .chow import RingCtx, RingElem, intersection_degree

MAX_DEPTH = 64
# Longest expression, in tokens.  A flat sum, product or power chain adds
# no nesting level, and evaluation walks it without recursion.
MAX_TOKENS = 50_000
# Largest power evaluated, in bits, estimated before computing it.
MAX_POW_BITS = 1 << 20

_SYMBOL_START = set(string.ascii_letters)
_SYMBOL_CONT = set(string.ascii_letters + string.digits + "'")
_SINGLE = {"+": "plus", "-": "minus", "*": "star", "^": "caret",
           "(": "lparen", ")": "rparen"}


class ExprError(ValueError):
    """Syntax or evaluation error carrying a 1-based column position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"column {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # number, symbol, plus, minus, star, caret, lparen, rparen
    text: str
    pos: int  # 1-based column


# AST nodes ------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sym:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    child: "Node"


class _Hashed:
    """Stands for a node of known hash h inside a tuple: the hash of
    (node, x) reads only hash(node)."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def __hash__(self) -> int:
        return self.h


class _Link:
    """Add, Mul and Pow compare, hash and print a left-deep chain in a
    loop, as _eval walks it, with the results of the dataclass-generated
    methods, which recurse once per link.  `_down` names the child that
    continues the chain, `_same` the other fields that == and hash read,
    and `_shown` the fields after `_down` that repr prints."""

    _down = "left"
    _same = _shown = ("right",)

    def _key(self):
        first, links = _chain(self, self.__class__, self._down)
        return first, [tuple(getattr(link, f) for f in self._same)
                       for link in links]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        first, rests = self._key()
        h = hash(first)
        for rest in rests:
            h = hash((_Hashed(h), *rest))
        return h

    def __repr__(self):
        first, links = _chain(self, self.__class__, self._down)
        return (f"{self.__class__.__qualname__}({self._down}=" * len(links)
                + repr(first) + "".join(
                    "".join(f", {f}={getattr(link, f)!r}"
                            for f in self._shown) + ")"
                    for link in links))


@dataclass(frozen=True, eq=False, repr=False)
class Add(_Link):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Mul(_Link):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Link):
    base: "Node"
    exponent: int
    pos: int = field(default=0, compare=False)  # column of the exponent

    _down = "base"
    _same = ("exponent",)
    _shown = ("exponent", "pos")


Node = Union[Lit, Sym, Neg, Add, Mul, Pow]


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        pos = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, pos))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            num = text[i:j]
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ExprError("expected digits after '/'", j + 2)
                denom = text[j + 1:k]
                if not denom.strip("0"):
                    raise ExprError("zero denominator", j + 2)
                tokens.append(Token("number", f"{num}/{denom}", pos))
                i = k
            else:
                tokens.append(Token("number", num, pos))
                i = j
            continue
        if ch in _SYMBOL_START:
            j = i + 1
            while j < len(text) and text[j] in _SYMBOL_CONT:
                j += 1
            tokens.append(Token("symbol", text[i:j], pos))
            i = j
            continue
        raise ExprError(f"unknown character {ch!r}", pos)
    if len(tokens) > MAX_TOKENS:
        raise ExprError(f"more than {MAX_TOKENS} tokens",
                        tokens[MAX_TOKENS].pos)
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            pos = last.pos + len(last.text) if last else 1
            raise ExprError("unexpected end of input", pos)
        self.index += 1
        return tok

    def _enter(self, tok: Token) -> None:
        """One nesting level per open parenthesis or unary minus."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError("expression too deeply nested", tok.pos)

    def _number(self, tok: Token, convert):
        try:
            return convert(tok.text)
        except ValueError:
            # Past the interpreter's limit on decimal-to-int conversion.
            raise ExprError("number has more than "
                            f"{sys.get_int_max_str_digits()} digits",
                            tok.pos) from None

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.peek()) and tok.kind in ("plus", "minus"):
            self.next()
            rhs = self.term()
            node = Add(node, rhs if tok.kind == "plus" else Neg(rhs))
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self.peek()) and tok.kind == "star":
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if not (tok and tok.kind == "minus"):
            return self.power()
        self._enter(self.next())
        node = Neg(self.factor())
        self.depth -= 1
        return node

    def power(self) -> Node:
        node = self.atom()
        while (tok := self.peek()) and tok.kind == "caret":
            self.next()
            etok = self.next()
            if etok.kind != "number" or "/" in etok.text:
                raise ExprError("exponent must be an integer literal", etok.pos)
            node = Pow(node, self._number(etok, int), etok.pos)
        return node

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "number":
            return Lit(self._number(tok, Fraction), tok.pos)
        if tok.kind == "symbol":
            return Sym(tok.text, tok.pos)
        if tok.kind == "lparen":
            self._enter(tok)
            node = self.expr()
            closing = self.next()
            if closing.kind != "rparen":
                raise ExprError("expected ')'", closing.pos)
            self.depth -= 1
            return node
        raise ExprError(f"unexpected {tok.text!r}", tok.pos)


def parse(tokens: List[Token]) -> Node:
    if not tokens:
        raise ExprError("empty expression", 1)
    return _Parser(tokens).parse()


def parse_text(text: str) -> Node:
    return parse(tokenize(text))


def _chain(node: Node, kind: type, attr: str) -> Tuple[Node, List[Node]]:
    """Split the left-deep chain of `kind` nodes at `node`: the operand at
    its bottom, and the chain's nodes from the innermost out.  `attr`
    names the child that continues the chain (left, or base for Pow)."""
    links = []
    while isinstance(node, kind):
        links.append(node)
        node = getattr(node, attr)
    links.reverse()
    return node, links


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
        first, links = _chain(node, Add, "left")
        parts = [to_text(first)]
        for link in links:
            if isinstance(link.right, Neg):
                parts.append(f" - {wrap(link.right.child, Add)}")
            else:
                parts.append(f" + {wrap(link.right, Add)}")
        return "".join(parts)
    if isinstance(node, Mul):
        first, links = _chain(node, Mul, "left")
        return "*".join([wrap(first, Add),
                         *(wrap(link.right, Add, Mul) for link in links)])
    if isinstance(node, Pow):
        # x^a^b parses as (x^a)^b, and prints with its parentheses.
        base, links = _chain(node, Pow, "base")
        text = to_text(base)
        if not isinstance(base, (Sym, Lit)):
            text = f"({text})"
        return "(" * (len(links) - 1) + text + ")".join(
            f"^{link.exponent}" for link in links)
    raise TypeError(f"unknown node {node!r}")


# Evaluation -----------------------------------------------------------------

Value = Union[Fraction, RingElem]
Bindings = Dict[str, Value]


@dataclass(frozen=True)
class EvalResult:
    element: RingElem
    degree: Optional[Fraction]
    note: Optional[str] = None


def _lift(v: Value, ctx: RingCtx) -> RingElem:
    if isinstance(v, RingElem):
        return v
    return ctx.scalar(Fraction(v))


def _pow(base: Value, node: Pow) -> Value:
    k = node.exponent
    # The scalar s = p/q, or the scalar part of a ring element (the
    # rest is nilpotent), makes s^k about k times as long as s.  For
    # s in {0, 1, -1} the size grows only polynomially in k.
    if isinstance(base, RingElem):
        p, q = base.vec[0], base.den
    else:
        p, q = base.numerator, base.denominator
    if p and abs(p) != q:
        g = gcd(p, q)
        bits = k * max((p // g).bit_length(), (q // g).bit_length())
        if bits > MAX_POW_BITS:
            raise ExprError(f"power too large: about {bits} bits, "
                            f"above the limit of {MAX_POW_BITS}",
                            node.pos)
    return base ** k


def _eval(node: Node, ctx: RingCtx, bindings: Bindings) -> Value:
    # A chain of one binary operator is folded in a loop from its
    # innermost node out, so its length costs no recursion depth.
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Sym):
        if node.name not in bindings:
            raise ExprError(f"unbound symbol {node.name!r}", node.pos)
        v = bindings[node.name]
        return v if isinstance(v, RingElem) else Fraction(v)
    if isinstance(node, Neg):
        v = _eval(node.child, ctx, bindings)
        return -v
    if isinstance(node, Add):
        first, links = _chain(node, Add, "left")
        a = _eval(first, ctx, bindings)
        for link in links:
            b = _eval(link.right, ctx, bindings)
            if isinstance(a, RingElem) or isinstance(b, RingElem):
                a = _lift(a, ctx) + _lift(b, ctx)
            else:
                a = a + b
        return a
    if isinstance(node, Mul):
        first, links = _chain(node, Mul, "left")
        a = _eval(first, ctx, bindings)
        for link in links:
            b = _eval(link.right, ctx, bindings)
            if isinstance(a, RingElem):
                a = a * b if isinstance(b, RingElem) else a.scale(b)
            elif isinstance(b, RingElem):
                a = b.scale(a)
            else:
                a = a * b
        return a
    if isinstance(node, Pow):
        base, links = _chain(node, Pow, "base")
        value = _eval(base, ctx, bindings)
        for link in links:
            value = _pow(value, link)
        return value
    raise TypeError(f"unknown node {node!r}")


def evaluate(ast: Node, ctx: RingCtx, bindings: Bindings) -> EvalResult:
    """Evaluate to a normal-form ring element; when the result is
    homogeneous of top degree, also report its intersection degree."""
    value = _eval(ast, ctx, bindings)
    elem = _lift(value, ctx)
    degree = None
    note = None
    top = ctx.n + 1
    if not elem.is_zero() and elem.is_homogeneous(top):
        degree = intersection_degree(elem)
    if elem.is_zero() and isinstance(value, RingElem):
        note = "result vanishes in the truncated ring"
    return EvalResult(elem, degree, note)


def evaluate_text(text: str, ctx: RingCtx, bindings: Bindings) -> EvalResult:
    return evaluate(parse_text(text), ctx, bindings)
