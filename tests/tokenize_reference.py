"""Test oracle for fanocalc.expr.tokenize: the character loop the
tokenizer ran before it became one compiled pattern.

It shares no scanning code with tokenize, so tests that compare the two
check the pattern against an independent reference.  Its digits are
str.isdigit, which also accepts superscripts such as '²' that are not
decimal digits, and its zero denominator is ASCII zeros only, so "1/٠"
is a number here; the two differ there and nowhere else.
"""

import string
from collections import namedtuple

from fanocalc.expr import MAX_TOKENS, ExprError

Token = namedtuple("Token", "kind text pos")

_SYMBOL_START = set(string.ascii_letters)
_SYMBOL_CONT = set(string.ascii_letters + string.digits + "'")
_SINGLE = {"+": "plus", "-": "minus", "*": "star", "^": "caret",
           "(": "lparen", ")": "rparen"}


def tokenize(text):
    tokens = []
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
