"""Small expression parser producing localized elements.

Grammar (usual precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' signed-int)?
    atom   := name | rational | '(' expr ')' | '-' factor

Negative powers go through the denominator-set registration, so writing
E_1^-1 is allowed whenever E_1 may be inverted in the universe.  Dividing
by an expression equal to zero is a ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .symfield import LocElem


class ParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^()]))"
)


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        elif m.lastgroup == "num":
            tokens.append(("num", int(m.group("num"))))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens, dset):
        self.tokens = tokens
        self.pos = 0
        self.dset = dset

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    @staticmethod
    def inverse(x):
        if x.is_zero():
            raise ParseError("division by zero")
        return x.inverse()

    def expr(self):
        out = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take("op")[1]
            rhs = self.factor()
            out = out * rhs if op == "*" else out * self.inverse(rhs)
        return out

    def factor(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            sign = 1
            if self.peek() == ("op", "-"):
                self.take("op")
                sign = -1
            power = self.take("num")[1]
            if sign < 0:
                return self.inverse(base) ** power
            return base**power
        return base

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if tok == ("op", "("):
            self.take("op")
            out = self.expr()
            self.take("op", ")")
            return out
        if tok == ("op", "-"):
            self.take("op")
            return -self.factor()
        if tok[0] == "num":
            self.take("num")
            return LocElem.const(self.dset, Fraction(tok[1]))
        if tok[0] == "name":
            self.take("name")
            if tok[1] not in self.dset.vars:
                raise ParseError(f"unknown variable {tok[1]!r}")
            return LocElem.variable(self.dset, tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}")


def parse_expression(text, dset):
    """Parse text into a LocElem over the given denominator set.

    `/` and negative powers invert their operand with LocElem.inverse,
    which registers its numerator into `dset` as a new generator unless
    it is one already; a nonzero constant divisor registers nothing.  A
    construction's `dset` is shared by everything built on it: parsing
    "1/(E_01 + H1)" into the adjoint A2 set adds a second generator, and
    a later sample_regular_point on that set then also avoids the zeros
    of E_01 + H1, so it can draw another point.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    p = _Parser(tokens, dset)
    try:
        out = p.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if p.peek() is not None:
        raise ParseError(f"trailing input from {p.peek()[1]!r}")
    return out
