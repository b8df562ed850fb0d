"""Text form of polynomials: strict grammar in, canonical text out.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := ["+" | "-"] term { ("+" | "-") term }
    term   := factor { "*" factor }
    factor := atom { "^" INT }
    atom   := IDENT | NUMBER | "(" expr ")"
    NUMBER := INT [ "/" INT ]
    INT    := decimal digits of any script (``str.isdecimal``), as ``int`` reads them

A single sign is allowed only at the start of an expression (so also right
after an opening parenthesis); ``x^-2`` and ``3*-7`` are syntax errors, as
is ``2x``.  Exponents must be non-negative integer literals.  Every
identifier must be declared in the ring context.

:func:`to_text` prints terms leading-first under the context's monomial
order with coefficients in lowest terms, and its output parses back to an
equal polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .ring import Polynomial, RingContext

_OPS = set("+-*^/()")


class ParseError(ValueError):
    """Syntax or scope error in polynomial text, with source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            tokens.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: RingContext) -> None:
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None) -> None:
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expr(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value - rhs if tok.text == "-" else value + rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Polynomial:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                etok = self.peek()
                if etok.kind != "int":
                    self.fail("exponent must be a non-negative integer literal")
                self.advance()
                value = value ** int(etok.text)
            else:
                return value

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "int":
            numer = int(tok.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != "int":
                    self.fail("denominator must be an integer literal", dtok)
                self.advance()
                denom = int(dtok.text)
                if denom == 0:
                    self.fail("denominator must be nonzero", dtok)
                return Polynomial.constant(self.ctx, Fraction(numer, denom))
            return Polynomial.constant(self.ctx, numer)
        if tok.kind == "name":
            if tok.text not in self.ctx.variables:
                self.fail(f"undeclared variable {tok.text!r}", tok)
            return Polynomial.variable(self.ctx, tok.text)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail("expected ')'", closing)
            self.advance()
            return value
        if tok.kind == "end":
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected {tok.text!r}", tok)
        raise AssertionError("unreachable")


def parse_polynomial(src: str, ctx: RingContext) -> Polynomial:
    """Parse polynomial text against a ring context."""
    parser = _Parser(_tokenize(src), ctx)
    value = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(f"unexpected {trailing.text!r} after expression", trailing)
    return value


def to_text(f: Polynomial) -> str:
    """Canonical text: leading term first, signs folded into separators."""
    ctx, terms, den = f.ctx, f._terms, f._den
    parts = []
    for m in sorted(terms, key=ctx._sort_key()):
        c = terms[m]
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        factors = []
        if c != den or not m:
            g = math.gcd(c, den)
            factors.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        for name, e in zip(ctx.variables, ctx._unpack(m)):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)
