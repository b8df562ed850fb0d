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
identifier must be declared in the ring context.  Parentheses nest at most
:data:`MAX_NESTING` deep.

Parsing is linear in the size of the text.  One regular expression splits
it into tokens.  A term of numbers and ``name^INT`` factors is folded into
one ``(packed monomial, numerator, denominator)`` triple; only a
parenthesised factor is a :class:`Polynomial`.  Each sum adds its terms
into one dict and becomes a polynomial once.

:func:`to_text` prints terms leading-first under the context's monomial
order with coefficients in lowest terms, and its output parses back to an
equal polynomial.  It visits only the variables that occur in a monomial.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from typing import NoReturn, Optional, Union

from .ring import Polynomial, RingContext, RingError, _term_power

#: Deepest nesting of parentheses the parser accepts, far below the
#: interpreter's recursion limit.  Past it, :class:`ParseError` points at
#: the first ``(`` too deep.
MAX_NESTING = 100

_OPS = frozenset("+-*^/()")
# A token is a run of decimal digits, a word or an operator.  Whitespace
# and stray characters match nothing and are skipped, and no alternative
# can backtrack into another, so one scan is linear in the text.
_TOKEN = re.compile(r"\d+|\w+|[-+*^/()]")
# The same tokens and runs of whitespace: a walk to a stray character.
_SCAN = re.compile(r"\s+|\d+|\w+|[-+*^/()]")

# A term of numbers and variable powers: (packed monomial, numerator,
# denominator) in lowest terms, with (0, 0, 1) for zero.  A parenthesised
# factor makes it a Polynomial.
_Term = Union[tuple[int, int, int], Polynomial]


class ParseError(ValueError):
    """Syntax or scope error in polynomial text, with source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _position(src: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``src[offset]``."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _starts_token(text: str) -> bool:
    # ``\w`` also takes digits such as '²' that are not decimal, but a
    # name starts with a letter or '_'.
    ch = text[0]
    return ch.isalpha() or ch == "_" or ch.isdecimal() or ch in _OPS


def _tokenize(src: str) -> list[str]:
    """The tokens of ``src`` as plain strings, then ``""`` for the end."""
    tokens = _TOKEN.findall(src)
    if "".join(tokens) != "".join(src.split()) or (
        not src.isascii() and not all(map(_starts_token, tokens))
    ):
        _raise_stray(src)
    tokens.append("")
    return tokens


def _raise_stray(src: str) -> NoReturn:
    """Raise at the first character that starts no token."""
    pos = 0
    while True:
        ch = src[pos]
        if not (ch.isspace() or _starts_token(ch)):
            raise ParseError(f"unexpected character {ch!r}", *_position(src, pos))
        pos = _SCAN.match(src, pos).end()


class _Parser:
    def __init__(self, src: str, ctx: RingContext) -> None:
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # open parentheses
        self.ctx = ctx

    def fail(self, message: str, index: Optional[int] = None) -> NoReturn:
        """Raise at token ``index``, by default the next one; its offset is
        found by scanning again, so tokens carry no positions."""
        index = self.pos if index is None else index
        if self.tokens[index]:
            offset = next(islice(_TOKEN.finditer(self.src), index, None)).start()
        else:
            offset = len(self.src)
        raise ParseError(message, *_position(self.src, offset))

    def literal(self, index: int) -> int:
        """The decimal literal at token ``index``, raising there if too long."""
        tok = self.tokens[index]
        try:
            return int(tok)
        except ValueError:
            self.fail(f"integer literal of {len(tok)} digits is too long", index)

    def expr(self) -> Polynomial:
        # Every term goes into one dict over a common denominator, in the
        # order a chain of ``+`` would leave, and a polynomial is built once.
        tokens = self.tokens
        acc: dict[int, int] = {}
        den = 1
        sign = 1
        tok = tokens[self.pos]
        if tok == "+" or tok == "-":
            self.pos += 1
            sign = -1 if tok == "-" else 1
        while True:
            value = self.term()
            if type(value) is tuple:
                m, c, d = value
                terms = {m: c} if c else {}
            else:
                terms, d = value._terms, value._den
            if den % d:
                grown = math.lcm(den, d)
                acc = {m: c * (grown // den) for m, c in acc.items()}
                den = grown
            scale = sign * (den // d)
            get = acc.get
            for m, c in terms.items():
                c = get(m, 0) + c * scale
                if c:
                    acc[m] = c
                else:
                    del acc[m]
            tok = tokens[self.pos]
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                return Polynomial._from_ints(self.ctx, acc, den)
            self.pos += 1

    def term(self) -> _Term:
        value = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            rhs = self.factor()
            if type(value) is tuple and type(rhs) is tuple:
                value = self._times(value, rhs)
            else:
                value = self._polynomial(value) * self._polynomial(rhs)
        return value

    def _times(
        self, a: tuple[int, int, int], b: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        c, d = a[1] * b[1], a[2] * b[2]
        if not c:
            # Zero times anything is zero, with no monomial to check.
            return (0, 0, 1)
        if d != 1:
            g = math.gcd(c, d)
            c, d = c // g, d // g
        m = a[0] + b[0]
        self.ctx._check_packed(m)
        return (m, c, d)

    def _polynomial(self, value: _Term) -> Polynomial:
        if type(value) is not tuple:
            return value
        m, c, d = value
        return Polynomial._from_ints(self.ctx, {m: c} if c else {}, d)

    def factor(self) -> _Term:
        value = self.atom()
        tokens = self.tokens
        while tokens[self.pos] == "^":
            self.pos += 1
            if not tokens[self.pos].isdecimal():
                self.fail("exponent must be a non-negative integer literal")
            e = self.literal(self.pos)
            self.pos += 1
            if type(value) is tuple:
                value = _term_power(self.ctx, *value, e)
            else:
                value = value**e
        return value

    def atom(self) -> _Term:
        tokens = self.tokens
        at = self.pos
        tok = tokens[at]
        self.pos += 1
        if tok.isdecimal():
            c = self.literal(at)
            if tokens[self.pos] != "/":
                return (0, c, 1)
            self.pos += 1
            if not tokens[self.pos].isdecimal():
                self.fail("denominator must be an integer literal")
            d = self.literal(self.pos)
            if not d:
                self.fail("denominator must be nonzero")
            self.pos += 1
            g = math.gcd(c, d)
            return (0, c // g, d // g)
        if tok == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            value = self.expr()
            if tokens[self.pos] != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if not tok:
            self.fail("unexpected end of input", at)
        if tok in _OPS:
            self.fail(f"unexpected {tok!r}", at)
        index = self.ctx._index.get(tok)
        if index is None:
            self.fail(f"undeclared variable {tok!r}", at)
        return (1 << self.ctx._shifts[index], 1, 1)


def parse_polynomial(src: str, ctx: RingContext) -> Polynomial:
    """Parse polynomial text against a ring context."""
    parser = _Parser(src, ctx)
    value = parser.expr()
    trailing = parser.tokens[parser.pos]
    if trailing:
        parser.fail(f"unexpected {trailing!r} after expression")
    return value


def to_text(f: Polynomial) -> str:
    """Canonical text: leading term first, signs folded into separators."""
    ctx, terms, den = f.ctx, f._terms, f._den
    if not terms:
        return "0"
    # A monomial is read from its top set bit down, one nonzero field at a
    # time; each field's ``name^e`` is formatted once per call.
    width = ctx._mask.bit_length()
    names = ctx.variables[::-1]
    powers: dict[int, str] = {}
    parts = []
    for m in sorted(terms, key=ctx._sort_key()):
        c = terms[m]
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        factors = []
        if c != den or not m:
            g = math.gcd(c, den)
            try:
                factors.append(str(c // g) if g == den else f"{c // g}/{den // g}")
            except ValueError:  # past the interpreter's int-to-text limit
                digits = int(math.log10(2) * max(c // g, den // g).bit_length()) + 1
                raise RingError(
                    f"a coefficient of about {digits} digits is too long to print"
                ) from None
        while m:
            shift = m.bit_length() - 1
            shift -= shift % width
            field = m >> shift << shift
            text = powers.get(field)
            if text is None:
                e, name = field >> shift, names[shift // width]
                text = powers[field] = name if e == 1 else f"{name}^{e}"
            factors.append(text)
            m -= field
        parts.append("*".join(factors))
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)
