"""Reference polynomial arithmetic for checking what the CLI prints.

It shares no code with cmccheck, so a defect in the kernel cannot hide by
also being in the check.  A polynomial is a dict from a monomial to a
nonzero Fraction; a monomial is a sorted tuple of (variable, exponent)
pairs, so ``x1^2*Ht`` is ``(("Ht", 1), ("x1", 2))``.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")
_FACTOR = re.compile(r"^(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?)$")


def parse(text: str) -> Poly:
    """Parse a sum of monomials, the form cmccheck's canonical printer uses.

    Raises ValueError on anything else, such as parentheses.
    """
    out: Poly = {}
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read a term at {text[pos:pos + 20]!r}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        mono: dict[str, int] = {}
        for factor in m.group(2).strip().split("*"):
            f = _FACTOR.match(factor.strip())
            if not f:
                raise ValueError(f"not a factor: {factor!r}")
            if f.group(1):
                coeff *= Fraction(f.group(1))
            else:
                name = f.group(2)
                mono[name] = mono.get(name, 0) + int(f.group(3) or 1)
        _accumulate(out, tuple(sorted(mono.items())), coeff)
    return out


def render(p: Poly) -> str:
    """Text that :func:`parse` and cmccheck's parser both read back."""
    if not p:
        return "0"
    parts = []
    for mono, coeff in sorted(p.items()):
        factors = [str(abs(coeff))] + [
            name if e == 1 else f"{name}^{e}" for name, e in mono
        ]
        parts.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def const(value) -> Poly:
    value = Fraction(value)
    return {(): value} if value else {}


def var(name: str) -> Poly:
    return {((name, 1),): Fraction(1)}


def add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for mono, coeff in p.items():
            _accumulate(out, mono, coeff)
    return out


def scale(p: Poly, value) -> Poly:
    value = Fraction(value)
    return {m: c * value for m, c in p.items()} if value else {}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            merged = dict(m1)
            for name, e in m2:
                merged[name] = merged.get(name, 0) + e
            _accumulate(out, tuple(sorted(merged.items())), c1 * c2)
    return out


def power(p: Poly, e: int) -> Poly:
    out = const(1)
    for _ in range(e):
        out = mul(out, p)
    return out


def _accumulate(out: Poly, mono: tuple, coeff: Fraction) -> None:
    total = out.get(mono, 0) + coeff
    if total:
        out[mono] = total
    else:
        out.pop(mono, None)
