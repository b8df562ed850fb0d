"""Single-divisor polynomial division with verified certificates.

For one divisor the remainder is unique once a monomial order is fixed:
no term of the remainder is divisible by the divisor's leading term, and
``dividend = quotient * divisor + remainder`` exactly.  Divisibility
itself does not depend on the order, so a zero remainder under any order
is a proof, and :func:`divides` re-multiplies the quotient to certify it.

:func:`divide` takes leading terms from a heap of candidate monomials
(Johnson 1974; Monagan & Pearce 2011) and reduces over the integers:
both operands are cleared of denominators by ``Polynomial._integer_terms``,
the same step that products use, and a working coefficient is a numerator
over a power of the divisor's integer leading coefficient.  ``Fraction``
is built only for the quotient and remainder it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add as _add, sub as _sub
from typing import Optional

from .ring import _DESC_KEYS, Polynomial, RingError


class ZeroDivisorError(RingError):
    """Division by the zero polynomial."""


@dataclass(frozen=True)
class DivisionResult:
    quotient: Polynomial
    remainder: Polynomial
    order_used: str


@dataclass(frozen=True)
class DivisibilityVerdict:
    divisible: bool
    quotient: Optional[Polynomial]
    remainder: Optional[Polynomial]


def default_order(ctx) -> str:
    # With a coordinate block present, eliminate the first coordinate
    # fastest; otherwise fall back to grevlex.
    return "lex" if ctx.geometric_count >= 1 else "grevlex"


def _divisible_mono(m: tuple[int, ...], lead: tuple[int, ...]) -> bool:
    for a, b in zip(m, lead):
        if a < b:
            return False
    return True


def divide(
    g: Polynomial, f: Polynomial, order: Optional[str] = None
) -> DivisionResult:
    """Divide ``g`` by ``f``, returning quotient and reduced remainder."""
    if g.ctx != f.ctx:
        raise RingError("dividend and divisor belong to different ring contexts")
    if f.is_zero:
        raise ZeroDivisorError("division by the zero polynomial")
    tag = order or default_order(g.ctx)
    lead_f = f.leading_monomial(tag)
    heap_key = _DESC_KEYS[tag]
    guarded = g.max_exponent() + f.max_exponent() > g.ctx.exponent_guard

    # Divide G = dg*g by F = df*f; then q = Q*df/dg and r = R/dg.  A working
    # term (a, k) stands for a / L**k, where L is F's leading coefficient.
    # F's leading term is left out of ``ftems``: it cancels each lead exactly.
    gterms, dg = g._integer_terms()
    fterms, df = f._integer_terms()
    powers = [1, next(c for m, c in fterms if m == lead_f)]
    ftems = [(m, c) for m, c in fterms if m != lead_f]
    work = {m: (c, 0) for m, c in gterms}
    # Every monomial in ``work`` has exactly one heap entry; a term that
    # cancels stays in ``work`` with numerator 0 and is skipped when popped.
    heap = [(heap_key(m), m) for m in work]
    heapify(heap)
    quotient: dict[tuple[int, ...], Fraction] = {}
    remainder: dict[tuple[int, ...], Fraction] = {}
    while heap:
        lead = heappop(heap)[1]
        a, k = work.pop(lead)
        if not a:
            continue
        if not _divisible_mono(lead, lead_f):
            remainder[lead] = Fraction(a, powers[k] * dg)
            continue
        k += 1
        if k == len(powers):
            powers.append(powers[-1] * powers[1])
        qm = tuple(map(_sub, lead, lead_f))
        quotient[qm] = Fraction(a * df, powers[k] * dg)
        for m, c in ftems:
            mm = tuple(map(_add, qm, m))
            if guarded:
                g.ctx.check_monomial(mm)
            prev = work.get(mm)
            if prev is None:
                heappush(heap, (heap_key(mm), mm))
                prev = (0, k)
            b, j = prev
            if j < k:
                work[mm] = (b * powers[k - j] - a * c, k)
            else:
                work[mm] = (b - a * c * powers[j - k], j)
    return DivisionResult(
        Polynomial(g.ctx, quotient, _clean=True),
        Polynomial(g.ctx, remainder, _clean=True),
        tag,
    )


def divides(
    f: Polynomial, g: Polynomial, order: Optional[str] = None
) -> DivisibilityVerdict:
    """Does ``f`` divide ``g``?  A positive verdict carries a certificate.

    The certificate quotient is re-multiplied against the divisor before
    the verdict is reported, so a True answer never rests on the division
    routine alone.
    """
    result = divide(g, f, order)
    if result.remainder.is_zero:
        if result.quotient * f != g:
            raise RingError("division produced an inconsistent certificate")
        return DivisibilityVerdict(True, result.quotient, None)
    return DivisibilityVerdict(False, None, result.remainder)
