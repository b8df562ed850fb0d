"""Single-divisor polynomial division under lex, with verified certificates.

Division runs under one order, lex with the first declared variable
heaviest, whatever order the ring context prints in.  For one divisor the
remainder is then unique: no term of the remainder is divisible by the
divisor's leading term, and ``dividend = quotient * divisor + remainder``
exactly.  Divisibility itself does not depend on the order, so a zero
remainder is a proof, and :func:`divides` re-multiplies the quotient to
certify it.

:func:`divide` takes leading terms from a heap of candidate monomials
(Johnson 1974; Monagan & Pearce 2007, 2011) and reduces over the integer
numerators that :class:`~cmccheck.ring.Polynomial` stores: a working
coefficient is a numerator over a power of the divisor's integer leading
coefficient, and the quotient and remainder are each put over one such
power at the end.  Monomials are the ring's packed ints, which compare
in lex order: the divisor's leading monomial is ``max(f._terms)``, the
min-heap holds ``-m`` so that it pops the largest monomial, a quotient
monomial is ``lead - lead_f`` and a new term ``qm + m``.  Beyond that this
module knows nothing of the packed layout but what the ring context hands
it: the borrow mask (``lead - lead_f`` has a bit of it set exactly when
``lead`` is not divisible by ``lead_f``) and the exponent guard check.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from .ring import ContextMismatchError, Polynomial, RingError


class ZeroDivisorError(RingError):
    """Division by the zero polynomial."""


@dataclass(frozen=True)
class DivisionResult:
    quotient: Polynomial
    remainder: Polynomial


@dataclass(frozen=True)
class DivisibilityVerdict:
    divisible: bool
    quotient: Optional[Polynomial]
    remainder: Optional[Polynomial]


def divide(g: Polynomial, f: Polynomial) -> DivisionResult:
    """Divide ``g`` by ``f`` under lex, returning quotient and reduced remainder."""
    if g.ctx != f.ctx:
        raise ContextMismatchError(
            "dividend and divisor belong to different ring contexts"
        )
    if f.is_zero:
        raise ZeroDivisorError("division by the zero polynomial")
    ctx = g.ctx
    borrow = ctx._borrow
    lead_f = max(f._terms)

    # Divide G = dg*g by F = df*f (numerators only); then q = Q*df/dg and
    # r = R/dg.  A working term stands for ``work[m] / L**level[m]``, where
    # L is F's leading coefficient.  F's leading term is left out of
    # ``ftems``: it cancels each lead exactly.
    dg, df = g._den, f._den
    powers = [1, f._terms[lead_f]]
    if len(f._terms) == 1:
        # One pass for a one-term divisor: each term of ``g`` that it
        # divides moves to the quotient at level 1, every other term to the
        # remainder.  No heap, and no new monomial.
        quotient, remainder = {}, {}
        for m, a in g._terms.items():
            if (m - lead_f) & borrow:
                remainder[m] = a
            else:
                quotient[m - lead_f] = a * df
        return DivisionResult(Polynomial._from_ints(ctx, quotient, powers[1] * dg),
                              Polynomial._from_ints(ctx, remainder, dg))
    ftems = [(m, c) for m, c in f._terms.items() if m != lead_f]
    work = dict(g._terms)
    level = dict.fromkeys(work, 0)
    # Every monomial in ``work`` has exactly one heap entry; a term that
    # cancels stays in ``work`` with numerator 0 and is skipped when popped.
    heap = [-m for m in work]
    heapify(heap)
    # Quotient and remainder numerators, each with its power of L.
    quotient: dict[int, int] = {}
    qlevel: dict[int, int] = {}
    remainder: dict[int, int] = {}
    rlevel: dict[int, int] = {}
    while heap:
        lead = -heappop(heap)
        a = work.pop(lead)
        k = level.pop(lead)
        if not a:
            continue
        # Every monomial built below is a checked lead plus an in-guard
        # monomial of F, so checking leads as they are popped suffices.
        ctx._check_packed(lead)
        qm = lead - lead_f
        if qm & borrow:
            remainder[lead] = a
            rlevel[lead] = k
            continue
        k += 1
        if k == len(powers):
            powers.append(powers[-1] * powers[1])
        quotient[qm] = a * df
        qlevel[qm] = k
        for m, c in ftems:
            mm = qm + m
            j = level.get(mm)
            if j is None:
                heappush(heap, -mm)
                work[mm] = -a * c
                level[mm] = k
            elif j < k:
                work[mm] = work[mm] * powers[k - j] - a * c
                level[mm] = k
            else:
                work[mm] -= a * c * powers[j - k]
    return DivisionResult(
        _over_common_power(ctx, quotient, qlevel, powers, dg),
        _over_common_power(ctx, remainder, rlevel, powers, dg),
    )


def _over_common_power(ctx, terms, levels, powers, dg) -> Polynomial:
    """Sum of ``terms[m] / (L**levels[m] * dg)``, over the largest power."""
    top = max((levels[m] for m in terms), default=0)
    return Polynomial._from_ints(
        ctx,
        {m: a * powers[top - levels[m]] for m, a in terms.items()},
        powers[top] * dg,
    )


def divides(f: Polynomial, g: Polynomial) -> DivisibilityVerdict:
    """Does ``f`` divide ``g``?  A positive verdict carries a certificate.

    The certificate quotient is re-multiplied against the divisor before
    the verdict is reported, so a True answer never rests on the division
    routine alone.
    """
    result = divide(g, f)
    if result.remainder.is_zero:
        if result.quotient * f != g:
            raise RingError("division produced an inconsistent certificate")
        return DivisibilityVerdict(True, result.quotient, None)
    return DivisibilityVerdict(False, None, result.remainder)
