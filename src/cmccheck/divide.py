"""Single-divisor polynomial division under lex, with verified certificates.

Division runs under one order, lex with the first declared variable
heaviest, whatever order the ring context prints in.  For one divisor the
remainder is then unique: no term of the remainder is divisible by the
divisor's leading term, and ``dividend = quotient * divisor + remainder``
exactly.  Divisibility itself does not depend on the order, so a zero
remainder is a proof.

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

from .ring import ContextMismatchError, Polynomial, RingError


class ZeroDivisorError(RingError):
    """Division by the zero polynomial."""


@dataclass(frozen=True)
class DivisionResult:
    quotient: Polynomial
    remainder: Polynomial


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
    # r = R/dg.  A working term ``work[m] = (a, k)`` stands for ``a / L**k``,
    # where L is F's leading coefficient.  F's leading term is left out of
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
    work = {m: (a, 0) for m, a in g._terms.items()}
    # Every monomial in ``work`` has exactly one heap entry; a term that
    # cancels stays in ``work`` with numerator 0 and is skipped when popped.
    heap = [-m for m in work]
    heapify(heap)
    # Quotient and remainder terms, each a numerator with its power of L.
    quotient: dict[int, tuple[int, int]] = {}
    remainder: dict[int, tuple[int, int]] = {}
    while heap:
        lead = -heappop(heap)
        a, k = work.pop(lead)
        if not a:
            continue
        # Every monomial built below is a checked lead plus an in-guard
        # monomial of F, so checking leads as they are popped suffices.
        ctx._check_packed(lead)
        qm = lead - lead_f
        if qm & borrow:
            remainder[lead] = a, k
            continue
        k += 1
        if k == len(powers):
            powers.append(powers[-1] * powers[1])
        quotient[qm] = a * df, k
        for m, c in ftems:
            mm = qm + m
            term = work.get(mm)
            if term is None:
                heappush(heap, -mm)
                work[mm] = -a * c, k
                continue
            b, j = term
            if j < k:
                work[mm] = b * powers[k - j] - a * c, k
            else:
                work[mm] = b - a * c * powers[j - k], j
    return DivisionResult(
        _over_common_power(ctx, quotient, powers, dg),
        _over_common_power(ctx, remainder, powers, dg),
    )


def _over_common_power(ctx, terms, powers, dg) -> Polynomial:
    """Sum of ``a / (L**k * dg)`` over ``terms[m] = (a, k)``, over the largest power."""
    top = max((k for _, k in terms.values()), default=0)
    return Polynomial._from_ints(
        ctx,
        {m: a * powers[top - k] for m, (a, k) in terms.items()},
        powers[top] * dg,
    )
