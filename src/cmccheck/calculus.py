"""Differential operators on polynomials over the coordinate block.

Gradients, Laplacians and the divisibility defect are all taken with
respect to the geometric variables only; parameters ride along as inert
coefficients.  For a hypersurface ``f = 0`` with squared mean curvature
``Hsq``, the level set has constant mean curvature in the algebraic sense
exactly when ``f`` divides::

    defect(f) = 4*(n-1)^2 * Hsq * |grad f|^6 - (delta1 f)^2

where ``delta1 f = 2*|grad f|^2 * (lap f) - grad(f) . grad(|grad f|^2)``
clears the square roots from the classical mean curvature expression.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .ring import Polynomial, Rational, RingError, as_fraction

PolyVector = List[Polynomial]


def partial(f: Polynomial, name: str) -> Polynomial:
    """Partial derivative with respect to any declared variable."""
    return f._derivative(f.ctx.index(name))


def gradient(f: Polynomial) -> PolyVector:
    """Vector of partials over the geometric variables, in roster order."""
    return [partial(f, name) for name in f.ctx.geometric_variables]


def laplacian(f: Polynomial) -> Polynomial:
    out = Polynomial.zero(f.ctx)
    for name in f.ctx.geometric_variables:
        out = out + partial(partial(f, name), name)
    return out


def grad_norm_sq(f: Polynomial) -> Polynomial:
    return Polynomial._sum_of_products(f.ctx, [(g, g) for g in gradient(f)])


def dot(u: PolyVector, v: PolyVector) -> Polynomial:
    if len(u) != len(v):
        raise RingError("dot product needs vectors of equal length")
    if not u:
        raise RingError("dot product of empty vectors is undefined")
    return Polynomial._sum_of_products(u[0].ctx, list(zip(u, v)))


def _gns_delta1(f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """``|grad f|^2`` and ``delta1 f`` from one gradient; ``lap f`` sums
    its diagonal derivatives."""
    ctx = f.ctx
    grad = gradient(f)
    gns = Polynomial._sum_of_products(ctx, [(g, g) for g in grad])
    lap = Polynomial.zero(ctx)
    for g, name in zip(grad, ctx.geometric_variables):
        lap = lap + partial(g, name)
    pairs = [(gns, lap * 2)]
    pairs += zip(grad, [-g for g in gradient(gns)])
    return gns, Polynomial._sum_of_products(ctx, pairs)


def delta1(f: Polynomial) -> Polynomial:
    """2*|grad f|^2 * lap f - grad(f) . grad(|grad f|^2)."""
    return _gns_delta1(f)[1]


def _defect(gns: Polynomial, d1: Polynomial, c) -> Polynomial:
    """``c |grad f|^6 - (delta1 f)^2`` for a rational or polynomial ``c``,
    in one kernel call that scales the short factor ``|grad f|^2``."""
    return Polynomial._sum_of_products(gns.ctx, [(gns * gns, gns * c), (d1, -d1)])


def _curvature_factor(f: Polynomial, hsq: Rational) -> Fraction:
    """``4 (n-1)^2 hsq``, after checking ``hsq > 0`` and ``n >= 2``."""
    hsq = as_fraction(hsq)
    if hsq <= 0:
        raise RingError("squared mean curvature must be positive")
    n = f.ctx.geometric_count
    if n < 2:
        raise RingError("defect needs at least two geometric variables")
    return 4 * (n - 1) ** 2 * hsq


def cmc_defect(f: Polynomial, hsq: Rational) -> Polynomial:
    """Divisibility defect for squared mean curvature ``hsq > 0``.

    ``f`` defines an algebraic constant-mean-curvature hypersurface for
    this curvature exactly when ``f`` divides the returned polynomial.
    """
    c = _curvature_factor(f, hsq)
    return _defect(*_gns_delta1(f), c)


def symbolic_defect(f: Polynomial) -> Polynomial:
    """Defect with the curvature folded into one parameter.

    Writing ``Ht = 2*(n-1)*H`` turns the defect into
    ``Ht^2 * |grad f|^6 - (delta1 f)^2`` with ``Ht`` a declared parameter
    of the context, which keeps the whole computation inside one ring.
    """
    ctx = f.ctx
    if ctx.geometric_count < 2:
        raise RingError("defect needs at least two geometric variables")
    if "Ht" not in ctx.parameters:
        raise RingError("context must declare 'Ht' as a parameter variable")
    ht = Polynomial.variable(ctx, "Ht")
    return _defect(*_gns_delta1(f), ht * ht)
