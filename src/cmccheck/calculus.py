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


def delta1(f: Polynomial) -> Polynomial:
    """2*|grad f|^2 * lap f - grad(f) . grad(|grad f|^2)."""
    gns = grad_norm_sq(f)
    pairs = [(gns, laplacian(f) * 2)]
    pairs += zip(gradient(f), [-g for g in gradient(gns)])
    return Polynomial._sum_of_products(f.ctx, pairs)


def cmc_defect(f: Polynomial, hsq: Rational) -> Polynomial:
    """Divisibility defect for squared mean curvature ``hsq > 0``.

    ``f`` defines an algebraic constant-mean-curvature hypersurface for
    this curvature exactly when ``f`` divides the returned polynomial.
    """
    hsq = as_fraction(hsq)
    if hsq <= 0:
        raise RingError("squared mean curvature must be positive")
    n = f.ctx.geometric_count
    if n < 2:
        raise RingError("defect needs at least two geometric variables")
    gns = grad_norm_sq(f)
    d1 = delta1(f)
    return gns**3 * (4 * (n - 1) ** 2 * hsq) - d1 * d1


def symbolic_defect(f: Polynomial, curvature_name: str = "Ht") -> Polynomial:
    """Defect with the curvature folded into one parameter.

    Writing ``Ht = 2*(n-1)*H`` turns the defect into
    ``Ht^2 * |grad f|^6 - (delta1 f)^2`` with ``Ht`` a declared parameter
    of the context, which keeps the whole computation inside one ring.
    """
    if f.ctx.geometric_count < 2:
        raise RingError("defect needs at least two geometric variables")
    if not f.ctx.is_parameter(curvature_name):
        raise RingError(
            f"context must declare {curvature_name!r} as a parameter variable"
        )
    ht = Polynomial.variable(f.ctx, curvature_name)
    gns = grad_norm_sq(f)
    d1 = delta1(f)
    return ht * ht * gns**3 - d1 * d1
