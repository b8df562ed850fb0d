"""Divisibility verdicts for constant-mean-curvature level sets.

The check is purely algebraic: ``f = 0`` is treated as a candidate
hypersurface with squared mean curvature ``hsq``, and the verdict is
whether ``f`` divides the defect polynomial.  The geometric reading
(an actual CMC hypersurface) additionally needs ``f`` irreducible and the
level set nonsingular, which this module does not establish; every report
on a nonlinear input says so in its warnings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional

from .calculus import _curvature_factor, _defect, _gns_delta1, dot, grad_norm_sq
from .divide import divide, divides
from .ring import Polynomial, Rational, RingContext, RingError, as_fraction

IRREDUCIBILITY_WARNING = (
    "irreducibility not verified: the verdict is about the polynomial, "
    "not a specific irreducible surface"
)
SINGULARITY_WARNING = (
    "level set may have singular points; the algebraic check does not "
    "inspect them"
)


@dataclass(frozen=True)
class CmcReport:
    input: Polynomial
    hsq: Fraction
    divisible: bool
    certificate: Optional[Polynomial]
    witness_remainder: Optional[Polynomial]
    warnings: tuple[str, ...]


def _warnings_for(f: Polynomial) -> tuple[str, ...]:
    if f.total_degree() <= 1:
        return ()
    return (IRREDUCIBILITY_WARNING, SINGULARITY_WARNING)


def _residues(
    f: Polynomial, gns: Polynomial, d1: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Remainders modulo ``f`` of ``|grad f|^6`` and ``(delta1 f)^2``, given
    ``gns = |grad f|^2`` and ``d1 = delta1 f``: ``r1 = rem(rem(g g) g)``
    with ``g = rem(gns)``, and ``r2 = rem(d d)`` with ``d = rem(d1)``.
    Each product is of remainders, so neither power is formed (see
    :func:`check_cmc` for why these are the remainders)."""
    g = divide(gns, f).remainder
    d = divide(d1, f).remainder
    r1 = divide(divide(g * g, f).remainder * g, f).remainder
    r2 = divide(d * d, f).remainder
    return r1, r2


def check_cmc(f: Polynomial, hsq: Rational) -> CmcReport:
    """Does ``f`` divide its defect for squared mean curvature ``hsq``?

    The verdict is decided on residues modulo ``f``; the defect is formed
    only when its quotient, the certificate, is needed.  Write ``rem`` for
    the remainder of lex division by ``f``.  It is the unique reduced
    polynomial congruent to its argument modulo ``f``: two reduced
    polynomials congruent modulo ``f`` differ by a multiple ``q f`` with no
    term divisible by the lead of ``f``, but the lead of ``q f`` is a
    multiple of it, so ``q = 0``.  (One polynomial is a Groebner basis of
    its ideal; Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2 section 6.)  Hence ``rem`` is linear, and
    ``rem(a b) = rem(rem(a) rem(b))``, since ``a b - rem(a) rem(b)`` lies in
    the ideal of ``f``.

    With ``G = |grad f|^6``, ``E = (delta1 f)^2`` and ``c = 4 (n-1)^2 hsq``
    the defect is ``c G - E``, so its remainder is ``c r1 - r2`` with ``r1 =
    rem(G)`` and ``r2 = rem(E)`` as :func:`_residues` forms them.  That is
    the very polynomial that dividing the whole defect leaves, so a
    nonzero ``c r1 - r2`` is the witness of a negative verdict, term for
    term.  A zero one forms the defect and divides it; :func:`divides`
    re-multiplies the quotient before the verdict is reported.
    """
    hsq = as_fraction(hsq)
    if f.total_degree() < 1:
        raise RingError("input polynomial must be nonconstant")
    c = _curvature_factor(f, hsq)
    gns, d1 = _gns_delta1(f)
    r1, r2 = _residues(f, gns, d1)
    witness = r1 * c - r2
    certificate = None
    if witness.is_zero:
        verdict = divides(f, _defect(gns, d1, c))
        if not verdict.divisible:
            raise RingError("zero residue modulo f, but the defect leaves a remainder")
        certificate = verdict.quotient
    return CmcReport(
        input=f,
        hsq=hsq,
        divisible=certificate is not None,
        certificate=certificate,
        witness_remainder=None if certificate is not None else witness,
        warnings=_warnings_for(f),
    )


def solve_hsq(f: Polynomial) -> Optional[Fraction]:
    """The unique admissible squared curvature for ``f``, if any.

    With ``G = |grad f|^6``, ``E = (delta1 f)^2`` and ``c = 4 (n-1)^2 hsq``
    the defect is ``c G - E``, linear in ``hsq`` for fixed ``f``.

    First a necessary condition on the top form ``f_d`` (``d = deg f``):
    ``f_d`` must divide ``|grad f_d|^6``.  Proof: ``E`` has degree at most
    ``6(d-1) - 2``, so the degree-``6(d-1)`` part of ``c G - E`` is
    ``c |grad f_d|^6``, which is nonzero (a sum of squares of nonzero
    polynomials over the rationals).  If ``p f = c G - E``, the top part of
    ``p f`` is ``p_top f_d``, since the coefficients form an integral
    domain; so ``f_d`` divides ``c |grad f_d|^6``.  If both ``G`` and ``E``
    are divisible by ``f``, then so is ``G - E``, and the same argument
    applies.

    The cube is not needed: ``f_d`` divides ``|grad f_d|^6`` exactly when
    it divides ``|grad f_d|^2``.  By unique factorisation write
    ``f_d = p^m h`` with ``p`` prime and not dividing ``h``.  Then
    ``|grad f_d|^2 = p^(2m-2) |m h grad p + p grad h|^2``, so ``p^m``
    divides it whenever ``m >= 2``; a prime factor with ``m = 1`` divides
    a cube only if it divides the base.  This holds also when ``p``
    involves parameters alone, since then ``grad p = 0``.  So the test
    divides ``|grad f_d|^2``, of degree ``2(d-1)``, by ``f_d``; random
    dense cubics fail here.

    Otherwise ``f`` divides ``c G - E`` exactly when ``c r1 - r2 = 0``,
    with ``r1 = rem(G)`` and ``r2 = rem(E)`` the remainders modulo ``f``,
    each formed from reduced factors by :func:`_residues`.  They are the
    remainders of ``G`` and ``E`` themselves, and unique, by the argument
    in :func:`check_cmc`.  So ``f`` is admissible exactly when the two are
    proportional with a positive ratio, which decides the question
    outright.
    """
    deg = f.total_degree()
    if deg < 1:
        raise RingError("input polynomial must be nonconstant")
    # 4 (n-1)^2, checked before the top-form test so that n < 2 is refused.
    c = _curvature_factor(f, 1)
    top = f.homogeneous_part(deg)
    if not divide(grad_norm_sq(top), top).remainder.is_zero:
        return None
    r1, r2 = _residues(f, *_gns_delta1(f))
    if r1.is_zero:
        if r2.is_zero:
            # Both sides already divisible: every curvature works, so
            # report the simplest admissible one.
            return Fraction(1)
        return None
    lead = r1.leading_monomial()
    c2 = r2.coefficient(lead)
    if not c2:
        return None
    ratio = c2 / r1.coefficient(lead)
    if ratio <= 0 or r1 * ratio != r2:
        return None
    return ratio / c


def make_surface(
    kind: str, n: int, rsq: Rational = 1
) -> tuple[Polynomial, Optional[Fraction], Optional[Polynomial]]:
    """Model surface, its admissible squared curvature, and the certificate.

    ``sphere``   sum x_i^2 - rsq   with hsq = 1/rsq
    ``cylinder`` x1^2 + x2^2 - rsq with hsq = 1/((n-1)^2 rsq)
    ``plane``    x1                with no admissible curvature

    The expected certificates are closed forms: the sphere's defect is
    ``(256 (n-1)^2 / rsq) * (sum x_i^2)^2 * f`` and the cylinder's is
    ``(256 / rsq) * (x1^2 + x2^2)^2 * f``.
    """
    if n < 2:
        raise RingError("model surfaces need dimension n >= 2")
    rsq = as_fraction(rsq)
    if rsq <= 0:
        raise RingError("squared radius must be positive")
    ctx = RingContext.geometric(n)
    xs = [Polynomial.variable(ctx, name) for name in ctx.geometric_variables]
    if kind == "sphere":
        radial = dot(xs, xs)
        f = radial - rsq
        certificate = radial**2 * (Fraction(256) * (n - 1) ** 2 / rsq)
        return f, Fraction(1) / rsq, certificate
    if kind == "cylinder":
        radial = dot(xs[:2], xs[:2])
        f = radial - rsq
        certificate = radial**2 * (Fraction(256) / rsq)
        return f, Fraction(1) / ((n - 1) ** 2 * rsq), certificate
    if kind == "plane":
        return xs[0], None, None
    raise RingError(f"unknown surface kind {kind!r}")


@dataclass(frozen=True)
class SweepHit:
    index: int
    polynomial: Polynomial
    hsq: Fraction
    certificate: Polynomial


@dataclass(frozen=True)
class SweepReport:
    n: int
    degree: int
    count: int
    coeff_bound: int
    seed: int
    admissible: tuple[SweepHit, ...]

    @property
    def admissible_count(self) -> int:
        return len(self.admissible)


def _random_cubic(rng: random.Random, ctx: RingContext, bound: int) -> Polynomial:
    """Random integer-coefficient cubic with a nonzero degree-3 part."""
    n = ctx.nvars
    monos = sorted(
        tuple(c.count(i) for i in range(n))
        for d in range(4)
        for c in combinations_with_replacement(range(n), d)
    )
    while True:
        terms = {}
        for mono in monos:
            c = rng.randint(-bound, bound)
            if c:
                terms[mono] = c
        f = Polynomial(ctx, terms)
        if not f.homogeneous_part(3).is_zero:
            return f


def refutation_sweep(
    n: int,
    count: int,
    coeff_bound: int = 5,
    seed: int = 0,
    degree: int = 3,
) -> SweepReport:
    """Hunt for admissible curvatures over random integer polynomials.

    With ``degree=3`` every sampled polynomial is a cubic with nonzero
    degree-3 part; no admissible squared curvature should ever appear, and
    any hit is returned verbatim for inspection.  Every hit carries the
    certificate ``p`` with ``p * f == defect``, re-multiplied by
    :func:`check_cmc` before it is reported.  With ``degree=2`` the
    samples are spheres ``a * sum x_i^2 - b`` (a, b > 0), every one of
    which must be admissible; this is the positive control that the sweep
    machinery can find curvatures at all.
    """
    if n < 3:
        raise RingError("sweep needs dimension n >= 3")
    if count < 1:
        raise RingError("sweep needs a positive sample count")
    if coeff_bound < 1:
        raise RingError("coefficient bound must be positive")
    if degree not in (2, 3):
        raise RingError("sweep degree must be 2 or 3")
    rng = random.Random(seed)
    ctx = RingContext.geometric(n)
    xs = [Polynomial.variable(ctx, name) for name in ctx.geometric_variables]
    radial = dot(xs, xs)
    hits = []
    for i in range(count):
        if degree == 3:
            f = _random_cubic(rng, ctx, coeff_bound)
        else:
            a = rng.randint(1, coeff_bound)
            b = rng.randint(1, coeff_bound)
            f = radial * a - b
        hsq = solve_hsq(f)
        if hsq is not None:
            report = check_cmc(f, hsq)
            if not report.divisible:
                raise RingError(f"sweep sample {i}: solved hsq {hsq} fails to certify")
            hits.append(SweepHit(i, f, hsq, report.certificate))
    return SweepReport(
        n=n,
        degree=degree,
        count=count,
        coeff_bound=coeff_bound,
        seed=seed,
        admissible=tuple(hits),
    )
