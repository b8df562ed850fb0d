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
from typing import Iterator, Optional

from .calculus import _curvature_factor, _gns_delta1, dot, grad_norm_sq
from .divide import DivisionResult, divide
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
    hsq: Fraction
    certificate: Optional[Polynomial]
    witness_remainder: Optional[Polynomial]
    warnings: tuple[str, ...]

    @property
    def divisible(self) -> bool:
        return self.certificate is not None


def _warnings_for(f: Polynomial) -> tuple[str, ...]:
    if f.total_degree() <= 1:
        return ()
    return (IRREDUCIBILITY_WARNING, SINGULARITY_WARNING)


def _residues(f: Polynomial) -> tuple:
    """``G = |grad f|^2``, ``E = delta1 f`` and the five divisions by ``f``
    behind the remainders of ``G^3`` and ``E^2``: ``G = qg f + g``, ``E =
    qd f + d``, ``g g = q1 f + rem(g g)``, ``rem(g g) g = q2 f + r1`` and
    ``d d = q3 f + r2``, each returned as its ``DivisionResult``, in that
    order.  Each product is of remainders, so neither power is formed (see
    :func:`check_cmc` for why ``r1`` and ``r2`` are the remainders); the
    quotients are kept for :func:`_report`'s certificate."""
    gns, d1 = _gns_delta1(f)
    g = divide(gns, f)
    d = divide(d1, f)
    gg = divide(g.remainder * g.remainder, f)
    g3 = divide(gg.remainder * g.remainder, f)
    d2 = divide(d.remainder * d.remainder, f)
    return gns, d1, g, d, gg, g3, d2


def _report(
    f: Polynomial, hsq: Fraction, c: Fraction, gns: Polynomial, d1: Polynomial,
    g: DivisionResult, d: DivisionResult, gg: DivisionResult,
    g3: DivisionResult, d2: DivisionResult,
) -> CmcReport:
    """The verdict at ``c = 4 (n-1)^2 hsq`` from :func:`_residues`' output:
    the witness ``c r1 - r2``, or on a zero witness the certificate ``Q``,
    assembled from the quotients and re-multiplied: ``Q f - c G^3 + E^2``
    must vanish (see :func:`check_cmc`)."""
    witness = g3.remainder * c - d2.remainder
    certificate = None
    if witness.is_zero:
        ctx = f.ctx
        square = gns * gns
        # Q = c [qg (G^2 + G g + g g) + g q1 + q2] - [qd (E + d) + q3]
        rg, rd = g.remainder, d.remainder
        certificate = Polynomial._sum_of_products(ctx, [
            (g.quotient * c, square + rg * (gns + rg)),
            (rg * c, gg.quotient),
            (-d.quotient, d1 + rd),
        ]) + g3.quotient * c - d2.quotient
        check = Polynomial._sum_of_products(
            ctx, [(certificate, f), (square, gns * -c), (d1, d1)]
        )
        if not check.is_zero:
            raise RingError("zero residue modulo f, but the defect leaves a remainder")
    return CmcReport(
        hsq=hsq,
        certificate=certificate,
        witness_remainder=None if certificate is not None else witness,
        warnings=_warnings_for(f),
    )


def check_cmc(f: Polynomial, hsq: Rational) -> CmcReport:
    """Does ``f`` divide its defect for squared mean curvature ``hsq``?

    The verdict is decided on residues modulo ``f``, and the certificate
    is assembled from their quotients; the defect is never formed as a
    polynomial or divided.  Write ``rem`` for the remainder of lex
    division by ``f``.  It is the unique reduced
    polynomial congruent to its argument modulo ``f``: two reduced
    polynomials congruent modulo ``f`` differ by a multiple ``q f`` with no
    term divisible by the lead of ``f``, but the lead of ``q f`` is a
    multiple of it, so ``q = 0``.  (One polynomial is a Groebner basis of
    its ideal; Cox, Little and O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 2 section 6.)  Hence ``rem`` is linear, and
    ``rem(a b) = rem(rem(a) rem(b))``, since ``a b - rem(a) rem(b)`` lies in
    the ideal of ``f``.

    With ``G = |grad f|^2``, ``E = delta1 f`` and ``c = 4 (n-1)^2 hsq``
    the defect is ``c G^3 - E^2``, so its remainder is ``c r1 - r2`` with
    ``r1 = rem(G^3)`` and ``r2 = rem(E^2)`` as :func:`_residues` forms
    them.  That is the very polynomial that dividing the whole defect
    leaves, so a nonzero ``c r1 - r2`` is the witness of a negative
    verdict, term for term.

    A zero one is certified from the quotients of the same divisions:
    ``G = qg f + g``, ``E = qd f + d``, ``g g = q1 f + rem(g g)``, ``rem(g
    g) g = q2 f + r1`` and ``d d = q3 f + r2``.  Then ``G^3 - g^3 = (G -
    g)(G^2 + G g + g g) = qg f (G^2 + G g + g g)`` and ``g^3 = g q1 f +
    rem(g g) g = (g q1 + q2) f + r1``, while ``E^2 - d^2 = qd f (E + d)``.
    So ``c G^3 - E^2 = Q f + (c r1 - r2)`` with ``Q = c [qg (G^2 + G g +
    g g) + g q1 + q2] - [qd (E + d) + q3]``, and a zero witness makes
    ``Q`` the quotient of the defect by ``f``; it is unique, since the
    polynomials form an integral domain.  Before the verdict is reported
    ``Q`` is re-multiplied: one multiply-accumulate pass forms ``Q f - c
    G^2 G + E E``, which must be zero, so a positive verdict never rests
    on the division routine alone.
    """
    hsq = as_fraction(hsq)
    if f.total_degree() < 1:
        raise RingError("input polynomial must be nonconstant")
    c = _curvature_factor(f, hsq)
    return _report(f, hsq, c, *_residues(f))


def solve_hsq(f: Polynomial) -> Optional[CmcReport]:
    """The certified report at the unique admissible squared curvature for
    ``f``, or ``None`` if no curvature is admissible.

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
    outright.  A zero ``r1`` leaves every curvature or none, so ``hsq =
    1`` is tried; otherwise ``c`` must be the ratio of ``r2`` to ``r1`` at
    any one monomial of ``r1``.  The report at that curvature tests ``c r1
    = r2`` and certifies it in the same pass.
    """
    deg = f.total_degree()
    if deg < 1:
        raise RingError("input polynomial must be nonconstant")
    # 4 (n-1)^2, checked before the top-form test so that n < 2 is refused.
    c = _curvature_factor(f, 1)
    top = f.homogeneous_part(deg)
    if not divide(grad_norm_sq(top), top).remainder.is_zero:
        return None
    residues = _residues(f)
    r1, r2 = residues[-2].remainder, residues[-1].remainder
    ratio = c
    if not r1.is_zero:
        mono = next(r1.monomials())
        ratio = r2.coefficient(mono) / r1.coefficient(mono)
        if ratio <= 0:
            return None
    report = _report(f, ratio / c, ratio, *residues)
    return report if report.divisible else None


def make_surface(
    kind: str, n: int, rsq: Rational = 1
) -> tuple[Polynomial, Optional[Fraction], Optional[Polynomial]]:
    """Model surface, its admissible squared curvature, and the certificate.

    ``sphere``   sum x_i^2 - rsq   with hsq = 1/rsq
    ``cylinder`` x1^2 + x2^2 - rsq with hsq = 1/((n-1)^2 rsq)
    ``plane``    x1                with no admissible curvature

    The expected certificates are closed forms: the sphere's defect is
    ``(256 (n-1)^2 / rsq) * (sum x_i^2)^2 * f`` and the cylinder's is
    ``(256 / rsq) * (x1^2 + x2^2)^2 * f``.  Both are ``256 (n-1)^2 hsq``
    times the square of the radial sum ``f + rsq``, over the first ``n``
    or the first 2 coordinates.
    """
    if n < 2:
        raise RingError("model surfaces need dimension n >= 2")
    rsq = as_fraction(rsq)
    if rsq <= 0:
        raise RingError("squared radius must be positive")
    ctx = RingContext.geometric(n)
    xs = [Polynomial.variable(ctx, name) for name in ctx.geometric_variables]
    if kind == "plane":
        return xs[0], None, None
    if kind == "sphere":
        k, hsq = n, 1 / rsq
    elif kind == "cylinder":
        k, hsq = 2, 1 / ((n - 1) ** 2 * rsq)
    else:
        raise RingError(f"unknown surface kind {kind!r}")
    radial = dot(xs[:k], xs[:k])
    return radial - rsq, hsq, radial**2 * (256 * (n - 1) ** 2 * hsq)


@dataclass(frozen=True)
class SweepHit:
    index: int
    polynomial: Polynomial
    hsq: Fraction
    certificate: Polynomial


@dataclass(frozen=True)
class SweepReport:
    admissible: tuple[SweepHit, ...]

    @property
    def admissible_count(self) -> int:
        return len(self.admissible)


def _random_cubics(rng: random.Random, ctx: RingContext, bound: int) -> Iterator[Polynomial]:
    """Random integer-coefficient cubics with a nonzero degree-3 part, one
    per ``next``; the exponent list is built once."""
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
            yield f


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
    :func:`solve_hsq` before it is reported.  With ``degree=2`` the
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
    cubics = _random_cubics(rng, ctx, coeff_bound)
    hits = []
    for i in range(count):
        if degree == 3:
            f = next(cubics)
        else:
            a = rng.randint(1, coeff_bound)
            b = rng.randint(1, coeff_bound)
            f = radial * a - b
        report = solve_hsq(f)
        if report is None:
            continue
        if not report.divisible:
            raise RingError(f"sweep sample {i}: solved hsq {report.hsq} fails to certify")
        hits.append(SweepHit(i, f, report.hsq, report.certificate))
    return SweepReport(tuple(hits))
