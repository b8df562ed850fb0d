"""Step-by-step replay of the cubic nonexistence identity chain.

For the generic cubic ``f = x^3 + y'Ay + k0 x^2 + (r'y) x + k1 x + s'y``
in dimension ``n``, a divisibility certificate ``p`` with
``p * f = Ht^2 |grad f|^6 - (delta1 f)^2`` would force, degree by degree,
a cascade of exact divisions whose tail contradicts itself unless the
matrix ``A`` vanishes.  :func:`replay` recomputes every identity in that
chain for a concrete ``n`` with exact arithmetic and reports each one as
a named pass/fail step:

1.  gradsq-parts          |grad f|^2 equals the five printed homogeneous parts
2.  delta1-congruence     delta1 f  =  4 trace(A) |grad f|^2  above degree 3
3.  gradsq-square         |grad f|^4  =  81 x^8                above degree 7
4.  delta1-square         (delta1 f)^2 = 1296 trace(A)^2 x^8   above degree 7
5.  defect-valuations     x-valuation of the defect's degree-k part >= 2k-12,
                          and on y = 0 it equals Ht^2 [(sum h_i)^3]_k, less
                          1296 trace(A)^2 x^8 at k = 8
6.  cascade-division      p9..p6 extracted by exact division, p9 = 729 Ht^2 x^9
7.  vanish-at-x0          p7 and the degree-8 defect part vanish at x = 0
8.  obstruction           p6(0,y) f2(0,y) = -729 Ht^2 (y'Ay)^4
9.  matrix-extraction     the quadratic form y'Ay pins down A entry by entry

Steps never assume each other's conclusions; a failed step reports a
nonzero residual and the run continues, so corrupted inputs show exactly
where the chain first breaks.  The printed closed-form expansion of
``delta1 f`` is also compared against the computed one, but as a
transcription fidelity note outside the pass/fail chain: the chain itself
only ever uses the congruence of step 2.

Each polynomial is built only as far as a step reads it.  Steps 3 to 5
multiply the nonzero pieces of ``|grad f|^2`` and ``delta1 f``, keyed by
degree and x1-degree, only where the degrees add up past 7.  Step 5 reads
the defect's degree-k part, k = 8 to 12, off the keys: its x1-valuation is
the least x1-degree of its pieces, and its restrictions to y = 0 and (step
7, k = 8) x = 0 are its pieces (k, k) and (8, 0).  The valuation is the
bound ``2k - 12`` exactly when the slices below the bound are empty and the
bound slice is not.  So step 5 forms only the slices below each bound and
the axis piece (k, k); at k = 12 the bound is the axis.  Step 3 forms a
piece of ``|grad f|^4`` only if it reads it itself (degree above 7) or if
its product with a piece of ``|grad f|^2`` has a key that step 5 forms.

Each bound slice of degree 8 to 11 is certified nonzero by its value at
one integer point, ``(2, 3, ..., N + 1)`` over the context's N variables.
Evaluation at a point is a ring homomorphism, so a nonzero value proves a
nonzero slice, with no probability in it.  The slice is ``Ht^2`` times the
(k, 2k - 12) piece of ``|grad f|^6``, plus the sign times the (delta1 f)^2
piece there; so its value is ``Ht^2`` times the sum, over ordered triples
of ``|grad f|^2`` pieces whose keys add up to (k, 2k - 12), of the product
of their three values, plus the sign times the value of the (delta1 f)^2
piece.  A zero value only leaves the slice open: if any value is zero, any
slice below a bound is nonzero, or f3 is not ``x^3``, step 5 forms every
piece of ``|grad f|^4`` whose product with ``|grad f|^2`` reaches degree
8, and the parts of degree 8 to 12 whole, so a failing record keeps its
residual.

Step 6's dividends sum these pieces, so on the sliced path they lack the
slices step 5 leaves out: the sum of the pieces is whole at degree 12 and
exact in its x1-slices up to 9 at degree 11, up to 7 at degree 10 and up
to 5 at degree 9.  Dividing by ``f3 = x^3`` is a shift: the quotient is
the slices from 3 up, lowered by 3, and the remainder slices 0 to 2.
Multiplying by f1 and f2 never lowers the x1-degree, so an error in a
quotient's slices above j stays above j in the next dividends.  Going
down, p9 is whole, p8 is exact up to slice 6, the dividend of degree 10
up to 6 and p7 up to 3, and the dividend of degree 9 up to 3 and p6 in
its slice 0.  Every remainder is exact, and steps 7 and 8 read only
``p7(0,y)`` and ``p6(0,y)``, slice 0 of each.  Only the step-6 dividends
and a failing residual sum pieces into whole parts.

Step 8 first checks ``f2(0,y) = y'Ay``.  Then ``p6(0,y) f2(0,y) + 729 Ht^2
(y'Ay)^4 = (p6(0,y) + 729 Ht^2 (y'Ay)^3) y'Ay`` with ``y'Ay != 0``, and the
coefficients form an integral domain, so step 8's identity holds exactly
when ``p6(0,y) = -729 Ht^2 (y'Ay)^3``; on a miss the step forms the product
for its residual.

The two supported mutations are deliberate corruptions used as negative
controls: ``"cubic-part"`` replaces the leading ``x^3`` by ``x^2 y_1``,
which step 1 catches, and ``"defect-sign"`` flips the sign of the
``(delta1 f)^2`` term inside the defect.  That flip moves only the
degree-8 part, where every valuation bound still holds; step 5's exact
x-axis identity catches it with residual ``2592 trace(A)^2 x^8``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .calculus import _gns_delta1, dot
from .cubic import (
    GenericCubicSpec,
    SymMatrix,
    generic_cubic,
    quad_form_from_matrix,
    quad_form_to_matrix,
)
from .divide import divide
from .ring import ExponentLimitError, Polynomial, RingError

MUTATIONS = ("cubic-part", "defect-sign")
# The chain's step names, in order; the docstring's table numbers them.
STEPS = (
    "gradsq-parts",
    "delta1-congruence",
    "gradsq-square",
    "delta1-square",
    "defect-valuations",
    "cascade-division",
    "vanish-at-x0",
    "obstruction",
    "matrix-extraction",
)


@dataclass(frozen=True)
class ReplayStep:
    name: str
    status: str  # "pass" | "fail"
    residual: Optional[Polynomial] = None
    witness: Optional[Polynomial] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class ReplayReport:
    n: int
    mutation: Optional[str]
    steps: list[ReplayStep] = field(default_factory=list)
    overall: str = "fail"
    delta1_expansion_matches: bool = False
    delta1_expansion_residual: Optional[Polynomial] = None

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    def step(self, name: str) -> ReplayStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def _expected_parts(spec: GenericCubicSpec) -> list[Polynomial]:
    x, k0, k1, r, s, Ay = spec.x, spec.k0, spec.k1, spec.r, spec.s, spec.Ay
    r_dot_y = dot(r, spec.y)
    h0 = k1 * k1 + dot(s, s)
    h1 = (
        dot(s, Ay) * 4
        + k0 * k1 * x * 4
        + k1 * r_dot_y * 2
        + x * dot(r, s) * 2
    )
    h2 = (
        x * dot(r, Ay) * 4
        + dot(Ay, Ay) * 4
        + k0 * x * r_dot_y * 4
        + r_dot_y**2
        + x**2 * (k0**2 * 4 + k1 * 6 + dot(r, r))
    )
    h3 = k0 * x**3 * 12 + x**2 * r_dot_y * 6
    h4 = x**4 * 9
    return [h0, h1, h2, h3, h4]


def _expected_delta1_rest(spec: GenericCubicSpec) -> Polynomial:
    """The printed closed-form expansion of delta1 on the generic cubic,
    less its leading ``4 trace(A) |grad f|^2``, as one sum of products."""
    x, k0, k1, r, s, y = spec.x, spec.k0, spec.k1, spec.r, spec.s, spec.y
    r_dot_y, Ay = dot(r, y), spec.Ay
    A2y, Ar, As = ([dot(row, v) for row in spec.A] for v in (Ay, r, s))
    A3y = [dot(row, A2y) for row in spec.A]
    lin = k0 + x * 3
    quad = k1 + r_dot_y - x**2 * 3
    return Polynomial._sum_of_products(x.ctx, [
        (lin * 16, dot(s, Ay) + dot(Ay, Ay)),
        (quad * -8, dot(r, Ay)),
        (x * -8, dot(s, Ar)),
        (x**2 * -4, dot(r, Ar)),
        (x * -16, dot(r, A2y)),
        (Polynomial.constant(x.ctx, -4),
         dot(s, A2y) * 4 + dot(s, As) + dot(y, A3y) * 4),
        (x * (k0 * x + k1 + r_dot_y) * -4, dot(r, r)),
        (lin * 4, dot(s, s)),
        (quad * -4, dot(r, s)),
    ])


def _step(steps: list[ReplayStep], residual: Polynomial, detail: str,
          witness: Optional[Polynomial] = None) -> None:
    """Append the record of the next step, named ``STEPS[len(steps)]``,
    which passes exactly when its residual is zero."""
    status = "fail" if residual else "pass"
    steps.append(ReplayStep(STEPS[len(steps)], status, residual or None, witness, detail))


def _piece(k: int, e: int) -> tuple[int, int]:
    """The key of a term's piece: its degree and x1-degree."""
    return k, e


def _product(factors: Sequence[tuple[dict, dict]],
             keep: Callable[[int, int], bool]) -> dict:
    """The nonzero pieces of ``sum(sum(a) * sum(b) for a, b in factors)``
    whose (degree, x1-degree) key passes ``keep``, over factors split the
    same way; each piece is one sum of products, and a square (``a is b``)
    forms each cross product once, doubled."""
    pairs: dict = {}
    for a, b in factors:
        for (i, s), p in a.items():
            for (j, t), q in b.items():
                if keep(i + j, s + t) and (a is not b or (i, s) <= (j, t)):
                    pq = (p, q) if a is not b or (i, s) == (j, t) else (p * 2, q)
                    pairs.setdefault((i + j, s + t), []).append(pq)
    pieces = ((k, Polynomial._sum_of_products(ps[0][0].ctx, ps))
              for k, ps in pairs.items())
    return {k: piece for k, piece in pieces if piece}


def _defect_key(k: int, e: int) -> bool:
    """Whether step 5 forms the defect piece of degree ``k`` and x1-degree
    ``e``: those below the bound ``2k - 12`` and on the axis, ``e = k``."""
    return k > 7 and (e < 2 * k - 12 or e == k)


def _bound_values(gpieces: dict, d1sq: dict, ht2: Polynomial,
                  sign: Polynomial, point: Sequence[int]) -> list:
    """The values at ``point`` of the defect's bound pieces (k, 2k - 12),
    k = 8 to 11: Ht^2 times the sum, over ordered triples of ``gpieces``
    whose keys add up to the bound's, of their values' product, plus the
    sign times the value of the ``d1sq`` piece there."""
    at = {key: p._at(point) for key, p in gpieces.items()}
    square: dict = {}
    for (i, s), a in at.items():
        for (j, t), b in at.items():
            square[i + j, s + t] = square.get((i + j, s + t), 0) + a * b
    h, sgn, values = ht2._at(point), sign._at(point), []
    for k in range(8, 12):
        b = 2 * k - 12
        cube = sum(square.get((k - i, b - s), 0) * a for (i, s), a in at.items())
        piece = d1sq.get((k, b))
        values.append(h * cube + (sgn * piece._at(point) if piece else 0))
    return values


def _valuation(pieces: dict, k: int) -> Union[int, float]:
    """The x1-valuation of the degree-``k`` part: the least x1-degree of
    its nonzero pieces."""
    return min((e for d, e in pieces if d == k), default=math.inf)


def replay(n: int, mutation: Optional[str] = None) -> ReplayReport:
    """Recompute the identity chain for dimension ``n`` (n >= 3)."""
    if mutation is not None and mutation not in MUTATIONS:
        raise RingError(f"unknown mutation {mutation!r}; choose from {MUTATIONS}")
    f, spec = generic_cubic(n)
    ctx = f.ctx
    x, ht, trace = spec.x, spec.ht, spec.trace
    if mutation == "cubic-part":
        f = f - x**3 + x**2 * spec.y[0]

    report = ReplayReport(n=n, mutation=mutation)
    steps = report.steps

    try:
        zero = Polynomial.zero(ctx)
        gradsq, d1 = _gns_delta1(f)
        gparts = gradsq.homogeneous_parts()
        parts = _expected_parts(spec)
        residual = gradsq - sum(parts, zero)
        if residual.is_zero:
            # The sum matching forces every homogeneous part to match, the
            # expected parts being homogeneous of their labeled degrees;
            # check anyway so a non-homogeneous builder cannot slip through.
            diffs = (gparts.get(k, zero) - parts[k] for k in range(5))
            residual = next(filter(None, diffs), zero)
        _step(steps, residual, "" if residual else "degrees 0..4 match exactly")

        d1_rest = d1 - trace * gradsq * 4
        _step(steps, d1_rest.high_part(3),
              "delta1 = 4 trace(A) |grad f|^2 above degree 3")

        fparts = f.homogeneous_parts()
        f1, f2, f3 = (fparts.get(k, zero) for k in (1, 2, 3))
        # Steps 3 to 5 read only degrees above 7, and step 5 only some of
        # their slices (see the module docstring); |grad f|^4 keeps the
        # pieces step 3 reads and those whose product with |grad f|^2 step 5
        # forms.
        gpieces = gradsq._split(_piece)
        wanted = {(k - i, e - s) for k in range(8, 13) for e in range(k + 1)
                  if _defect_key(k, e) for i, s in gpieces}
        gsq4 = _product([(gpieces, gpieces)], lambda k, e: k > 7 or (k, e) in wanted)
        residual = sum((p for (k, _), p in gsq4.items() if k > 7), zero) - x**8 * 81
        _step(steps, residual, "|grad f|^4 = 81 x^8 above degree 7")

        d1pieces = d1._split(_piece)
        d1sq = _product([(d1pieces, d1pieces)], lambda k, e: k > 7)
        residual = sum(d1sq.values(), zero) - trace**2 * x**8 * 1296
        _step(steps, residual, "(delta1 f)^2 = 6^4 trace(A)^2 x^8 above degree 7")

        ht2 = ht * ht
        sign = Polynomial.constant(ctx, 1 if mutation == "defect-sign" else -1)
        hpieces = {key: ht2 * p for key, p in gpieces.items()}
        d1term = (d1sq, {(0, 0): sign})
        dpieces = _product([(gsq4, hpieces), d1term], _defect_key)
        point = range(2, ctx.nvars + 2)
        sliced = (f3 == x**3
                  and all(_valuation(dpieces, k) >= 2 * k - 12 for k in range(8, 13))
                  and all(_bound_values(gpieces, d1sq, ht2, sign, point)))
        if not sliced:
            # A miss: form the parts whole, so a failing record keeps its
            # residual.
            low = 7 - max(gparts, default=0)
            gsq4 = _product([(gpieces, gpieces)], lambda k, e: k > low)
            dpieces = _product([(gsq4, hpieces), d1term], lambda k, e: k > 7)
        vals = {k: 2 * k - 12 if sliced and k < 12 else _valuation(dpieces, k)
                for k in range(8, 13)}
        bad = [k for k in range(8, 13) if vals[k] < 2 * k - 12]
        detail = ", ".join(f"deg {k}: val {vals[k]} (need {2*k-12})" for k in range(8, 13))
        # On the x-axis (y = 0) each part, its piece (k, k), must equal the
        # closed form built from the printed pieces of steps 1 and 4 alone:
        # Ht^2 [(sum h_i|y=0)^3]_k - [k = 8] 1296 trace(A)^2 x^8.
        axis = {(k, k): h._split(_piece).get((k, k), zero) for k, h in enumerate(parts)}
        axis_sq = _product([(axis, axis)], lambda k, e: k > 3)
        axis_cube = _product([(axis_sq, {key: ht2 * h for key, h in axis.items()})],
                             lambda k, e: k > 7)
        axis_diff = {
            k: dpieces.get((k, k), zero) - axis_cube.get((k, k), zero)
            for k in range(8, 13)
        }
        axis_diff[8] = axis_diff[8] + trace**2 * x**8 * 1296
        axis_bad = [k for k in range(8, 13) if not axis_diff[k].is_zero]
        if axis_bad:
            detail += f"; x-axis identity fails at deg {axis_bad[0]}"
        else:
            detail += "; x-axis parts match the closed form for deg 8..12"
        if bad:
            # A part below its bound is nonzero (and whole), so it is the residual.
            residual = sum((q for (k, _), q in dpieces.items() if k == bad[0]), zero)
        else:
            residual = axis_diff[axis_bad[0]] if axis_bad else zero
        _step(steps, residual, detail)

        # The degree-k part, the sum of its pieces, is p_{k-3} f3 + p_{k-2} f2
        # + p_{k-1} f1, so the parts p9..p6 come top down, each by an exact
        # division by f3.  The first nonzero miss is the residual: a
        # remainder, or p9 differing from its value.
        p: dict[int, Polynomial] = {}
        cascade_residual = zero
        one = Polynomial.one(ctx)
        for k in range(12, 8, -1):
            dividend = Polynomial._sum_of_products(ctx, [
                (q, one) for (d, _), q in dpieces.items() if d == k
            ] + [(p[k - j], -fj) for j, fj in ((2, f2), (1, f1)) if k - j in p])
            res = divide(dividend, f3)
            if res.quotient * f3 + res.remainder != dividend:
                raise RingError("cascade division produced an inconsistent identity")
            p[k - 3], rem = res.quotient, res.remainder
            if k == 12 and rem.is_zero:
                rem = p[9] - ht2 * x**9 * 729
            if cascade_residual.is_zero:
                cascade_residual = rem
        detail = "p9..p6 extracted exactly; p9 = 729 Ht^2 x^9"
        _step(steps, cascade_residual, "" if cascade_residual else detail, witness=p[9])

        at0 = {"x1": 0}
        residual = p[7].substitute(at0) or dpieces.get((8, 0), zero)
        _step(steps, residual, "p7(0, y) = 0 and defect degree-8 part vanishes at x = 0")

        f2_at0, p6_at0 = f2.substitute(at0), p[6].substitute(at0)
        yAy, scale = spec.yAy, ht2 * -729
        yAy2 = yAy * yAy
        rhs = yAy2 * yAy2 * scale
        # Cancel the factor f2(0, y) = y'Ay (see the module docstring).
        cancels = f2_at0 == yAy and p6_at0 == yAy2 * (yAy * scale)
        residual = zero if cancels else p6_at0 * f2_at0 - rhs
        _step(steps, residual, "p6(0, y) f2(0, y) = -729 Ht^2 (y'Ay)^4", witness=rhs)

        a_matrix = SymMatrix(spec.A)
        y_names = [f"x{i}" for i in range(2, n + 1)]
        extracted = quad_form_to_matrix(f2_at0, y_names)
        residual = f2_at0 - quad_form_from_matrix(extracted, y_names, ctx)
        if residual.is_zero and extracted != a_matrix:
            residual = f2_at0 - quad_form_from_matrix(a_matrix, y_names, ctx)
        _step(steps, residual,
              "" if residual else "y'Ay recovers every entry of A, so A = 0 is forced")

        # The printed closed-form expansion is transcription fidelity only;
        # a mismatch is recorded out of band and never fails the chain,
        # which relies solely on the step-2 congruence.
        expansion_residual = d1_rest - _expected_delta1_rest(spec)
        report.delta1_expansion_matches = expansion_residual.is_zero
        report.delta1_expansion_residual = expansion_residual or None
    except ExponentLimitError as exc:
        name = (*STEPS, "delta1-expansion")[len(steps)]
        raise ExponentLimitError(f"step {name}: {exc}") from exc

    if all(s.passed for s in steps):
        report.overall = "pass"
    return report
