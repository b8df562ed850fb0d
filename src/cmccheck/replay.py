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

Steps 3 to 5 read only degrees above 7, so they build only those: they
multiply homogeneous parts of ``|grad f|^2`` and ``delta1 f`` whose degrees
add up past 7, and the defect exists only as its parts of degree 8 to 12.

The two supported mutations are deliberate corruptions used as negative
controls: ``"cubic-part"`` replaces the leading ``x^3`` by ``x^2 y_1``,
which step 1 catches, and ``"defect-sign"`` flips the sign of the
``(delta1 f)^2`` term inside the defect.  That flip moves only the
degree-8 part, where every valuation bound still holds; step 5's exact
x-axis identity catches it with residual ``2592 trace(A)^2 x^8``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .calculus import delta1, dot, grad_norm_sq
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


def _mat_vec(spec: GenericCubicSpec, v: Sequence[Polynomial]) -> list[Polynomial]:
    return [dot(row, v) for row in spec.A]


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


def _expected_delta1(spec: GenericCubicSpec, gradsq: Polynomial) -> Polynomial:
    """The printed closed-form expansion of delta1 on the generic cubic."""
    x, k0, k1, r, s, y = spec.x, spec.k0, spec.k1, spec.r, spec.s, spec.y
    r_dot_y = dot(r, y)
    Ay = spec.Ay
    A2y = _mat_vec(spec, Ay)
    A3y = _mat_vec(spec, A2y)
    Ar = _mat_vec(spec, r)
    As = _mat_vec(spec, s)
    three_x = x * 3
    return (
        gradsq * spec.trace * 4
        + (k0 + three_x) * (dot(s, Ay) + dot(Ay, Ay)) * 16
        - dot(r, Ay) * (k1 + r_dot_y - x**2 * 3) * 8
        - x * dot(s, Ar) * 8
        - x**2 * dot(r, Ar) * 4
        - x * dot(r, A2y) * 16
        - dot(s, A2y) * 16
        - dot(s, As) * 4
        - dot(y, A3y) * 16
        - x * (k0 * x + k1 + r_dot_y) * dot(r, r) * 4
        + (k0 + three_x) * dot(s, s) * 4
        - dot(r, s) * (k1 + r_dot_y - x**2 * 3) * 4
    )


def expected_delta1_expansion(n: int) -> Polynomial:
    """The printed closed-form expansion of delta1(f) for dimension n."""
    f, spec = generic_cubic(n)
    return _expected_delta1(spec, grad_norm_sq(f))


def _exact_quotient(
    dividend: Polynomial, divisor: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Lex quotient and remainder, with the identity re-checked."""
    res = divide(dividend, divisor)
    if res.quotient * divisor + res.remainder != dividend:
        raise RingError("cascade division produced an inconsistent identity")
    return res.quotient, res.remainder


def _step(name: str, residual: Polynomial, detail: str,
          witness: Optional[Polynomial] = None) -> ReplayStep:
    """The record of a step that passes exactly when its residual is zero."""
    if residual.is_zero:
        return ReplayStep(name, "pass", witness=witness, detail=detail)
    return ReplayStep(name, "fail", residual, witness, detail)


def _product_above(
    a: dict[int, Polynomial], b: dict[int, Polynomial], above: int
) -> dict[int, Polynomial]:
    """The parts of degree > ``above`` of ``sum(a) * sum(b)``, for ``a`` and
    ``b`` mapping degrees to homogeneous parts; a square (``a is b``) forms
    each cross product once, doubled."""
    out: dict[int, Polynomial] = {}
    for i, p in a.items():
        for j, q in b.items():
            if i + j <= above or (a is b and j < i):
                continue
            pq = p * q if a is not b or i == j else p * 2 * q
            out[i + j] = out[i + j] + pq if i + j in out else pq
    return out


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
    current = "setup"

    try:
        current = "gradsq-parts"
        zero = Polynomial.zero(ctx)
        gradsq = grad_norm_sq(f)
        gparts = gradsq.homogeneous_parts()
        parts = _expected_parts(spec)
        residual = gradsq - sum(parts, zero)
        if residual.is_zero:
            # The sum matching forces every homogeneous part to match, the
            # expected parts being homogeneous of their labeled degrees;
            # check anyway so a non-homogeneous builder cannot slip through.
            diffs = (gparts.get(k, zero) - parts[k] for k in range(5))
            residual = next(filter(None, diffs), zero)
        if residual.is_zero:
            steps.append(
                ReplayStep(current, "pass", detail="degrees 0..4 match exactly")
            )
        else:
            steps.append(ReplayStep(current, "fail", residual=residual))

        current = "delta1-congruence"
        d1 = delta1(f)
        residual = (d1 - trace * gradsq * 4).high_part(3)
        steps.append(_step(current, residual,
                           "delta1 = 4 trace(A) |grad f|^2 above degree 3"))

        # Steps 3 to 5 read only degrees above 7 (see the module docstring);
        # |grad f|^4 keeps the parts whose product with |grad f|^2 gets there.
        current = "gradsq-square"
        gsq4 = _product_above(gparts, gparts, 7 - max(gparts, default=0))
        residual = sum((p for k, p in gsq4.items() if k > 7), zero) - x**8 * 81
        steps.append(_step(current, residual, "|grad f|^4 = 81 x^8 above degree 7"))

        current = "delta1-square"
        d1parts = d1.homogeneous_parts()
        d1sq = _product_above(d1parts, d1parts, 7)
        residual = sum(d1sq.values(), zero) - trace**2 * x**8 * 1296
        steps.append(_step(current, residual,
                           "(delta1 f)^2 = 6^4 trace(A)^2 x^8 above degree 7"))

        current = "defect-valuations"
        gsq6 = _product_above(gsq4, gparts, 7)
        sign = 1 if mutation == "defect-sign" else -1
        dpart = {
            k: ht * ht * gsq6.get(k, zero) + d1sq.get(k, zero) * sign
            for k in range(8, 13)
        }
        vals = {k: dpart[k].valuation("x1") for k in range(8, 13)}
        bad = [k for k in range(8, 13) if vals[k] < 2 * k - 12]
        detail = ", ".join(f"deg {k}: val {vals[k]} (need {2*k-12})" for k in range(8, 13))
        # On the x-axis (y = 0) each part must equal the closed form built
        # from the printed pieces of steps 1 and 4 alone:
        # Ht^2 [(sum h_i|y=0)^3]_k - [k = 8] 1296 trace(A)^2 x^8.
        y0 = {f"x{i}": Fraction(0) for i in range(2, n + 1)}
        axis_cube = (
            ht * ht * sum(parts, zero).substitute(y0) ** 3
        ).homogeneous_parts()
        axis_diff = {
            k: dpart[k].substitute(y0) - axis_cube.get(k, zero)
            for k in range(8, 13)
        }
        axis_diff[8] = axis_diff[8] + trace**2 * x**8 * 1296
        axis_bad = [k for k in range(8, 13) if not axis_diff[k].is_zero]
        if axis_bad:
            detail += f"; x-axis identity fails at deg {axis_bad[0]}"
        else:
            detail += "; x-axis parts match the closed form for deg 8..12"
        # A part below its valuation bound is nonzero, so it is the residual.
        residual = (
            dpart[bad[0]] if bad else axis_diff[axis_bad[0]] if axis_bad else zero
        )
        steps.append(_step(current, residual, detail))

        current = "cascade-division"
        fparts = f.homogeneous_parts()
        f1, f2, f3 = (fparts.get(k, zero) for k in (1, 2, 3))
        # dpart[k] = p_{k-3} f3 + p_{k-2} f2 + p_{k-1} f1, so the parts p9..p6
        # come top down, each by an exact division by f3.  The first nonzero
        # miss is the residual: a remainder, or p9 differing from its value.
        p: dict[int, Polynomial] = {}
        cascade_residual = zero
        for k in range(12, 8, -1):
            dividend = dpart[k]
            for j, fj in ((2, f2), (1, f1)):
                if k - j in p:
                    dividend = dividend - p[k - j] * fj
            p[k - 3], rem = _exact_quotient(dividend, f3)
            if k == 12 and rem.is_zero:
                rem = p[9] - ht * ht * x**9 * 729
            if cascade_residual.is_zero:
                cascade_residual = rem
        if cascade_residual.is_zero:
            steps.append(
                ReplayStep(current, "pass", witness=p[9],
                           detail="p9..p6 extracted exactly; p9 = 729 Ht^2 x^9")
            )
        else:
            steps.append(ReplayStep(current, "fail", residual=cascade_residual,
                                    witness=p[9]))

        current = "vanish-at-x0"
        at0 = {"x1": Fraction(0)}
        residual = p[7].substitute(at0) or dpart[8].substitute(at0)
        steps.append(_step(current, residual,
                           "p7(0, y) = 0 and defect degree-8 part vanishes at x = 0"))

        current = "obstruction"
        f2_at0 = f2.substitute(at0)
        rhs = -(ht * ht) * spec.yAy**4 * 729
        residual = p[6].substitute(at0) * f2_at0 - rhs
        steps.append(_step(current, residual,
                           "p6(0, y) f2(0, y) = -729 Ht^2 (y'Ay)^4", witness=rhs))

        current = "matrix-extraction"
        a_matrix = SymMatrix(spec.A)
        y_names = [f"x{i}" for i in range(2, n + 1)]
        extracted = quad_form_to_matrix(f2_at0, y_names)
        rebuilt = quad_form_from_matrix(extracted, y_names, ctx)
        if rebuilt == f2_at0 and extracted == a_matrix:
            steps.append(
                ReplayStep(current, "pass",
                           detail="y'Ay recovers every entry of A, so A = 0 is forced")
            )
        else:
            residual = f2_at0 - rebuilt
            if residual.is_zero:
                rebuilt = quad_form_from_matrix(a_matrix, y_names, ctx)
                residual = f2_at0 - rebuilt
            steps.append(ReplayStep(current, "fail", residual=residual))

        # The printed closed-form expansion is transcription fidelity only;
        # a mismatch is recorded out of band and never fails the chain,
        # which relies solely on the step-2 congruence.
        current = "delta1-expansion"
        expansion_residual = d1 - _expected_delta1(spec, gradsq)
        report.delta1_expansion_matches = expansion_residual.is_zero
        report.delta1_expansion_residual = expansion_residual or None
    except ExponentLimitError as exc:
        raise ExponentLimitError(f"step {current}: {exc}") from exc

    if all(s.passed for s in steps):
        report.overall = "pass"
    return report
