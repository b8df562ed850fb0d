"""Differential checks against sympy, an independent computer algebra system.

sympy is a test-only extra: without it this module is skipped.  The
defect is rebuilt in sympy's sparse polynomial ring from the coefficients
of the generic cubic alone, and so is the replay's cascade of exact
divisions.  Single-divisor divisions are compared with ``sympy.reduced``
under lex: for one divisor and a fixed monomial order, quotient and
remainder are unique, so the two systems must agree term for term.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.rings import ring  # noqa: E402

from cmccheck.calculus import symbolic_defect  # noqa: E402
from cmccheck.cubic import generic_cubic  # noqa: E402
from cmccheck.divide import divide  # noqa: E402
from cmccheck.replay import replay  # noqa: E402
from cmccheck.ring import Polynomial, RingContext  # noqa: E402
from oracles import random_polynomial  # noqa: E402


def to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def test_symbolic_defect_matches_sympy_n3():
    f, _ = generic_cubic(3)
    names = f.ctx.variables
    R, *gens = ring(",".join(names), sympy.QQ)
    F = R.from_dict(
        {m: sympy.QQ(c.numerator, c.denominator) for m, c in f.terms()}
    )
    xs = gens[: f.ctx.geometric_count]
    grad = [F.diff(x) for x in xs]
    gns = sum((g * g for g in grad), R.zero)
    lap = sum((F.diff(x).diff(x) for x in xs), R.zero)
    d1 = 2 * gns * lap - sum((g * gns.diff(x) for g, x in zip(grad, xs)), R.zero)
    ht = gens[names.index("Ht")]
    theirs = ht**2 * gns**3 - d1**2

    ours = symbolic_defect(f)
    assert len(ours) == len(theirs) == 8323
    assert dict(ours.terms()) == {m: to_fraction(c) for m, c in theirs.items()}


def to_sympy(f: Polynomial, symbols):
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[s**e for s, e in zip(symbols, m)])
            for m, c in f.terms()
        ]
    )


def from_sympy(expr, symbols, ctx: RingContext) -> Polynomial:
    terms = sympy.Poly(expr, *symbols, domain=sympy.QQ).as_dict()
    return Polynomial(ctx, {m: to_fraction(c) for m, c in terms.items()})


@pytest.mark.parametrize(
    "ctx",
    [
        RingContext.geometric(3),
        RingContext.with_parameters(["x1", "x2"], ["a", "b"]),
    ],
    ids=["geometric", "parameters"],
)
def test_division_matches_sympy_reduced(ctx):
    rng = random.Random(61)
    symbols = sympy.symbols(ctx.variables)
    for _ in range(20):
        g = random_polynomial(rng, ctx, max_degree=5, max_terms=7)
        f = random_polynomial(rng, ctx, max_degree=3, max_terms=4, allow_zero=False)
        # 7 divides no numerator here, so every lead becomes a non-integer.
        f = f * Fraction(rng.randint(1, 5), 7)
        res = divide(g, f)
        quotients, rem = sympy.reduced(
            to_sympy(g, symbols), [to_sympy(f, symbols)], *symbols, order="lex"
        )
        # sympy returns no quotient at all for a zero dividend.
        quotient = quotients[0] if quotients else 0
        assert res.quotient == from_sympy(quotient, symbols, ctx)
        assert res.remainder == from_sympy(rem, symbols, ctx)


@pytest.mark.parametrize(
    "ctx",
    [
        RingContext.geometric(3),
        RingContext.with_parameters(["x1", "x2"], ["a", "b"]),
    ],
    ids=["geometric", "parameters"],
)
def test_one_term_division_matches_sympy_reduced(ctx):
    rng = random.Random(67)
    symbols = sympy.symbols(ctx.variables)
    for _ in range(30):
        g = random_polynomial(rng, ctx, max_degree=6, max_terms=9)
        lead = random_polynomial(rng, ctx, max_degree=3, max_terms=1,
                                 allow_zero=False)
        f = lead * Fraction(rng.randint(1, 5), 7)
        assert len(f) == 1
        res = divide(g, f)
        quotients, rem = sympy.reduced(
            to_sympy(g, symbols), [to_sympy(f, symbols)], *symbols, order="lex"
        )
        quotient = quotients[0] if quotients else 0
        assert res.quotient == from_sympy(quotient, symbols, ctx)
        assert res.remainder == from_sympy(rem, symbols, ctx)


@pytest.mark.parametrize("n", [3, 4])
def test_replay_witnesses_match_sympy_cascade(n):
    """The cascade of steps 6 and 8, rebuilt in sympy from the normal form.

    The defect's parts of degree 8 to 12 give p9..p6 by exact division by
    ``f3 = x^3``; sympy's p9 must be the step-6 witness and its
    ``p6(0, y) f2(0, y)`` the step-8 witness ``-729 Ht^2 (y'Ay)^4``.
    """
    f, _ = generic_cubic(n)
    ctx = f.ctx
    names = ctx.variables
    R, *gens = ring(",".join(names), sympy.QQ)
    F = R.from_dict(
        {m: sympy.QQ(c.numerator, c.denominator) for m, c in f.terms()}
    )
    xs = gens[:n]
    grad = [F.diff(x) for x in xs]
    gns = sum((g * g for g in grad), R.zero)
    lap = sum((F.diff(x).diff(x) for x in xs), R.zero)
    d1 = 2 * gns * lap - sum((g * gns.diff(x) for g, x in zip(grad, xs)), R.zero)
    ht = gens[names.index("Ht")]

    def parts(p):
        out = {}
        for m, c in p.items():
            out.setdefault(sum(m[:n]), {})[m] = c
        return {k: R(terms) for k, terms in out.items()}

    dpart = parts(ht**2 * gns**3 - d1**2)
    fpart = parts(F)
    x = xs[0]
    assert fpart[3] == x**3
    p = {}
    for k in range(12, 8, -1):
        dividend = dpart.get(k, R.zero)
        for j in (2, 1):
            if k - j in p:
                dividend -= p[k - j] * fpart[j]
        p[k - 3], rem = dividend.div(fpart[3])
        assert rem == 0
    obstruction = p[6].subs(x, 0) * fpart[2].subs(x, 0)

    def ours(q):
        return Polynomial(ctx, {m: to_fraction(c) for m, c in q.items()})

    report = replay(n)
    assert report.step("cascade-division").witness == ours(p[9])
    assert report.step("obstruction").witness == ours(obstruction)
