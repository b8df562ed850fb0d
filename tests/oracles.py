"""Independent reference implementations and randomized generators.

The raw_* functions operate on plain ``{exponent-tuple: Fraction}`` dicts
with hand-rolled loops, sharing no code with the engine's Polynomial, so
they can serve as oracles for its arithmetic.  The check_* drivers are the
randomized property suites; they assert internally and are reused by both
the module tests and the acceptance suite.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from cmccheck.calculus import delta1, laplacian, partial
from cmccheck.divide import divide
from cmccheck.ring import Polynomial, RingContext

# ----------------------------------------------------------------------
# raw-dict reference arithmetic


def raw(f: Polynomial) -> dict:
    return dict(f.terms())


def raw_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, Fraction(0)) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def raw_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def raw_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, Fraction(0)) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def raw_pow(a: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = raw_mul(out, a)
    return out


def raw_substitute(a: dict, values: dict, nvars: int) -> dict:
    """``a`` with variable ``i`` replaced by the raw dict ``values[i]`` for
    every bound ``i``, all at once: each term's unbound part times the
    bound values raised to its exponents."""
    out: dict = {}
    for m, c in a.items():
        rest = tuple(0 if i in values else e for i, e in enumerate(m))
        term = {rest: c}
        for i, value in values.items():
            term = raw_mul(term, raw_pow(value, m[i], nvars))
        out = raw_add(out, term)
    return out


def raw_partial(a: dict, i: int) -> dict:
    out = {}
    for m, c in a.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
    return out


def raw_laplacian(f: Polynomial) -> dict:
    """Sum of the second partials over the geometric variables."""
    out: dict = {}
    for i in range(f.ctx.geometric_count):
        out = raw_add(out, raw_partial(raw_partial(raw(f), i), i))
    return out


def raw_delta1(f: Polynomial) -> dict:
    """Twice the p-Laplacian at p = 1 over the geometric variables,
    2 |grad f|^2 lap f - grad f . grad |grad f|^2, from raw dicts alone."""
    geometric = range(f.ctx.geometric_count)
    grad = [raw_partial(raw(f), i) for i in geometric]
    gns: dict = {}
    lap: dict = {}
    for i, g in zip(geometric, grad):
        gns = raw_add(gns, raw_mul(g, g))
        lap = raw_add(lap, raw_partial(g, i))
    twice = raw_mul(gns, raw_add(lap, lap))
    for i, g in zip(geometric, grad):
        twice = raw_add(twice, raw_neg(raw_mul(g, raw_partial(gns, i))))
    return twice


def _raw_cbrt(q: Fraction):
    """Exact rational cube root of a small rational, or None."""
    def icbrt(v: int):
        r = round(v ** (1 / 3))
        return next((t for t in (r - 1, r, r + 1) if t**3 == v), None)

    num, den = icbrt(abs(q.numerator)), icbrt(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num if q > 0 else -num, den)


def raw_cube_root(c: Polynomial):
    """What ``cube_root_cubic_form(c)`` should give, from ``terms()`` alone:
    the raw dict of the root, None, or the message of the error it raises.

    At the first geometric ``x_k`` with a nonzero ``x_k^3`` coefficient
    ``a^3`` (None if ``a^3`` is no rational cube), the candidate is
    ``a x_k + sum_j coeff(x_k^2 x_j) / (3 a^2) x_j``; it is the root when its
    cube is ``c``."""
    g, nvars = c.ctx.geometric_count, c.ctx.nvars
    terms = raw(c)
    if any(sum(m[:g]) != 3 or any(m[g:]) for m in terms):
        return "cube root needs a homogeneous cubic form in the geometric variables"
    if not terms:
        return {}

    def mono(*factors: int) -> tuple[int, ...]:
        exps = [0] * nvars
        for i in factors:
            exps[i] += 1
        return tuple(exps)

    k = next((k for k in range(g) if mono(k, k, k) in terms), None)
    if k is None:
        return None
    a = _raw_cbrt(terms[mono(k, k, k)])
    if a is None:
        return None
    root = {mono(k): a}
    for j in range(g):
        square = terms.get(mono(k, k, j)) if j != k else None
        if square:
            root[mono(j)] = square / (3 * a * a)
    return root if raw_pow(root, 3, nvars) == terms else None


def raw_evaluate(f: Polynomial, point: dict) -> Fraction:
    """Value of ``f`` at ``point``, a map from each used variable's name."""
    names = f.ctx.variables
    return sum(
        (
            c * math.prod(point[v] ** e for v, e in zip(names, m) if e)
            for m, c in f.terms()
        ),
        Fraction(0),
    )


def grevlex_key(mono: tuple[int, ...]) -> tuple:
    """Ascending sort key for graded reverse lexicographic order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def lex_key(mono: tuple[int, ...]) -> tuple:
    """Ascending sort key for lexicographic order, first variable heaviest."""
    return mono


def raw_to_text(f: Polynomial) -> str:
    """Canonical text rendered from ``terms()``, sorted on tuple keys: lex
    for a context with parameters, grevlex for one without."""
    key = lex_key if f.ctx.parameters else grevlex_key
    terms = sorted(f.terms(), key=lambda kv: key(kv[0]), reverse=True)
    if not terms:
        return "0"
    parts = []
    for i, (mono, coeff) in enumerate(terms):
        factors = []
        if abs(coeff) != 1 or not any(mono):
            factors.append(str(abs(coeff)))
        for name, e in zip(f.ctx.variables, mono):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if i == 0:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


# ----------------------------------------------------------------------
# randomized generators


def random_coeff(rng: random.Random, bound: int = 5, denom: int = 3) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, denom))


def random_monomial(
    rng: random.Random, ctx: RingContext, max_degree: int, param_degree: int = 1
) -> tuple[int, ...]:
    g = ctx.geometric_count
    exps = [0] * ctx.nvars
    budget = rng.randint(0, max_degree)
    for _ in range(budget):
        if g:
            exps[rng.randrange(g)] += 1
    for i in range(g, ctx.nvars):
        exps[i] = rng.randint(0, param_degree)
    return tuple(exps)


def random_polynomial(
    rng: random.Random,
    ctx: RingContext,
    max_degree: int = 4,
    max_terms: int = 6,
    bound: int = 5,
    allow_zero: bool = True,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        terms[random_monomial(rng, ctx, max_degree)] = random_coeff(rng, bound)
    f = Polynomial(ctx, terms)
    if not allow_zero and f.is_zero:
        return Polynomial.one(ctx)
    return f


def random_homogeneous(
    rng: random.Random,
    ctx: RingContext,
    degree: int,
    max_terms: int = 5,
    bound: int = 5,
) -> Polynomial:
    g = ctx.geometric_count
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ctx.nvars
        for _ in range(degree):
            exps[rng.randrange(g)] += 1
        for i in range(g, ctx.nvars):
            exps[i] = rng.randint(0, 1)
        terms[tuple(exps)] = random_coeff(rng, bound)
    return Polynomial(ctx, terms)


def random_point(
    rng: random.Random, ctx: RingContext, bound: int = 3, denom: int = 3
) -> dict[str, Fraction]:
    return {
        name: Fraction(rng.randint(-bound, bound), rng.randint(1, denom))
        for name in ctx.variables
    }


# ----------------------------------------------------------------------
# property drivers (shared by module tests and the acceptance suite)


def check_ring_axioms(rng: random.Random, ctx: RingContext, rounds: int) -> None:
    zero = Polynomial.zero(ctx)
    for _ in range(rounds):
        a = random_polynomial(rng, ctx)
        b = random_polynomial(rng, ctx)
        c = random_polynomial(rng, ctx)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        assert a + zero == a
        assert a * Polynomial.one(ctx) == a


def check_reference_arithmetic(
    rng: random.Random, ctx: RingContext, rounds: int
) -> None:
    for _ in range(rounds):
        a = random_polynomial(rng, ctx)
        b = random_polynomial(rng, ctx)
        assert raw(a + b) == raw_add(raw(a), raw(b))
        assert raw(a * b) == raw_mul(raw(a), raw(b))
        assert raw(a - b) == raw_add(raw(a), raw_neg(raw(b)))
        k = rng.randint(0, 3)
        assert raw(a**k) == raw_pow(raw(a), k, ctx.nvars)


def check_division_identity(rng: random.Random, ctx: RingContext, rounds: int) -> None:
    for _ in range(rounds):
        g = random_polynomial(rng, ctx, max_degree=5, max_terms=8)
        f = random_polynomial(rng, ctx, max_degree=3, max_terms=4, allow_zero=False)
        res = divide(g, f)
        assert res.quotient * f + res.remainder == g
        if not res.remainder.is_zero:
            lead = max(f.monomials(), key=lex_key)
            for mono in res.remainder.monomials():
                assert any(a < b for a, b in zip(mono, lead))


def check_remainder_uniqueness(
    rng: random.Random, ctx: RingContext, rounds: int
) -> None:
    for _ in range(rounds):
        g = random_polynomial(rng, ctx, max_degree=4, max_terms=6)
        f = random_polynomial(rng, ctx, max_degree=3, max_terms=4, allow_zero=False)
        h = random_polynomial(rng, ctx, max_degree=3, max_terms=4)
        assert divide(g + f * h, f).remainder == divide(g, f).remainder


def check_certificates(rng: random.Random, ctx: RingContext, rounds: int) -> None:
    for _ in range(rounds):
        f = random_polynomial(rng, ctx, max_degree=3, max_terms=4, allow_zero=False)
        h = random_polynomial(rng, ctx, max_degree=3, max_terms=4)
        res = divide(f * h, f)
        assert res.remainder.is_zero
        assert res.quotient == h


def check_euler(rng: random.Random, ctx: RingContext, rounds: int) -> None:
    for _ in range(rounds):
        k = rng.randint(1, 5)
        f = random_homogeneous(rng, ctx, k)
        total = Polynomial.zero(ctx)
        for name in ctx.geometric_variables:
            total = total + Polynomial.variable(ctx, name) * partial(f, name)
        assert total == f * k


def check_laplacian(rng: random.Random, ctx: RingContext, rounds: int) -> None:
    for _ in range(rounds):
        f = random_polynomial(rng, ctx, max_degree=4, max_terms=6)
        assert raw(laplacian(f)) == raw_laplacian(f)


def check_delta1_identity(rng: random.Random, ctx: RingContext, rounds: int) -> None:
    for _ in range(rounds):
        f = random_polynomial(rng, ctx, max_degree=3, max_terms=5)
        assert raw(delta1(f)) == raw_delta1(f)
