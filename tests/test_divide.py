import random

import pytest
from fractions import Fraction

from cmccheck.divide import ZeroDivisorError, divide
from cmccheck.parse import parse_polynomial
from cmccheck.ring import (
    ContextMismatchError,
    ExponentLimitError,
    Polynomial,
    RingContext,
)
from oracles import (
    check_certificates,
    check_division_identity,
    check_remainder_uniqueness,
    raw,
    raw_add,
    raw_mul,
    random_coeff,
    random_monomial,
    random_point,
    random_polynomial,
)

CTX = RingContext.geometric(3)
CTXP = RingContext.with_parameters(["x1", "x2"], ["a", "b"])


def parse(src, ctx=CTX):
    return parse_polynomial(src, ctx)


def test_monomial_division():
    res = divide(parse("x1^5"), parse("x1^3"))
    assert res.quotient == parse("x1^2")
    assert res.remainder.is_zero


def test_lex_division_example():
    # dividing x + y by x - y leaves remainder 2y
    res = divide(parse("x1 + x2"), parse("x1 - x2"))
    assert res.quotient == Polynomial.one(CTX)
    assert res.remainder == parse("2*x2")


def test_division_identity_randomized():
    check_division_identity(random.Random(31), CTX, 120)
    check_division_identity(random.Random(32), CTXP, 80)


def test_remainder_uniqueness_randomized():
    check_remainder_uniqueness(random.Random(33), CTX, 120)
    check_remainder_uniqueness(random.Random(34), CTXP, 80)


def test_divide_certificates_randomized():
    check_certificates(random.Random(35), CTX, 100)


def test_divisibility_verdict_is_order_independent():
    # Lex on the reversed roster (x3 heaviest) is another monomial order;
    # the zero-remainder verdict must not change with it.
    rng = random.Random(36)
    reversed_ctx = RingContext(CTX.variables[::-1], 3)

    def reverse(p):
        return Polynomial(reversed_ctx, {m[::-1]: c for m, c in p.terms()})

    for _ in range(100):
        f = random_polynomial(rng, CTX, max_degree=3, max_terms=3, allow_zero=False)
        g = random_polynomial(rng, CTX, max_degree=4, max_terms=5)
        for h in (g, g * f):
            zero = divide(h, f).remainder.is_zero
            assert divide(reverse(h), reverse(f)).remainder.is_zero == zero


def test_zero_dividend_and_zero_divisor():
    f = parse("x1 + 1")
    res = divide(Polynomial.zero(CTX), f)
    assert res.quotient.is_zero and res.remainder.is_zero
    with pytest.raises(ZeroDivisorError):
        divide(f, Polynomial.zero(CTX))


def test_context_mismatch():
    other = RingContext.geometric(2)
    with pytest.raises(ContextMismatchError):
        divide(parse("x1"), Polynomial.variable(other, "x1"))


def test_exponent_guard_is_enforced():
    ctx = RingContext(("x1", "x2"), 2, exponent_guard=10)
    g = parse_polynomial("x1*x2", ctx)
    f = parse_polynomial("x1 + x2^10", ctx)
    with pytest.raises(ExponentLimitError):
        divide(g, f)  # quotient term x2 times x2^10 overshoots


def test_exponent_guard_holds_for_reduced_terms():
    # Input exponents stay far below the guard, but reducing x1^4 by
    # x1 + x2^3 builds x2^12 in the remainder.
    ctx = RingContext(("x1", "x2"), 2, exponent_guard=10)
    g = parse_polynomial("x1^4", ctx)
    f = parse_polynomial("x1 + x2^3", ctx)
    with pytest.raises(ExponentLimitError):
        divide(g, f)
    res = divide(parse_polynomial("x1^3", ctx), f)
    assert res.remainder == parse_polynomial("-x2^9", ctx)


def test_lead_with_a_zero_exponent_does_not_divide():
    # The borrow case: x1^2 - x1*x2 underflows the x2 exponent.
    res = divide(parse("x1^2"), parse("x1*x2"))
    assert res.quotient.is_zero
    assert res.remainder == parse("x1^2")
    res = divide(parse("x1^2*x3 + x2"), parse("x1*x3"))
    assert res.quotient == parse("x1")
    assert res.remainder == parse("x2")


def test_deep_reduction_with_rational_lead():
    # A degree-12 dividend against a non-unit rational lead: each working
    # coefficient sits over a power of the lead well past the tenth.
    g = parse("(x1 + 2*x2 - x3 + 1/3)^12 + x2^7*x3^5 - 4/9*x1^3*x3")
    f = parse("(3/2)*x1 - (5/7)*x2 + 1")
    res = divide(g, f)
    assert raw_add(raw_mul(raw(res.quotient), raw(f)), raw(res.remainder)) == raw(g)
    assert not res.remainder.is_zero
    lead = max(f.monomials())  # the lex leading monomial
    for mono in res.remainder.monomials():
        assert any(a < b for a, b in zip(mono, lead))


def test_monic_layer_division():
    # Lex with x1 first makes x1^3 the lead of an x1-monic divisor, so the
    # remainder drops below x1-degree 3: the layer-by-layer division.
    g = parse("x1^5 + x1^2*x2 + x2^3")
    f = parse("x1^3 + x2")
    res = divide(g, f)
    assert res.quotient * f + res.remainder == g
    assert res.remainder.degree_in("x1") < 3
    exact = divide(parse("x1^6 + 2*x1^3*x2 + x2^2"), f)
    assert exact.remainder.is_zero
    assert exact.quotient == f


def test_monic_agrees_with_lex_divide_on_exactness():
    # For an x1-monic divisor, q*f + r with deg_x1(r) < deg_x1(f) is the
    # unique layer division; lex division must return exactly that pair.
    rng = random.Random(37)
    x = Polynomial.variable(CTX, "x1")
    checked = 0
    for _ in range(100):
        low = random_polynomial(rng, CTX, max_degree=2, max_terms=3)
        f = x**3 + low  # monic of x-degree 3 when low has smaller x-degree
        if f.is_zero or f.degree_in("x1") != 3 or len(
            [m for m in f.monomials() if m[0] == 3]
        ) != 1:
            continue
        h = random_polynomial(rng, CTX, max_degree=3, max_terms=4)
        r = random_polynomial(rng, CTX, max_degree=4, max_terms=4)
        r = Polynomial(CTX, {m: c for m, c in r.terms() if m[0] < 3})
        res = divide(h * f + r, f)
        assert res.quotient == h and res.remainder == r
        checked += 1
    assert checked > 50


def test_monic_division_commutes_with_specialization():
    rng = random.Random(38)
    x = Polynomial.variable(CTXP, "x1")
    for _ in range(60):
        low = random_polynomial(rng, CTXP, max_degree=2, max_terms=3)
        f = x**2 + low
        if f.degree_in("x1") != 2 or len(
            [m for m in f.monomials() if m[0] == 2]
        ) != 1 or any(m[0] == 2 and any(m[1:]) for m in f.monomials()):
            continue
        g = random_polynomial(rng, CTXP, max_degree=4, max_terms=5)
        res = divide(g, f)
        point = random_point(rng, CTXP)
        binding = {name: point[name] for name in ("x2", "a", "b")}
        gs = g.substitute(binding)
        fs = f.substitute(binding)
        qs = res.quotient.substitute(binding)
        rs = res.remainder.substitute(binding)
        assert qs * fs + rs == gs
        # and the specialized division itself returns the same pair
        again = divide(gs, fs)
        assert again.quotient == qs and again.remainder == rs


def test_divide_negative_result_carries_witness():
    g, f = parse("x1 - x2"), parse("x1 + x2")
    res = divide(g, f)
    assert not res.remainder.is_zero
    assert res.quotient * f + res.remainder == g
    lead = max(f.monomials())  # the lex leading monomial
    for mono in res.remainder.monomials():
        assert not all(e >= k for e, k in zip(mono, lead))


def test_divide_known_quotients():
    ctx = RingContext.with_parameters(["x1", "x2"], ["Ht"])
    x = Polynomial.variable(ctx, "x1")
    ht = Polynomial.variable(ctx, "Ht")
    big = ht**2 * x**12 * 729
    res = divide(big, x**3)
    assert res.remainder.is_zero
    assert res.quotient == ht**2 * x**9 * 729


@pytest.mark.parametrize("ctx", [CTX, CTXP], ids=["geometric", "parameters"])
def test_one_term_divisors(ctx):
    """A one-term divisor takes a single pass over the dividend: each term
    it divides goes to the quotient, every other term to the remainder."""
    rng = random.Random(91)
    for _ in range(150):
        g = random_polynomial(rng, ctx, max_degree=6, max_terms=9)
        lead = random_monomial(rng, ctx, 3)
        f = Polynomial(ctx, {lead: random_coeff(rng, 9, 7)})
        res = divide(g, f)
        assert res.quotient * f + res.remainder == g
        for mono in res.remainder.monomials():
            assert not all(e >= k for e, k in zip(mono, lead))
