import dataclasses
import math
import random

import pytest
from fractions import Fraction

from cmccheck.calculus import delta1, grad_norm_sq, partial
from cmccheck.cubic import generic_cubic
from cmccheck.divide import divide
from cmccheck.parse import parse_polynomial
from cmccheck.ring import (
    DEFAULT_EXPONENT_GUARD,
    MAX_POWER_BITS,
    ContextMismatchError,
    ExponentLimitError,
    Polynomial,
    RingContext,
    RingError,
    UnknownVariableError,
)
from oracles import (
    check_euler,
    check_reference_arithmetic,
    check_ring_axioms,
    random_coeff,
    random_monomial,
    random_point,
    random_polynomial,
    raw,
    raw_add,
    raw_evaluate,
    raw_mul,
    raw_pow,
    raw_substitute,
    raw_to_text,
)

CTX3 = RingContext.geometric(3)
CTXP = RingContext.with_parameters(["x1", "x2"], ["a", "b"])
# Three coordinates and one parameter, so printed in lex.
LEX3 = RingContext.with_parameters(["x1", "x2", "x3"], ["a"])


def var(ctx, name):
    return Polynomial.variable(ctx, name)


def raw_terms(f):
    return dict(f.terms())


def test_context_validation():
    with pytest.raises(RingError):
        RingContext(("x", "x"), 1)
    with pytest.raises(RingError):
        RingContext(("x", "2y"), 1)
    with pytest.raises(RingError):
        RingContext(("x",), 2)
    with pytest.raises(RingError, match="^exponent guard must be positive$"):
        RingContext(("x",), 1, exponent_guard=0)
    with pytest.raises(RingError, match="^need at least one variable$"):
        RingContext.geometric(0)
    assert CTX3.variables == ("x1", "x2", "x3")
    # No print-order field: the roster decides it (see test_grevlex_order_example).
    assert [f.name for f in dataclasses.fields(RingContext)] == [
        "variables", "geometric_count", "exponent_guard",
    ]
    assert CTXP.geometric_variables == ("x1", "x2")
    assert CTXP.parameters == ("a", "b")


def test_construction_merges_and_drops_zeros():
    f = Polynomial(CTX3, [((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 3)])
    assert raw_terms(f) == {(0, 1, 0): Fraction(3)}
    assert Polynomial(CTX3, {(0, 0, 0): 0}).is_zero
    # Repeated monomials whose rational coefficients sum to an integer,
    # cancel and reduce: the constructor, the parser and a chain of ``+``
    # share one summation loop and leave the same canonical form.
    x1, x2, x3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    pairs = [
        (x1, Fraction(1, 2)), (x2, Fraction(1, 3)), (x1, Fraction(1, 2)),
        (x3, Fraction(1, 6)), (x2, Fraction(-1, 3)), (x3, Fraction(1, 3)),
    ]
    f = Polynomial(CTX3, pairs)
    reduced = Polynomial(CTX3, {x1: 1, x3: Fraction(1, 2)})
    text = "1/2*x1 + 1/3*x2 + 1/2*x1 + 1/6*x3 - 1/3*x2 + 1/3*x3"
    chain = sum((Polynomial(CTX3, {m: c}) for m, c in pairs), Polynomial.zero(CTX3))
    for other in (reduced, parse_polynomial(text, CTX3), chain):
        assert f == other
        assert (f._terms, f._den) == (other._terms, other._den)
    assert f._den == 2
    with pytest.raises(RingError):
        Polynomial(CTX3, {(1, 0): 1})
    with pytest.raises(RingError):
        Polynomial(CTX3, {(-1, 0, 0): 1})


def test_floats_rejected_everywhere():
    with pytest.raises(RingError):
        Polynomial.constant(CTX3, 0.5)
    with pytest.raises(RingError):
        Polynomial(CTX3, {(1, 0, 0): 1.5})
    f = var(CTX3, "x1")
    with pytest.raises(RingError):
        f * 0.5
    with pytest.raises(RingError):
        f.substitute({"x1": 0.5})


def test_grevlex_order_example():
    # x*y^2 beats x^2*z in grevlex despite equal total degree; lex puts
    # x^2*z first.
    for ctx, monos, text in (
        (CTX3, [(1, 2, 0), (2, 0, 1)], "x1*x2^2 + x1^2*x3"),
        (LEX3, [(1, 2, 0, 0), (2, 0, 1, 0)], "x1^2*x3 + x1*x2^2"),
    ):
        f = Polynomial(ctx, {m: 1 for m in monos})
        assert str(f) == text


def test_print_order_matches_the_reference_order():
    rng = random.Random(55)
    # The replay's context (guard 12, so 5-bit fields) and the empty roster
    # besides the 3-variable ones.
    for ctx in (CTX3, CTXP, LEX3, generic_cubic(3)[0].ctx, RingContext((), 0)):
        for _ in range(60):
            f = random_polynomial(rng, ctx, max_degree=4, max_terms=8, allow_zero=False)
            assert str(f) == raw_to_text(f)


def test_sorted_terms_deterministic():
    f = var(CTX3, "x3") + var(CTX3, "x1") * var(CTX3, "x2") + 5
    assert str(f) == "x1*x2 + x3 + 5"
    assert repr(var(CTX3, "x1")) == "Polynomial(x1)"


def test_coefficient_rejects_malformed_monomials():
    f = var(CTX3, "x1") + 2
    for bad in ((2, 0), (1, 0, 0, 0), (1, -1, 0)):
        with pytest.raises(RingError):
            f.coefficient(bad)
    # Above the guard no monomial can be stored, so its coefficient is 0.
    assert f.coefficient((CTX3.exponent_guard + 1, 0, 0)) == 0
    assert f.coefficient((1, 0, 0)) == 1 and f.coefficient((0, 0, 0)) == 2


def test_equality_requires_same_context():
    other = LEX3
    assert var(CTX3, "x1") != var(other, "x1")
    with pytest.raises(ContextMismatchError):
        var(CTX3, "x1") + var(other, "x1")
    assert var(CTX3, "x1") + 0 == var(CTX3, "x1")
    assert hash(var(CTX3, "x1")) == hash(var(CTX3, "x1"))


def test_scalar_coercion_both_sides():
    x = var(CTX3, "x1")
    assert 2 + x == x + 2
    assert 2 - x == -(x - 2)
    assert Fraction(1, 2) * x == x * Fraction(1, 2)
    # No ``/``: scalars divide by multiplying with a Fraction.
    with pytest.raises(TypeError):
        x / 2
    # A string is no scalar: arithmetic refuses it, and it equals no polynomial.
    for operation in (lambda: x + "a", lambda: "a" - x, lambda: x * "a"):
        with pytest.raises(TypeError):
            operation()
    assert (x == "a") is False


def test_degree_and_sentinels():
    zero = Polynomial.zero(CTX3)
    assert zero.total_degree() == -math.inf
    assert zero.total_degree() < 0
    assert zero.degree_in("x1") == -math.inf
    assert Polynomial.constant(CTX3, 7).total_degree() == 0
    f = var(CTX3, "x1") ** 2 * var(CTX3, "x2")
    assert f.total_degree() == 3
    assert f.degree_in("x1") == 2


def test_parameters_carry_no_degree():
    a = var(CTXP, "a")
    x = var(CTXP, "x1")
    assert (a**1).total_degree() == 0
    assert (a * a * var(CTXP, "b")).total_degree() == 0
    assert (a * x**2).total_degree() == 2
    assert (a * x**2).homogeneous_part(2) == a * x**2
    assert (a * x**2).homogeneous_part(0).is_zero


def test_homogeneous_parts_project_and_reconstruct():
    rng = random.Random(11)
    for _ in range(50):
        f = random_polynomial(rng, CTXP, max_degree=5, max_terms=8)
        if f.is_zero:
            continue
        top = int(f.total_degree())
        parts = [f.homogeneous_part(k) for k in range(top + 1)]
        assert sum(parts, Polynomial.zero(CTXP)) == f
        for k, part in enumerate(parts):
            assert part.homogeneous_part(k) == part
            for j in range(top + 1):
                if j != k:
                    assert part.homogeneous_part(j).is_zero
        for k in range(top + 1):
            low = sum(parts[: k + 1], Polynomial.zero(CTXP))
            assert f.high_part(k) == f - low


def test_homogeneous_parts_split_in_one_pass():
    """The parts sum back to f, each is homogeneous of its key, none is
    zero, keys ascend, and the zero polynomial has no parts."""
    assert Polynomial.zero(CTXP).homogeneous_parts() == {}
    wide = RingContext(("x1", "x2", "x3", "x4"), 4, exponent_guard=10)
    rng = random.Random(23)
    cases = [random_polynomial(rng, ctx, max_degree=6, max_terms=10)
             for ctx in (CTX3, CTXP) for _ in range(60)]
    # Rational coefficients over a shared denominator, and the field-by-field
    # degree path of a context whose degrees overflow one exponent field.
    cases += [f * Fraction(3, 4) + Fraction(1, 6) for f in cases[:20]]
    cases.append(Polynomial(wide, {(10, 10, 10, 5): Fraction(1, 2)})
                 + Polynomial(wide, {(10, 0, 0, 0): 1}) + 1)
    for f in cases:
        parts = f.homogeneous_parts()
        assert list(parts) == sorted(parts)
        assert sum(parts.values(), Polynomial.zero(f.ctx)) == f
        for k, part in parts.items():
            assert not part.is_zero
            assert part.homogeneous_part(k) == part
            assert part == f.homogeneous_part(k)
        if not f.is_zero:
            assert max(parts) == f.total_degree()


def test_high_part_congruence_example():
    x = var(CTXP, "x1")
    a = var(CTXP, "a")
    f = x**3 + a * x + 1
    g = x**3 - x**2
    assert not (f - g).high_part(1).is_zero  # they differ at degree 2
    assert (f - g).high_part(2).is_zero  # congruent modulo degree <= 2
    assert (f - (x**3 + 5)).high_part(1).is_zero


def test_degree_additivity_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a = random_polynomial(rng, CTXP, max_degree=4, allow_zero=False)
        b = random_polynomial(rng, CTXP, max_degree=4, allow_zero=False)
        assert (a * b).total_degree() == a.total_degree() + b.total_degree()


def test_ring_axioms_randomized():
    check_ring_axioms(random.Random(1), CTX3, 60)
    check_ring_axioms(random.Random(2), CTXP, 60)


def test_arithmetic_matches_reference_oracle():
    check_reference_arithmetic(random.Random(3), CTX3, 60)
    check_reference_arithmetic(random.Random(4), CTXP, 60)


def test_power_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(30):
        f = random_polynomial(rng, CTX3, max_degree=2, max_terms=3)
        acc = Polynomial.one(CTX3)
        for k in range(6):
            assert f**k == acc
            acc = acc * f
    with pytest.raises(RingError):
        var(CTX3, "x1") ** -1


def test_mixed_coefficient_multiplication():
    # One rational coefficient forces the general path; results must agree
    # with the integer fast path on the integer part.
    x, y = var(CTX3, "x1"), var(CTX3, "x2")
    f = x * 2 + y * Fraction(1, 3)
    g = x * 3 - y
    assert (f * g).coefficient((2, 0, 0)) == 6
    assert (f * g).coefficient((0, 2, 0)) == Fraction(-1, 3)
    assert (f * g).coefficient((1, 1, 0)) == -1


def test_substitute_examples():
    x, y1 = var(CTXP, "x1"), var(CTXP, "x2")
    a = var(CTXP, "a")
    f = x**2 * y1
    assert f.substitute({"x2": 1}) == x**2
    assert f.substitute({"x1": 0}).is_zero
    g = a * x**3 * 12 + x**2 * y1 * 6
    assert g.substitute({"x1": 0}).is_zero
    assert f.substitute({}) == f
    with pytest.raises(UnknownVariableError):
        f.substitute({"zz": 1})


def test_substitute_polynomial_values():
    x, y = var(CTX3, "x1"), var(CTX3, "x2")
    f = x**2 + y
    assert f.substitute({"x1": y + 1}) == y**2 + y * 3 + 1
    # scalar and polynomial bindings in one call act simultaneously: the
    # scalar for x2 does not reach the x2 inside the value bound to x1
    z = var(CTX3, "x3")
    assert (x**2 * z + y).substitute({"x1": y + 1, "x3": 2}) == (
        y**2 * 2 + y * 5 + 2
    )
    assert (x + y).substitute({"x1": y, "x2": 3}) == y + 3
    # a value from another context, a sub-context included, is refused
    sub = RingContext.geometric(2)
    with pytest.raises(ContextMismatchError):
        f.substitute({"x1": Polynomial.variable(sub, "x2") + 1})
    alien = RingContext(("zz",), 1)
    with pytest.raises(ContextMismatchError):
        f.substitute({"x1": Polynomial.variable(alien, "zz")})


def test_substitute_agrees_with_evaluate():
    rng = random.Random(9)
    for _ in range(100):
        f = random_polynomial(rng, CTXP, max_degree=4, max_terms=6)
        point = random_point(rng, CTXP)
        direct = raw_evaluate(f, point)
        via_subst = f.substitute(point)
        assert via_subst == Polynomial.constant(CTXP, direct)


def test_value_at_an_integer_point_matches_raw_evaluate():
    """``_at`` reads each monomial's nonzero fields; it must agree with the
    reference that unpacks exponent tuples, zero polynomial included."""
    rng = random.Random(47)
    for ctx in (CTX3, CTXP, LEX3):
        for _ in range(60):
            f = random_polynomial(rng, ctx, max_degree=6, max_terms=8)
            point = [rng.randint(-4, 4) for _ in ctx.variables]
            assert f._at(point) == raw_evaluate(f, dict(zip(ctx.variables, point)))
        assert Polynomial.zero(ctx)._at(range(ctx.nvars)) == 0
    # An exponent at the guard fills its field up to the guard bit.
    f = Polynomial(CTX3, {(DEFAULT_EXPONENT_GUARD, 0, 1): Fraction(1, 3)})
    assert f._at((-1, 5, 2)) == Fraction(-2, 3)


def test_zero_scalars_agree_with_constant_polynomial_values():
    """A rational and the same value bound as a constant polynomial take
    one path: a zero of either kind drops whole terms by a mask test, and
    any other value is a constant polynomial in the kernel.  The two must
    agree."""
    rng = random.Random(31)
    for ctx in (CTX3, CTXP, LEX3):
        for _ in range(60):
            f = random_polynomial(rng, ctx, max_degree=5, max_terms=8)
            values = {
                name: rng.choice([0, Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
                for name in rng.sample(ctx.variables, rng.randint(1, ctx.nvars))
            }
            as_polys = {k: Polynomial.constant(ctx, v) for k, v in values.items()}
            assert f.substitute(values) == f.substitute(as_polys)
        zeros = {name: 0 for name in ctx.variables}
        constant = f.coefficient((0,) * ctx.nvars)
        assert f.substitute(zeros) == Polynomial.constant(ctx, constant)


def test_substitute_matches_a_raw_reference():
    """Mixed bindings (0, nonzero rationals, the zero polynomial, constant
    polynomials and polynomials that mention bound variables, so the
    replacement must be simultaneous) against ``raw_substitute``."""
    rng = random.Random(47)
    for ctx in (CTX3, CTXP, LEX3):
        zero = Polynomial.zero(ctx)
        for _ in range(60):
            f = random_polynomial(rng, ctx, max_degree=4, max_terms=6)
            bindings = {}
            for name in rng.sample(ctx.variables, rng.randint(1, ctx.nvars)):
                bindings[name] = rng.choice([
                    0,
                    random_coeff(rng),
                    zero,
                    Polynomial.constant(ctx, random_coeff(rng)),
                    random_polynomial(rng, ctx, max_degree=2, max_terms=3)
                    + var(ctx, rng.choice(sorted(bindings) or [name])),
                ])
            values = {
                ctx.index(name): raw(v) if isinstance(v, Polynomial)
                else {(0,) * ctx.nvars: Fraction(v)} if v else {}
                for name, v in bindings.items()
            }
            expected = raw_substitute(raw(f), values, ctx.nvars)
            assert raw(f.substitute(bindings)) == expected


def test_exponent_guard():
    tight = RingContext(("x1", "x2"), 2, exponent_guard=10)
    x = Polynomial.variable(tight, "x1")
    assert (x**10).degree_in("x1") == 10
    with pytest.raises(ExponentLimitError):
        x**11
    with pytest.raises(ExponentLimitError):
        (x**6) * (x**6)
    with pytest.raises(ExponentLimitError):
        Polynomial(tight, {(11, 0): 1})
    with pytest.raises(ExponentLimitError):
        (x**6).substitute({"x1": x**2})


def test_euler_identity_randomized():
    check_euler(random.Random(6), CTX3, 100)
    check_euler(random.Random(8), CTXP, 100)


def test_exponent_guard_never_carries_into_the_next_variable():
    # Packed exponents: an over-guard exponent must raise, not spill into
    # the field of the variable above it.
    for guard in (2**16 - 1, 10):
        ctx = RingContext(("x1", "x2", "x3"), 3, exponent_guard=guard)
        x2 = Polynomial.variable(ctx, "x2")
        at_guard = Polynomial(ctx, {(0, guard, 0): 1})
        below = Polynomial(ctx, {(0, guard - 1, 0): 1})
        with pytest.raises(ExponentLimitError):
            at_guard * x2
        with pytest.raises(ExponentLimitError):
            at_guard * at_guard
        product = below * x2
        assert product == at_guard
        assert raw_terms(product) == {(0, guard, 0): Fraction(1)}
        assert product.degree_in("x1") == 0


def test_one_term_products_and_powers_match_the_oracle():
    """A one-term operand shifts the other in ``__mul__``, and a one-term
    base scales its exponents in ``__pow__``; both against the raw oracle."""
    rng = random.Random(61)
    for ctx in (CTX3, CTXP, LEX3):
        for _ in range(60):
            coeff = rng.choice([1, -1, rng.randint(2, 9), random_coeff(rng)])
            term = Polynomial(ctx, {random_monomial(rng, ctx, 3): coeff})
            ints = Polynomial(ctx, [
                (random_monomial(rng, ctx, 4), rng.randint(-9, 9)) for _ in range(6)
            ])
            for f in (random_polynomial(rng, ctx, max_terms=6), ints, term):
                assert raw(term * f) == raw_mul(raw(term), raw(f))
                assert raw(f * term) == raw_mul(raw(f), raw(term))
            for k in range(6):
                assert raw(term**k) == raw_pow(raw(term), k, ctx.nvars)


def test_one_term_powers_past_the_guard_raise():
    """``(c*x^a)^e`` past the guard raises, naming the exponent, and never
    spills into the field of the next variable."""
    for guard in (10, 2**16 - 1):
        ctx = RingContext(("x1", "x2", "x3"), 3, exponent_guard=guard)
        half = guard // 2 + 1
        for coeff in (1, -3, Fraction(2, 5)):
            with pytest.raises(ExponentLimitError, match=f"exponent {guard + 1} "):
                Polynomial(ctx, {(0, 1, 0): coeff}) ** (guard + 1)
            with pytest.raises(ExponentLimitError, match=f"exponent {2 * half} "):
                Polynomial(ctx, {(1, 2, 1): coeff}) ** half
            at_guard = Polynomial(ctx, {(0, 1, 0): coeff}) ** guard
            assert raw(at_guard) == {(0, guard, 0): Fraction(coeff) ** guard}
            assert at_guard.degree_in("x1") == 0


def test_equal_rationals_give_equal_polynomials():
    m = (1, 0, 2)
    half = Polynomial(CTX3, {m: Fraction(1, 2)})
    assert Polynomial(CTX3, {m: Fraction(2, 4)}) == half
    assert hash(Polynomial(CTX3, {m: Fraction(2, 4)})) == hash(half)
    rng = random.Random(41)
    for _ in range(30):
        f = random_polynomial(rng, CTXP, max_degree=4, max_terms=6)
        assert (f * Fraction(1, 3)) * 3 == f
        assert hash((f * Fraction(1, 3)) * 3) == hash(f)
        assert (f - f).is_zero
        assert f - f == Polynomial.zero(CTXP)
        assert hash(f - f) == hash(Polynomial.zero(CTXP))


def test_constants_hash_like_their_values():
    for value in (3, Fraction(-7, 4), 0):
        p = Polynomial.constant(CTX3, value)
        assert p == value and hash(p) == hash(value)
        assert value in {p} and p in {value}
        assert len({p, value}) == 1


def test_powers_past_the_coefficient_cap_raise():
    """The cap bounds the exponent times the bit length of the base's
    largest numerator or of its denominator, one-term or not."""
    x = var(CTX3, "x1")
    big = 3**65535  # 103,871 bits
    for base in (
        Polynomial.constant(CTX3, big),
        x + big,
        x * Fraction(1, big) + 1,
        Polynomial(CTX3, {(1, 0, 0): big}),
    ):
        with pytest.raises(ExponentLimitError, match="coefficient cap"):
            base**1000
        assert raw(base**2) == raw_pow(raw(base), 2, 3)
    # The estimate is the exponent times the bits; at the cap itself it passes.
    two = Polynomial.constant(CTX3, 2)  # 2 bits
    assert two ** (MAX_POWER_BITS // 2) == 2 ** (MAX_POWER_BITS // 2)
    with pytest.raises(ExponentLimitError):
        two ** (MAX_POWER_BITS // 2 + 1)


def test_degrees_beyond_one_exponent_field():
    # Four 10-bounded exponents sum past what one 5-bit field holds.
    ctx = RingContext(("x1", "x2", "x3", "x4"), 4, exponent_guard=10)
    top = Polynomial(ctx, {(10, 10, 10, 5): 1})
    f = top + Polynomial(ctx, {(10, 0, 0, 0): 1}) + 1
    assert f.total_degree() == 35
    assert f.homogeneous_part(35) == top
    assert f.high_part(10) == top
    assert f.homogeneous_part(10) == Polynomial(ctx, {(10, 0, 0, 0): 1})


def _check_degree_field(p):
    """``total_degree()`` and the keys of ``homogeneous_parts()`` read the
    degree the packed monomials carry; it must equal the sum of the
    geometric exponents that ``terms()`` reports."""
    g = p.ctx.geometric_count
    by_degree: dict = {}
    for mono, c in p.terms():
        by_degree.setdefault(sum(mono[:g]), {})[mono] = c
    assert p.total_degree() == max(by_degree, default=-math.inf)
    assert p.homogeneous_parts() == {
        d: Polynomial(p.ctx, terms) for d, terms in by_degree.items()
    }
    return p


def _every_monomial_path(ctx, p, q, name):
    """The output of every path that builds a monomial, from the
    multi-term polynomials ``p`` and ``q`` and the variable ``name``."""
    x = Polynomial.variable(ctx, name)
    bound = ctx.variables[-1]
    result = divide(p, q + x)
    return [
        x, x * p, p * x**2, p * q, p**2, (x * 3) ** 3,
        partial(p, name), partial(p, bound),
        p.substitute({name: 0}), p.substitute({bound: Fraction(1, 2)}),
        p.substitute({name: q, bound: x + 1}),
        result.quotient, result.remainder,
    ]


def test_the_degree_field_is_the_sum_of_the_geometric_exponents():
    rng = random.Random(29)
    for _ in range(20):
        p = random_polynomial(rng, CTXP, max_degree=3, max_terms=5)
        q = random_polynomial(rng, CTXP, max_degree=2, max_terms=4)
        built = [
            Polynomial(CTXP, {(2, 1, 3, 0): 2, (0, 1, 1, 1): 1, (0, 0, 2, 2): 5}),
            parse_polynomial("3*x1^2*a^3 - x2*(x1 + a)^2 + (2*x2*b)^3 + b^4", CTXP),
            *_every_monomial_path(CTXP, p, q, rng.choice(CTXP.variables)),
        ]
        for r in built:
            _check_degree_field(r)
    # The replay's 5-bit ring at n = 10: the geometric fields of the OR of
    # all monomials of ``delta1 f`` sum past what one 5-bit field holds.
    f, spec = generic_cubic(10)
    gns, d1 = grad_norm_sq(f), delta1(f)
    for r in (gns, d1, *_every_monomial_path(f.ctx, f, spec.x + spec.y[0], "x2")):
        _check_degree_field(r)
    # The widest degree: every field of 64 variables at the default guard.
    ctx = RingContext.geometric(64)
    assert 64 * DEFAULT_EXPONENT_GUARD == 4_194_240
    top = Polynomial(ctx, {(DEFAULT_EXPONENT_GUARD,) * 64: 1})
    text = "*".join(f"x{i}^{DEFAULT_EXPONENT_GUARD}" for i in range(1, 65))
    for r in (top, parse_polynomial(text, ctx), parse_polynomial(f"({text}) + 1", ctx)):
        assert _check_degree_field(r).total_degree() == 4_194_240
        assert r.homogeneous_part(4_194_240) == top
    with pytest.raises(ExponentLimitError):
        top * Polynomial.variable(ctx, "x64")


def test_a_context_without_variables():
    ctx = RingContext((), 0)
    c = Polynomial.constant(ctx, Fraction(-3, 2))
    assert str(c) == "-3/2"
    assert c.total_degree() == 0
    assert c.homogeneous_parts() == {0: c}
    assert c * c * 4 == Polynomial.constant(ctx, 9)
    assert str(c * Polynomial.constant(ctx, 2)) == "-3"


def _random_pairs(rng, ctx):
    """0 to 5 factor pairs: rational operands, zeros, squares of one
    object, and pairs whose products cancel against an earlier one."""
    pairs = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(4)
        a = random_polynomial(rng, ctx, max_degree=3, max_terms=5)
        b = random_polynomial(rng, ctx, max_degree=3, max_terms=5)
        if kind == 0:
            pairs.append((a, b))
        elif kind == 1:
            pairs.append((a, a))
        elif kind == 2:
            pairs.append(rng.choice([(Polynomial.zero(ctx), b), (a, a * 0)]))
        else:
            pairs += [(a, b), (b * Fraction(-1, 2), a * 2)]
    return pairs


def test_sum_of_products_matches_the_raw_reference():
    rng = random.Random(71)
    cancelled = 0
    for ctx in (CTX3, CTXP, LEX3):
        for _ in range(150):
            pairs = _random_pairs(rng, ctx)
            want: dict = {}
            for a, b in pairs:
                want = raw_add(want, raw_mul(raw(a), raw(b)))
            got = Polynomial._sum_of_products(ctx, pairs)
            assert raw(got) == want
            # The canonical form: equal to the same sum built term by term.
            assert got == Polynomial(ctx, want)
            cancelled += bool(pairs) and not want
    assert cancelled > 10


def test_sum_of_products_past_the_guard_raises_what_mul_raises():
    tight = RingContext(("x1", "x2"), 2, exponent_guard=10)
    x1, x2 = var(tight, "x1"), var(tight, "x2")
    a = x1**6 + x2 * Fraction(1, 3)
    b = x1**5 * 2 + 1
    small = x1 + x2
    for p, q in ((a, b), (b, a), (a, a)):
        with pytest.raises(ExponentLimitError) as want:
            p * q
        for pairs in ([(p, q)], [(small, small), (p, q)], [(p, q), (small, b)]):
            with pytest.raises(ExponentLimitError) as got:
                Polynomial._sum_of_products(tight, pairs)
            assert str(got.value) == str(want.value)
