import random

import pytest
from fractions import Fraction

from cmccheck.calculus import gradient, laplacian
from cmccheck.cubic import (
    SymMatrix,
    cube_root_cubic_form,
    generic_cubic,
    quad_form_from_matrix,
    quad_form_to_matrix,
    rational_cube_root,
)
from cmccheck.ring import Polynomial, RingContext, RingError
from oracles import random_coeff, raw, raw_cube_root

CTX2 = RingContext.geometric(2)
CTX3 = RingContext.geometric(3)
NOT_QUADRATIC = "not a quadratic form in the designated variables"
OUTSIDE = "quadratic form touches a geometric variable outside the designated set"


def var(ctx, name):
    return Polynomial.variable(ctx, name)


def test_generic_cubic_shape_n3():
    f, spec = generic_cubic(3)
    ctx = f.ctx
    assert ctx.geometric_variables == ("x1", "x2", "x3")
    # (n-1)n/2 + 2(n-1) + 3 parameters
    assert len(ctx.parameters) == 10
    assert spec.matrix_names == (("a_11", "a_12"), ("a_12", "a_22"))
    x, y1, y2 = (var(ctx, v) for v in ("x1", "x2", "x3"))
    a11, a12, a22 = (var(ctx, v) for v in ("a_11", "a_12", "a_22"))
    r1, r2, s1, s2 = (var(ctx, v) for v in ("r_1", "r_2", "s_1", "s_2"))
    k0, k1 = var(ctx, "k0"), var(ctx, "k1")
    expected = (
        x**3
        + a11 * y1**2
        + a12 * y1 * y2 * 2
        + a22 * y2**2
        + k0 * x**2
        + (r1 * y1 + r2 * y2) * x
        + k1 * x
        + s1 * y1
        + s2 * y2
    )
    assert f == expected


def test_generic_cubic_normalization_properties():
    for n in (3, 4, 5):
        f, spec = generic_cubic(n)
        ctx = f.ctx
        origin = {name: Fraction(0) for name in ctx.geometric_variables}
        # value at the origin is zero
        assert f.substitute(origin).is_zero
        x = var(ctx, "x1")
        assert f.homogeneous_part(3) == x**3
        # gradient at the origin is (k1, s_1, ..., s_{n-1})
        grads = [g.substitute(origin) for g in gradient(f)]
        assert grads[0] == var(ctx, spec.k1_name)
        for i, name in enumerate(spec.s_names):
            assert grads[i + 1] == var(ctx, name)
        # Laplacian at the origin is 2 trace(A) + 2 k0
        trace = sum(
            (var(ctx, spec.matrix_names[i][i]) for i in range(n - 1)),
            Polynomial.zero(ctx),
        )
        lap0 = laplacian(f).substitute(origin)
        assert lap0 == trace * 2 + var(ctx, spec.k0_name) * 2
        assert len(ctx.parameters) == (n - 1) * n // 2 + 2 * (n - 1) + 3


def test_generic_cubic_spec_carries_its_quadratic_pieces():
    # Reference: the entry-by-entry sums over the full symmetric grid.
    for n in (3, 4, 5):
        f, spec = generic_cubic(n)
        zero, a, y = Polynomial.zero(f.ctx), spec.A, spec.y
        rows = range(n - 1)
        assert spec.Ay == tuple(
            sum((a[i][j] * y[j] for j in rows), zero) for i in rows
        )
        assert spec.yAy == sum(
            (a[i][j] * y[i] * y[j] for i in rows for j in rows), zero
        )
        assert spec.trace == sum((a[i][i] for i in rows), zero)
        assert f.homogeneous_part(2).substitute({"x1": Fraction(0)}) == spec.yAy


def test_generic_cubic_guard_is_the_largest_exponent_of_the_replay():
    for n in (3, 5, 10):
        assert generic_cubic(n)[0].ctx.exponent_guard == 12


def test_generic_cubic_rejects_small_dimension():
    with pytest.raises(RingError):
        generic_cubic(2)


def test_rational_cube_root():
    assert rational_cube_root(Fraction(27)) == 3
    assert rational_cube_root(Fraction(-8, 27)) == Fraction(-2, 3)
    assert rational_cube_root(Fraction(0)) == 0
    assert rational_cube_root(Fraction(2)) is None
    assert rational_cube_root(Fraction(8, 9)) is None
    big = Fraction(10**60 + 3) ** 3
    assert rational_cube_root(big) == 10**60 + 3


def test_cube_root_examples():
    x, y = var(CTX2, "x1"), var(CTX2, "x2")
    assert cube_root_cubic_form((x + y * 2) ** 3) == x + y * 2
    assert cube_root_cubic_form(x**3 * 8) == x * 2
    assert cube_root_cubic_form(x**3 + y**3) is None
    assert cube_root_cubic_form(x**3 * 2) is None  # 2 is not a rational cube
    assert cube_root_cubic_form(Polynomial.zero(CTX2)).is_zero
    third = x * Fraction(1, 3) - y * Fraction(5, 2)
    assert cube_root_cubic_form(third**3) == third


def test_cube_root_handles_missing_leading_cube():
    x, y, z = (var(CTX3, v) for v in ("x1", "x2", "x3"))
    # no x1^3 term: the first pure cube is on x2
    form = (y - z) ** 3
    assert cube_root_cubic_form(form) == y - z
    assert cube_root_cubic_form(x * y * z) is None
    assert cube_root_cubic_form(x**2 * y * 3 + x * y**2 * 3) is None


def test_cube_root_rejects_non_cubic_forms():
    x, y = var(CTX2, "x1"), var(CTX2, "x2")
    with pytest.raises(RingError):
        cube_root_cubic_form(x**2)
    with pytest.raises(RingError):
        cube_root_cubic_form(x**3 + y)
    ctx = RingContext.with_parameters(["x1", "x2"], ["a"])
    with pytest.raises(RingError):
        cube_root_cubic_form(
            Polynomial.variable(ctx, "a") * Polynomial.variable(ctx, "x1") ** 3
        )


def test_cube_root_completeness_randomized():
    # zero coefficients included, so the pure cube is not always on x1
    rng = random.Random(41)
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        if all(c == 0 for c in coeffs):
            continue
        l = sum(
            (var(CTX3, name) * c for name, c in zip(("x1", "x2", "x3"), coeffs)),
            Polynomial.zero(CTX3),
        )
        root = cube_root_cubic_form(l**3)
        assert root == l  # rational cube roots are unique


def _cube_root_outcome(c):
    try:
        root = cube_root_cubic_form(c)
    except RingError as exc:
        return str(exc)
    return None if root is None else raw(root)


def test_cube_root_matches_the_term_reference_randomized():
    # Cubes, cubes plus one cubic monomial, cubes stripped of some x_k^3
    # terms, and forms that carry the parameter or a lower-degree term.
    ctx = RingContext.with_parameters(["x1", "x2", "x3", "x4"], ["a"])
    geo = [var(ctx, name) for name in ctx.geometric_variables]
    a = var(ctx, "a")
    rng = random.Random(19)
    kinds = set()
    for i in range(600):
        l = sum(
            (v * Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in geo),
            Polynomial.zero(ctx),
        )
        c = l**3
        family = i % 4
        if family == 1:
            monomial = rng.choice(geo) * rng.choice(geo) * rng.choice(geo)
            c = c + monomial * random_coeff(rng)
        elif family == 2:
            for k, v in enumerate(geo):
                if rng.random() < 0.5:
                    cube = tuple(3 if j == k else 0 for j in range(ctx.nvars))
                    c = c - v**3 * c.coefficient(cube)
        elif family == 3:
            c = c + rng.choice([a * l**3, a * geo[0] ** 3, geo[1] ** 2, geo[2]])
        outcome = _cube_root_outcome(c)
        assert outcome == raw_cube_root(c), str(c)
        kinds.add(type(outcome))
    assert kinds == {dict, type(None), str}


def test_quad_form_matrix_example():
    y1, y2 = var(CTX2, "x1"), var(CTX2, "x2")
    m = quad_form_to_matrix(y1**2 + y1 * y2 * 4, ("x1", "x2"))
    one, zero = Polynomial.one(CTX2), Polynomial.zero(CTX2)
    assert m.entries == ((one, one * 2), (one * 2, zero))
    assert quad_form_from_matrix(m, ("x1", "x2"), CTX2) == y1**2 + y1 * y2 * 4


def test_quad_form_with_parameter_entries():
    ctx = RingContext.with_parameters(["x1", "x2", "x3"], ["a", "b"])
    a, b = var(ctx, "a"), var(ctx, "b")
    y1, y2 = var(ctx, "x2"), var(ctx, "x3")
    q = a * y1**2 + b * y1 * y2 * 2
    m = quad_form_to_matrix(q, ("x2", "x3"))
    assert m.entries == ((a, b), (b, Polynomial.zero(ctx)))
    assert quad_form_from_matrix(m, ("x2", "x3"), ctx) == q


def test_quad_form_rejections():
    ctx = RingContext.with_parameters(["x1", "x2", "x3"], ["a"])
    y1 = var(ctx, "x2")
    with pytest.raises(RingError, match=f"^{NOT_QUADRATIC}$"):
        quad_form_to_matrix(y1**3, ("x2", "x3"))
    with pytest.raises(RingError, match=f"^{NOT_QUADRATIC}$"):
        quad_form_to_matrix(y1**2 + y1, ("x2", "x3"))
    with pytest.raises(RingError, match=f"^{NOT_QUADRATIC}$"):
        # designated degree 1, although x1 is also outside the set
        quad_form_to_matrix(var(ctx, "x1") * y1, ("x2", "x3"))
    with pytest.raises(RingError, match=f"^{OUTSIDE}$"):
        # touches x1, which is geometric but not designated
        quad_form_to_matrix(var(ctx, "x1") * y1**2, ("x2", "x3"))


def test_equal_quad_forms_raise_the_same_error():
    # Both rules break; the verdict must not hang on the order of the terms.
    x1, x3 = var(CTX3, "x1"), var(CTX3, "x3")
    for q in (x1**3 + x1**2 * x3, x1**2 * x3 + x1**3):
        with pytest.raises(RingError, match=f"^{NOT_QUADRATIC}$"):
            quad_form_to_matrix(q, ["x1"])


def test_quad_form_to_matrix_follows_the_term_rule_randomized():
    # A matrix exactly when every term has designated degree 2 and no other
    # geometric variable; else NOT_QUADRATIC when some term's designated
    # degree is not 2, and OUTSIDE when none is.
    ctx = RingContext.with_parameters(["x1", "x2", "x3", "x4"], ["a", "b"])
    rng = random.Random(23)
    seen = set()
    for _ in range(500):
        names = rng.sample(ctx.geometric_variables, rng.randint(1, 3))
        designated = [ctx.index(name) for name in names]
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = [0] * ctx.nvars
            for _ in range(rng.choice([2, 2, 2, 2, 1, 3])):
                exps[rng.choice(designated)] += 1
            if rng.random() < 0.2:
                exps[rng.randrange(ctx.geometric_count)] += 1
            exps[4], exps[5] = rng.randint(0, 2), rng.randint(0, 1)
            terms[tuple(exps)] = random_coeff(rng)
        q = Polynomial(ctx, terms)
        not_quadratic = outside = False
        for mono, _ in q.terms():
            not_quadratic |= sum(mono[i] for i in designated) != 2
            outside |= any(mono[i] for i in range(ctx.geometric_count)
                           if i not in designated)
        expected = NOT_QUADRATIC if not_quadratic else OUTSIDE if outside else None
        seen.add((not_quadratic, outside))
        try:
            m = quad_form_to_matrix(q, names)
        except RingError as exc:
            assert str(exc) == expected, str(q)
        else:
            assert expected is None, str(q)
            assert quad_form_from_matrix(m, names, ctx) == q
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_quad_form_linear_in_both_directions():
    rng = random.Random(42)
    ctx = RingContext.with_parameters(["x1", "x2"], ["a"])
    names = ("x1", "x2")
    for _ in range(100):
        def rand_sym():
            diag = [Polynomial.constant(ctx, random_coeff(rng)) for _ in range(2)]
            off = Polynomial.constant(ctx, random_coeff(rng))
            return SymMatrix(((diag[0], off), (off, diag[1])))

        m1, m2 = rand_sym(), rand_sym()
        q1 = quad_form_from_matrix(m1, names, ctx)
        q2 = quad_form_from_matrix(m2, names, ctx)
        c = random_coeff(rng)
        combined = quad_form_to_matrix(q1 * c + q2, names)
        for i in range(2):
            for j in range(2):
                expected = m1.entries[i][j] * c + m2.entries[i][j]
                assert combined.entries[i][j] == expected
        assert quad_form_to_matrix(q1, names).entries == m1.entries


def test_sym_matrix_validation():
    one = Polynomial.one(CTX2)
    zero = Polynomial.zero(CTX2)
    with pytest.raises(RingError):
        SymMatrix(((one, one), (zero, one)))  # not symmetric
    with pytest.raises(RingError):
        SymMatrix(((one,), (zero, one)))  # not square
    m = SymMatrix(((zero, one), (one, zero)))
    assert m.entries == ((zero, one), (one, zero))
