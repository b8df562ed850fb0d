import random

import pytest
from fractions import Fraction

from cmccheck.calculus import (
    _gns_delta1,
    cmc_defect,
    delta1,
    grad_norm_sq,
    gradient,
    laplacian,
    partial,
    symbolic_defect,
)
from cmccheck.ring import Polynomial, RingContext, RingError
from oracles import (
    check_delta1_identity,
    random_point,
    random_polynomial,
    raw,
    raw_delta1,
    raw_evaluate,
)

CTX3 = RingContext.geometric(3)
CTXP = RingContext.with_parameters(["x1", "x2", "x3"], ["a", "Ht"])


def var(ctx, name):
    return Polynomial.variable(ctx, name)


def radial(ctx, count=None):
    names = ctx.geometric_variables[: count or ctx.geometric_count]
    return sum(
        (Polynomial.variable(ctx, v) ** 2 for v in names), Polynomial.zero(ctx)
    )


def test_partial_and_gradient_basics():
    x1, x2, x3 = (var(CTX3, v) for v in ("x1", "x2", "x3"))
    f = x1**3 + x1 * x2 * 2 - x3
    assert partial(f, "x1") == x1**2 * 3 + x2 * 2
    assert partial(f, "x2") == x1 * 2
    assert partial(f, "x3") == Polynomial.constant(CTX3, -1)
    assert gradient(f) == [partial(f, v) for v in ("x1", "x2", "x3")]


def test_gradient_ignores_parameters():
    a, x = var(CTXP, "a"), var(CTXP, "x1")
    f = a * x**2
    assert gradient(f) == [a * x * 2, Polynomial.zero(CTXP), Polynomial.zero(CTXP)]
    assert partial(f, "a") == x**2  # explicit parameter derivative still works
    assert laplacian(f) == a * 2


def test_linearity_randomized():
    rng = random.Random(21)
    for _ in range(200):
        f = random_polynomial(rng, CTXP, max_degree=4)
        g = random_polynomial(rng, CTXP, max_degree=4)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert gradient(f * c + g) == [
            fi * c + gi for fi, gi in zip(gradient(f), gradient(g))
        ]
        assert laplacian(f * c + g) == laplacian(f) * c + laplacian(g)


def test_gradient_product_rule_randomized():
    rng = random.Random(22)
    for _ in range(200):
        f = random_polynomial(rng, CTX3, max_degree=3)
        g = random_polynomial(rng, CTX3, max_degree=3)
        lhs = gradient(f * g)
        rhs = [f * gi + g * fi for fi, gi in zip(gradient(f), gradient(g))]
        assert lhs == rhs


def test_sphere_operators():
    f = radial(CTX3) - 1
    assert laplacian(f) == Polynomial.constant(CTX3, 6)
    assert grad_norm_sq(f) == radial(CTX3) * 4
    assert delta1(f) == radial(CTX3) * 32  # 16 (n-1) |x|^2 at n = 3


def test_cylinder_operators():
    ctx = RingContext.geometric(4)
    rho = radial(ctx, 2)
    f = rho - 9
    assert laplacian(f) == Polynomial.constant(ctx, 4)
    assert grad_norm_sq(f) == rho * 4
    assert delta1(f) == rho * 16


def test_delta1_on_linear_is_zero():
    assert delta1(var(CTX3, "x1") - 5).is_zero
    assert delta1(var(CTX3, "x1") * 3 + var(CTX3, "x2")).is_zero


def test_delta1_is_twice_p1_laplacian():
    check_delta1_identity(random.Random(23), CTX3, 100)
    check_delta1_identity(random.Random(24), CTXP, 100)


def test_gns_delta1_from_one_gradient():
    rng = random.Random(26)
    for ctx in (CTX3, CTXP):
        for _ in range(50):
            f = random_polynomial(rng, ctx, max_degree=3, max_terms=5)
            gns, d1 = _gns_delta1(f)
            assert gns == grad_norm_sq(f)
            assert raw(d1) == raw_delta1(f)


def test_grad_norm_sq_nonnegative_at_points():
    rng = random.Random(25)
    for _ in range(100):
        f = random_polynomial(rng, CTX3, max_degree=4)
        point = random_point(rng, CTX3)
        assert raw_evaluate(grad_norm_sq(f), point) >= 0


def test_finite_difference_gradient_crosscheck():
    rng = random.Random(26)
    h = Fraction(1, 10**4)
    tol = Fraction(1, 10**3)
    for _ in range(40):
        f = random_polynomial(rng, CTX3, max_degree=4, max_terms=5)
        point = random_point(rng, CTX3, bound=2, denom=2)
        grads = gradient(f)
        for i, name in enumerate(CTX3.geometric_variables):
            up = dict(point)
            down = dict(point)
            up[name] = point[name] + h
            down[name] = point[name] - h
            quotient = (raw_evaluate(f, up) - raw_evaluate(f, down)) / (2 * h)
            exact = raw_evaluate(grads[i], point)
            assert abs(quotient - exact) <= tol * max(1, abs(exact))


def test_defect_sphere_closed_form():
    # 256 (n-1)^2 Hsq |x|^4 (|x|^2 - R^2) at Hsq = 1/R^2
    for n in (3, 4):
        ctx = RingContext.geometric(n)
        rad = radial(ctx)
        for rsq in (Fraction(1), Fraction(4)):
            f = rad - rsq
            expected = rad**2 * (rad - rsq) * (256 * (n - 1) ** 2 / rsq)
            assert cmc_defect(f, 1 / rsq) == expected


def test_defect_cylinder_closed_form():
    for n in (3, 4):
        ctx = RingContext.geometric(n)
        rho = radial(ctx, 2)
        rsq = Fraction(4)
        hsq = 1 / ((n - 1) ** 2 * rsq)
        f = rho - rsq
        expected = rho**2 * (rho - rsq) * (256 / rsq)
        assert cmc_defect(f, hsq) == expected


def test_defect_plane_is_constant():
    f = var(CTX3, "x1") - 5
    assert cmc_defect(f, Fraction(1, 2)) == Polynomial.constant(CTX3, 8)
    assert cmc_defect(f, 1) == Polynomial.constant(CTX3, 16)


def test_defect_degree_bound():
    rng = random.Random(27)
    for _ in range(60):
        f = random_polynomial(rng, CTX3, max_degree=3, allow_zero=False)
        if f.total_degree() < 1:
            continue
        d = cmc_defect(f, Fraction(1, 3))
        if not d.is_zero:
            assert d.total_degree() <= 6 * (f.total_degree() - 1)


def test_defect_validation_errors():
    f = radial(CTX3) - 1
    with pytest.raises(RingError):
        cmc_defect(f, 0)
    with pytest.raises(RingError):
        cmc_defect(f, -1)
    with pytest.raises(RingError):
        cmc_defect(f, Fraction(-1, 2))
    line = RingContext.geometric(1)
    with pytest.raises(RingError):
        cmc_defect(Polynomial.variable(line, "x1"), 1)


def test_symbolic_defect():
    x = var(CTXP, "x1")
    ht = var(CTXP, "Ht")
    f = x**3
    # gradient (3x^2, 0, 0): delta1 vanishes, leaving Ht^2 |grad f|^6
    assert delta1(f).is_zero
    assert symbolic_defect(f) == ht**2 * x**12 * 729
    assert symbolic_defect(f).substitute({"Ht": 0}).is_zero
    with pytest.raises(RingError):
        symbolic_defect(Polynomial.variable(CTX3, "x1") ** 3)  # no Ht declared
    ht_geometric = RingContext(("x1", "Ht"), 2)  # declared, but not a parameter
    with pytest.raises(RingError, match="as a parameter"):
        symbolic_defect(Polynomial.variable(ht_geometric, "x1") ** 3)


def test_symbolic_defect_names_ht_when_it_is_missing():
    # Not declared at all, or declared as a geometric variable: one message.
    for ctx in (RingContext(("x1", "x2"), 2), RingContext(("x1", "Ht"), 2)):
        with pytest.raises(RingError, match="must declare 'Ht' as a parameter"):
            symbolic_defect(Polynomial.variable(ctx, "x1") ** 3)


def test_symbolic_matches_numeric_defect():
    # Ht^2 = 4 (n-1)^2 Hsq ties the two modes together.
    f = radial(CTXP) - 1
    n = CTXP.geometric_count
    hsq = Fraction(1, 4)
    ht_value = Fraction(2 * (n - 1)) ** 2 * hsq
    sym = symbolic_defect(f)
    # substitute Ht^2 value via Ht := root when it exists
    assert ht_value == Fraction(4)  # (2*2)^2 * 1/4
    assert sym.substitute({"Ht": 2}) == cmc_defect(f, hsq)
