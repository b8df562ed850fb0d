import dataclasses
import hashlib
import random
from itertools import islice

import pytest
from fractions import Fraction

from cmccheck import cmc
from cmccheck.calculus import cmc_defect, delta1, grad_norm_sq, symbolic_defect
from cmccheck.cmc import (
    IRREDUCIBILITY_WARNING,
    SINGULARITY_WARNING,
    SweepReport,
    _random_cubics,
    check_cmc,
    make_surface,
    refutation_sweep,
    solve_hsq,
)
from cmccheck.divide import DivisionResult, divide
from cmccheck.parse import parse_polynomial, to_text
from cmccheck.ring import Polynomial, RingContext, RingError
from oracles import (
    random_coeff,
    random_homogeneous,
    random_point,
    random_polynomial,
    raw_evaluate,
)


def sphere(n, rsq=1):
    return make_surface("sphere", n, rsq)


def test_sphere_is_algebraically_cmc():
    for n in (2, 3, 4, 5):
        for rsq in (1, 4, Fraction(9, 4)):
            f, hsq, cert = sphere(n, rsq)
            assert hsq == Fraction(1) / Fraction(rsq)
            report = check_cmc(f, hsq)
            assert report.divisible
            assert report.certificate == cert
            assert report.witness_remainder is None
            assert report.certificate * f == cmc_defect(f, hsq)


def test_cylinder_is_algebraically_cmc():
    for n in (3, 4):
        for rsq in (1, 4):
            f, hsq, cert = make_surface("cylinder", n, rsq)
            assert hsq == Fraction(1, (n - 1) ** 2 * rsq)
            report = check_cmc(f, hsq)
            assert report.divisible
            assert report.certificate == cert


def test_plane_has_no_admissible_curvature():
    f, hsq, cert = make_surface("plane", 3)
    assert hsq is None and cert is None
    assert solve_hsq(f) is None
    # the defect of a linear form is a nonzero constant for every hsq > 0
    for trial in (Fraction(1), Fraction(1, 7), Fraction(5)):
        report = check_cmc(f, trial)
        assert not report.divisible
        assert cmc_defect(f, trial).total_degree() == 0
    # The verdict is read off the certificate, not stored beside it.
    assert [field.name for field in dataclasses.fields(report)] == [
        "hsq", "certificate", "witness_remainder", "warnings"]


def test_warnings_only_on_nonlinear_inputs():
    f, hsq, _ = sphere(3)
    report = check_cmc(f, hsq)
    assert report.warnings == (IRREDUCIBILITY_WARNING, SINGULARITY_WARNING)
    g, _, _ = make_surface("plane", 3)
    assert check_cmc(g, Fraction(1)).warnings == ()


def test_wrong_curvature_is_rejected():
    f, hsq, _ = sphere(3, 1)
    report = check_cmc(f, hsq + 1)
    assert not report.divisible
    assert report.certificate is None
    assert not report.witness_remainder.is_zero


def test_check_cmc_validation():
    ctx = RingContext.geometric(3)
    f, hsq, _ = sphere(3)
    with pytest.raises(RingError):
        check_cmc(Polynomial.constant(ctx, 5), hsq)
    with pytest.raises(RingError):
        check_cmc(f, 0)
    with pytest.raises(RingError):
        check_cmc(f, Fraction(-1, 2))
    with pytest.raises(RingError):
        check_cmc(f, 0.25)


def test_solve_hsq_on_models():
    for n in (2, 3, 4):
        f, hsq, _ = sphere(n, Fraction(3, 2))
        assert solve_hsq(f).hsq == hsq
    f, hsq, _ = make_surface("cylinder", 4, 2)
    assert solve_hsq(f).hsq == hsq


def test_solve_hsq_scaled_and_translated_spheres():
    # solve_hsq sees through constant rescaling of the defining polynomial
    f, hsq, _ = sphere(3, 4)
    assert solve_hsq(f * Fraction(-7, 3)).hsq == hsq
    # and through translation: shifted spheres keep their curvature
    rng = random.Random(7)
    ctx = f.ctx
    for _ in range(10):
        shift = {
            name: Polynomial.variable(ctx, name)
            + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for name in ctx.geometric_variables
        }
        assert solve_hsq(f.substitute(shift)).hsq == hsq


def test_solve_hsq_none_means_every_curvature_fails():
    ctx = RingContext.geometric(3)
    f = parse_polynomial("x1^3 + x2^3 + x3^3 - 1", ctx)
    assert solve_hsq(f) is None
    rng = random.Random(13)
    for _ in range(10):
        trial = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        assert not check_cmc(f, trial).divisible


def test_solve_hsq_both_residues_zero_corner():
    # f = x1^3 divides |grad f|^6 = 729 x1^12, and delta1(x1^3) = 0, so every
    # curvature is admissible and the solver reports the simplest one.
    ctx = RingContext.geometric(2)
    f = parse_polynomial("x1^3", ctx)
    assert solve_hsq(f).hsq == Fraction(1)
    assert check_cmc(f, Fraction(1)).divisible
    assert check_cmc(f, Fraction(17, 5)).divisible


def test_solve_hsq_validation():
    ctx = RingContext.geometric(3)
    with pytest.raises(RingError):
        solve_hsq(Polynomial.one(ctx))
    ctx1 = RingContext.geometric(1)
    with pytest.raises(RingError):
        solve_hsq(Polynomial.variable(ctx1, "x1"))


def _solve_hsq_reference(f):
    """``solve_hsq`` without the top-form test: both residues, every time."""
    n = f.ctx.geometric_count
    d1 = delta1(f)
    r1 = divide(grad_norm_sq(f) ** 3, f).remainder
    r2 = divide(d1 * d1, f).remainder
    if r1.is_zero:
        return Fraction(1) if r2.is_zero else None
    mono = next(r1.monomials())
    c2 = r2.coefficient(mono)
    if not c2:
        return None
    ratio = c2 / r1.coefficient(mono)
    if ratio <= 0 or r1 * ratio != r2:
        return None
    return ratio / (4 * (n - 1) ** 2)


def _solve_hsq_cases(rng):
    """Inputs that fail the top-form test, pass it and miss, or are hits."""
    for n, count in ((3, 12), (4, 4)):
        ctx = RingContext.geometric(n)
        yield from islice(_random_cubics(rng, ctx, 5), count)
    for n in (2, 3, 4):
        ctx = RingContext.geometric(n)
        xs = [Polynomial.variable(ctx, v) for v in ctx.geometric_variables]
        for _ in range(4):
            line = sum((x * rng.randint(-3, 3) for x in xs), Polynomial.zero(ctx))
            if line.is_zero:
                line = xs[0]
            lower = random_polynomial(rng, ctx, max_degree=2, max_terms=4)
            yield line**3 + rng.choice((0, 1)) * lower
        for _ in range(3):
            yield random_homogeneous(rng, ctx, 2, 4) + random_polynomial(rng, ctx, 1, 3)
        for kind in ("sphere", "cylinder"):
            rsq = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            f, _, _ = make_surface(kind, n, rsq)
            shift = {
                x: Polynomial.variable(ctx, x) + random_coeff(rng, 3)
                for x in ctx.geometric_variables
            }
            yield f.substitute(shift) * random_coeff(rng)
        yield random_homogeneous(rng, ctx, 1) + rng.randint(-3, 3)
    for n in (2, 3):
        ctx = RingContext.geometric(n)
        x1, x2 = Polynomial.variable(ctx, "x1"), Polynomial.variable(ctx, "x2")
        yield random_homogeneous(rng, ctx, 4, 3) + random_polynomial(rng, ctx, 3, 3)
        yield x1**4 + random_polynomial(rng, ctx, 3, 3)
        yield (x1**2 + x2**2) ** 2 - rng.randint(1, 4)
    ctx = RingContext.with_parameters(["x1", "x2", "x3"], ["a"])
    x1, x2, x3, a = (Polynomial.variable(ctx, v) for v in ctx.variables)
    yield x1**2 + x2**2 + x3**2 - 1
    yield x1**2 + x2**2 + x3**2 - a
    yield a * x1**3 + x2**2 - 1
    yield (x1 + a * x2) ** 3 + x3
    for _ in range(3):
        yield random_homogeneous(rng, ctx, 3, 4) + random_polynomial(rng, ctx, 2, 3)


def test_solve_hsq_matches_the_full_residue_test():
    rng = random.Random(8)
    outcomes = set()
    for f in _solve_hsq_cases(rng):
        expected = _solve_hsq_reference(f)
        report = solve_hsq(f)
        assert (None if report is None else report.hsq) == expected, f
        if report is not None:
            # The solved report is the one check_cmc gives, field for field.
            assert report == check_cmc(f, report.hsq), f
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_solve_hsq_rejects_on_the_top_form_alone(monkeypatch):
    calls = []

    def spy(g, f, *args, **kwargs):
        calls.append((g, f))
        return divide(g, f, *args, **kwargs)

    monkeypatch.setattr("cmccheck.cmc.divide", spy)
    ctx = RingContext.geometric(3)
    f = next(_random_cubics(random.Random(1), ctx, 5))
    assert solve_hsq(f) is None
    [(dividend, divisor)] = calls
    assert not dividend.is_zero
    assert dividend.homogeneous_parts().keys() == {4}
    assert divisor == f.homogeneous_part(3)
    # Inputs whose top form passes then divide only by f: the residues
    # modulo f, reduced before each product.
    for f, expected in (
        (parse_polynomial("x1^3 + x2^2 - 1", ctx), None),
        (sphere(3, 4)[0], Fraction(1, 4)),
    ):
        calls.clear()
        report = solve_hsq(f)
        assert (None if report is None else report.hsq) == expected
        first, *rest = [d for _, d in calls]
        assert first == f.homogeneous_part(f.total_degree())
        assert rest and all(d == f for d in rest)


def _translated_quadric(rng, kind, n):
    """A scaled, translated sphere or cylinder and its curvature."""
    f, hsq, _ = make_surface(kind, n, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    ctx = f.ctx
    shift = {
        x: Polynomial.variable(ctx, x) + random_coeff(rng, 3)
        for x in ctx.geometric_variables
    }
    return f.substitute(shift) * random_coeff(rng), hsq


def _check_cmc_cases(rng):
    """(f, hsq) pairs: translated quadrics at their curvature and off it,
    random cubics, cubed linear forms plus a quadratic, and linear forms."""
    for n in (2, 3, 4):
        ctx = RingContext.geometric(n)
        xs = [Polynomial.variable(ctx, v) for v in ctx.geometric_variables]
        trial = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for kind in ("sphere", "cylinder"):
            f, hsq = _translated_quadric(rng, kind, n)
            yield f, hsq
            yield f, hsq * Fraction(rng.randint(2, 5), rng.randint(1, 3)) + 1
        yield next(_random_cubics(rng, ctx, 5)), trial
        line = sum((x * rng.randint(-3, 3) for x in xs[1:]), xs[0] * rng.randint(1, 3))
        yield line**3 + random_homogeneous(rng, ctx, 2, 3), trial
        yield line**3, trial
        yield random_homogeneous(rng, ctx, 1) + rng.randint(-3, 3), trial


def test_check_cmc_matches_dividing_the_whole_defect():
    rng = random.Random(61)
    verdicts = set()
    for f, hsq in _check_cmc_cases(rng):
        report = check_cmc(f, hsq)
        defect = cmc_defect(f, hsq)
        expected = divide(defect, f)
        assert expected.quotient * f + expected.remainder == defect, (f, hsq)
        divisible = expected.remainder.is_zero
        assert report.divisible == divisible, (f, hsq)
        assert report.certificate == (expected.quotient if divisible else None), (f, hsq)
        assert report.witness_remainder == (None if divisible else expected.remainder), (f, hsq)
        verdicts.add(report.divisible)
    assert verdicts == {True, False}


def test_negative_check_never_forms_the_defect(monkeypatch):
    """A negative verdict divides only products of remainders.  On quadrics
    each has degree below ``6(d-1)``; on a cubic whose lead lies in its top
    form the last product of ``r1`` reaches degree ``6(d-1)`` (its top part
    is the remainder of ``|grad f_d|^6`` modulo ``f_d``), but it has fewer
    terms than the defect."""
    dividends = []

    def spy(g, f):
        dividends.append(g)
        return divide(g, f)

    # The CMC layer cannot reach the defect's formula or a whole division.
    assert not hasattr(cmc, "_defect") and not hasattr(cmc, "divides")
    monkeypatch.setattr("cmccheck.cmc.divide", spy)
    rng = random.Random(67)
    ctx = RingContext.geometric(3)
    x1, x2, x3 = (Polynomial.variable(ctx, v) for v in ctx.variables)
    cases = []
    for kind in ("sphere", "cylinder"):
        for n in (2, 3, 4):
            f, hsq = _translated_quadric(rng, kind, n)
            cases.append((f, hsq * 2))
    cubics = list(islice(_random_cubics(rng, ctx, 5), 3))
    cubics.append((x1 + 2 * x2 - x3) ** 3 + random_homogeneous(rng, ctx, 2, 4))
    cases += [(f, Fraction(1, 3)) for f in cubics]
    for f, hsq in cases:
        dividends.clear()
        assert not check_cmc(f, hsq).divisible
        assert len(dividends) == 5
        if f.total_degree() == 2:
            assert max(d.total_degree() for d in dividends) < 6
        assert max(len(d) for d in dividends) < len(cmc_defect(f, hsq))


def test_zero_residue_with_a_remainder_is_an_error(monkeypatch):
    """The residues decide, and the certificate assembled from their
    quotients is re-multiplied against the defect.  A residue division
    that returns its quotient plus 1 (its remainder, and so the verdict,
    untouched) shifts the certificate by a nonzero multiple, and the
    re-multiplication must catch it, whichever of the five it is."""
    f, hsq, _ = sphere(3)
    for which in range(5):
        calls = []

        def corrupt(g, f):
            result = divide(g, f)
            calls.append(g)
            if len(calls) - 1 == which:
                return DivisionResult(result.quotient + 1, result.remainder)
            return result

        monkeypatch.setattr("cmccheck.cmc.divide", corrupt)
        with pytest.raises(RingError, match="zero residue"):
            check_cmc(f, hsq)
        assert len(calls) == 5


def _positive_cases():
    """(f, hsq) at the admissible curvature: spheres and cylinders at n =
    2..6, translated and scaled by rationals, the samples of ``sweep
    --degree 2`` at its default bound and seed, and products of disjoint
    pieces with one mean curvature.  On a quadric ``rem(|grad f|^2)`` is
    a constant and three of the five residue quotients are zero; on the
    products all five are nonzero, so every term of the assembled
    certificate counts."""
    for n, text, hsq in (
        (3, "((x1-3)^2 + x2^2 + x3^2 - 1)*((x1+3)^2 + x2^2 + x3^2 - 1)", 1),
        (3, "(x1^2 + x2^2 + x3^2 - 1)*(4*(x1-5)^2 + 4*x2^2 - 1)", 1),
        (2, "(x1^2 + x2^2 - 4)*((x1-5)^2 + (x2-1)^2 - 4)", Fraction(1, 4)),
    ):
        yield parse_polynomial(text, RingContext.geometric(n)), hsq
    rng = random.Random(71)
    for n in range(2, 7):
        for kind in ("sphere", "cylinder"):
            for _ in range(2):
                yield _translated_quadric(rng, kind, n)
    for n in range(3, 7):
        for hit in refutation_sweep(n, count=3, degree=2).admissible:
            yield hit.polynomial, hit.hsq


def test_certificate_is_the_quotient_of_the_whole_defect():
    count = 0
    for f, hsq in _positive_cases():
        report = check_cmc(f, hsq)
        whole = divide(cmc_defect(f, hsq), f)
        assert whole.remainder.is_zero, (f, hsq)
        assert report.divisible and report.certificate == whole.quotient, (f, hsq)
        count += 1
    assert count == 35


def test_top_form_test_agrees_with_its_cube():
    """``f_d | G`` iff ``f_d | G^3`` for ``G = |grad f_d|^2``: on prime
    powers times a cofactor, cubed linear forms, a squared quadric, and
    forms times a power of a parameter (whose gradient is zero)."""
    rng = random.Random(47)
    plain = RingContext.geometric(3)
    para = RingContext.with_parameters(["x1", "x2", "x3"], ["a"])
    x1, x2 = (Polynomial.variable(plain, name) for name in ("x1", "x2"))
    a = Polynomial.variable(para, "a")
    forms = [(x1**2 + x2**2) ** 2]
    for ctx in (plain, para):
        for _ in range(40):
            p = random_homogeneous(rng, ctx, rng.randint(1, 2), max_terms=3)
            q = random_homogeneous(rng, ctx, rng.randint(0, 1), max_terms=3)
            forms.append(p ** rng.randint(1, 3) * q)
        for _ in range(5):
            forms.append(random_homogeneous(rng, ctx, 1) ** 3)
    forms += [f * a ** rng.randint(1, 3) for f in forms if f.ctx == para]
    verdicts = []
    for f in forms:
        g = grad_norm_sq(f)
        once = divide(g, f).remainder.is_zero
        assert once == divide(g**3, f).remainder.is_zero, f
        verdicts.append(once)
    assert any(verdicts) and not all(verdicts)


def test_defect_scaling_law():
    # cmc_defect(c*f) = c^6 * cmc_defect(f); the verdict never changes
    rng = random.Random(23)
    f, hsq, _ = sphere(3, 2)
    base = cmc_defect(f, hsq)
    for _ in range(20):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        scaled = cmc_defect(f * c, hsq)
        assert scaled == base * c**6
        assert check_cmc(f * c, hsq).divisible


def test_defect_vanishes_on_surface_points():
    # divisibility means the defect vanishes wherever f does; spot-check
    # rational points of the cylinder x1^2 + x2^2 = 25 embedded in R^3
    f, hsq, _ = make_surface("cylinder", 3, 25)
    defect = cmc_defect(f, hsq)
    rng = random.Random(31)
    for _ in range(20):
        # rational parametrization of the circle, arbitrary height
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        point = {
            "x1": 5 * (1 - t * t) / (1 + t * t),
            "x2": 10 * t / (1 + t * t),
            "x3": Fraction(rng.randint(-5, 5)),
        }
        assert raw_evaluate(f, point) == 0
        assert raw_evaluate(defect, point) == 0


def test_make_surface_validation():
    with pytest.raises(RingError):
        make_surface("sphere", 1)
    with pytest.raises(RingError):
        make_surface("sphere", 3, 0)
    with pytest.raises(RingError):
        make_surface("sphere", 3, -2)
    with pytest.raises(RingError):
        make_surface("torus", 3)


def test_sweep_cubics_finds_nothing():
    report = refutation_sweep(3, count=40, coeff_bound=5, seed=2026)
    assert report.admissible_count == 0
    assert report == SweepReport(admissible=())


def test_sweep_degree_two_control_all_admissible():
    report = refutation_sweep(3, count=15, coeff_bound=5, seed=9, degree=2)
    assert report.admissible_count == 15
    for hit in report.admissible:
        # a * sum x^2 - b has hsq = a / b
        a = hit.polynomial.coefficient((2, 0, 0))
        b = -hit.polynomial.coefficient((0, 0, 0))
        assert hit.hsq == a / b
        assert check_cmc(hit.polynomial, hit.hsq).divisible


def test_sweep_hits_carry_certificates():
    report = refutation_sweep(3, count=15, coeff_bound=5, seed=9, degree=2)
    assert report.admissible_count == 15
    for hit in report.admissible:
        defect = cmc_defect(hit.polynomial, hit.hsq)
        assert hit.certificate * hit.polynomial == defect


def test_sweep_rejects_hit_that_fails_to_certify(monkeypatch):
    # A report from the solver that does not divide must not become a hit.
    monkeypatch.setattr("cmccheck.cmc.solve_hsq", lambda f: check_cmc(f, Fraction(1)))
    with pytest.raises(RingError, match="fails to certify"):
        refutation_sweep(3, count=1, coeff_bound=5, seed=0)


def test_sweep_is_deterministic_in_the_seed():
    one = refutation_sweep(3, count=10, coeff_bound=3, seed=5)
    two = refutation_sweep(3, count=10, coeff_bound=3, seed=5)
    assert one == two


# sha256 of the texts of two consecutive draws per seed 0..4, joined by
# newlines.  A cubic sweep with no hits prints no polynomial, so the
# goldens cannot see a changed draw; these pins can.
RANDOM_CUBIC_SHA256 = {
    3: "a3957cf575fc996b6d75fd9cd0dd8957c0939ec03a0f28ba37e514d85780dfaa",
    4: "b9bfe5391c9f8d4a444bb82a78ceca6c7d2049f52748bab6404cf9080716d35a",
    5: "808ae705c8c15e59ea22f1d0cc43dbb2deb314cc24f877420a8d7fcd3e1c1803",
    6: "ef51cab0b836854eb539d6a8f90bd8045a63890dce5614374e34dc1a96740b93",
    7: "bb82e8a8ace235b963181354305eb17bb8efe5b29023b8be73ebbd697bbfadc7",
    8: "89578646a702b8b994a1874ade8f74a3e6bb5d572fb676d2c2a8f2f84f88884c",
}


@pytest.mark.parametrize("n", sorted(RANDOM_CUBIC_SHA256))
def test_random_cubic_draws_are_pinned(n):
    ctx = RingContext.geometric(n)
    texts = []
    for seed in range(5):
        rng = random.Random(seed)
        texts += map(to_text, islice(_random_cubics(rng, ctx, 5), 2))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == RANDOM_CUBIC_SHA256[n]


def test_sweep_validation():
    with pytest.raises(RingError):
        refutation_sweep(2, count=1)
    with pytest.raises(RingError):
        refutation_sweep(3, count=0)
    with pytest.raises(RingError):
        refutation_sweep(3, count=1, coeff_bound=0)
    with pytest.raises(RingError):
        refutation_sweep(3, count=1, degree=4)


def test_random_sphere_points_certify_dividend():
    # certificate * f == defect holds as polynomials, hence at any point
    f, hsq, _ = sphere(4, 3)
    report = check_cmc(f, hsq)
    defect = cmc_defect(f, hsq)
    rng = random.Random(47)
    for _ in range(25):
        point = random_point(rng, f.ctx, bound=4, denom=3)
        assert raw_evaluate(defect, point) == (
            raw_evaluate(report.certificate, point) * raw_evaluate(f, point)
        )


# Each entry point's outcome on the inputs it must refuse: the exception
# type and exact message, or "ok" where it returns.  The order of the
# checks shows too: a constant is refused before its curvature is read,
# and a one-variable input with hsq <= 0 is refused for its curvature.
NONCONSTANT = "RingError: input polynomial must be nonconstant"
TWO_VARIABLES = "RingError: defect needs at least two geometric variables"
POSITIVE = "RingError: squared mean curvature must be positive"
NO_HT = "RingError: context must declare 'Ht' as a parameter variable"
SPHERE3 = "x1^2 + x2^2 + x3^2 - 1"
REFUSALS = {
    # label: (variables, polynomial, hsq, outcomes of check_cmc, solve_hsq,
    #         cmc_defect, and symbolic_defect with and without Ht declared)
    "constant": (3, "5", 1, (NONCONSTANT, NONCONSTANT, "ok", "ok", NO_HT)),
    "zero": (3, "0", 1, (NONCONSTANT, NONCONSTANT, "ok", "ok", NO_HT)),
    "one-variable": (1, "x1^2 - 1", 1, (TWO_VARIABLES,) * 5),
    "hsq-zero": (3, SPHERE3, 0, (POSITIVE, "ok", POSITIVE, "ok", NO_HT)),
    "hsq-negative": (3, SPHERE3, -1, (POSITIVE, "ok", POSITIVE, "ok", NO_HT)),
    "constant-hsq-negative": (3, "5", -1,
                              (NONCONSTANT, NONCONSTANT, POSITIVE, "ok", NO_HT)),
    "one-variable-hsq-negative": (1, "x1^2 - 1", -1, (
        POSITIVE, TWO_VARIABLES, POSITIVE, TWO_VARIABLES, TWO_VARIABLES)),
}


def _outcome(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("label", list(REFUSALS))
def test_refusal_messages_are_pinned(label):
    n, text, hsq, expected = REFUSALS[label]
    f = parse_polynomial(text, RingContext.geometric(n))
    names = [f"x{i}" for i in range(1, n + 1)]
    g = parse_polynomial(text, RingContext.with_parameters(names, ["Ht"]))
    got = (
        _outcome(check_cmc, f, hsq),
        _outcome(solve_hsq, f),
        _outcome(cmc_defect, f, hsq),
        _outcome(symbolic_defect, g),
        _outcome(symbolic_defect, f),
    )
    assert got == expected
