"""Acceptance gate: one test per shipping criterion, one printed line each.

Every test registers ``criterion N (name): PASS|FAIL`` before asserting;
the conftest terminal-summary hook prints the collected scoreboard at the
end of any run, outside capture.  Tolerances are zero throughout: all
arithmetic is exact.
"""

import random
import time
from fractions import Fraction

from cmccheck.calculus import grad_norm_sq, symbolic_defect
from cmccheck.cmc import check_cmc, refutation_sweep
from cmccheck.cubic import generic_cubic
from cmccheck.divide import divide
from cmccheck.replay import replay
from cmccheck.ring import Polynomial, RingContext
from conftest import SCOREBOARD
from oracles import (
    check_delta1_identity,
    check_division_identity,
    check_euler,
    check_remainder_uniqueness,
    check_ring_axioms,
)


def report(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    SCOREBOARD.append(f"criterion {number} ({name}): {verdict}")


def sphere_data(n: int, rsq: Fraction):
    ctx = RingContext.geometric(n)
    radial = sum(
        (Polynomial.variable(ctx, v) ** 2 for v in ctx.geometric_variables),
        Polynomial.zero(ctx),
    )
    return radial - rsq, radial


def test_criterion_1_sphere_certificates():
    ok = True
    for n in (3, 4, 5):
        for rsq in (Fraction(1), Fraction(4)):
            f, radial = sphere_data(n, rsq)
            expected = radial**2 * (Fraction(256) * (n - 1) ** 2 / rsq)
            result = check_cmc(f, 1 / rsq)
            ok = ok and result.divisible and result.certificate == expected
    report(1, "sphere certificates", ok)
    assert ok


def test_criterion_2_cylinder_certificates():
    ok = True
    for n in (3, 4):
        for rsq in (Fraction(1), Fraction(4)):
            ctx = RingContext.geometric(n)
            radial = (
                Polynomial.variable(ctx, "x1") ** 2
                + Polynomial.variable(ctx, "x2") ** 2
            )
            f = radial - rsq
            expected = radial**2 * (Fraction(256) / rsq)
            result = check_cmc(f, Fraction(1, (n - 1) ** 2) / rsq)
            ok = ok and result.divisible and result.certificate == expected
    report(2, "cylinder certificates", ok)
    assert ok


def test_criterion_3_replay_chain():
    started = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        rep = replay(n)
        ok = ok and rep.passed and all(s.passed for s in rep.steps)
        f, _ = generic_cubic(n)
        ctx = f.ctx
        x = Polynomial.variable(ctx, "x1")
        ht = Polynomial.variable(ctx, "Ht")
        ok = ok and rep.step("cascade-division").witness == ht**2 * x**9 * 729
        quad = Polynomial.zero(ctx)
        ys = [Polynomial.variable(ctx, f"x{i}") for i in range(2, n + 1)]
        for i in range(1, n):
            for j in range(1, n):
                name = f"a_{min(i, j)}{max(i, j)}"
                quad = quad + Polynomial.variable(ctx, name) * ys[i - 1] * ys[j - 1]
        ok = ok and rep.step("obstruction").witness == -(ht**2) * quad**4 * 729
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    report(3, "replay chain n=3..5", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


def test_criterion_4_gradient_square_parts():
    # hand transcription of the five homogeneous parts, rebuilt here with
    # plain vector algebra, independent of the replay module's builder
    ok = True
    for n in (3, 4, 5):
        f, _ = generic_cubic(n)
        ctx = f.ctx
        x = Polynomial.variable(ctx, "x1")
        y = [Polynomial.variable(ctx, f"x{i}") for i in range(2, n + 1)]
        a = [
            [Polynomial.variable(ctx, f"a_{min(i, j)}{max(i, j)}") for j in range(1, n)]
            for i in range(1, n)
        ]
        r = [Polynomial.variable(ctx, f"r_{i}") for i in range(1, n)]
        s = [Polynomial.variable(ctx, f"s_{i}") for i in range(1, n)]
        k0 = Polynomial.variable(ctx, "k0")
        k1 = Polynomial.variable(ctx, "k1")

        def dot(u, v):
            return sum((p * q for p, q in zip(u, v)), Polynomial.zero(ctx))

        ay = [dot(row, y) for row in a]
        ry = dot(r, y)
        h = [
            k1 * k1 + dot(s, s),
            dot(s, ay) * 4 + k0 * k1 * x * 4 + k1 * ry * 2 + x * dot(r, s) * 2,
            x * dot(r, ay) * 4
            + dot(ay, ay) * 4
            + k0 * x * ry * 4
            + ry**2
            + x**2 * (k0**2 * 4 + k1 * 6 + dot(r, r)),
            k0 * x**3 * 12 + x**2 * ry * 6,
            x**4 * 9,
        ]
        gradsq = grad_norm_sq(f)
        for k in range(5):
            ok = ok and gradsq.homogeneous_part(k) == h[k]
        ok = ok and gradsq == sum(h, Polynomial.zero(ctx))
        ok = ok and replay(n).step("gradsq-parts").passed
    report(4, "gradient-square parts n=3..5", ok)
    assert ok


def test_criterion_5_negative_controls():
    """Both deliberate corruptions must be caught where stated.

    The first control (replacing the leading cube by x^2 y1) fails step 1
    with a nonzero residual, as required.  The second control (flipping
    the sign of the squared-operator term in the defect) is required to
    fail step 5 or step 6.  On the generic cubic the operator's value has
    degree 4 exactly, so its square only moves the defect's degree-8 part;
    the x-valuation bound holds for either sign, but step 5 also checks
    the x-axis restriction of every part against an exact closed form,
    and there the flip leaves the residual 2 * 1296 trace(A)^2 x^8.
    """
    mutated = replay(3, mutation="cubic-part")
    first = mutated.step("gradsq-parts")
    ok_cubic = (
        not mutated.passed
        and not first.passed
        and first.residual is not None
        and not first.residual.is_zero
    )

    flipped = replay(3, mutation="defect-sign")
    ok_sign = (
        not flipped.step("defect-valuations").passed
        or not flipped.step("cascade-division").passed
    )

    ok = ok_cubic and ok_sign
    report(5, "negative controls", ok)
    assert ok_cubic, "cubic-part control must fail step 1"
    assert ok_sign, (
        "defect-sign control passed steps 5 and 6: the sign flip only "
        "perturbs the degree-8 defect part, invisible to the valuation "
        "and vanishing checks those steps perform"
    )


def test_criterion_6_refutation_sweep():
    cubics = refutation_sweep(3, count=200, coeff_bound=5, seed=42)
    control = refutation_sweep(3, count=50, coeff_bound=5, seed=42, degree=2)
    ok = cubics.admissible_count == 0 and control.admissible_count == 50
    report(6, "refutation sweep", ok)
    assert ok


def test_criterion_7_algebra_property_suite():
    ctx = RingContext.geometric(3)
    ctxp = RingContext.with_parameters(["x1", "x2"], ["a", "b"])
    ok = True
    try:
        check_ring_axioms(random.Random(1), ctx, rounds=200)
        check_ring_axioms(random.Random(2), ctxp, rounds=100)
        check_division_identity(random.Random(3), ctx, rounds=200)
        check_remainder_uniqueness(random.Random(4), ctx, rounds=200)
        check_euler(random.Random(5), ctx, rounds=200)
        check_delta1_identity(random.Random(6), ctx, rounds=200)
    except AssertionError:
        ok = False
    report(7, "algebra property suite", ok)
    assert ok


def test_criterion_8_performance_floor():
    ctx = RingContext.geometric(4)
    rng = random.Random(8)

    def dense(degree):
        terms = {}

        def grow(prefix, remaining, pos):
            if pos == 4:
                terms[tuple(prefix)] = Fraction(rng.randint(-99, 99) or 1)
                return
            for e in range(remaining + 1):
                grow(prefix + [e], remaining - e, pos + 1)

        grow([], degree, 0)
        return Polynomial(ctx, terms)

    a, b = dense(8), dense(8)
    started = time.perf_counter()
    product = a * b
    mul_elapsed = time.perf_counter() - started
    ok = mul_elapsed < 1.0 and product.total_degree() == 16

    f, _ = generic_cubic(3)
    started = time.perf_counter()
    defect = symbolic_defect(f)
    defect_elapsed = time.perf_counter() - started
    ok = ok and defect_elapsed < 30.0 and defect.degree_in("x1") == 12

    started = time.perf_counter()
    division = divide(defect, f)
    divide_elapsed = time.perf_counter() - started
    ok = ok and divide_elapsed < 5.0
    ok = ok and division.quotient * f + division.remainder == defect
    report(8, "performance floor", ok)
    assert ok, (
        f"multiply {mul_elapsed:.3f}s, defect {defect_elapsed:.3f}s, "
        f"divide {divide_elapsed:.3f}s"
    )
