import importlib
import random
import re

import pytest
from fractions import Fraction

from cmccheck.calculus import delta1, grad_norm_sq, symbolic_defect
from cmccheck.cubic import generic_cubic
from cmccheck.divide import divides
from cmccheck.replay import (
    MUTATIONS,
    expected_delta1_expansion,
    replay,
)
from cmccheck.ring import Polynomial, RingError

STEP_NAMES = [
    "gradsq-parts",
    "delta1-congruence",
    "gradsq-square",
    "delta1-square",
    "defect-valuations",
    "cascade-division",
    "vanish-at-x0",
    "obstruction",
    "matrix-extraction",
]


def test_replay_n3_passes_every_step():
    report = replay(3)
    assert [s.name for s in report.steps] == STEP_NAMES
    assert all(s.passed for s in report.steps)
    assert report.overall == "pass"
    assert report.passed
    assert report.mutation is None


def test_replay_n4_passes():
    report = replay(4)
    assert report.passed
    assert report.delta1_expansion_matches


def test_cascade_witness_is_the_top_coefficient():
    report = replay(3)
    f, spec = generic_cubic(3)
    ctx = f.ctx
    x = Polynomial.variable(ctx, "x1")
    ht = Polynomial.variable(ctx, spec.curvature_name)
    assert report.step("cascade-division").witness == ht**2 * x**9 * 729


def test_obstruction_witness_is_the_quartic_power():
    report = replay(3)
    f, spec = generic_cubic(3)
    ctx = f.ctx
    ht = Polynomial.variable(ctx, spec.curvature_name)
    y1, y2 = Polynomial.variable(ctx, "x2"), Polynomial.variable(ctx, "x3")
    a11, a12, a22 = (
        Polynomial.variable(ctx, name) for name in ("a_11", "a_12", "a_22")
    )
    quad = a11 * y1**2 + a12 * y1 * y2 * 2 + a22 * y2**2
    assert report.step("obstruction").witness == -(ht**2) * quad**4 * 729


def test_expected_delta1_expansion_matches_engine():
    for n in (3, 4):
        f, _ = generic_cubic(n)
        assert expected_delta1_expansion(n) == delta1(f)


def test_expected_delta1_expansion_top_degree():
    exp = expected_delta1_expansion(3)
    ctx = exp.ctx
    x = Polynomial.variable(ctx, "x1")
    trace = Polynomial.variable(ctx, "a_11") + Polynomial.variable(ctx, "a_22")
    assert exp.homogeneous_part(4) == trace * x**4 * 36
    assert exp.total_degree() == 4


def test_replay_records_expansion_fidelity():
    report = replay(3)
    assert report.delta1_expansion_matches
    assert report.delta1_expansion_residual is None


def test_mutation_cubic_part_breaks_the_chain_immediately():
    report = replay(3, mutation="cubic-part")
    assert not report.passed
    first = report.step("gradsq-parts")
    assert not first.passed
    assert first.residual is not None and not first.residual.is_zero
    # the final step inspects only the x-free quadratic part, which the
    # cubic-part corruption does not touch
    assert report.step("matrix-extraction").passed


def test_mutation_defect_sign_is_invisible_to_the_chain():
    """The sign flip is confined to the degree-8 part of the defect.

    delta1(f) on the generic cubic has degree 4 exactly (its only possible
    degree-5 monomials cancel), so (delta1 f)^2 has degree 8 and the
    defect's parts in degrees 9..12 never see it.  Flipping its sign only
    shifts the degree-8 part by 2 (delta1 f)^2, which is invisible to the
    valuation bound val_x >= 4 (both signs give an x^4 multiple) and to
    vanishing at x = 0.  Every step but step 5 therefore still passes, and
    step 5 fails only through its exact x-axis identity, whose residual is
    exactly the shift on the axis, 2 * 1296 trace(A)^2 x^8.
    """
    for n in (3, 4):
        report = replay(n, mutation="defect-sign")
        step5 = report.step("defect-valuations")
        others = [s for s in report.steps if s.name != "defect-valuations"]
        assert all(s.passed for s in others), n

        bounds = re.findall(r"deg (\d+): val (\w+) \(need (\d+)\)", step5.detail)
        assert [int(k) for k, _, _ in bounds] == list(range(8, 13)), n
        assert all(float(val) >= int(need) for _, val, need in bounds), n

        f, spec = generic_cubic(n)
        ctx = f.ctx
        diagonal = (spec.matrix_names[i][i] for i in range(n - 1))
        trace = sum(
            (Polynomial.variable(ctx, name) for name in diagonal),
            Polynomial.zero(ctx),
        )
        x1 = Polynomial.variable(ctx, "x1")
        assert not step5.passed and not report.passed, n
        assert step5.residual == trace**2 * x1**8 * 2592, n


def test_mutation_validation():
    with pytest.raises(RingError):
        replay(3, mutation="no-such-mutation")
    with pytest.raises(RingError):
        replay(2)
    assert MUTATIONS == ("cubic-part", "defect-sign")


def test_step_lookup_raises_on_unknown_name():
    report = replay(3)
    with pytest.raises(KeyError):
        report.step("not-a-step")


def test_specialized_cubics_never_divide_their_defect():
    # Specializing the parameters to random rationals (nonzero matrix and
    # curvature) must give cubics that fail the divisibility check: this is
    # the concrete consequence the symbolic chain certifies.
    f, spec = generic_cubic(3)
    ctx = f.ctx
    gradsq = grad_norm_sq(f)
    d1 = delta1(f)
    rng = random.Random(101)
    for _ in range(20):
        values = {
            name: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for name in ctx.parameters
        }
        while all(values[name] == 0 for row in spec.matrix_names for name in row):
            values[spec.matrix_names[0][0]] = Fraction(rng.randint(1, 4))
        if values[spec.curvature_name] == 0:
            values[spec.curvature_name] = Fraction(rng.randint(1, 4))
        ht = values[spec.curvature_name]
        fs = f.substitute(values)
        gs = gradsq.substitute(values)
        ds = d1.substitute(values)
        defect = gs**3 * ht**2 - ds * ds
        assert not divides(fs, defect).divisible


def test_replay_reports_are_self_contained():
    report = replay(3)
    for step in report.steps:
        assert step.status in ("pass", "fail")
        assert step.detail != "" or step.residual is not None


# ``cmccheck.replay`` the attribute is the function; this is the module.
replay_module = importlib.import_module("cmccheck.replay")


def test_graded_defect_parts_equal_the_full_defect():
    """Steps 3 to 5 form |grad f|^4 above degree 3, |grad f|^6 and
    (delta1 f)^2 above degree 7, from homogeneous parts only; their parts
    must equal those of the fully multiplied products."""
    product_above = replay_module._product_above
    for n in (3, 4):
        f, spec = generic_cubic(n)
        ht = Polynomial.variable(f.ctx, spec.curvature_name)
        zero = Polynomial.zero(f.ctx)
        gradsq, d1 = grad_norm_sq(f), delta1(f)
        gparts, d1parts = gradsq.homogeneous_parts(), d1.homogeneous_parts()
        gsq4 = product_above(gparts, gparts, 3)
        gsq6 = product_above(gsq4, gparts, 7)
        d1sq = product_above(d1parts, d1parts, 7)
        full_gsq4 = gradsq * gradsq
        assert sorted(gsq4) == list(range(4, 9)), n
        for k in range(4, 9):
            assert gsq4[k] == full_gsq4.homogeneous_part(k), (n, k)
        assert sum(d1sq.values(), zero) == (d1 * d1).high_part(7), n
        defect = symbolic_defect(f, spec.curvature_name)
        for k in range(8, 13):
            graded = ht * ht * gsq6.get(k, zero) - d1sq.get(k, zero)
            assert graded == defect.homogeneous_part(k), (n, k)
        assert defect.high_part(12).is_zero, n


def _full_product_above(a, b, above):
    """Reference for ``_product_above``: multiply the whole sums, then keep
    the parts above ``above``."""
    polys = list(a.values()) + list(b.values())
    if not polys:
        return {}
    zero = Polynomial.zero(polys[0].ctx)
    full = sum(a.values(), zero) * sum(b.values(), zero)
    top = int(full.total_degree()) if not full.is_zero else above
    parts = {k: full.homogeneous_part(k) for k in range(above + 1, top + 1)}
    return {k: p for k, p in parts.items() if not p.is_zero}


def test_graded_replay_matches_a_full_product_reference(monkeypatch):
    # ReplayStep equality compares name, status, residual, witness, detail.
    for n in (3, 4):
        for mutation in (None, "cubic-part", "defect-sign"):
            graded = replay(n, mutation)
            with monkeypatch.context() as m:
                m.setattr(replay_module, "_product_above", _full_product_above)
                reference = replay(n, mutation)
            assert graded.steps == reference.steps, (n, mutation)
            assert graded.overall == reference.overall, (n, mutation)
            assert (graded.delta1_expansion_residual
                    == reference.delta1_expansion_residual), (n, mutation)
