import ast
import importlib
import math
import random
import re
from pathlib import Path

import pytest
from fractions import Fraction

import cmccheck.calculus as calculus_module
import cmccheck.cubic as cubic_module
from cmccheck.calculus import delta1, grad_norm_sq, symbolic_defect
from cmccheck.cubic import (
    SymMatrix,
    generic_cubic,
    quad_form_from_matrix,
    quad_form_to_matrix,
)
from cmccheck.divide import divides
from cmccheck.parse import to_text
from cmccheck.replay import MUTATIONS, _expected_delta1_rest, replay
from cmccheck.ring import (
    ExponentLimitError, Polynomial, RingContext, RingError,
)
from oracles import raw_evaluate

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
    f, _ = generic_cubic(3)
    ctx = f.ctx
    x = Polynomial.variable(ctx, "x1")
    ht = Polynomial.variable(ctx, "Ht")
    assert report.step("cascade-division").witness == ht**2 * x**9 * 729


def test_obstruction_witness_is_the_quartic_power():
    report = replay(3)
    f, _ = generic_cubic(3)
    ctx = f.ctx
    ht = Polynomial.variable(ctx, "Ht")
    y1, y2 = Polynomial.variable(ctx, "x2"), Polynomial.variable(ctx, "x3")
    a11, a12, a22 = (
        Polynomial.variable(ctx, name) for name in ("a_11", "a_12", "a_22")
    )
    quad = a11 * y1**2 + a12 * y1 * y2 * 2 + a22 * y2**2
    assert report.step("obstruction").witness == -(ht**2) * quad**4 * 729


def test_expected_delta1_expansion_matches_engine():
    for n in (3, 4):
        f, spec = generic_cubic(n)
        expansion = grad_norm_sq(f) * spec.trace * 4 + _expected_delta1_rest(spec)
        assert expansion == delta1(f)


def test_expected_delta1_expansion_top_degree():
    f, spec = generic_cubic(3)
    exp = grad_norm_sq(f) * spec.trace * 4 + _expected_delta1_rest(spec)
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

        f, _ = generic_cubic(n)
        ctx = f.ctx
        diagonal = (f"a_{i}{i}" for i in range(1, n))
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
    f, _ = generic_cubic(3)
    ctx = f.ctx
    gradsq = grad_norm_sq(f)
    d1 = delta1(f)
    rng = random.Random(101)
    for _ in range(20):
        values = {
            name: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for name in ctx.parameters
        }
        while all(values[name] == 0 for name in ("a_11", "a_12", "a_22")):
            values["a_11"] = Fraction(rng.randint(1, 4))
        if values["Ht"] == 0:
            values["Ht"] = Fraction(rng.randint(1, 4))
        ht = values["Ht"]
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


def _x_filter(poly, keep):
    """The terms of ``poly`` whose x1-degree passes ``keep``."""
    return Polynomial(poly.ctx, {m: c for m, c in poly.terms() if keep(m[0])})


def _above(d):
    return lambda k, e: k > d


def _part(pieces, k):
    """The degree-``k`` part: the sum of its pieces."""
    return sum((q for (j, _), q in pieces.items() if j == k),
               Polynomial.zero(next(iter(pieces.values())).ctx))


def test_graded_defect_parts_equal_the_full_defect():
    """Step 5's whole-part path forms |grad f|^4 above degree 3, |grad f|^6
    and (delta1 f)^2 above degree 7, from pieces keyed by degree and x1-degree;
    each piece must equal the x1-degree filter of the full product's part,
    and the degree-k parts those of the full products."""
    product, piece = replay_module._product, replay_module._piece
    for n in (3, 4):
        f, _ = generic_cubic(n)
        ht = Polynomial.variable(f.ctx, "Ht")
        zero = Polynomial.zero(f.ctx)
        gradsq, d1 = grad_norm_sq(f), delta1(f)
        gp, dp = gradsq._split(piece), d1._split(piece)
        for whole, split in ((gradsq, gp), (d1, dp)):
            assert split and all(not q.is_zero for q in split.values()), n
            for (k, e), q in split.items():
                assert q == _x_filter(whole.homogeneous_part(k), e.__eq__), (n, k, e)
            assert sum(split.values(), zero) == whole, n
        gsq4 = product([(gp, gp)], _above(3))
        gsq6 = product([(gsq4, gp)], _above(7))
        d1sq = product([(dp, dp)], _above(7))
        full_gsq4 = gradsq * gradsq
        assert sorted({k for k, _ in gsq4}) == list(range(4, 9)), n
        for (k, e), q in gsq4.items():
            assert q == _x_filter(full_gsq4.homogeneous_part(k), e.__eq__), (n, k, e)
        assert sum(d1sq.values(), zero) == (d1 * d1).high_part(7), n
        assert gsq6 == _full_product([(gsq4, gp)], _above(7)), n
        defect = symbolic_defect(f)
        for k in range(8, 13):
            graded = ht * ht * _part(gsq6, k) - _part(d1sq, k)
            assert graded == defect.homogeneous_part(k), (n, k)
        assert defect.high_part(12).is_zero, n


def test_product_drops_cancelled_pieces():
    """A piece whose products cancel is left out, so the least x1-degree of
    the pieces is the valuation: (x1 + x2)^2 - x2^2 has valuation 1."""
    ctx = RingContext.geometric(2)
    x1, x2 = Polynomial.variable(ctx, "x1"), Polynomial.variable(ctx, "x2")
    piece = replay_module._piece
    a, b = (x1 + x2)._split(piece), (x2 * x2)._split(piece)
    pieces = replay_module._product([(a, a), (b, {(0, 0): -Polynomial.one(ctx)})],
                                    lambda k, e: True)
    assert pieces == {(2, 2): x1 * x1, (2, 1): x1 * x2 * 2}
    assert replay_module._valuation(pieces, 2) == 1
    assert replay_module._valuation(pieces, 3) == math.inf


def test_degree8_slices_are_the_x_degree_filter_of_the_defect(monkeypatch):
    """Step 5 first forms the defect's degree-k part, k = 8 to 12, only in
    the x1-slices below the bound 2k - 12 and on the axis slice k, and
    certifies each bound slice of degree 8 to 11 by its value at one integer
    point.  Each formed piece is the x1-filter of the full defect's part,
    and each certified value the filter's value at that point.  On the pass
    path the slices below the bounds are empty and the dropped slices are
    not; "cubic-part" fills slices 2 and 3 of degree 8, so nothing is
    evaluated (and step 5 forms the parts whole); a dense square fills
    every slice."""
    real, real_values = replay_module._product, replay_module._bound_values
    defect_key = replay_module._defect_key
    cases = [(n, None) for n in (3, 4, 5)] + [(n, "cubic-part") for n in (3, 4)]
    for n, mutation in cases:
        formed, certified = [], []

        def spy(factors, keep):
            out = real(factors, keep)
            if keep is defect_key:
                formed.append(out)
            return out

        def spy_values(*args):
            values = real_values(*args)
            certified.append((args[-1], values))
            return values

        monkeypatch.setattr(replay_module, "_product", spy)
        monkeypatch.setattr(replay_module, "_bound_values", spy_values)
        assert replay(n, mutation).passed == (mutation is None), n
        [dpieces] = formed
        f, spec = generic_cubic(n)
        if mutation:
            f = f - spec.x**3 + spec.x**2 * spec.y[0]
        parts = symbolic_defect(f).homogeneous_parts()
        assert max(parts) == 12, n
        expected = {(k, e): _x_filter(parts[k], e.__eq__)
                    for k in range(8, 13) for e in range(k + 1) if defect_key(k, e)}
        assert dpieces == {key: q for key, q in expected.items() if q}, (n, mutation)
        valuation = min(m[0] for m in _part(dpieces, 8).monomials())
        assert valuation == (2 if mutation else 8), (n, mutation)
        if mutation:
            assert certified == [], n
            continue
        [(point, values)] = certified
        at = dict(zip(f.ctx.variables, point))
        for k, value in zip(range(8, 12), values):
            bound = _x_filter(parts[k], (2 * k - 12).__eq__)
            assert value == raw_evaluate(bound, at) != 0, (n, k)
            # The slices left out hold terms.
            assert not _x_filter(parts[k], lambda e: not defect_key(k, e)).is_zero, (n, k)
    f, _ = generic_cubic(3)
    g = (Polynomial.variable(f.ctx, "x1") + Polynomial.variable(f.ctx, "x2") + 1)**4
    pieces = g._split(replay_module._piece)
    part8 = (g * g).homogeneous_part(8)
    assert {m[0] for m in part8.monomials()} == set(range(9))
    assert real([(pieces, pieces)], defect_key) == {
        (8, e): _x_filter(part8, e.__eq__) for e in (0, 1, 2, 3, 8)}


def test_the_pass_path_never_falls_back(monkeypatch):
    """On the pass path at n = 3 to 8, ``_product`` runs five times: step
    3 forms no degree-4 piece of |grad f|^4 below x1-degree 4, and step 5
    forms no piece (k, e) with ``2k - 12 <= e < k``, k = 8 to 11.  The
    whole-part fallback would add two more calls."""
    real = replay_module._product
    formed = []

    def spy(factors, keep):
        out = real(factors, keep)
        formed.append((keep, set(out)))
        return out

    monkeypatch.setattr(replay_module, "_product", spy)
    for n in range(3, 9):
        formed.clear()
        assert replay(n).passed, n
        assert len(formed) == 5, n
        (_, gsq4), _, (keep, dkeys) = formed[:3]
        assert keep is replay_module._defect_key, n
        assert not [e for k, e in gsq4 if k == 4 and e < 4], n
        assert not [(k, e) for k, e in dkeys if 8 <= k <= 11 and 2 * k - 12 <= e < k], n


def _full_product(factors, keep):
    """Reference for ``_product``: multiply the whole sums, then split the
    terms into pieces by degree and x1-degree, keeping those ``keep``
    passes."""
    ctx = next(iter(factors[0][0].values())).ctx
    zero = Polynomial.zero(ctx)
    full = sum((sum(a.values(), zero) * sum(b.values(), zero)
                for a, b in factors), zero)
    groups = {}
    for mono, c in full.terms():
        k = (sum(mono[:ctx.geometric_count]), mono[0])
        if keep(*k):
            groups.setdefault(k, {})[mono] = c
    return {k: Polynomial(ctx, terms) for k, terms in groups.items()}


# The path each mutation takes through step 5 at n = 3 and 4, read from its
# detail: the pass path and "defect-sign" slice the degree-8 part (the flip
# then fails the x-axis identity at degree 8); "cubic-part" leaves its
# valuation at 2, so the degree-8 part is formed whole.
STEP5_PATHS = {
    None: "deg 8: val 4 (need 4)",
    "cubic-part": "deg 8: val 2 (need 4)",
    "defect-sign": "x-axis identity fails at deg 8",
}


def test_graded_replay_matches_a_full_product_reference(monkeypatch):
    # ReplayStep equality compares name, status, residual, witness, detail.
    # The reference multiplies whole sums and forms the degree-8 part whole.
    for n in (3, 4):
        for mutation, path in STEP5_PATHS.items():
            graded = replay(n, mutation)
            assert path in graded.step("defect-valuations").detail, (n, mutation)
            with monkeypatch.context() as m:
                m.setattr(replay_module, "_product", _full_product)
                m.setattr(replay_module, "_defect_key", _above(7))
                reference = replay(n, mutation)
            assert graded.steps == reference.steps, (n, mutation)
            assert graded.overall == reference.overall, (n, mutation)
            assert (graded.delta1_expansion_residual
                    == reference.delta1_expansion_residual), (n, mutation)


def test_replay_stops_at_step_5_below_the_generic_cubic_guard(monkeypatch):
    # x^12 at degree 12 is the largest exponent the chain forms.
    def guard_11(*args, **kwargs):
        return RingContext(*args, **{**kwargs, "exponent_guard": 11})

    monkeypatch.setattr(cubic_module, "RingContext", guard_11)
    with pytest.raises(ExponentLimitError, match=r"^step defect-valuations: "
                       r"exponent 12 exceeds guard 11$"):
        replay(3)


def _doubled_matrix(q, names):
    m = quad_form_to_matrix(q, names)
    return SymMatrix(tuple(tuple(e * 2 for e in row) for row in m.entries))


def _halved_form(matrix, names, ctx):
    return quad_form_from_matrix(matrix, names, ctx) * Fraction(1, 2)


# Step 9's record in each of its two fail branches at n = 3, recorded
# before steps 1 and 6 moved onto ``_step``: an extraction that doubles A
# rebuilds a form that differs (residual -y'Ay); with a rebuild that halves
# again, the form matches but the matrix does not, and the residual is
# y'Ay less the halved rebuild of the true A.
STEP9_FAILURES = [
    ({"quad_form_to_matrix": _doubled_matrix},
     "-x2^2*a_11 - 2*x2*x3*a_12 - x3^2*a_22"),
    ({"quad_form_to_matrix": _doubled_matrix,
      "quad_form_from_matrix": _halved_form},
     "1/2*x2^2*a_11 + x2*x3*a_12 + 1/2*x3^2*a_22"),
]


@pytest.mark.parametrize("patches, residual", STEP9_FAILURES,
                         ids=["form-differs", "matrix-differs"])
def test_matrix_extraction_failure_records(monkeypatch, patches, residual):
    for name, fake in patches.items():
        monkeypatch.setattr(replay_module, name, fake)
    report = replay(3)
    step = report.step("matrix-extraction")
    record = (step.name, step.status, to_text(step.residual), step.witness,
              step.detail)
    assert record == ("matrix-extraction", "fail", residual, None, "")
    assert [s.passed for s in report.steps] == [True] * 8 + [False]
    assert report.overall == "fail"


def test_step_table_is_the_one_list_of_step_names():
    """``STEPS`` is this file's list, the docstring's numbered table and the
    benchmark's ``REPLAY_STEPS``, in order."""
    assert replay_module.STEPS == tuple(STEP_NAMES)
    table = re.findall(r"^(\d)\.\s+(\S+)", replay_module.__doc__, re.M)
    assert table == [(str(i), name) for i, name in enumerate(STEP_NAMES, start=1)]
    workloads = Path(__file__).parents[1] / "bench" / "workloads.py"
    bench_steps = next(
        ast.literal_eval(node.value)
        for node in ast.parse(workloads.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["REPLAY_STEPS"]
    )
    assert bench_steps == replay_module.STEPS


def test_exponent_guard_after_step_9_names_the_expansion(monkeypatch):
    def over_guard(spec):
        raise ExponentLimitError("exponent 13 exceeds guard 12")

    monkeypatch.setattr(replay_module, "_expected_delta1_rest", over_guard)
    with pytest.raises(ExponentLimitError, match=r"^step delta1-expansion: "
                       r"exponent 13 exceeds guard 12$"):
        replay(3)


def test_replay_forms_the_gradient_twice(monkeypatch):
    """Steps 1 and 2 share one ``_gns_delta1`` call: the gradient of f and
    that of ``|grad f|^2``, and no other."""
    calls = []
    real = calculus_module.gradient

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(calculus_module, "gradient", counted)
    assert replay(4).passed
    assert len(calls) == 2
