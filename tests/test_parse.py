import random
import time

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from cmccheck.cli import main
from cmccheck.parse import MAX_NESTING, ParseError, parse_polynomial, to_text
from cmccheck.ring import ExponentLimitError, Polynomial, RingContext
from oracles import random_polynomial, raw_to_text

CTX = RingContext.geometric(3)
CTXP = RingContext.with_parameters(["x1", "x2"], ["Ht", "k0", "a_11", "r_1", "s_1"])


def parse(src, ctx=CTX):
    return parse_polynomial(src, ctx)


def test_literals_and_terms():
    assert parse("3") == Polynomial.constant(CTX, 3)
    assert parse("3/2") == Polynomial.constant(CTX, Fraction(3, 2))
    assert parse("-7") == Polynomial.constant(CTX, -7)
    assert parse("-3/2") == Polynomial.constant(CTX, Fraction(-3, 2))
    x1, x2 = Polynomial.variable(CTX, "x1"), Polynomial.variable(CTX, "x2")
    assert parse("x1^2 - x2^2") == x1**2 - x2**2
    assert parse("2*x1*x2") == x1 * x2 * 2
    assert parse("x1^2^3") == x1**6  # chained powers apply left to right


def test_parentheses_and_signs():
    x1, x2 = Polynomial.variable(CTX, "x1"), Polynomial.variable(CTX, "x2")
    assert parse("(x1 + x2)^2") == x1**2 + x1 * x2 * 2 + x2**2
    assert parse("-x1^2") == -(x1**2)
    assert parse("-3*x1") == x1 * -3
    assert parse("(-x1 + x2)*(x1 + x2)") == x2**2 - x1**2
    assert parse("+x1") == x1


def test_whitespace_and_newlines():
    got = parse("x1\n  + x2\n  - 1/3")
    want = (
        Polynomial.variable(CTX, "x1")
        + Polynomial.variable(CTX, "x2")
        - Fraction(1, 3)
    )
    assert got == want


@pytest.mark.parametrize(
    "src",
    [
        "2x1",  # implicit multiplication
        "x1 x2",
        "3*-7",  # sign not at expression start
        "--x1",
        "x1^-2",
        "x1^(2)",  # exponent must be a literal
        "x1^x2",
        "x1/2",  # '/' only inside rational literals
        "1/0",
        "(x1",
        "x1 +",
        "",
        "x1 @ x2",
        "x1^²",  # superscript digits are not decimal digits
        "²*x1",
    ],
)
def test_syntax_errors(src):
    with pytest.raises(ParseError):
        parse(src)


def test_decimal_digits_of_any_script_are_integers():
    assert parse("٣*x1^٢") == parse("3*x1^2")


def test_undeclared_variable_error_position():
    with pytest.raises(ParseError) as err:
        parse("x1 + zz", CTX)
    assert "zz" in str(err.value)
    assert err.value.line == 1 and err.value.col == 6


def test_error_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("x1 +\n x2 ^ x3")
    assert err.value.line == 2
    assert err.value.col == 7


def test_canonical_printing():
    assert to_text(Polynomial.zero(CTX)) == "0"
    assert to_text(parse("x2 + x1")) == "x1 + x2"
    assert to_text(parse("1*x1")) == "x1"
    assert to_text(parse("0*x1")) == "0"
    assert to_text(parse("x1 - x2")) == "x1 - x2"
    assert to_text(parse("-x1 - 1/3")) == "-x1 - 1/3"
    assert to_text(parse("2/4*x1")) == "1/2*x1"
    assert to_text(parse("x3*x1")) == "x1*x3"
    f = parse("x1^2 + x1*x2 + x2^2")
    assert to_text(f) == "x1^2 + x1*x2 + x2^2"


def test_parameters_print_by_name():
    # factors inside a monomial follow declaration order: geometric first
    f = parse_polynomial("Ht^2 + k0*x1 + a_11*x2 + r_1 - s_1", CTXP)
    assert to_text(f) == "x1*k0 + x2*a_11 + Ht^2 + r_1 - s_1"


def test_round_trip_seeded():
    rng = random.Random(13)
    for _ in range(200):
        f = random_polynomial(rng, CTXP, max_degree=5, max_terms=7)
        assert parse_polynomial(to_text(f), CTXP) == f


def test_to_text_matches_the_reference_renderer():
    """Byte for byte against the tuple-key renderer: both orders,
    parameters, negative, unit and rational coefficients, constants, zero."""
    rng = random.Random(71)
    contexts = (
        CTX,
        CTXP,
        RingContext.with_parameters(["x1", "x2", "x3"], ["a"]),
        RingContext.geometric(4),
    )
    for ctx in contexts:
        zero = Polynomial.zero(ctx)
        assert to_text(zero) == raw_to_text(zero) == "0"
        for _ in range(100):
            f = random_polynomial(rng, ctx, max_degree=5, max_terms=8)
            for g in (f, -f, f * 6, f + 1, f - Fraction(7, 4), f * 0 - 1):
                assert to_text(g) == raw_to_text(g)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 5), min_size=3, max_size=3),
            st.fractions(
                min_value=-50, max_value=50, max_denominator=20
            ).filter(lambda q: q != 0),
        ),
        max_size=8,
    )
)
def test_round_trip_hypothesis(items):
    f = Polynomial(CTX, [(tuple(m), c) for m, c in items])
    assert parse_polynomial(to_text(f), CTX) == f


def test_nesting_is_capped_with_a_positioned_error():
    assert MAX_NESTING == 100
    deep = "(" * 100 + "x1" + ")" * 100
    assert parse(deep + "^2") == parse("x1^2")
    with pytest.raises(ParseError) as err:
        parse("x1 + " + "(" * 101 + "x1" + ")" * 101)
    # the 101st '(' is the first one too deep
    assert (err.value.line, err.value.col) == (1, 106)
    assert "nested deeper than 100" in str(err.value)


def test_hostile_nesting_exits_2_without_a_traceback(capsys):
    deep = "(" * 5000 + "x1" + ")" * 5000
    code = main(["decompose", deep, "--vars", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: line 1, col 101: ")
    assert "Traceback" not in captured.err


NINES = "9" * 5000


@pytest.mark.parametrize(
    "src, col",
    [
        (NINES + "*x1", 1),
        ("x1 + 2/" + NINES, 8),
        ("x1^" + NINES, 4),
    ],
    ids=["coefficient", "denominator", "exponent"],
)
def test_overlong_literals_raise_at_the_literal(src, col):
    """``int`` refuses a literal past 4,300 digits; the parser says where."""
    with pytest.raises(ParseError) as err:
        parse("1 +\n" + src)
    assert (err.value.line, err.value.col) == (2, col)
    assert str(err.value).endswith("integer literal of 5000 digits is too long")
    # At the limit the literal still converts.
    assert parse("9" * 4300) == Polynomial.constant(CTX, int("9" * 4300))


def test_overlong_literal_exits_2_without_a_traceback(capsys):
    code = main(["decompose", "x1^" + NINES, "--vars", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: line 1, col 4: integer literal of 5000 digits is too long\n"
    )


def test_monomial_powers_raise_what_polynomial_powers_raise():
    """A power folded into a term raises the guard and cap errors of
    ``Polynomial.__pow__`` word for word."""
    x1 = Polynomial.variable(CTX, "x1")
    cases = (
        ("x1^70000", lambda: x1**70000),
        ("x1^300^300", lambda: (x1**300) ** 300),
        ("(3^65535)^1000", lambda: Polynomial.constant(CTX, 3**65535) ** 1000),
        ("1^2000000", lambda: Polynomial.one(CTX) ** 2000000),
        ("0^2000000", lambda: Polynomial.zero(CTX) ** 2000000),
    )
    for src, power in cases:
        with pytest.raises(ExponentLimitError) as want:
            power()
        with pytest.raises(ExponentLimitError) as got:
            parse(src)
        assert str(got.value) == str(want.value)


def _wrapped_terms(src, ctx, monkeypatch):
    """The parse of ``src`` and the number of terms it hands to
    ``Polynomial._from_ints``, summed over every call."""
    wrap = Polynomial.__dict__["_from_ints"].__func__
    count = [0]

    def counting(cls, ctx, terms, den=1):
        count[0] += len(terms)
        return wrap(cls, ctx, terms, den)

    with monkeypatch.context() as m:
        m.setattr(Polynomial, "_from_ints", classmethod(counting))
        f = parse_polynomial(src, ctx)
    return count[0], f


def test_parsing_is_linear(monkeypatch):
    """Eight times the terms hand at most twelve times as many terms to the
    polynomial constructor; a parser that adds term by term through ``+``
    copies the growing sum at every term and hands about 64 times as many.
    The count is exact, where a ratio of wall-clock times is not."""
    ctx = RingContext.geometric(2)

    def text(n):
        return " + ".join(f"{i % 7 + 1}*x1^{i}*x2^{i % 5}" for i in range(n))

    small, _ = _wrapped_terms(text(2500), ctx, monkeypatch)
    large, f = _wrapped_terms(text(20000), ctx, monkeypatch)
    assert len(f) == 20000
    assert large / small <= 12
    assert parse_polynomial(to_text(f), ctx) == f


@pytest.mark.parametrize(
    "src", [" " * 100000 + "@", "x" * 50000 + " @"], ids=["spaces", "long-name"]
)
def test_stray_characters_after_long_runs_fail_fast(src):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(src)
    assert time.perf_counter() - start < 1
    assert str(err.value).endswith("unexpected character '@'")
