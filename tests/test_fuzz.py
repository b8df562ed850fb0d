"""Grammar-based fuzzing of the parser and of ``cmccheck check``.

Inputs come from a bounded grammar: at most 3 variables, 4 terms, 3
factors per term, exponents at most 3 and small rational literals, with
one junk character sometimes inserted.  The bounds keep every defect
small; inputs such as ``(x1+...+x6)^40`` grow without limit and stay out
of these tests until the ring has a term budget.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from cmccheck.cli import main
from cmccheck.parse import ParseError, parse_polynomial, to_text
from cmccheck.ring import RingContext

CTX = RingContext.geometric(3)

# No digits: a digit inserted after '^' would raise an exponent past the
# grammar's bound.
JUNK = "@#$(),.;!?x^*/+- "

literals = st.builds(
    lambda p, q: str(p) if q == 1 else f"{p}/{q}",
    st.integers(0, 9),
    st.integers(1, 5),
)
factors = st.builds(
    lambda v, e: v if e == 1 else f"{v}^{e}",
    st.sampled_from(["x1", "x2", "x3"]),
    st.integers(0, 3),
)
terms = st.builds(
    lambda coeff, fs: "*".join(([coeff] if coeff else []) + fs) or "1",
    st.none() | literals,
    st.lists(factors, max_size=3),
)


@st.composite
def polynomial_texts(draw):
    """(text, junked): a grammar sentence, maybe with one junk character."""
    parts = draw(st.lists(terms, min_size=1, max_size=4))
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(parts),
                          max_size=len(parts)))
    text = ("-" if signs[0] == "-" else "") + parts[0]
    for sign, part in zip(signs[1:], parts[1:]):
        text += f" {sign} {part}"
    if draw(st.booleans()):
        return text, False
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(JUNK)) + text[at:], True


hsq_texts = st.one_of(
    st.sampled_from(["solve", "0", "-1/2", "0.5", "1e3", "abc", ""]),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None)
@given(polynomial_texts())
def test_parse_round_trips_grammar_sentences(case):
    text, junked = case
    try:
        f = parse_polynomial(text, CTX)
    except ParseError:
        assert junked, f"grammar sentence rejected: {text!r}"
        return
    assert parse_polynomial(to_text(f), CTX) == f


@settings(max_examples=80, deadline=None)
@given(polynomial_texts(), hsq_texts)
def test_check_cli_never_raises(case, hsq):
    """Exit 0/1 prints a JSON envelope; exit 2 prints only an error.

    A leading minus, as in ``-x1``, is a value: ``-x1`` prints
    ``polynomial: -x1`` and exits 1.  Junk can make an input start with
    ``--``, which reads as an option to argparse; argparse then exits 2
    with a usage message, and that exit is caught here.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["check", case[0], "--vars", "3", "--hsq", hsq, "--json"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
    else:
        envelope = json.loads(out.getvalue())
        assert envelope["command"] == "check"
        assert envelope["result"]["divisible"] is (code == 0)
        assert err.getvalue() == ""
