import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmccheck
from cmccheck import cli
from cmccheck.cli import TERM_CAP, _clip, main
from cmccheck.parse import to_text
from cmccheck.ring import Polynomial, RingContext

SPHERE = "x1^2 + x2^2 + x3^2 - 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sphere_affirmative(capsys):
    code, out, err = run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "1")
    assert code == 0
    assert "verdict: divisible" in out
    assert "certificate:" in out
    assert err == ""


def test_check_wrong_curvature_negative(capsys):
    code, out, _ = run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "2")
    assert code == 1
    assert "verdict: not divisible" in out
    assert "witness remainder:" in out


def test_check_solve_finds_sphere_curvature(capsys):
    code, out, _ = run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "solve")
    assert code == 0
    assert "hsq: 1 (solved)" in out


def test_check_solve_reports_inadmissible(capsys):
    code, out, _ = run(
        capsys, "check", "x1^3 + x2^2 + x3", "--vars", "3", "--hsq", "solve"
    )
    assert code == 1
    assert "no admissible squared curvature" in out


def test_check_rejects_nonpositive_and_float_curvature(capsys):
    code, _, err = run(capsys, "check", "x1", "--vars", "3", "--hsq", "0")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "0.5")
    assert code == 2
    assert "not an exact rational" in err


def test_rationals_are_strict(capsys):
    """Only ``[+-]digits[/digits]`` in ASCII digits with a nonzero
    denominator is a rational; everything else is rejected with one message,
    whatever ``Fraction`` itself would accept or raise."""
    rejected = [
        "1/0", "-3/00", "0/0", "1_000", "1/2_0", "0.5", "1e3", "inf", "nan",
        "", " 1", "1 ", "1/", "/2", "1/-2", "+-1", "1/2/3", "0x10",
        "\u0663", "\uff11",
    ]
    for text in rejected:
        for argv in (
            ["check", "x1", "--vars", "3", "--hsq", text],
            ["defect", "x1", "--vars", "3", "--hsq", text],
            ["surface", "sphere", "--n", "3", "--rsq", text],
        ):
            expected = (2, "", f"error: not an exact rational: {text!r}\n")
            assert run(capsys, *argv) == expected, argv
    code, out, _ = run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "+01/1")
    assert code == 0
    assert "hsq: 1\n" in out
    code, out, _ = run(capsys, "surface", "sphere", "--n", "3", "--rsq", "04/01")
    assert code == 0
    assert "hsq: 1/4\n" in out


NINES_3000 = "9" * 3000
ONES_5000 = "1" * 5000


@pytest.mark.parametrize("argv, message", [
    (["decompose", f"({NINES_3000}*x1)^2", "--vars", "1"],
     "a coefficient of about 6001 digits is too long to print"),
    (["check", "x1^2+x2^2-1", "--vars", "2", "--hsq", ONES_5000],
     "rational of 5000 characters is too long"),
    (["surface", "sphere", "--n", "3", "--rsq", ONES_5000],
     "rational of 5000 characters is too long"),
    (["surface", "sphere", "--n", "3", "--rsq", f"1/{ONES_5000}"],
     "rational of 5002 characters is too long"),
], ids=["printed-coefficient", "hsq", "rsq", "rsq-denominator"])
def test_integers_past_the_text_limit_exit_2_with_context(capsys, argv, message):
    """An integer past Python's 4,300-digit limit on int/str conversion, in
    a result or in a rational argument, ends with one line of our own: no
    traceback, no advice to raise the interpreter's limit and no echo of the
    value."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert "Traceback" not in err and "set_int_max_str_digits" not in err


def test_a_result_too_long_to_print_fails_only_where_it_is_printed(capsys):
    """The defect of this cubic has 224 terms and a coefficient of about
    4,800 digits.  ``--json`` and ``--full`` render it and exit 2; the
    text placeholder never renders it, so the text run prints and exits 0."""
    argv = ["defect", f"{'7' * 800}*x1^3 + x2^3 + x3^3 + x1*x2*x3 + x1 + x2",
            "--vars", "3", "--hsq", "1"]
    message = "error: a coefficient of about 4804 digits is too long to print\n"
    for flag in ("--json", "--full"):
        assert run(capsys, *argv, flag) == (2, "", message)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("defect: <224 terms; rerun with --full to print>\n")


@pytest.mark.parametrize("argv", [
    ["check", "x1", "--vars", "1", "--hsq"],
    ["defect", "x1", "--vars", "1", "--hsq"],
    ["surface", "sphere", "--n", "3", "--rsq"],
], ids=["check", "defect", "surface"])
def test_long_non_rational_is_echoed_by_its_start_and_length(capsys, argv):
    code, out, err = run(capsys, *argv, f"{ONES_5000}x")
    assert (code, out) == (2, "")
    assert err == f"error: not an exact rational: '{'1' * 20}'... (5001 characters)\n"
    assert len(err.encode()) < 200


def test_check_rejects_bad_polynomial_with_position(capsys):
    code, _, err = run(capsys, "check", "x1 + + x2", "--vars", "3", "--hsq", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "check", "x9", "--vars", "3", "--hsq", "1")
    assert code == 2
    assert "x9" in err


def test_leading_minus_values_are_not_options(capsys):
    code, out, err = run(capsys, "check", "-x1", "--vars", "3", "--hsq", "1")
    assert code == 1
    assert "polynomial: -x1" in out
    assert err == ""
    # -h is still the help option, matched before the value test.
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0
    assert "usage: cmccheck check" in capsys.readouterr().out
    code, out, err = run(capsys, "check", "x1", "--vars", "3", "--hsq", "-1/2")
    assert code == 2
    assert out == ""
    assert err == "error: squared mean curvature must be positive\n"


def test_handler_is_looked_up_when_the_parser_is_built(capsys, monkeypatch):
    """A handler rebound on the module after import, as a tracer rebinds
    it, is the one that runs; a table that captured ``cmd_check`` at import
    would call the original."""
    seen = []

    def stub(args):
        seen.append((args.command, args.poly, args.vars, args.hsq))
        return {}, 0, lambda: ["stub ran"]

    monkeypatch.setattr(cli, "cmd_check", stub)
    # A plain line, then one that argparse reads.
    for vars_ in (["--vars", "3"], ["--vars=3"]):
        assert run(capsys, "check", "x1", *vars_, "--hsq", "1") == (
            0, "stub ran\n", ""
        )
    assert seen == [("check", "x1", 3, "1")] * 2


def test_plain_lines_build_no_parser(capsys, parsers_built):
    """A plain line is read from the command table and builds no parser;
    help, a usage error or an unusual spelling builds the full parser,
    once."""
    assert run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "solve", "--json")[0] == 0
    assert run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "1/2", "--json",
               "--full")[0] == 1
    assert run(capsys, "replay", "--n", "4", "--json")[0] == 0
    assert parsers_built == []
    for argv, code in [
        (["check", "x1", "--vars", "3", "--hsq", "1", "--bogus"], 2),
        (["-h"], 0),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert run(capsys, "check", SPHERE, "--vars=3", "--hsq", "1")[0] == 0
    assert parsers_built == [1, 1, 1]


# Words for the differential test below: values that start with "-", fail
# a type or a choice, or are spelled unusually, and words that look like
# options, which may also stand where a value belongs.
ODD_VALUES = ["-x1 + x2", "-3", "-", "", "\u0663", "3_0", "q", "cube", "4"]
ODD_WORDS = ["--", "-h", "-hx", "--bogus", "--help", "--json", "-x1"]


def _values(kwargs):
    if "choices" in kwargs:
        valid = st.sampled_from([str(c) for c in kwargs["choices"]])
    elif kwargs.get("type") is int:
        valid = st.integers(-2, 70).map(str)
    else:
        valid = st.sampled_from([SPHERE, "x1", "1/2", "solve", "3"])
    return valid | st.sampled_from(ODD_VALUES + ODD_WORDS)


@st.composite
def command_lines(draw):
    """A line of one of the seven commands, then perturbed: reordered by
    flag or by word, a flag repeated, respelled (``--flag=value``, an
    abbreviation), words dropped or inserted."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    rows = cli._COMMANDS[name][1] + cli._COMMON
    units = []
    for flag, kwargs in rows:
        if kwargs.get("action") == "store_true":
            units += [[flag]] if draw(st.booleans()) else []
        elif not flag.startswith("--"):
            units.append([draw(_values(kwargs))])
        elif kwargs.get("required") or draw(st.booleans()):
            units.append([flag, draw(_values(kwargs))])
    for change in draw(st.lists(st.sampled_from(
            ["shuffle", "scramble", "repeat", "equals", "abbreviate", "drop", "insert"]),
            max_size=3)):
        at = draw(st.integers(0, len(units)))
        flags = [i for i, unit in enumerate(units)
                 if unit[0].startswith("--") and unit[0] in dict(rows)]
        if change == "shuffle":
            units = draw(st.permutations(units))
        elif change == "scramble":  # a flag may lose its value, or take a flag
            units = [[word] for word in draw(st.permutations(sum(units, [])))]
        elif change == "insert":
            units.insert(at, [draw(st.sampled_from(ODD_WORDS + ODD_VALUES))])
        elif change == "drop" and units:
            del units[at % len(units)]
        elif flags:
            i = draw(st.sampled_from(flags))
            flag, *value = units[i]
            if change == "repeat":
                units.insert(at, list(units[i]))
            elif change == "equals" and value:
                units[i] = [f"{flag}={value[0]}"]
            elif change == "abbreviate":
                units[i] = [flag[:draw(st.integers(3, len(flag)))], *value]
    return [name] + [word for unit in units for word in unit]


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_read_agrees_with_argparse(argv):
    """Whenever a line is read from the command table, the full parser
    reads it into an equal namespace (same handler included)."""
    args = cli._read(argv)
    if args is not None:
        assert args == cli.build_parser().parse_args(argv)


def test_check_json_envelope(capsys):
    code, out, _ = run(
        capsys, "check", SPHERE, "--vars", "3", "--hsq", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema_version", "command", "inputs", "result"}
    assert payload["schema_version"] == "1"
    assert payload["command"] == "check"
    assert payload["inputs"]["vars"] == 3
    assert payload["result"]["divisible"] is True
    assert payload["result"]["hsq"] == "1"
    assert payload["result"]["witness_remainder"] is None
    assert isinstance(payload["result"]["warnings"], list)


def test_json_output_is_byte_deterministic(capsys):
    args = ("check", SPHERE, "--vars", "3", "--hsq", "1/4", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("sweep", "--n", "3", "--count", "5", "--seed", "42", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_defect_command(capsys):
    code, out, _ = run(capsys, "defect", "x1", "--vars", "2", "--hsq", "1")
    assert code == 0
    assert "defect: 4" in out
    code, out, _ = run(
        capsys, "defect", "x1", "--vars", "2", "--hsq", "1", "--json"
    )
    payload = json.loads(out)
    assert payload["result"] == {"defect": "4", "terms": 1, "total_degree": 0}


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "x1^3 + x1*x2 + x2", "--vars", "3")
    assert code == 0
    assert "degree 1: x2" in out
    assert "degree 2: x1*x2" in out
    assert "degree 3: x1^3" in out
    code, out, _ = run(
        capsys, "decompose", "x1^3 + x1*x2 + x2", "--vars", "3", "--json"
    )
    payload = json.loads(out)
    assert payload["result"]["parts"] == {
        "1": "x2",
        "2": "x1*x2",
        "3": "x1^3",
    }


def test_cube_test_command(capsys):
    code, out, _ = run(
        capsys,
        "cube-test",
        "x1^3 + 6*x1^2*x2 + 12*x1*x2^2 + 8*x2^3",
        "--vars",
        "2",
    )
    assert code == 0
    assert "cube root: x1 + 2*x2" in out
    code, out, _ = run(capsys, "cube-test", "x1^3 + x2^3", "--vars", "2")
    assert code == 1
    assert "not the cube" in out
    code, _, err = run(capsys, "cube-test", "x1^2", "--vars", "2")
    assert code == 2


def test_surface_command(capsys):
    code, out, _ = run(capsys, "surface", "sphere", "--n", "3", "--rsq", "4")
    assert code == 0
    assert "hsq: 1/4" in out
    assert "verified: yes" in out
    code, out, _ = run(capsys, "surface", "plane", "--n", "3")
    assert code == 0
    assert "none admissible" in out
    code, _, err = run(capsys, "surface", "sphere", "--n", "3", "--rsq", "0")
    assert code == 2
    code, out, _ = run(capsys, "surface", "cylinder", "--n", "4", "--json")
    payload = json.loads(out)
    assert payload["result"]["verified"] is True
    assert payload["result"]["hsq"] == "1/9"


# Closed forms that disagree with what ``solve_hsq`` finds: each must
# print ``verified: no`` and exit 1.
WRONG_SURFACES = {
    "sphere-wrong-hsq": lambda f, hsq, cert: (f, hsq * 2, cert),
    "doubled-certificate": lambda f, hsq, cert: (f, hsq, cert * 2),
    "plane-with-hsq": lambda f, hsq, cert: (
        Polynomial.variable(f.ctx, "x1"), hsq, None
    ),
    "sphere-without-hsq": lambda f, hsq, cert: (f, None, None),
}


@pytest.mark.parametrize("label", list(WRONG_SURFACES))
def test_surface_with_a_wrong_closed_form_is_not_verified(capsys, monkeypatch, label):
    wrong = WRONG_SURFACES[label]
    make_surface = cli.make_surface
    monkeypatch.setattr(
        cli, "make_surface", lambda kind, n, rsq: wrong(*make_surface(kind, n, rsq))
    )
    code, out, _ = run(capsys, "surface", "sphere", "--n", "3", "--rsq", "4")
    assert code == 1
    assert out.endswith("verified: no\n")
    code, out, _ = run(capsys, "surface", "sphere", "--n", "3", "--rsq", "4", "--json")
    assert code == 1
    assert json.loads(out)["result"]["verified"] is False


def _count_calls(monkeypatch, name, module=cmccheck.cmc):
    """Count the calls made to ``module``'s name ``name``."""
    calls = []
    target = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return target(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [3, 5])
def test_solved_check_forms_the_residues_once(capsys, monkeypatch, n):
    # A translated sphere passes the top-form test and is admissible: one
    # top-form division and the five residue divisions, whose quotients
    # make the certificate; the defect is not divided.
    text = " + ".join(f"(x{i} - {i})^2" for i in range(1, n + 1)) + " - 4"
    counts = {
        name: _count_calls(monkeypatch, name) for name in ("_gns_delta1", "divide")
    }
    assert not hasattr(cmccheck.cmc, "divides")
    counts["divides"] = _count_calls(
        monkeypatch, "divides", sys.modules["cmccheck.divide"]
    )
    code, out, _ = run(capsys, "check", text, "--vars", str(n), "--hsq", "solve")
    assert code == 0
    assert "hsq: 1/4 (solved)" in out
    assert {name: len(calls) for name, calls in counts.items()} == {
        "_gns_delta1": 1, "divide": 6, "divides": 0,
    }


def test_each_sweep_sample_forms_the_residues_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "_gns_delta1")
    code, out, _ = run(capsys, "sweep", "--n", "3", "--count", "5", "--degree", "2")
    assert code == 0
    assert "admissible: 5 of 5" in out
    assert len(calls) == 5


def test_replay_command(capsys):
    code, out, _ = run(capsys, "replay", "--n", "3")
    assert code == 0
    assert "overall: pass" in out
    for i in range(1, 10):
        assert f"step {i} " in out
    code, _, err = run(capsys, "replay", "--n", "2")
    assert code == 2
    assert "error:" in err


def test_replay_json_shape(capsys):
    code, out, _ = run(capsys, "replay", "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["overall"] == "pass"
    assert len(result["steps"]) == 9
    assert result["steps"][5]["name"] == "cascade-division"
    assert result["steps"][5]["witness"] == "729*x1^9*Ht^2"
    assert result["delta1_expansion"]["matches"] is True


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "3", "--count", "5", "--seed", "42")
    assert code == 0
    assert "admissible: 0 of 5" in out
    code, out, _ = run(
        capsys, "sweep", "--n", "3", "--count", "5", "--seed", "42", "--degree", "2"
    )
    assert code == 0
    assert "admissible: 5 of 5" in out
    code, out, _ = run(
        capsys, "sweep", "--n", "3", "--count", "4", "--seed", "1", "--json"
    )
    payload = json.loads(out)
    assert payload["result"]["admissible_count"] == 0
    assert payload["result"]["admissible"] == []
    assert payload["inputs"]["seed"] == 1


def test_sweep_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, "sweep", "--n", "2", "--count", "5")
    assert code == 2
    assert "error:" in err


def test_dimensions_are_bounded_before_any_context_is_built(capsys, monkeypatch):
    def no_context(*args, **kwargs):
        raise AssertionError("a ring context was about to be built")

    monkeypatch.setattr(RingContext, "geometric", no_context)
    for builder in ("make_surface", "refutation_sweep", "replay"):
        monkeypatch.setattr(cli, builder, no_context)
    for argv, flag, cap in (
        (["check", "x1", "--vars", "100000000", "--hsq", "1"], "--vars", cli.MAX_VARS),
        (["surface", "sphere", "--n", "100000000"], "--n", cli.MAX_VARS),
        (["sweep", "--n", "100000000", "--count", "1"], "--n", cli.MAX_SWEEP_N),
        (["sweep", "--n", "3", "--count", "100000000"], "--count", cli.MAX_SWEEP_COUNT),
        (["replay", "--n", "1000000"], "--n", cli.MAX_REPLAY_N),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be at most {cap}\n"


@pytest.mark.parametrize("argv, flag, cap", [
    (["check", "x1", "--vars", "65", "--hsq", "1"], "--vars", 64),
    (["surface", "sphere", "--n", "65"], "--n", 64),
    (["sweep", "--n", "9", "--count", "1"], "--n", 8),
    (["replay", "--n", "11"], "--n", 10),
    (["sweep", "--n", "3", "--count", "1001"], "--count", 1000),
])
def test_dimension_caps_refuse_one_past_the_cap(capsys, argv, flag, cap):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at most {cap}\n"


def test_dimension_caps_are_inclusive(capsys):
    code, out, _ = run(capsys, "check", "x1", "--vars", str(cli.MAX_VARS), "--hsq", "1")
    assert code == 1 and "verdict: not divisible" in out
    code, out, _ = run(capsys, "surface", "cylinder", "--n", str(cli.MAX_VARS))
    assert code == 0 and "verified: yes" in out
    code, out, _ = run(
        capsys, "sweep", "--n", str(cli.MAX_SWEEP_N), "--count", "1", "--degree", "2"
    )
    assert code == 0 and "admissible: 1 of 1" in out
    code, out, _ = run(
        capsys, "sweep", "--n", "3", "--count", str(cli.MAX_SWEEP_COUNT), "--degree", "2"
    )
    assert code == 0 and f"admissible: {cli.MAX_SWEEP_COUNT} of {cli.MAX_SWEEP_COUNT}" in out


def test_powers_with_huge_coefficients_exit_2(capsys):
    """The coefficient cap of ``**`` ends a hostile power at once, through
    the one-term path and the repeated-squaring path alike."""
    for poly in ("(3^65535)^1000", "(3^65535 + x1)^1000"):
        code, out, err = run(capsys, "decompose", poly, "--vars", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "coefficient cap" in err


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_clip_respects_term_cap():
    ctx = RingContext.geometric(1)
    x = Polynomial.variable(ctx, "x1")
    big = sum((x**k for k in range(TERM_CAP + 1)), Polynomial.zero(ctx))
    assert len(big) == TERM_CAP + 1
    assert _clip(big, False) == f"<{TERM_CAP + 1} terms; rerun with --full to print>"
    assert _clip(big, True).count("+") == TERM_CAP
    small = x + 1
    assert _clip(small, False) == "x1 + 1"


def _spy_renders(monkeypatch):
    """The polynomials ``cli.to_text`` renders from now on, in call order."""
    rendered = []

    def spy(f):
        rendered.append(f)
        return to_text(f)

    monkeypatch.setattr(cli, "to_text", spy)
    return rendered


def _spy_text_lines(monkeypatch, handler):
    """The runs of ``handler`` whose text-line builder was called."""
    built = []
    original = getattr(cli, handler)

    def spy(args):
        result, code, lines = original(args)
        return result, code, lambda: built.append(handler) or lines()

    monkeypatch.setattr(cli, handler, spy)
    return built


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_text_replay_renders_no_witness(capsys, monkeypatch, n):
    """A passing replay has no residual to print, so its text renders no
    polynomial: none of the step witnesses that ``--json`` prints."""
    rendered = _spy_renders(monkeypatch)
    code, out, _ = run(capsys, "replay", "--n", str(n))
    assert code == 0 and "overall: pass" in out
    assert rendered == []


# Each clips one polynomial in text mode and renders one other: the input,
# for its echo (check, defect), or the 21-term sphere it prints (surface,
# whose 210-term certificate is a multiple of (x1^2 + ... + x20^2)^2).
CLIPPED = [
    (["check", "x1^3 + x2^3 + x3^3 + x4^3 + x1*x2*x3 + x1 + x2", "--vars", "4",
      "--hsq", "3/2"], "witness remainder: <516 terms"),
    (["defect", "x1^3 + x2^3 + x3^3 + x1*x2*x3 + x1 + x2", "--vars", "3",
      "--hsq", "1"], "defect: <"),
    (["surface", "sphere", "--n", "20"], "certificate: <210 terms"),
]


@pytest.mark.parametrize("argv, clipped", CLIPPED, ids=[argv[0] for argv, _ in CLIPPED])
def test_text_mode_never_renders_what_it_clips(capsys, monkeypatch, argv, clipped):
    rendered = _spy_renders(monkeypatch)
    _, out, err = run(capsys, *argv)
    assert clipped in out and err == ""
    assert len(rendered) == 1 and len(rendered[0]) <= TERM_CAP


# Keys whose values in a JSON envelope are printed polynomials (or null);
# ``parts`` maps degrees to them.
_POLYNOMIAL_KEYS = {"polynomial", "certificate", "witness_remainder", "defect",
                    "root", "residual", "witness"}


def _polynomial_texts(node):
    if isinstance(node, list):
        for item in node:
            yield from _polynomial_texts(item)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key == "parts":
                yield from value.values()
            elif key in _POLYNOMIAL_KEYS:
                if value is not None:
                    yield value
            else:
                yield from _polynomial_texts(value)


JSON_RUNS = [
    (CLIPPED[0][0], "cmd_check"),
    ([*CLIPPED[0][0][:-1], "solve"], "cmd_check"),
    (["check", SPHERE, "--vars", "3", "--hsq", "1"], "cmd_check"),
    (CLIPPED[1][0], "cmd_defect"),
    (["decompose", "(x1+x2+x3+x4+x5+1)^6", "--vars", "5"], "cmd_decompose"),
    (["cube-test", "(x1 + 2*x2)^3", "--vars", "2"], "cmd_cube_test"),
    (CLIPPED[2][0], "cmd_surface"),
    (["surface", "plane", "--n", "3"], "cmd_surface"),
    (["replay", "--n", "4"], "cmd_replay"),
    (["sweep", "--n", "3", "--count", "3", "--seed", "42", "--degree", "2"], "cmd_sweep"),
]


@pytest.mark.parametrize("argv, handler", JSON_RUNS,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in JSON_RUNS])
def test_json_mode_renders_each_polynomial_once_and_no_text(capsys, monkeypatch,
                                                           argv, handler):
    built = _spy_text_lines(monkeypatch, handler)
    rendered = _spy_renders(monkeypatch)
    _, out, err = run(capsys, *argv, "--json")
    assert err == "" and built == []
    texts = sorted(_polynomial_texts(json.loads(out)))
    assert texts and sorted(map(to_text, rendered)) == texts
    # The spy is hooked: text mode calls the builder once.
    run(capsys, *argv)
    assert built == [handler]


def test_closed_stdout_exits_quietly_with_the_command_code():
    """A reader that has gone (``| head``) costs no traceback: the command
    keeps its own exit code and writes nothing to stderr, whether its output
    overflows the stdout buffer (the 9 kB defect) or is still buffered at
    exit (the short check)."""
    # Without PYTHONUNBUFFERED, stdout on a pipe is block-buffered, as in
    # an ordinary shell pipeline.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cmccheck.__file__).parents[1])
    cases = [
        (["defect", "(x1+x2+x3)^3+x1^2+x2", "--vars", "3", "--hsq", "1",
          "--full"], 0),
        (["check", SPHERE, "--vars", "3", "--hsq", "2", "--json"], 1),
    ]
    for argv, code in cases:
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cmccheck", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (code, ""), argv


# The command line's exit code 2 and stderr on the inputs the library
# refuses (tests/test_cmc.py pins the library's messages on the same ones).
REFUSED_CHECKS = [
    (["5", "--vars", "3", "--hsq", "1"], "input polynomial must be nonconstant"),
    (["0", "--vars", "3", "--hsq", "1"], "input polynomial must be nonconstant"),
    (["5", "--vars", "3", "--hsq", "solve"], "input polynomial must be nonconstant"),
    (["0", "--vars", "3", "--hsq", "solve"], "input polynomial must be nonconstant"),
    (["5", "--vars", "3", "--hsq", "-1"], "input polynomial must be nonconstant"),
    (["x1^2 - 1", "--vars", "1", "--hsq", "1"],
     "defect needs at least two geometric variables"),
    (["x1^2 - 1", "--vars", "1", "--hsq", "solve"],
     "defect needs at least two geometric variables"),
    (["x1^2 - 1", "--vars", "1", "--hsq", "-1"],
     "squared mean curvature must be positive"),
    ([SPHERE, "--vars", "3", "--hsq", "0"], "squared mean curvature must be positive"),
    ([SPHERE, "--vars", "3", "--hsq", "-1"], "squared mean curvature must be positive"),
    ([SPHERE, "--vars", "3", "--hsq", "0", "--json"],
     "squared mean curvature must be positive"),
    # A polynomial with a leading minus is a value, plain and respelled.
    (["-x1^2 - 1", "--vars", "1", "--hsq", "1"],
     "defect needs at least two geometric variables"),
    (["-x1^2 - 1", "--vars=1", "--hs", "1"],
     "defect needs at least two geometric variables"),
]


@pytest.mark.parametrize("argv, message", REFUSED_CHECKS,
                         ids=[" ".join(argv) for argv, _ in REFUSED_CHECKS])
def test_check_refusals_exit_2_with_their_message(capsys, argv, message):
    assert run(capsys, "check", *argv) == (2, "", f"error: {message}\n")
