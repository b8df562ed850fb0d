import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        return {}, {}, 0, ["stub ran"]

    monkeypatch.setattr(cli, "cmd_check", stub)
    assert run(capsys, "check", "x1", "--vars", "3", "--hsq", "1") == (
        0, "stub ran\n", ""
    )
    assert seen == [("check", "x1", 3, "1")]


def test_only_the_named_command_parser_is_built(capsys, monkeypatch):
    """A run of one command builds that command's parser alone; the full
    parser is built only to report a usage error with its own usage line."""
    built = []
    build_parser = cli.build_parser

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    run(capsys, "check", SPHERE, "--vars", "3", "--hsq", "1")
    run(capsys, "replay", "--n", "3", "--json")
    assert built == ["check", "replay"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["check", "x1", "--vars", "3", "--hsq", "1", "--bogus"])
    with pytest.raises(SystemExit):
        main(["-h"])
    assert built == ["check", None, None]


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
        (["replay", "--n", "1000000"], "--n", cli.MAX_REPLAY_N),
    ):
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
    clipped = _clip(big, False, to_text(big))
    assert clipped == f"<{TERM_CAP + 1} terms; rerun with --full to print>"
    assert _clip(big, True, to_text(big)).count("+") == TERM_CAP
    small = x + 1
    assert _clip(small, False, to_text(small)) == "x1 + 1"


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
]


@pytest.mark.parametrize("argv, message", REFUSED_CHECKS,
                         ids=[" ".join(argv) for argv, _ in REFUSED_CHECKS])
def test_check_refusals_exit_2_with_their_message(capsys, argv, message):
    assert run(capsys, "check", *argv) == (2, "", f"error: {message}\n")
