"""Command line front end.

Every subcommand reads polynomials in the strict text grammar over
variables x1..xN, reports either human-readable lines or a JSON envelope
(``--json``), and exits 0 for an affirmative verdict, 1 for a negative
one, and 2 for usage or input errors.  JSON output is byte-identical for
identical inputs and seeds: term order, key order and rational formatting
are all canonical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .calculus import cmc_defect
from .cmc import check_cmc, make_surface, refutation_sweep, solve_hsq
from .cubic import cube_root_cubic_form
from .parse import parse_polynomial, to_text
from .replay import replay
from .ring import Polynomial, RingContext, RingError

SCHEMA_VERSION = "1"
TERM_CAP = 200
# Upper bounds on dimensions, checked before any ring context is built.
# ``--vars`` and ``surface --n`` only size the ring.  The sweep cap bounds
# the rare sample that passes the top-form test and builds its degree-12
# residues (a cubed dense linear form plus a dense quadratic takes 7 s and
# 59 MB at n = 8, 23 s and 110 MB at n = 9, on a 2-core Intel Xeon);
# ``replay --n 10 --json`` takes 2.2 to 3.0 s and 139 MB there.
MAX_VARS = 64
MAX_SWEEP_N = 8
MAX_REPLAY_N = 10
# An integer or a fraction with a nonzero denominator, in ASCII digits.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        shown = f"{text[:20]!r}... ({len(text)} characters)" if len(text) > 40 else repr(text)
        raise ValueError(f"not an exact rational: {shown}")
    try:
        return Fraction(text)
    except ValueError:  # past the interpreter's text-to-int limit
        raise ValueError(f"rational of {len(text)} characters is too long") from None


def _at_most(value: int, cap: int, flag: str) -> int:
    if value > cap:
        raise RingError(f"{flag} must be at most {cap}")
    return value


def _context(nvars: int) -> RingContext:
    if nvars < 1:
        raise RingError("--vars must be at least 1")
    return RingContext.geometric(_at_most(nvars, MAX_VARS, "--vars"))


def _polynomial(args: argparse.Namespace) -> tuple[Polynomial, dict]:
    """The command's polynomial over ``--vars`` variables, and the inputs it
    echoes: the polynomial as printed and ``--vars``."""
    f = parse_polynomial(args.poly, _context(args.vars))
    return f, {"polynomial": to_text(f), "vars": args.vars}


def _clip(f: Polynomial, full: bool, text: str) -> str:
    """``text``, the printed ``f``, or a placeholder past the term cap."""
    if not full and len(f) > TERM_CAP:
        return f"<{len(f)} terms; rerun with --full to print>"
    return text


def _text(f: Optional[Polynomial]) -> Optional[str]:
    return None if f is None else to_text(f)


def _fr(value: Optional[Fraction]) -> Optional[str]:
    return None if value is None else str(value)


# ----------------------------------------------------------------------
# subcommands

# Each returns ``(inputs, result, exit_code, text_lines)``; :func:`main`
# prints either the JSON envelope of inputs and result or the text lines.
_Output = tuple[dict, dict, int, list[str]]


def cmd_check(args: argparse.Namespace) -> _Output:
    f, inputs = _polynomial(args)
    inputs["hsq"] = args.hsq
    solved = args.hsq == "solve"
    hsq = solve_hsq(f) if solved else _rational(args.hsq)
    # With no admissible curvature there is no report: nothing divides.
    report = None if hsq is None else check_cmc(f, hsq)
    result = {
        "solved": solved,
        "hsq": _fr(hsq),
        "divisible": report is not None and report.divisible,
        "certificate": _text(report.certificate) if report else None,
        "witness_remainder": _text(report.witness_remainder) if report else None,
        "warnings": list(report.warnings) if report else [],
    }
    if report is None:
        lines = ["no admissible squared curvature exists for this polynomial"]
        return inputs, result, 1, lines
    lines = [
        f"polynomial: {inputs['polynomial']}",
        f"hsq: {result['hsq']}" + (" (solved)" if solved else ""),
    ]
    if report.divisible:
        cert = _clip(report.certificate, args.full, result["certificate"])
        lines += ["verdict: divisible (algebraic CMC condition holds)",
                  f"certificate: {cert}"]
    else:
        rem = _clip(report.witness_remainder, args.full, result["witness_remainder"])
        lines += ["verdict: not divisible", f"witness remainder: {rem}"]
    lines += [f"warning: {w}" for w in report.warnings]
    return inputs, result, 0 if report.divisible else 1, lines


def cmd_defect(args: argparse.Namespace) -> _Output:
    f, inputs = _polynomial(args)
    inputs["hsq"] = args.hsq
    d = cmc_defect(f, _rational(args.hsq))
    degree = d.total_degree()
    result = {
        "defect": to_text(d),
        "terms": len(d),
        "total_degree": None if d.is_zero else int(degree),
    }
    lines = [
        f"defect: {_clip(d, args.full, result['defect'])}",
        f"terms: {len(d)}, total degree: {result['total_degree']}",
    ]
    return inputs, result, 0, lines


def cmd_decompose(args: argparse.Namespace) -> _Output:
    f, inputs = _polynomial(args)
    parts = {str(k): to_text(p) for k, p in f.homogeneous_parts().items()}
    lines = [f"degree {k}: {text}" for k, text in parts.items()] or ["0"]
    return inputs, {"parts": parts}, 0, lines


def cmd_cube_test(args: argparse.Namespace) -> _Output:
    f, inputs = _polynomial(args)
    root = cube_root_cubic_form(f)
    result = {"is_cube": root is not None, "root": _text(root)}
    if root is None:
        return inputs, result, 1, ["not the cube of a linear form"]
    return inputs, result, 0, [f"cube root: {result['root']}"]


def cmd_surface(args: argparse.Namespace) -> _Output:
    rsq = _rational(args.rsq)
    f, hsq, certificate = make_surface(
        args.kind, _at_most(args.n, MAX_VARS, "--n"), rsq
    )
    inputs = {"kind": args.kind, "n": args.n, "rsq": args.rsq}
    if hsq is not None:
        report = check_cmc(f, hsq)
        verified = report.divisible and report.certificate == certificate
    else:
        verified = solve_hsq(f) is None
    result = {
        "polynomial": to_text(f),
        "hsq": _fr(hsq),
        "certificate": _text(certificate),
        "verified": verified,
    }
    lines = [
        f"polynomial: {result['polynomial']}",
        f"hsq: {hsq if hsq is not None else 'none admissible'}",
    ]
    if certificate is not None:
        cert = _clip(certificate, args.full, result["certificate"])
        lines.append(f"certificate: {cert}")
    lines.append(f"verified: {'yes' if verified else 'no'}")
    return inputs, result, 0 if verified else 1, lines


def cmd_replay(args: argparse.Namespace) -> _Output:
    if args.n < 3:
        raise RingError("replay needs dimension n >= 3")
    report = replay(_at_most(args.n, MAX_REPLAY_N, "--n"))
    steps = [
        {
            "name": s.name,
            "status": s.status,
            "residual": _text(s.residual),
            "witness": _text(s.witness),
            "detail": s.detail,
        }
        for s in report.steps
    ]
    result = {
        "overall": report.overall,
        "steps": steps,
        "delta1_expansion": {
            "matches": report.delta1_expansion_matches,
            "residual": _text(report.delta1_expansion_residual),
        },
    }
    lines = [f"replaying the cubic nonexistence chain for n = {args.n}"]
    for i, (s, step) in enumerate(zip(report.steps, steps), start=1):
        line = f"step {i} {s.name}: {s.status}"
        if s.detail:
            line += f" ({s.detail})"
        lines.append(line)
        if s.residual is not None:
            residual = _clip(s.residual, args.full, step["residual"])
            lines.append(f"  residual: {residual}")
    note = "matches" if report.delta1_expansion_matches else "differs"
    lines += [
        f"printed delta1 expansion {note} (informational)",
        f"overall: {report.overall}",
    ]
    return {"n": args.n}, result, 0 if report.passed else 1, lines


def cmd_sweep(args: argparse.Namespace) -> _Output:
    n = _at_most(args.n, MAX_SWEEP_N, "--n")
    report = refutation_sweep(
        n, args.count, coeff_bound=args.bound, seed=args.seed, degree=args.degree
    )
    inputs = {
        "n": args.n,
        "count": args.count,
        "bound": args.bound,
        "seed": args.seed,
        "degree": args.degree,
    }
    hits = [
        {
            "index": h.index,
            "polynomial": to_text(h.polynomial),
            "hsq": str(h.hsq),
        }
        for h in report.admissible
    ]
    result = {"admissible_count": report.admissible_count, "admissible": hits}
    lines = [
        f"sweep: n={args.n} degree={args.degree} count={args.count} "
        f"bound={args.bound} seed={args.seed}",
        f"admissible: {report.admissible_count} of {args.count}",
    ]
    lines += [f"  [{h['index']}] hsq={h['hsq']}: {h['polynomial']}" for h in hits]
    if args.degree == 3:
        code = 0 if report.admissible_count == 0 else 1
    else:
        code = 0 if report.admissible_count == args.count else 1
    return inputs, result, code, lines


# ----------------------------------------------------------------------
# parser

# One entry per command: its help line and its ``(flag, add_argument
# kwargs)`` rows; every command also takes the ``_COMMON`` rows.  The
# handler of command ``name`` is ``cmd_<name>`` ("-" read as "_"), looked up
# when a parser is built, so a rebound handler is the one that runs.
_NEEDED_INT = {"type": int, "required": True}
_POLY_VARS = [("poly", {}), ("--vars", _NEEDED_INT)]
_COMMANDS = {
    "check": ("decide divisibility of the defect", [
        ("poly", {"help": "polynomial over x1..xN"}),
        ("--vars", {**_NEEDED_INT, "help": "number of variables N"}),
        ("--hsq", {"required": True, "help":
                   "squared mean curvature as a rational (e.g. 1/4), or 'solve'"}),
    ]),
    "defect": ("print the defect polynomial",
               _POLY_VARS + [("--hsq", {"required": True})]),
    "decompose": ("split into homogeneous parts", _POLY_VARS),
    "cube-test": ("is this cubic form a linear form cubed?", _POLY_VARS),
    "surface": ("build a model surface with its certificate", [
        ("kind", {"choices": ["sphere", "cylinder", "plane"]}),
        ("--n", {**_NEEDED_INT, "help": "ambient dimension"}),
        ("--rsq", {"default": "1", "help": "squared radius (rational)"}),
    ]),
    "replay": ("replay the cubic nonexistence chain",
               [("--n", {**_NEEDED_INT, "help": "dimension (>= 3)"})]),
    "sweep": ("random search for admissible curvatures", [
        ("--n", _NEEDED_INT),
        ("--count", _NEEDED_INT),
        ("--bound", {"type": int, "default": 5, "help": "coefficient bound"}),
        ("--seed", {"type": int, "default": 0}),
        ("--degree", {"type": int, "choices": [2, 3], "default": 3, "help":
                      "3: cubic refutation sweep, 2: sphere positive control"}),
    ]),
}
_COMMON = [
    ("--json", {"action": "store_true", "help": "emit a JSON envelope"}),
    ("--full", {"action": "store_true", "help":
                f"print polynomials beyond the {TERM_CAP}-term display cap"}),
]


def _fill(parser: argparse.ArgumentParser, name: str) -> None:
    for flag, kwargs in _COMMANDS[name][1] + _COMMON:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    # A polynomial or rational may start with "-" ("-x1", "-1/2"): read any
    # single-dash word that is not a known option as a value.  Known options
    # such as -h are matched before this test.
    parser._negative_number_matcher = re.compile(r"^-[^-]")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, which parses, prints and rejects as
    its subparser in the full parser does, or the full parser when None."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"cmccheck {command}")
        parser.set_defaults(command=command)
        _fill(parser, command)
        return parser
    parser = argparse.ArgumentParser(prog="cmccheck", description=(
        "Exact divisibility checker for constant-mean-curvature "
        "polynomial level sets"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named command's parser is built.  Top-level help, a missing or
    # unknown command and an unknown option (which argparse reports with the
    # top-level usage line) need the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command:
        args, extra = build_parser(command).parse_known_args(argv[1:])
    if not command or extra:
        args = build_parser().parse_args(argv)
    try:
        inputs, result, code, lines = args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        # ParseError and RingError are ValueErrors too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "result": result,
        }
        text = json.dumps(envelope, sort_keys=True, indent=2)
    else:
        text = "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``).  Send what is still buffered to
        # the null device so the interpreter's final flush stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
