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
from typing import Callable, Optional

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
# the rare sample that passes the top-form test and takes its residues
# modulo f (``check --hsq solve`` on a cubed dense linear form plus a dense
# quadratic takes 0.6 to 0.8 s and 27 MB at n = 8, 1.9 s and 39 MB at
# n = 9, 4.2 s and 55 MB at n = 10, as a process on a 2-core Intel Xeon);
# ``replay --n 10`` takes 1.3 to 1.8 s with ``--json`` and 0.5 to 0.7 s as
# text, 97 MB either way, there.  The sweep count bounds the hits a sweep keeps
# (about 5 KB each at degree 2):
# ``sweep --n 8 --count 1000`` takes at most 6.1 s and 21 MB there.
MAX_VARS = 64
MAX_SWEEP_N = 8
MAX_REPLAY_N = 10
MAX_SWEEP_COUNT = 1000
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


def _polynomial(args: argparse.Namespace) -> Polynomial:
    """The command's polynomial over ``--vars`` variables; ``args.poly``
    becomes its printed form, which the envelope echoes.  Printing it here,
    in either mode, refuses an input too long to print before any other
    check runs."""
    f = parse_polynomial(args.poly, _context(args.vars))
    args.poly = to_text(f)
    return f


def _clip(f: Polynomial, full: bool) -> str:
    """The printed ``f``, or a placeholder past the term cap (and then
    ``f`` is never rendered)."""
    if not full and len(f) > TERM_CAP:
        return f"<{len(f)} terms; rerun with --full to print>"
    return to_text(f)


def _printed(value: Polynomial | Fraction) -> str:
    """A polynomial or rational of the JSON envelope, as printed text."""
    return str(value) if isinstance(value, Fraction) else to_text(value)


# ----------------------------------------------------------------------
# subcommands

# Each returns ``(result, exit_code, text_lines)``.  ``result`` holds raw
# polynomials and rationals, which the JSON envelope prints through
# :func:`_printed`; ``text_lines`` builds the text output when called.
# :func:`main` prints one or the other, so each mode renders only what it
# prints.
_Output = tuple[dict, int, Callable[[], list[str]]]


def cmd_check(args: argparse.Namespace) -> _Output:
    f = _polynomial(args)
    solved = args.hsq == "solve"
    report = solve_hsq(f) if solved else check_cmc(f, _rational(args.hsq))
    # With no admissible curvature there is no report: nothing divides.
    result = {
        "solved": solved,
        "hsq": report and report.hsq,
        "divisible": report is not None and report.divisible,
        "certificate": report and report.certificate,
        "witness_remainder": report and report.witness_remainder,
        "warnings": list(report.warnings) if report else [],
    }
    if report is None:
        return result, 1, lambda: ["no admissible squared curvature exists for this polynomial"]
    verdict, label, shown = (
        ("divisible (algebraic CMC condition holds)", "certificate", report.certificate)
        if report.divisible else
        ("not divisible", "witness remainder", report.witness_remainder)
    )
    return result, 0 if report.divisible else 1, lambda: [
        f"polynomial: {args.poly}",
        f"hsq: {report.hsq}" + (" (solved)" if solved else ""),
        f"verdict: {verdict}",
        f"{label}: {_clip(shown, args.full)}",
        *(f"warning: {w}" for w in report.warnings),
    ]


def cmd_defect(args: argparse.Namespace) -> _Output:
    d = cmc_defect(_polynomial(args), _rational(args.hsq))
    degree = None if d.is_zero else int(d.total_degree())
    return {"defect": d, "terms": len(d), "total_degree": degree}, 0, lambda: [
        f"defect: {_clip(d, args.full)}",
        f"terms: {len(d)}, total degree: {degree}",
    ]


def cmd_decompose(args: argparse.Namespace) -> _Output:
    parts = {str(k): p for k, p in _polynomial(args).homogeneous_parts().items()}
    return {"parts": parts}, 0, lambda: [
        f"degree {k}: {to_text(p)}" for k, p in parts.items()
    ] or ["0"]


def cmd_cube_test(args: argparse.Namespace) -> _Output:
    root = cube_root_cubic_form(_polynomial(args))
    result = {"is_cube": root is not None, "root": root}
    if root is None:
        return result, 1, lambda: ["not the cube of a linear form"]
    return result, 0, lambda: [f"cube root: {to_text(root)}"]


def cmd_surface(args: argparse.Namespace) -> _Output:
    rsq = _rational(args.rsq)
    f, hsq, certificate = make_surface(
        args.kind, _at_most(args.n, MAX_VARS, "--n"), rsq
    )
    report = solve_hsq(f)
    verified = (report.hsq, report.certificate) == (hsq, certificate) if report else hsq is None
    result = {"polynomial": f, "hsq": hsq, "certificate": certificate, "verified": verified}
    return result, 0 if verified else 1, lambda: [
        f"polynomial: {to_text(f)}",
        f"hsq: {hsq if hsq is not None else 'none admissible'}",
        *([f"certificate: {_clip(certificate, args.full)}"] if certificate is not None else []),
        f"verified: {'yes' if verified else 'no'}",
    ]


def cmd_replay(args: argparse.Namespace) -> _Output:
    if args.n < 3:
        raise RingError("replay needs dimension n >= 3")
    report = replay(_at_most(args.n, MAX_REPLAY_N, "--n"))
    result = {
        "overall": report.overall,
        "steps": [
            {"name": s.name, "status": s.status, "residual": s.residual,
             "witness": s.witness, "detail": s.detail}
            for s in report.steps
        ],
        "delta1_expansion": {
            "matches": report.delta1_expansion_matches,
            "residual": report.delta1_expansion_residual,
        },
    }

    def lines() -> list[str]:
        out = [f"replaying the cubic nonexistence chain for n = {args.n}"]
        for i, s in enumerate(report.steps, start=1):
            out.append(f"step {i} {s.name}: {s.status}" + (f" ({s.detail})" if s.detail else ""))
            if s.residual is not None:
                out.append(f"  residual: {_clip(s.residual, args.full)}")
        note = "matches" if report.delta1_expansion_matches else "differs"
        return out + [f"printed delta1 expansion {note} (informational)",
                      f"overall: {report.overall}"]

    return result, 0 if report.passed else 1, lines


def cmd_sweep(args: argparse.Namespace) -> _Output:
    n = _at_most(args.n, MAX_SWEEP_N, "--n")
    count = _at_most(args.count, MAX_SWEEP_COUNT, "--count")
    report = refutation_sweep(
        n, count, coeff_bound=args.bound, seed=args.seed, degree=args.degree
    )
    result = {
        "admissible_count": report.admissible_count,
        "admissible": [
            {"index": h.index, "polynomial": h.polynomial, "hsq": h.hsq}
            for h in report.admissible
        ],
    }
    if args.degree == 3:
        code = 0 if report.admissible_count == 0 else 1
    else:
        code = 0 if report.admissible_count == args.count else 1
    return result, code, lambda: [
        f"sweep: n={args.n} degree={args.degree} count={args.count} "
        f"bound={args.bound} seed={args.seed}",
        f"admissible: {report.admissible_count} of {args.count}",
        *(f"  [{h.index}] hsq={h.hsq}: {to_text(h.polynomial)}"
          for h in report.admissible),
    ]


# ----------------------------------------------------------------------
# parser

# One entry per command: its help line and its ``(flag, add_argument
# kwargs)`` rows; every command also takes the ``_COMMON`` rows.  The
# handler of command ``name`` is ``cmd_<name>`` ("-" read as "_"), looked up
# by :func:`_handler` on every call, so a rebound handler is the one that
# runs.
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


def _handler(name: str) -> Callable[[argparse.Namespace], _Output]:
    return globals()["cmd_" + name.replace("-", "_")]


def _fill(parser: argparse.ArgumentParser, name: str) -> None:
    for flag, kwargs in _COMMANDS[name][1] + _COMMON:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=_handler(name))
    # A polynomial or rational may start with "-" ("-x1", "-1/2"): read any
    # single-dash word that is not a known option as a value.  Known options
    # such as -h are matched before this test.
    parser._negative_number_matcher = re.compile(r"^-[^-]")


def build_parser() -> argparse.ArgumentParser:
    """The parser of all seven commands.  :func:`main` builds it afresh, and
    only for a line that :func:`_read` leaves to argparse: help, a usage
    error or an unusual spelling such as ``--vars=3``."""
    parser = argparse.ArgumentParser(prog="cmccheck", description=(
        "Exact divisibility checker for constant-mean-curvature "
        "polynomial level sets"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def _read(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace that :func:`build_parser` gives a plain command line,
    read straight from the command table; None for any other line.

    A plain line is a known command, its positionals in order and its exact
    long flags, each flag at most once, with a value flag's value in the
    next word.  A word that starts with "-" but not with "--" or "-h" is a
    value, as under ``_fill``'s matcher.  A missing or extra word, a repeated
    flag, a failed type or choice, and any other "--" or "-h" word (help,
    ``--flag=value``, an abbreviation, ``--``) give None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = _COMMANDS[argv[0]][1] + _COMMON
    options = {flag: kwargs for flag, kwargs in rows if flag.startswith("--")}
    positionals = [flag for flag, _ in rows if flag not in options]
    given: dict[str, str | bool] = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith(("--", "-h")):
            if not positionals:
                return None
            given[positionals.pop(0)] = word
        elif word not in options or word in given:
            return None
        elif options[word].get("action") == "store_true":
            given[word] = True
        else:
            given[word] = next(words, "--")  # "--" when the line ends here
            if given[word].startswith(("--", "-h")):
                return None
    args = argparse.Namespace(command=argv[0], func=_handler(argv[0]))
    for flag, kwargs in rows:
        store_true = kwargs.get("action") == "store_true"
        if flag not in given:
            if kwargs.get("required") or flag not in options:  # positionals too
                return None
            value = kwargs.get("default", False if store_true else None)
        elif store_true:
            value = True
        else:
            try:
                value = kwargs.get("type", str)(given[flag])
            except (TypeError, ValueError):
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        setattr(args, flag.lstrip("-"), value)
    return args


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A plain line is read straight from the command table.  Any other line
    # (help, a usage error, an unusual spelling) goes to argparse unchanged,
    # so it reads, prints and fails as before.  Nothing is kept between
    # calls: each call reads its own line, and builds a parser only for
    # argparse to read it.
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        result, code, lines = args.func(args)
        if args.json:
            # The inputs echo the command's own arguments, ``poly`` as printed.
            inputs = {"polynomial" if k == "poly" else k: v for k, v in vars(args).items()
                      if k not in ("command", "func", "json", "full")}
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "inputs": inputs,
                "result": result,
            }
            text = json.dumps(envelope, sort_keys=True, indent=2, default=_printed)
        else:
            text = "\n".join(lines())
    except (ValueError, ZeroDivisionError) as exc:
        # ParseError and RingError are ValueErrors too.  A polynomial too
        # long to print fails as it is rendered, before anything is printed.
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
