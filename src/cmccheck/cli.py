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


def _rational(text: str) -> Fraction:
    if "." in text or "e" in text or "E" in text:
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def _context(nvars: int) -> RingContext:
    if nvars < 1:
        raise RingError("--vars must be at least 1")
    return RingContext.geometric(nvars)


def _clip(
    f: Optional[Polynomial], full: bool, text: Optional[str] = None
) -> Optional[str]:
    """Display text of ``f``, or a placeholder past the term cap.

    ``text`` is ``f`` already printed, when the caller has it.
    """
    if f is None:
        return None
    if not full and len(f) > TERM_CAP:
        return f"<{len(f)} terms; rerun with --full to print>"
    return to_text(f) if text is None else text


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
    ctx = _context(args.vars)
    f = parse_polynomial(args.poly, ctx)
    inputs = {"polynomial": to_text(f), "vars": args.vars, "hsq": args.hsq}
    solved = args.hsq == "solve"
    if solved:
        hsq = solve_hsq(f)
        if hsq is None:
            result = {
                "solved": True,
                "hsq": None,
                "divisible": False,
                "certificate": None,
                "witness_remainder": None,
                "warnings": [],
            }
            lines = ["no admissible squared curvature exists for this polynomial"]
            return inputs, result, 1, lines
    else:
        hsq = _rational(args.hsq)
    report = check_cmc(f, hsq)
    result = {
        "solved": solved,
        "hsq": _fr(report.hsq),
        "divisible": report.divisible,
        "certificate": _text(report.certificate),
        "witness_remainder": _text(report.witness_remainder),
        "warnings": list(report.warnings),
    }
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
    ctx = _context(args.vars)
    f = parse_polynomial(args.poly, ctx)
    hsq = _rational(args.hsq)
    d = cmc_defect(f, hsq)
    inputs = {"polynomial": to_text(f), "vars": args.vars, "hsq": args.hsq}
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
    ctx = _context(args.vars)
    f = parse_polynomial(args.poly, ctx)
    inputs = {"polynomial": to_text(f), "vars": args.vars}
    parts = {str(k): to_text(p) for k, p in f.homogeneous_parts().items()}
    lines = [f"degree {k}: {text}" for k, text in parts.items()] or ["0"]
    return inputs, {"parts": parts}, 0, lines


def cmd_cube_test(args: argparse.Namespace) -> _Output:
    ctx = _context(args.vars)
    f = parse_polynomial(args.poly, ctx)
    inputs = {"polynomial": to_text(f), "vars": args.vars}
    root = cube_root_cubic_form(f)
    result = {"is_cube": root is not None, "root": _text(root)}
    if root is None:
        return inputs, result, 1, ["not the cube of a linear form"]
    return inputs, result, 0, [f"cube root: {result['root']}"]


def cmd_surface(args: argparse.Namespace) -> _Output:
    rsq = _rational(args.rsq)
    f, hsq, certificate = make_surface(args.kind, args.n, rsq)
    inputs = {"kind": args.kind, "n": args.n, "rsq": args.rsq}
    verified = True
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
    report = replay(args.n)
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
    report = refutation_sweep(
        args.n, args.count, coeff_bound=args.bound, seed=args.seed, degree=args.degree
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmccheck",
        description=(
            "Exact divisibility checker for constant-mean-curvature "
            "polynomial level sets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope")
        sp.add_argument(
            "--full",
            action="store_true",
            help=f"print polynomials beyond the {TERM_CAP}-term display cap",
        )

    sp = sub.add_parser("check", help="decide divisibility of the defect")
    sp.add_argument("poly", help="polynomial over x1..xN")
    sp.add_argument("--vars", type=int, required=True, help="number of variables N")
    sp.add_argument(
        "--hsq",
        required=True,
        help="squared mean curvature as a rational (e.g. 1/4), or 'solve'",
    )
    add_common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("defect", help="print the defect polynomial")
    sp.add_argument("poly")
    sp.add_argument("--vars", type=int, required=True)
    sp.add_argument("--hsq", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_defect)

    sp = sub.add_parser("decompose", help="split into homogeneous parts")
    sp.add_argument("poly")
    sp.add_argument("--vars", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("cube-test", help="is this cubic form a linear form cubed?")
    sp.add_argument("poly")
    sp.add_argument("--vars", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_cube_test)

    sp = sub.add_parser("surface", help="build a model surface with its certificate")
    sp.add_argument("kind", choices=["sphere", "cylinder", "plane"])
    sp.add_argument("--n", type=int, required=True, help="ambient dimension")
    sp.add_argument("--rsq", default="1", help="squared radius (rational)")
    add_common(sp)
    sp.set_defaults(func=cmd_surface)

    sp = sub.add_parser("replay", help="replay the cubic nonexistence chain")
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 3)")
    add_common(sp)
    sp.set_defaults(func=cmd_replay)

    sp = sub.add_parser("sweep", help="random search for admissible curvatures")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--bound", type=int, default=5, help="coefficient bound")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--degree", type=int, choices=[2, 3], default=3,
        help="3: cubic refutation sweep, 2: sphere positive control",
    )
    add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    # A polynomial or rational may start with "-" ("-x1", "-1/2"): read any
    # single-dash word that is not a known option as a value.  Known options
    # such as -h are matched before this test.
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile(r"^-[^-]")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
