"""Seeded workload inputs, and the checks on the CLI output for each one.

Every operation is one ``cmccheck`` command line.  A workload is a fixed
round of operations drawn from the seed; the benchmark repeats the round
until its time is up, so every run does the same mix of work.  The
program keeps no state between calls, so repeating a round gives it
nothing to reuse.

The expected outputs come from closed forms computed with
:mod:`refpoly`, which shares no code with cmccheck.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import refpoly


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the kind of check, and what it must print."""

    argv: tuple[str, ...]
    kind: str
    expect: dict


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random], list[Op]]
    why: str
    stresses: str
    bypasses: str


# ----------------------------------------------------------------------
# replay


REPLAY_ROUND = (4, 4, 4, 5)
REPLAY_STEPS = (
    "gradsq-parts",
    "delta1-congruence",
    "gradsq-square",
    "delta1-square",
    "defect-valuations",
    "cascade-division",
    "vanish-at-x0",
    "obstruction",
    "matrix-extraction",
)


def _replay_round(rng: random.Random) -> list[Op]:
    ns = list(REPLAY_ROUND)
    rng.shuffle(ns)
    return [Op(("replay", "--n", str(n), "--json"), "replay", {"n": n}) for n in ns]


def _check_replay(expect: dict, code: int, env: dict) -> Optional[str]:
    result = env["result"]
    if code != 0:
        return f"exit code {code}, expected 0"
    if env["inputs"] != {"n": expect["n"]}:
        return f"inputs echoed as {env['inputs']}"
    if result["overall"] != "pass":
        return f"overall {result['overall']!r}"
    names = tuple(s["name"] for s in result["steps"])
    if names != REPLAY_STEPS:
        return f"steps {names}"
    for step in result["steps"]:
        if step["status"] != "pass" or step["residual"] is not None:
            return f"step {step['name']} is {step['status']!r}"
    if result["delta1_expansion"]["matches"] is not True:
        return "printed delta1 expansion does not match"
    witness = refpoly.parse(result["steps"][5]["witness"])
    p9 = refpoly.scale(refpoly.mul(refpoly.power(refpoly.var("x1"), 9),
                                   refpoly.power(refpoly.var("Ht"), 2)), 729)
    if witness != p9:
        return "cascade witness p9 is not 729 Ht^2 x1^9"
    return None


# ----------------------------------------------------------------------
# quadrics: spheres and cylinders, translated and scaled by rationals


def _fraction(rng: random.Random, top: int) -> Fraction:
    """Positive non-integer rational p/q with q in 2..4, so products take
    the rational coefficient path rather than the integer one."""
    while True:
        value = Fraction(rng.randint(1, top), rng.randint(2, 4))
        if value.denominator != 1:
            return value


def _quadric(rng: random.Random, kind: str, n: int) -> dict:
    """``a * (sum_{i<=k} (x_i - c_i)^2 - rsq)``, k = n (sphere) or 2 (cylinder).

    Its defect is ``a^5 * cert * f`` with ``cert = 256 (n-1)^2/rsq |x-c|^4``
    for a sphere and ``256/rsq (sum_{i<=2} (x_i-c_i)^2)^2`` for a cylinder,
    at the admissible ``hsq0 = 1/rsq`` or ``1/((n-1)^2 rsq)``.
    """
    k = n if kind == "sphere" else 2
    a = _fraction(rng, 7)
    rsq = _fraction(rng, 9)
    center = [_fraction(rng, 7) * rng.choice((-1, 1)) for _ in range(k)]
    squares = " + ".join(
        f"(x{i} {'-' if c > 0 else '+'} {abs(c)})^2"
        for i, c in enumerate(center, start=1)
    )
    radial = refpoly.add(*(
        refpoly.power(refpoly.add(refpoly.var(f"x{i}"), refpoly.const(-c)), 2)
        for i, c in enumerate(center, start=1)
    ))
    if kind == "sphere":
        hsq0, cert = 1 / rsq, Fraction(256 * (n - 1) ** 2) / rsq
    else:
        hsq0, cert = 1 / ((n - 1) ** 2 * rsq), Fraction(256) / rsq
    return {
        "text": f"{a}*({squares} - {rsq})",
        "poly": refpoly.scale(refpoly.add(radial, refpoly.const(-rsq)), a),
        "hsq0": hsq0,
        "certificate": refpoly.scale(refpoly.mul(radial, radial), a**5 * cert),
        # Modulo f, |grad f|^2 = 4 a f + 4 a^2 rsq, so a wrong hsq leaves
        # the constant remainder 4 (n-1)^2 (hsq - hsq0) (4 a^2 rsq)^3.
        "gap": 4 * (n - 1) ** 2 * (4 * a * a * rsq) ** 3,
    }


def _check_input(expect: dict, env: dict) -> Optional[str]:
    if refpoly.parse(env["inputs"]["polynomial"]) != expect["poly"]:
        return "echoed input polynomial differs from the generated one"
    return None


def _check_positive(expect: dict, code: int, env: dict) -> Optional[str]:
    result = env["result"]
    if code != 0:
        return f"exit code {code}, expected 0"
    if result["divisible"] is not True or result["witness_remainder"] is not None:
        return "verdict is not divisible"
    if Fraction(result["hsq"]) != expect["hsq0"]:
        return f"hsq {result['hsq']}, expected {expect['hsq0']}"
    if refpoly.parse(result["certificate"]) != expect["certificate"]:
        return "certificate differs from the closed form"
    return _check_input(expect, env)


def _check_negative(expect: dict, code: int, env: dict) -> Optional[str]:
    result = env["result"]
    if code != 1:
        return f"exit code {code}, expected 1"
    if result["divisible"] is not False or result["certificate"] is not None:
        return "wrong curvature reported divisible"
    gap = expect["gap"] * (Fraction(result["hsq"]) - expect["hsq0"])
    if refpoly.parse(result["witness_remainder"]) != refpoly.const(gap):
        return f"remainder {result['witness_remainder']}, expected {gap}"
    return _check_input(expect, env)


CERTIFY_DIMS = (3, 4, 5, 6)
# Three spheres to one cylinder: cylinders are the cheapest checks, and an
# even split would put the median latency on the jump between the two.
CERTIFY_SHAPES_PER_DIM = {"sphere": 6, "cylinder": 2}
WRONG_FACTORS = (Fraction(1, 2), Fraction(2), Fraction(2, 3), Fraction(3, 2))


def _certify_round(rng: random.Random) -> list[Op]:
    ops = []
    for kind, n in itertools.product(CERTIFY_SHAPES_PER_DIM, CERTIFY_DIMS):
        for _ in range(CERTIFY_SHAPES_PER_DIM[kind]):
            q = _quadric(rng, kind, n)
            wrong = q["hsq0"] * rng.choice(WRONG_FACTORS)
            for hsq, check in ((q["hsq0"], "certify-pos"), (wrong, "certify-neg")):
                argv = ("check", q["text"], "--vars", str(n), "--hsq", str(hsq),
                        "--json", "--full")
                ops.append(Op(argv, check, q))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# solve: random cubics, with sphere positive controls


SOLVE_CUBICS = {3: 15, 4: 3}
SOLVE_CONTROLS = (3, 4)
CUBIC_BOUND = 5


def _cubic(rng: random.Random, n: int) -> dict:
    """Dense integer cubic: every monomial of degree <= 3 with a nonzero
    coefficient, so the term count, and with it the work, is fixed by n."""
    poly = {}
    for degree in range(4):
        for combo in itertools.combinations_with_replacement(range(1, n + 1), degree):
            mono = tuple(sorted((f"x{i}", combo.count(i)) for i in set(combo)))
            poly[mono] = Fraction(rng.randint(1, CUBIC_BOUND) * rng.choice((-1, 1)))
    return {"text": refpoly.render(poly), "poly": poly}


def _check_cubic(expect: dict, code: int, env: dict) -> Optional[str]:
    result = env["result"]
    if code != 1:
        return f"exit code {code}, expected 1"
    if result["hsq"] is not None or result["divisible"] is not False:
        return f"cubic reported admissible with hsq {result['hsq']}"
    return _check_input(expect, env)


def _check_control(expect: dict, code: int, env: dict) -> Optional[str]:
    if env["result"]["solved"] is not True:
        return "solve flag missing"
    return _check_positive(expect, code, env)


def _solve_round(rng: random.Random) -> list[Op]:
    ops = []
    for n, count in SOLVE_CUBICS.items():
        for _ in range(count):
            c = _cubic(rng, n)
            ops.append(Op(("check", c["text"], "--vars", str(n), "--hsq", "solve",
                           "--json"), "cubic", c))
    for n in SOLVE_CONTROLS:
        q = _quadric(rng, "sphere", n)
        ops.append(Op(("check", q["text"], "--vars", str(n), "--hsq", "solve",
                       "--json", "--full"), "sphere-control", q))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------


CHECKS = {
    "replay": _check_replay,
    "cubic": _check_cubic,
    "sphere-control": _check_control,
    "certify-pos": _check_positive,
    "certify-neg": _check_negative,
}


def verify(op: Op, code: Optional[int], stdout: str) -> Optional[str]:
    """None when the output is right, else the reason it is wrong."""
    if code is None:
        return "raised " + stdout.strip().splitlines()[-1]
    try:
        env = json.loads(stdout)
        if env["command"] != op.argv[0]:
            return f"command echoed as {env['command']!r}"
        return CHECKS[op.kind](op.expect, code, env)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def _flip_replay_step(code: int, env: dict) -> tuple[int, dict]:
    env["result"]["steps"][3]["status"] = "fail"
    return code, env


def _cubic_admissible(code: int, env: dict) -> tuple[int, dict]:
    env["result"].update(hsq="1", divisible=True, certificate="1")
    return 0, env


def _double_certificate(code: int, env: dict) -> tuple[int, dict]:
    cert = refpoly.parse(env["result"]["certificate"])
    env["result"]["certificate"] = refpoly.render(refpoly.scale(cert, 2))
    return code, env


# A plausible wrong output for each kind of check the workloads make; the
# self-check confirms that the verifier counts every one as a failure.
CORRUPTIONS = {
    "replay": ("replay step flipped to fail", _flip_replay_step),
    "cubic": ("cubic reported admissible", _cubic_admissible),
    "certify-pos": ("certificate off by a factor of 2", _double_certificate),
}


def corrupt(kind: str, code: int, stdout: str) -> tuple[str, int, str]:
    label, fn = CORRUPTIONS[kind]
    code, env = fn(code, json.loads(stdout))
    return label, code, json.dumps(env, sort_keys=True, indent=2)


WORKLOADS = {
    "replay": Workload(
        _replay_round,
        why="the nine-step replay for n in {4, 5}, round (4, 4, 4, 5): huge "
        "integer-coefficient products, so it shows multiplication and "
        "representation changes and should not react to division changes",
        stresses="ring (mul on int coefficients, add/sub, parts), calculus, "
        "divide.divide_monic_in_x, cubic.generic_cubic",
        bypasses="parse, divide.divide on general dividends, the rational "
        "coefficient path, cmc",
    ),
    "solve": Workload(
        _solve_round,
        why="check --hsq solve on dense random integer cubics (15 at n = 3, "
        "3 at n = 4) and 2 sphere positive controls per round: the "
        "remainder-only division path dominates, so heap division should "
        "show here and the multiplication kernel barely matters",
        stresses="divide.divide (quadratic leading-term scan), cmc.solve_hsq, "
        "calculus.grad_norm_sq/delta1",
        bypasses="large products, divides' re-multiplication (except the "
        "controls), replay",
    ),
    "certify": Workload(
        _certify_round,
        why="check --hsq h --full on translated and scaled spheres (n = 3..6) "
        "and cylinders, each at its own curvature (certificate printed in "
        "full) and at a wrong one: many small products on the Fraction "
        "path, exact division plus re-multiplication, and the fixed "
        "per-command cost of argparse, printing and parsing",
        stresses="ring mul on rational coefficients, divide.divides, "
        "cmc.check_cmc, parse, cli",
        bypasses="huge integer products, replay, cmc.solve_hsq",
    ),
}
