"""Byte-for-byte replay of recorded CLI outputs.

``golden_cli.json`` holds a fixed list of fast commands, each in text and
``--json`` mode, with the exit code and standard output they produced
when the file was recorded, and standard error for the exit-2 inputs.
``golden_usage.json`` holds argparse's own output: the top-level and
per-command help, and the usage errors argparse raises itself (no
command, an unknown command, a missing option, a bad choice, a bad int,
an unknown option), recorded with ``COLUMNS=80``.
Every ``golden_cli.json`` line is also replayed respelled, so that
argparse reads it, and must give the same record.
Refactors of the CLI and the kernel must reproduce every entry exactly;
the files are records, so they are never regenerated to make this test
pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cmccheck.cli import main
from cmccheck.parse import parse_polynomial, to_text
from cmccheck.replay import replay
from cmccheck.ring import Polynomial, RingContext

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
USAGE = json.loads(Path(__file__).with_name("golden_usage.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_golden_cli_output(entry, capsys, parsers_built):
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert parsers_built == []  # a plain line, read without argparse
    assert code == entry["exit_code"]
    assert captured.out == entry["stdout"]
    assert captured.err == entry.get("stderr", "")


def respelled(argv, style):
    """``argv`` with its long flags spelled as only argparse reads them:
    ``--flag=value`` ("equals"), or each flag cut to its first two letters
    ("prefix": ``--va``, ``--hs``, ``--js``), unique in every command."""
    out, words = [argv[0]], iter(argv[1:])
    for word in words:
        if not word.startswith("--"):
            out.append(word)
        elif style == "prefix":
            out.append(word[:4])
        elif word in ("--json", "--full"):
            out.append(word)
        else:
            out.append(f"{word}={next(words)}")
    return out


RESPELLED = [
    (entry, style) for entry in GOLDEN for style in ("equals", "prefix")
    if respelled(entry["argv"], style) != entry["argv"]
]


@pytest.mark.parametrize(
    "entry, style", RESPELLED,
    ids=[" ".join(respelled(e["argv"], style)) for e, style in RESPELLED],
)
def test_golden_cli_output_respelled(entry, style, capsys, parsers_built):
    """The argparse path gives each valid line's recorded output too."""
    code = main(respelled(entry["argv"], style))
    captured = capsys.readouterr()
    assert parsers_built == [1]
    assert code == entry["exit_code"]
    assert captured.out == entry["stdout"]
    assert captured.err == entry.get("stderr", "")


@pytest.mark.parametrize(
    "entry", USAGE, ids=[" ".join(e["argv"]) or "<none>" for e in USAGE]
)
def test_golden_usage_output(entry, capsys, monkeypatch):
    # argparse wraps help and usage at the terminal width it reads here.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert exc.value.code == entry["exit_code"]
    assert captured.out == entry["stdout"]
    assert captured.err == entry["stderr"]


# ``golden_replay.json`` holds the replay's step records, failing ones
# included, for inputs the CLI cannot reach: n = 3 without a mutation and
# under each mutation, and n = 4 under ``defect-sign``.
REPLAY = json.loads(Path(__file__).with_name("golden_replay.json").read_text())


def _text(p):
    return None if p is None else to_text(p)


def replay_record(n, mutation):
    report = replay(n, mutation)
    return {
        "n": n,
        "mutation": mutation,
        "steps": [
            {
                "name": s.name,
                "status": s.status,
                "residual": _text(s.residual),
                "witness": _text(s.witness),
                "detail": s.detail,
            }
            for s in report.steps
        ],
        "overall": report.overall,
        "delta1_expansion_residual": _text(report.delta1_expansion_residual),
    }


@pytest.mark.parametrize(
    "entry", REPLAY, ids=[f"n={e['n']}-{e['mutation']}" for e in REPLAY]
)
def test_golden_replay_records(entry):
    assert replay_record(entry["n"], entry["mutation"]) == entry


# ``golden_parse_errors.json`` holds malformed polynomial texts, each with
# the exception type and exact message that parsing it against
# ``RingContext.geometric(3)`` raised when the file was recorded: syntax
# errors, multi-line inputs with tabs, stray characters after long runs of
# whitespace, undeclared names, the exponent guard, the coefficient cap and
# seeded junk strings.  A long source is stored as ``[text, count]`` pieces.
PARSE_ERRORS = json.loads(
    Path(__file__).with_name("golden_parse_errors.json").read_text()
)
PARSE_CTX = RingContext.geometric(3)


def _source(src):
    return src if isinstance(src, str) else "".join(t * k for t, k in src)


@pytest.mark.parametrize("entry", PARSE_ERRORS, ids=range(len(PARSE_ERRORS)))
def test_golden_parse_errors(entry):
    with pytest.raises((ValueError, ArithmeticError)) as err:
        parse_polynomial(_source(entry["src"]), PARSE_CTX)
    assert type(err.value).__name__ == entry["type"]
    assert str(err.value) == entry["message"]


# The sha256 of ``replay --n N --json`` standard output for N past the
# golden replay records above, recorded before the multiply-accumulate
# kernel replaced the product loops (N = 8 before the replay formed its
# degree-8 defect in x1-slices); a faster replay must print the same bytes.
REPLAY_SHA256 = {
    5: "66d59b874d02f08b0a835aac47de293ee8ab23c30e386f8f628a4da5498874aa",
    6: "efa769753cbcb838f5c8447ec7ed99118c0612894690a6bd58942841fd96cedf",
    7: "4c1ed584da7a4be69585a2e7fb4f3cfb5888388d1154d8836c3562e7b68cf138",
    8: "290eea3a3cd3ecff643204fce8c1bdf42e964374e68ae2cd14b2d94dde005e78",
}


@pytest.mark.parametrize("n", sorted(REPLAY_SHA256))
def test_replay_json_bytes_at_larger_n(n, capsys):
    assert main(["replay", "--n", str(n), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPLAY_SHA256[n]


# The sha256 of ``json.dumps(replay_record(n, mutation), sort_keys=True)``
# for failing replays past ``golden_replay.json``: "cubic-part" reaches
# step 5's whole-part fallback and "defect-sign" its sliced x-axis failure.
# Recorded before step 5 read its valuations and restrictions off the
# (degree, x1-degree) keys of its pieces.
MUTATION_SHA256 = {
    ("cubic-part", 4): "872a0ec080821de97a434ebb543ab57f93bfa73acc431bb223010358ed89ba99",
    ("cubic-part", 5): "21b87b55c5db5720f00e98493b6ee08fc99828cb30a79c51a773232b0db71b24",
    ("cubic-part", 6): "a14f4e0f6ebe1775dce33d1042c2c0956d4691973c74106151cfb88448cd3cd2",
    ("defect-sign", 5): "72600c647036cb22ad3ceb8be798a58b8b82da04ad3a64e63b183642f25112ab",
    ("defect-sign", 6): "fd720876a28c6bd555ad529c103699a2316d895c7174d8a2d35145b45b56a030",
}


@pytest.mark.parametrize("mutation, n", sorted(MUTATION_SHA256),
                         ids=[f"{m}-n={n}" for m, n in sorted(MUTATION_SHA256)])
def test_failing_replay_records_at_larger_n(mutation, n):
    text = json.dumps(replay_record(n, mutation), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MUTATION_SHA256[mutation, n]


# The sha256 of ``json.dumps(replay_record(n, mutation), sort_keys=True)``
# at n = 3 to 5, recorded before step 5 certified its bound slices by their
# values at one integer point.  Forcing every value to 0 takes the
# whole-part fallback; both paths must give these records.
RECORD_SHA256 = {
    (None, 3): "025984b8bd7f439e576054e1eb7493f496ecbe41513853467824e0731470e914",
    (None, 4): "11aeb618da8161bd342950db1de2333e6145c8227861523cb3e873b324b562f6",
    (None, 5): "8d45fb8eac222bb12a294311c928101af5ee876fe59dda72975cd92326ef653c",
    ("cubic-part", 3): "30fd282c696567dbb02ceeec6c7359797718410b834bd4afc0fa12d33b4f3ac3",
    ("cubic-part", 4): "872a0ec080821de97a434ebb543ab57f93bfa73acc431bb223010358ed89ba99",
    ("cubic-part", 5): "21b87b55c5db5720f00e98493b6ee08fc99828cb30a79c51a773232b0db71b24",
    ("defect-sign", 3): "605c944cd07391758ed060873e21a3784d616e443f46215b5fe79f7b3c171b1f",
    ("defect-sign", 4): "06e63fcbc739bf6ad24965a6896304c6a49f6b44390edb8525cc0c1c6feed400",
    ("defect-sign", 5): "72600c647036cb22ad3ceb8be798a58b8b82da04ad3a64e63b183642f25112ab",
}


@pytest.mark.parametrize("forced", [False, True], ids=["certified", "forced-zero"])
@pytest.mark.parametrize("mutation, n", list(RECORD_SHA256),
                         ids=[f"{m}-n={n}" for m, n in RECORD_SHA256])
def test_replay_records_with_and_without_the_fallback(monkeypatch, forced, mutation, n):
    calls = []
    if forced:
        monkeypatch.setattr(Polynomial, "_at", lambda self, point: calls.append(0) or 0)
    text = json.dumps(replay_record(n, mutation), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_SHA256[mutation, n]
    # "cubic-part" fails its degree-8 bound, so it never evaluates.
    assert bool(calls) == (forced and mutation != "cubic-part")
