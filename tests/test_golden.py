"""Byte-for-byte replay of recorded CLI outputs.

``golden_cli.json`` holds a fixed list of fast commands, each in text and
``--json`` mode, with the exit code and standard output they produced
when the file was recorded, and standard error for the exit-2 inputs.
Refactors of the CLI and the kernel must reproduce every entry exactly;
the file is a record, so it is never regenerated to make this test pass.
"""

import json
from pathlib import Path

import pytest

from cmccheck.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_golden_cli_output(entry, capsys):
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert code == entry["exit_code"]
    assert captured.out == entry["stdout"]
    assert captured.err == entry.get("stderr", "")
