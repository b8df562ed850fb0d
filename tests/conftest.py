"""Shared pytest plumbing: the acceptance scoreboard, and a count of the
argparse parsers the command line builds.

Acceptance tests register one line per criterion; the terminal summary
prints them after the run, outside capture, so the scoreboard shows up in
any ``pytest`` invocation that executed those tests.
"""

import pytest

from cmccheck import cli

SCOREBOARD: list[str] = []


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that gains one item each time ``cli.main`` builds its parser."""
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    return built


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not SCOREBOARD:
        return
    terminalreporter.section("acceptance scoreboard")
    for line in SCOREBOARD:
        terminalreporter.write_line(line)
