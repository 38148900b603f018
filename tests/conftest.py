"""Shared test plumbing: acceptance verdict reporting and a hash counter.

The acceptance tests record one PASS/FAIL line per criterion; emitting
them from the terminal-summary hook keeps them visible under pytest's
default fd-level capture.
"""

import pytest

from satpatch import fstree

acceptance_verdicts: list[str] = []


def record_verdict(line: str) -> None:
    acceptance_verdicts.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def hashed_sizes(monkeypatch) -> list[int]:
    """Length of every content passed to ``fstree.hash_content`` from here on."""
    sizes: list[int] = []
    original = fstree.hash_content

    def counting(content: bytes) -> bytes:
        sizes.append(len(content))
        return original(content)

    monkeypatch.setattr(fstree, "hash_content", counting)
    return sizes
