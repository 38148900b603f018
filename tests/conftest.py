"""Shared test plumbing: acceptance verdict reporting, a hash counter,
crash-point injection and directories that cannot be listed.

The acceptance tests record one PASS/FAIL line per criterion; emitting
them from the terminal-summary hook keeps them visible under pytest's
default fd-level capture.
"""

import errno
import os
from pathlib import Path

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


@pytest.fixture
def crash_points(monkeypatch):
    """``run(k, action)`` calls ``action()`` with the k-th call to
    ``os.rename``, ``os.replace``, ``Path.mkdir``, ``Path.write_bytes`` or
    ``Path.write_text`` raising OSError (none for k=0) and returns how many
    calls were made.

    Enumerating k up to the call count of a clean run visits every crash
    point between two writes, after ALICE (Pillai et al., OSDI 2014); the
    process itself goes on, so cleanup code still runs.
    """
    state = {"calls": 0, "crash_at": 0}

    def wrap(write):
        def crashing(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] == state["crash_at"]:
                raise OSError(errno.EIO, "injected crash")
            return write(*args, **kwargs)

        return crashing

    monkeypatch.setattr(os, "rename", wrap(os.rename))
    monkeypatch.setattr(os, "replace", wrap(os.replace))
    monkeypatch.setattr(Path, "mkdir", wrap(Path.mkdir))
    monkeypatch.setattr(Path, "write_bytes", wrap(Path.write_bytes))
    monkeypatch.setattr(Path, "write_text", wrap(Path.write_text))

    def run(k: int, action) -> int:
        state.update(calls=0, crash_at=k)
        try:
            action()
        finally:
            state["crash_at"] = 0
        return state["calls"]

    return run


@pytest.fixture
def unlistable(monkeypatch) -> set[Path]:
    """Directories added to the returned set cannot be listed: ``os.scandir``
    raises PermissionError for them, as it does after ``chmod 000`` for any
    user but root."""
    refused: set[Path] = set()
    scandir = os.scandir

    def refusing(path="."):
        if not isinstance(path, int) and Path(path) in refused:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing)
    return refused
