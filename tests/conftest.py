"""Fixtures shared by the test modules."""

import os

import pytest

from skolemgen import core


@pytest.fixture
def eight_cpus(monkeypatch):
    """Let the split run at every worker count a test names, up to 8, on any
    host: the engine caps the worker count at the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def assert_no_child_process():
    """Fail unless this process has no child process at all, running or
    ended and not reaped.  The OS sees every child, those made by a bare
    ``os.fork`` too, which ``multiprocessing.active_children()`` does not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


NUMERALS_WARM = 1000  # a pre-grown table maps "1".."1000"


@pytest.fixture
def numerals():
    """Save ``core._NUMERALS`` and restore it after the test.  The value is a
    function that empties the table (``"cold"``) or grows it, through the
    parser, to 1..``NUMERALS_WARM`` (``"warm"``)."""
    saved = dict(core._NUMERALS)

    def start(state):
        core._NUMERALS.clear()
        if state == "warm":
            core.parse_entries(",".join([*map(str, range(1, NUMERALS_WARM + 1))] * 2))
            assert len(core._NUMERALS) == NUMERALS_WARM

    yield start
    core._NUMERALS.clear()
    core._NUMERALS.update(saved)
