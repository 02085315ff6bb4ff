"""Fixtures shared by the test modules."""

import os

import pytest


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
