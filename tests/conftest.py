"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def eight_cpus(monkeypatch):
    """Let the split run at every worker count a test names, up to 8, on any
    host: the engine caps the worker count at the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
