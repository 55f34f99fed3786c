import os
import sys

import pytest

import polytnn.tnn as tnn


@pytest.fixture
def forking_cli():
    """The argv of `python -m polytnn`; append the CLI arguments."""
    return [sys.executable, "-m", "polytnn"]


@pytest.fixture
def fork_always(monkeypatch):
    """Scans with jobs > 1 fork into min(jobs, lines) workers whatever this
    machine's CPU count; yields the pids of the processes that forked, one per
    child. The test must fork at least once."""
    forks = []
    fork = tnn._fork
    monkeypatch.setattr(tnn.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(tnn, "_fork", lambda scan: forks.append(os.getpid()) or fork(scan))
    yield forks
    assert forks, "no scan forked"
