import os
import sys

import pytest

import polytnn.tnn as tnn


@pytest.fixture
def forking_cli():
    """The argv of `python -m polytnn` with the fork cut-off at 0, so a small
    `tnn --jobs N` scan forks as a large one does; append the CLI arguments."""
    return [
        sys.executable,
        "-c",
        "import runpy, polytnn.tnn; polytnn.tnn.FORK_MIN_WORK = 0; runpy.run_module('polytnn', run_name='__main__')",
    ]


@pytest.fixture
def fork_always(monkeypatch):
    """Scans with jobs > 1 fork however small they are, into min(jobs, lines)
    workers whatever this machine's CPU count; yields the pids of the processes
    that forked, one per child. The test must fork at least once."""
    forks = []
    fork = tnn._fork
    monkeypatch.setattr(tnn, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(tnn.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(tnn, "_fork", lambda scan: forks.append(os.getpid()) or fork(scan))
    yield forks
    assert forks, "no scan forked"
