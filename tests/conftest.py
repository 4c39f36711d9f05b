"""Fixtures shared by the test modules."""

import os

import pytest

from confscreen import data, estimators, simulation


@pytest.fixture
def split_on(monkeypatch):
    """``split_on(cpus)`` splits every CSV parse, screen, run of replicates and write_csv window, however small, among ``cpus`` usable CPUs.

    A CSV file of any size is parsed in pieces, and a write is cut into
    items of one row each.

    It returns the list of the pids this process forks from then on.  When
    the test ends, no child of it may be left.
    """

    def split(cpus):
        monkeypatch.setattr(estimators, "SLICE_MIN_DOUBLES", 1)
        monkeypatch.setattr(simulation, "SLICE_MIN_DOUBLES", 1)
        monkeypatch.setattr(data, "_CHUNK_MIN_BYTES", 1)
        monkeypatch.setattr(data, "_WRITE_MIN_CELLS", 1)
        monkeypatch.setattr(data, "_ITEM_CELLS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "fork", counted)
        return forks

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    fork, forks = os.fork, []
    yield split
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
