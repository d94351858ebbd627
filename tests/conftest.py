import os

import pytest

from psituples import build_sieve


@pytest.fixture(scope="session")
def sieve_1k():
    return build_sieve(1_000)


@pytest.fixture(scope="session")
def sieve_10k():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def sieve_100k():
    return build_sieve(100_000)


@pytest.fixture(scope="session")
def sieve_1m():
    return build_sieve(1_000_000)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork starts in this process while
    the test runs: os.fork is wrapped, the children are real."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started
