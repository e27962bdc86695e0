"""Shared test setup: a per-test time limit from the standard library."""

import faulthandler
import os

import pytest

# The slowest test takes seconds; one still running after this many seconds
# is taken as hung: every thread's stack is dumped and the run exits.
HANG_SECONDS = 300
_SESSION_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while pytest configures, so file
    # descriptor 2 is still the session's stderr, where a hang's dump goes
    config.stash[_SESSION_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_SESSION_STDERR])


@pytest.fixture(autouse=True)
def _fail_on_hang(pytestconfig):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=pytestconfig.stash[_SESSION_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
