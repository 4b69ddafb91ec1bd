"""A per-test deadline for every test under the repository, perfbench/ included.

A test that runs past TEST_DEADLINE_S stops the whole run with a non-zero exit
and the stack of every thread (faulthandler.dump_traceback_later), so a hang
fails in a minute instead of holding the run until an outer time limit. The
slowest test takes a few seconds. The stack goes to a copy of stderr taken
before any test runs, since pytest captures the stderr of each test.
"""

import faulthandler
import os
import sys

import pytest

TEST_DEADLINE_S = 60

_stderr = None


def pytest_configure(config):
    global _stderr
    _stderr = os.fdopen(os.dup(sys.__stderr__.fileno()), "w")


def pytest_unconfigure(config):
    if _stderr is not None:
        _stderr.close()


@pytest.fixture(autouse=True)
def per_test_deadline():
    faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
