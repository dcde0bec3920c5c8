"""Repo-wide pytest hooks: a per-test wall cap, so a hang fails instead of stalling.

A test that runs past :data:`TEST_WALL_CAP_S` has every thread's stack
dumped to stderr by :mod:`faulthandler` and the run exits non-zero, rather
than waiting out CI's job timeout with nothing printed.  The slowest tier-1
test takes a few seconds, and the ledger's child processes are waited on for
at most 120 s, so the cap only fires on a hang.
"""

from __future__ import annotations

import faulthandler
import os
from typing import IO

import pytest

#: seconds one test (its function fixtures, call and teardown) may run
TEST_WALL_CAP_S = 300

_STDERR = pytest.StashKey[IO[str]]()


def pytest_configure(config):
    # taken while no output is captured: a running test's stderr is pytest's
    # capture file, which the exit would discard along with the stacks
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def _wall_cap(request):
    faulthandler.dump_traceback_later(
        TEST_WALL_CAP_S, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
