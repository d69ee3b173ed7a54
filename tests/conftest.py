"""Shared fixtures."""

import contextlib
import os

import pytest

from repro import datapath


@contextlib.contextmanager
def _scalar_build():
    previous_build = datapath.current_build()
    previous_env = os.environ.get(datapath.ENV_VAR)
    datapath.set_datapath("scalar")
    try:
        yield
    finally:
        datapath.set_datapath(previous_build)
        if previous_env is None:
            os.environ.pop(datapath.ENV_VAR, None)


@pytest.fixture(scope="module")
def scalar_build():
    """A context manager running its block under the scalar build.

    The build in force before the block, and its ``REPRO_DATAPATH``
    export, come back afterwards.  Module-scoped so hypothesis-driven
    tests can use it without tripping the function-scoped-fixture
    health check.
    """
    return _scalar_build
