"""Fixtures for the subprocess-harness tests."""

import pytest

from repro.adapters import subprocess_adapter


@pytest.fixture
def idle_workers():
    """The harness's idle list, emptied first: earlier tests park their
    workers there, and a test about parking must see only its own."""
    with subprocess_adapter._pool_lock:
        parked = list(subprocess_adapter._idle)
        subprocess_adapter._idle.clear()
    for proc in parked:
        subprocess_adapter._retire(proc, kill=True)
    return subprocess_adapter._idle
