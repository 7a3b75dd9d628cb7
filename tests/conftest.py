"""Fixtures shared by the test modules."""

import multiprocessing
import os
from contextlib import closing

import pytest

from ual import datagen_metrics


@pytest.fixture
def chunk_calls(monkeypatch):
    """Two usable CPUs and, for each ``_chunk_map`` call, the list of chunks
    it took and whether a worker process was running as it went. No worker
    process may be left when the test ends."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []
    chunk_map = datagen_metrics._chunk_map

    def spy(fn, chunks, count, where):
        seen = []
        calls.append((seen, running := []))

        def taken(chunks):
            for chunk in chunks:
                seen.append(chunk)
                yield chunk

        with closing(chunk_map(fn, taken(chunks), count, where)) as results:
            for result in results:
                running.append(bool(multiprocessing.active_children()))
                yield result

    monkeypatch.setattr(datagen_metrics, "_chunk_map", spy)
    yield calls
    assert not multiprocessing.active_children()
