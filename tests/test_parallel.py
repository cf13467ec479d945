"""Tests of the host schedulers.

The implementations live in :mod:`repro.engine` (the claim cursor and its
views, and the static partition).
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.scheduling import (
    FixedChunkSource,
    GuidedChunkSource,
    SharedCursor,
    static_partition,
)


def _drain(source):
    claimed = []
    while (r := source.next_range()) is not None:
        claimed.append(r)
    return claimed


class TestDynamicScheduler:
    """Fixed-size claims from one shared cursor (``schedule(dynamic)``)."""

    def test_covers_range_exactly_once(self):
        claimed = _drain(FixedChunkSource(SharedCursor(100), 7))
        assert claimed[0] == (0, 7)
        assert claimed[-1] == (98, 100)
        flat = [i for start, stop in claimed for i in range(start, stop)]
        assert flat == list(range(100))

    def test_exhaustion(self):
        source = FixedChunkSource(SharedCursor(5), 10)
        assert source.next_range() == (0, 5)
        assert source.next_range() is None
        assert source.next_range() is None

    def test_zero_total(self):
        assert FixedChunkSource(SharedCursor(0), 1).next_range() is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SharedCursor(-1)
        with pytest.raises(ValueError):
            SharedCursor(10, start=11)
        with pytest.raises(ValueError):
            FixedChunkSource(SharedCursor(10), 0)

    @pytest.mark.parametrize(
        "view",
        [
            pytest.param(lambda cursor: FixedChunkSource(cursor, 13), id="fixed"),
            pytest.param(lambda cursor: GuidedChunkSource(cursor, 8, 13), id="guided"),
        ],
    )
    def test_thread_safety(self, view):
        cursor = SharedCursor(10_000)
        seen: list[tuple[int, int]] = []
        lock = threading.Lock()

        def worker():
            # One view per thread over the one cursor, as a lane's workers.
            source = view(cursor)
            while True:
                r = source.next_range()
                if r is None:
                    return
                with lock:
                    seen.append(r)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        covered = sorted(i for start, stop in seen for i in range(start, stop))
        assert covered == list(range(10_000))

    @given(
        total=st.integers(min_value=0, max_value=5000),
        chunk=st.integers(min_value=1, max_value=777),
    )
    @settings(max_examples=50)
    def test_chunks_partition_range(self, total, chunk):
        chunks = _drain(FixedChunkSource(SharedCursor(total), chunk))
        assert sum(stop - start for start, stop in chunks) == total
        for (s1, e1), (s2, e2) in zip(chunks, chunks[1:]):
            assert e1 == s2


class TestStaticPartition:
    def test_balanced(self):
        assert static_partition(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_spread(self):
        parts = static_partition(11, 3)
        sizes = [b - a for a, b in parts]
        assert sizes == [4, 4, 3]

    def test_more_parts_than_items(self):
        parts = static_partition(2, 4)
        sizes = [b - a for a, b in parts]
        assert sizes == [1, 1, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            static_partition(10, 0)
        with pytest.raises(ValueError):
            static_partition(-1, 2)

    @given(
        total=st.integers(min_value=0, max_value=10_000),
        parts=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_partition_properties(self, total, parts):
        ranges = static_partition(total, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        sizes = [b - a for a, b in ranges]
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
