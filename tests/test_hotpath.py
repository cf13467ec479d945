"""Hot-path overhaul tests: word layouts, lookup-K2, autotuner, caching.

Pins the invariants the overhaul rests on:

* **word layouts** — packing round-trips on either word, and the
  instruction charges stay per paper word;
* **bit-exactness of lookup-K2** — the log-factorial table path returns
  float64-identical scores to the closed-form ``gammaln`` path;
* **exact coverage under autotuning** — adaptive chunk sizing changes
  only the claim granularity, never the evaluated set.

End to end, both layouts and lookup-K2 rank exactly what the ``gammaln``
brute-force oracle ranks on every plan: that is drawn by the differential
oracle (``tests/test_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.packing import WORD32, WORD64, get_layout, pack_bits, unpack_bits
from repro.bitops.popcount import popcount, popcount_sum, scalar_popcount
from repro.core import EpistasisDetector
from repro.core.approaches import get_approach
from repro.core.combinations import generate_combinations
from repro.core.encoding_cache import ENCODING_CACHE, EncodingCache
from repro.core.scoring import K2Score
from repro.datasets import SyntheticConfig, generate_dataset
from repro.engine import EngineDevice, FixedChunkSource, SharedCursor
from repro.engine.autotune import AdaptiveChunkSource, AutotuneConfig, is_auto_chunk
from repro.engine.policies import DynamicPolicy


class TestWordLayouts:
    def test_layout_registry(self):
        assert get_layout("u32") is WORD32
        assert get_layout(64) if False else get_layout("64") is WORD64
        assert get_layout("uint64").paper_words == 2
        assert WORD32.paper_words == 1
        with pytest.raises(KeyError):
            get_layout("u128")

    def test_pack_bits_u64_roundtrip(self, rng):
        bits = rng.random(205) < 0.4
        w32 = pack_bits(bits, "u32")
        w64 = pack_bits(bits, "u64")
        assert w32.dtype == np.uint32 and w64.dtype == np.uint64
        assert np.array_equal(unpack_bits(w32, 205), bits)
        assert np.array_equal(unpack_bits(w64, 205), bits)
        # A uint64 plane viewed as little-endian uint32 is the uint32 plane
        # padded to an even word count.
        as32 = np.ascontiguousarray(w64).view(np.uint32)
        assert np.array_equal(as32[: w32.size], w32)
        assert not as32[w32.size:].any()

    def test_popcount_dispatch(self, rng):
        w64 = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        expected = np.array([scalar_popcount(int(v)) for v in w64])
        assert np.array_equal(popcount(w64), expected)
        assert np.array_equal(popcount_sum(w64.reshape(8, 8)), expected.reshape(8, 8).sum(-1))

    @pytest.mark.parametrize("name", ["cpu-v1", "cpu-v2"])
    def test_paper_word_charges_layout_independent(self, odd_sample_dataset, name):
        """Op counts and byte traffic are per paper word on either layout."""
        combos = generate_combinations(odd_sample_dataset.n_snps, 3)[:20]
        counters = {}
        for layout in ("u32", "u64"):
            approach = get_approach(name, word_layout=layout)
            approach.build_tables(approach.prepare(odd_sample_dataset), combos)
            counters[layout] = approach.counter
        c32, c64 = counters["u32"], counters["u64"]
        # Charges are in paper words on both layouts; the only difference is
        # the u64 plane's extra padding (one paper word of slack per plane),
        # so every mnemonic agrees within that slack — never by a factor of
        # the word-width ratio.
        for mnemonic, count in c32.ops.items():
            assert count * 0.8 <= c64.ops.get(mnemonic, 0) <= count * 1.3
        assert c32.bytes_loaded * 0.8 <= c64.bytes_loaded <= c32.bytes_loaded * 1.3

    def test_default_layout_env_override(self, monkeypatch):
        from repro.bitops import packing

        monkeypatch.setenv("REPRO_WORD_WIDTH", "32")
        assert packing.default_layout() is WORD32
        monkeypatch.setenv("REPRO_WORD_WIDTH", "64")
        assert packing.default_layout() is WORD64
        monkeypatch.delenv("REPRO_WORD_WIDTH")
        assert packing.default_layout() in (WORD32, WORD64)


class TestLookupK2:
    @given(
        n_samples=st.integers(min_value=4, max_value=600),
        seed=st.integers(min_value=0, max_value=10_000),
        order=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_lookup_matches_gammaln_bitwise(self, n_samples, seed, order):
        rng = np.random.default_rng(seed)
        cells = 3**order
        # Random non-negative integer tables whose totals stay <= n_samples.
        tables = rng.integers(0, max(1, n_samples // cells), size=(16, cells, 2))

        class _Ds:
            pass

        ds = _Ds()
        ds.n_samples = n_samples
        reference = K2Score(precompute=False)
        fast = K2Score()
        fast.prepare(ds)
        assert np.array_equal(fast.score(tables), reference.score(tables))

    def test_float_tables_fall_back(self):
        fast = K2Score()

        class _Ds:
            n_samples = 100

        fast.prepare(_Ds())
        tables = np.array([[[1.0, 2.0], [3.0, 4.0], [0.0, 5.0]]])
        reference = K2Score(precompute=False)
        assert np.array_equal(fast.score(tables), reference.score(tables))
        with pytest.raises(ValueError):
            fast.score(np.array([[[-1, 2]]]))

    def test_out_of_range_counts_fall_back(self):
        fast = K2Score()

        class _Ds:
            n_samples = 4

        fast.prepare(_Ds())
        # Counts exceed the prepared table -> scipy path, identical values.
        tables = np.array([[[50, 60], [70, 80], [1, 2]]], dtype=np.int64)
        assert np.array_equal(
            fast.score(tables), K2Score(precompute=False).score(tables)
        )


@pytest.fixture(scope="module")
def hotpath_dataset():
    from repro.datasets import PlantedInteraction

    return generate_dataset(
        SyntheticConfig(
            n_snps=22,
            n_samples=700,
            interaction=PlantedInteraction(snps=(2, 9, 15), effect=0.85),
            seed=99,
        )
    )


class TestAutotuner:
    def test_sentinels(self):
        assert is_auto_chunk("auto") and is_auto_chunk(" AUTO ")
        assert not is_auto_chunk(2048) and not is_auto_chunk("2048")

    def test_shared_cursor_exact_coverage(self):
        cursor = SharedCursor(1000, start=37)
        claimed = []
        sizes = [13, 999, 1, 50]
        i = 0
        while True:
            got = cursor.claim(sizes[i % len(sizes)])
            if got is None:
                break
            claimed.append(got)
            i += 1
        assert claimed[0][0] == 37
        assert claimed[-1][1] == 1000
        for (a, b), (c, d) in zip(claimed, claimed[1:]):
            assert b == c  # contiguous, no overlap, no gap
        with pytest.raises(ValueError):
            cursor.claim(0)

    def test_growth_and_shrink_within_bounds(self):
        cfg = AutotuneConfig(
            initial_chunk=1024,
            min_chunk=256,
            max_chunk=4096,
            growth=2.0,
            target_seconds=0.05,
            deadband=0.5,
        )
        src = AdaptiveChunkSource(SharedCursor(10**9), cfg)
        # Fast chunks: grow geometrically up to the cap.
        for _ in range(10):
            src.feedback(src.chunk_size, 0.001)
        assert src.chunk_size == 4096
        # Slow chunks: shrink down to the floor.
        for _ in range(10):
            src.feedback(src.chunk_size, 10.0)
        assert src.chunk_size == 256
        # In-deadband chunk: no change.
        before = src.chunk_size
        src.feedback(src.chunk_size, 0.05)
        assert src.chunk_size == before

    def test_tail_claims_do_not_adjust(self):
        src = AdaptiveChunkSource(SharedCursor(10**9))
        src.feedback(src.chunk_size - 1, 0.0)  # partial tail claim
        assert src.adjustments == 0

    def test_lane_sources_share_one_cursor(self):
        [lane] = DynamicPolicy().assign(
            5000, [EngineDevice(kind="cpu", n_workers=3, chunk_size="auto")]
        )
        sources = lane.sources
        assert len(sources) == 3
        assert all(isinstance(src, AdaptiveChunkSource) for src in sources)
        seen = []
        for src in sources:
            claimed = src.next_range()
            assert claimed is not None
            seen.append(claimed)
        starts = sorted(a for a, _ in seen)
        stops = sorted(b for _, b in seen)
        assert starts[0] == 0 and all(a < b for a, b in seen)
        assert len(set(starts)) == 3  # distinct, non-overlapping claims
        assert stops[-1] <= 5000

    def test_detector_rejects_bad_chunk_string(self):
        with pytest.raises(ValueError):
            EpistasisDetector(chunk_size="fastest")

    def test_dynamic_policy_honors_mixed_lane_chunks(self):
        devices = [
            EngineDevice(kind="cpu", n_workers=2, chunk_size=512),
            EngineDevice(kind="gpu", n_workers=1, chunk_size="auto"),
        ]
        assignments = DynamicPolicy().assign(100_000, devices)
        cpu_sources, gpu_sources = (a.sources for a in assignments)
        assert all(isinstance(s, FixedChunkSource) for s in cpu_sources)
        assert all(s.chunk_size == 512 for s in cpu_sources)
        assert all(isinstance(s, AdaptiveChunkSource) for s in gpu_sources)
        # Both lanes drain the one shared cursor.
        assert cpu_sources[0].cursor is gpu_sources[0].cursor
        a = cpu_sources[0].next_range()
        b = gpu_sources[0].next_range()
        assert a == (0, 512) and b[0] == 512

    def test_blocked_exec_passes_stay_memory_bounded(self):
        from repro.core.approaches._kernels import (
            KERNEL_BUDGET_BYTES,
            combo_word_bytes,
            words_per_pass,
        )

        # Huge synthetic geometry: the per-pass word budget must cap the
        # transient grid regardless of sample count.
        words = words_per_pass(3, 2048, 8)
        assert words * 2048 * combo_word_bytes(3, 8) <= KERNEL_BUDGET_BYTES
        assert words_per_pass(5, 10**9, 8) == 1

    def test_autotune_stats_surface(self, hotpath_dataset):
        result = EpistasisDetector(
            approach="cpu-v2", chunk_size="auto", n_workers=2
        ).detect(hotpath_dataset)
        entry = result.stats.extra["devices"]["cpu"]
        assert "autotune" in entry
        assert len(entry["autotune"]["workers"]) == 2
        assert all(c >= 1 for c in entry["autotune"]["final_chunk_sizes"])


class TestEncodingCache:
    def test_repeated_detect_packs_once(self, hotpath_dataset):
        ENCODING_CACHE.clear()
        detector = EpistasisDetector(approach="cpu-v4", word_layout="u64")
        detector.detect(hotpath_dataset)
        detector.detect(hotpath_dataset)
        # cpu-v3 shares the blocked split encoding with cpu-v4.
        EpistasisDetector(approach="cpu-v3", word_layout="u64").detect(hotpath_dataset)
        assert ENCODING_CACHE.misses == 1
        assert ENCODING_CACHE.hits >= 2

    def test_layouts_do_not_collide(self, hotpath_dataset):
        ENCODING_CACHE.clear()
        EpistasisDetector(approach="cpu-v2", word_layout="u32").detect(hotpath_dataset)
        EpistasisDetector(approach="cpu-v2", word_layout="u64").detect(hotpath_dataset)
        assert ENCODING_CACHE.misses == 2

    def test_lru_eviction_and_clear(self):
        cache = EncodingCache(max_entries=2)
        cache.get_or_build(("a",), lambda: 1)
        cache.get_or_build(("b",), lambda: 2)
        cache.get_or_build(("a",), lambda: 0)  # refresh "a"
        cache.get_or_build(("c",), lambda: 3)  # evicts "b"
        assert cache.get_or_build(("a",), lambda: -1) == 1
        assert cache.get_or_build(("b",), lambda: 99) == 99  # rebuilt
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_pipeline_stages_share_encoding(self, hotpath_dataset):
        ENCODING_CACHE.clear()
        EpistasisDetector(approach="cpu-v4", word_layout="u64").detect_staged(
            hotpath_dataset, screen_order=2, keep_snps=12
        )
        # screen + expand both ran, but the dataset was packed exactly once
        # for the full universe (the expand packs the retained subset).
        keys_misses = ENCODING_CACHE.misses
        assert keys_misses <= 2
        assert ENCODING_CACHE.hits + keys_misses >= 2

    def test_permutation_null_does_not_flood_cache(self, hotpath_dataset):
        ENCODING_CACHE.clear()
        EpistasisDetector(approach="cpu-v4", word_layout="u64").detect_staged(
            hotpath_dataset, screen_order=2, keep_snps=12, n_permutations=6
        )
        # The 6 permuted relabellings are scored cache-bypassing: misses
        # cover only the full dataset and the sliced finalist dataset, never
        # one per permutation.
        assert ENCODING_CACHE.misses <= 3
