"""Tests of combination enumeration, ranking and block scheduling."""

from __future__ import annotations

from itertools import combinations as itertools_combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinations import (
    block_combination_count,
    combination_count,
    combination_from_rank,
    combination_rank,
    combination_ranks,
    combinations_from_ranks,
    combinations_in_block_triple,
    generate_combinations,
    iter_combination_chunks,
    iter_triangular_blocks,
)


class TestCombinationCount:
    @pytest.mark.parametrize("n,k,expected", [(3, 3, 1), (10, 3, 120), (24, 3, 2024),
                                              (2048, 3, comb(2048, 3)), (5, 2, 10)])
    def test_values(self, n, k, expected):
        assert combination_count(n, k) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            combination_count(-1, 3)
        with pytest.raises(ValueError):
            combination_count(5, 0)


class TestRankUnrank:
    def test_first_and_last(self):
        assert combination_rank((0, 1, 2), 10) == 0
        assert combination_rank((7, 8, 9), 10) == comb(10, 3) - 1
        assert combination_from_rank(0, 10, 3) == (0, 1, 2)
        assert combination_from_rank(comb(10, 3) - 1, 10, 3) == (7, 8, 9)

    def test_matches_itertools_order(self):
        expected = list(itertools_combinations(range(8), 3))
        for rank, combo in enumerate(expected):
            assert combination_from_rank(rank, 8, 3) == combo
            assert combination_rank(combo, 8) == rank

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            combination_rank((2, 1, 3), 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            combination_rank((0, 1, 10), 10)
        with pytest.raises(ValueError):
            combination_from_rank(comb(10, 3), 10, 3)

    @given(
        n=st.integers(min_value=3, max_value=60),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_roundtrip(self, n, data):
        rank = data.draw(st.integers(min_value=0, max_value=comb(n, 3) - 1))
        combo = combination_from_rank(rank, n, 3)
        assert len(combo) == 3
        assert combo[0] < combo[1] < combo[2] < n
        assert combination_rank(combo, n) == rank

    def test_order_2_and_4(self):
        assert combination_from_rank(0, 6, 2) == (0, 1)
        assert combination_from_rank(comb(6, 4) - 1, 6, 4) == (2, 3, 4, 5)

    @pytest.mark.parametrize("order", [2, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_other_orders(self, order, data):
        """rank/unrank are inverses at every supported order, not just 3."""
        n = data.draw(st.integers(min_value=order, max_value=40))
        rank = data.draw(st.integers(min_value=0, max_value=comb(n, order) - 1))
        combo = combination_from_rank(rank, n, order)
        assert len(combo) == order
        assert all(a < b for a, b in zip(combo, combo[1:]))
        assert combo[-1] < n
        assert combination_rank(combo, n) == rank

    @pytest.mark.parametrize("order", [2, 4, 5])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unrank_then_rank_hits_every_window(self, order, data):
        """Windows of consecutive ranks unrank to consecutive combinations."""
        n = data.draw(st.integers(min_value=order, max_value=24))
        total = comb(n, order)
        start = data.draw(st.integers(min_value=0, max_value=total - 1))
        count = data.draw(st.integers(min_value=1, max_value=min(32, total - start)))
        window = generate_combinations(n, order, start_rank=start, count=count)
        ranks = [combination_rank(tuple(row), n) for row in window]
        assert ranks == list(range(start, start + count))


class TestVectorizedUnranking:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_itertools(self, order):
        n = 9
        expected = np.array(list(itertools_combinations(range(n), order)))
        ranks = np.arange(comb(n, order))
        assert np.array_equal(combinations_from_ranks(ranks, n, order), expected)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_scattered_ranks_match_scalar_unranking(self, order):
        n = 30
        rng = np.random.default_rng(7)
        ranks = rng.integers(0, comb(n, order), size=128)
        got = combinations_from_ranks(ranks, n, order)
        for rank, row in zip(ranks, got):
            assert tuple(row) == combination_from_rank(int(rank), n, order)

    def test_empty_and_invalid(self):
        assert combinations_from_ranks(np.array([], dtype=np.int64), 10, 3).shape == (0, 3)
        with pytest.raises(ValueError):
            combinations_from_ranks(np.array([-1]), 10, 3)
        with pytest.raises(ValueError):
            combinations_from_ranks(np.array([comb(10, 3)]), 10, 3)
        with pytest.raises(ValueError):
            combinations_from_ranks(np.array([[0, 1]]), 10, 3)

    @pytest.mark.parametrize("order", [3, 4])
    def test_suffix_tables_built_once(self, order):
        # The per-position suffix tables are built once per (n_snps, slots)
        # and kept read-only: a second call (either direction) builds none.
        from repro.core.combinations import _suffix_counts

        n = 37
        _suffix_counts.cache_clear()
        ranks = np.arange(0, comb(n, order), 97)
        first = combinations_from_ranks(ranks, n, order)
        built = _suffix_counts.cache_info().misses
        assert built == order
        again = combinations_from_ranks(ranks, n, order)
        ranked = combination_ranks(first, n)
        assert _suffix_counts.cache_info().misses == built
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(ranked, ranks)
        expected = list(itertools_combinations(range(n), order))
        assert [tuple(row) for row in first] == [expected[r] for r in ranks]
        suffix, negated = _suffix_counts(n, order)
        assert not suffix.flags.writeable and not negated.flags.writeable
        np.testing.assert_array_equal(negated, -suffix)


class TestGenerateCombinations:
    def test_full_space_matches_itertools(self):
        expected = np.array(list(itertools_combinations(range(9), 3)))
        assert np.array_equal(generate_combinations(9, 3), expected)

    def test_range_extraction(self):
        full = generate_combinations(12, 3)
        part = generate_combinations(12, 3, start_rank=37, count=50)
        assert np.array_equal(part, full[37:87])

    def test_empty_range(self):
        assert generate_combinations(12, 3, start_rank=5, count=0).shape == (0, 3)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            generate_combinations(6, 3, start_rank=0, count=comb(6, 3) + 1)

    @given(
        n=st.integers(min_value=3, max_value=30),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_windows_are_consistent(self, n, data):
        total = comb(n, 3)
        start = data.draw(st.integers(min_value=0, max_value=total - 1))
        count = data.draw(st.integers(min_value=1, max_value=min(64, total - start)))
        window = generate_combinations(n, 3, start_rank=start, count=count)
        assert window.shape == (count, 3)
        # Strictly increasing triplets, in strictly increasing rank order.
        assert ((window[:, 0] < window[:, 1]) & (window[:, 1] < window[:, 2])).all()
        ranks = [combination_rank(tuple(row), n) for row in window]
        assert ranks == list(range(start, start + count))


class TestChunkIteration:
    def test_chunks_cover_space_exactly_once(self):
        chunks = list(iter_combination_chunks(13, 3, chunk_size=37))
        stacked = np.vstack(chunks)
        assert stacked.shape[0] == comb(13, 3)
        assert np.array_equal(stacked, generate_combinations(13, 3))
        assert all(c.shape[0] <= 37 for c in chunks)

    def test_sub_range(self):
        chunks = list(iter_combination_chunks(13, 3, chunk_size=16, start_rank=10, stop_rank=70))
        stacked = np.vstack(chunks)
        assert stacked.shape[0] == 60

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_combination_chunks(10, 3, chunk_size=0))


class TestTriangularBlocks:
    @pytest.mark.parametrize("n_snps,block_size", [(10, 3), (16, 5), (24, 8), (7, 7), (9, 16)])
    def test_blocks_cover_space_exactly_once(self, n_snps, block_size):
        seen = set()
        for ranges in iter_triangular_blocks(n_snps, block_size):
            combos = combinations_in_block_triple(ranges)
            for row in combos:
                triple = tuple(int(v) for v in row)
                assert triple not in seen
                seen.add(triple)
        assert len(seen) == comb(n_snps, 3)

    def test_block_count_formula(self):
        n_blocks = 0
        for _ in iter_triangular_blocks(24, 5):
            n_blocks += 1
        assert n_blocks == block_combination_count(24, 5)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            list(iter_triangular_blocks(10, 0))
