"""Unit and property tests of the population-count primitives."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops.popcount import (
    COLUMN_SUM_ROWS_PER_WORD,
    HAS_BITWISE_COUNT,
    popcount,
    popcount_sum,
    popcount32,
    popcount64,
    popcount_lut,
    popcount_reduce,
    scalar_popcount,
)

# The package re-exports the function ``popcount`` under the module's name.
popcount_module = importlib.import_module("repro.bitops.popcount")


class TestScalarPopcount:
    def test_known_values(self):
        assert scalar_popcount(0) == 0
        assert scalar_popcount(1) == 1
        assert scalar_popcount(0xFFFFFFFF) == 32
        assert scalar_popcount(0b1011_0110) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scalar_popcount(-1)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_bin_count(self, value):
        assert scalar_popcount(value) == bin(value).count("1")


class TestPopcount32:
    def test_empty(self):
        out = popcount32(np.array([], dtype=np.uint32))
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_known_values(self):
        words = np.array([0, 1, 0xFFFFFFFF, 0x80000001, 0x0F0F0F0F], dtype=np.uint32)
        assert popcount32(words).tolist() == [0, 1, 32, 2, 16]

    def test_preserves_shape(self):
        words = np.arange(24, dtype=np.uint32).reshape(2, 3, 4)
        assert popcount32(words).shape == (2, 3, 4)

    def test_signed_input_reinterpreted(self):
        words = np.array([-1], dtype=np.int32)  # 0xFFFFFFFF
        assert popcount32(words)[0] == 32

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            popcount32(np.array([1.5]))

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64)
    )
    @settings(max_examples=100)
    def test_matches_scalar_oracle(self, values):
        words = np.array(values, dtype=np.uint32)
        expected = [scalar_popcount(v) for v in values]
        assert popcount32(words).tolist() == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64)
    )
    @settings(max_examples=50)
    def test_lut_matches_hw(self, values):
        words = np.array(values, dtype=np.uint32)
        assert np.array_equal(popcount_lut(words), popcount32(words))


class TestPopcount64:
    def test_known_values(self):
        words = np.array([0, 0xFFFFFFFFFFFFFFFF, 1 << 63], dtype=np.uint64)
        assert popcount64(words).tolist() == [0, 64, 1]

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=32)
    )
    @settings(max_examples=50)
    def test_matches_scalar_oracle(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = [scalar_popcount(v) for v in values]
        assert popcount64(words).tolist() == expected

    def test_consistent_with_popcount32_pairs(self, rng):
        words32 = rng.integers(0, 2**32, size=16, dtype=np.uint32)
        words64 = np.ascontiguousarray(words32).view(np.uint64)
        assert popcount64(words64).sum() == popcount32(words32).sum()


class TestPopcountReduce:
    def test_reduces_last_axis(self, rng):
        words = rng.integers(0, 2**32, size=(5, 7), dtype=np.uint32)
        out = popcount_reduce(words)
        assert out.shape == (5,)
        assert np.array_equal(out, popcount32(words).sum(axis=-1))

    def test_reduce_none_keeps_shape(self, rng):
        words = rng.integers(0, 2**32, size=(3, 4), dtype=np.uint32)
        assert popcount_reduce(words, axis=None) == popcount32(words).sum()


def test_hardware_popcount_available():
    """NumPy >= 2.0 is installed offline, so the fast path must be active."""
    assert HAS_BITWISE_COUNT


@pytest.mark.skipif(not HAS_BITWISE_COUNT, reason="needs np.bitwise_count")
class TestPopcountSumColumns:
    """Short last axes are summed column by column; the counts must match
    the reduce (forced by a zero column bound) and the two-step form."""

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    @pytest.mark.parametrize("n_words", range(1, 41))
    def test_matches_reduce(self, rng, monkeypatch, dtype, n_words):
        rows = COLUMN_SUM_ROWS_PER_WORD * n_words + 3
        words = rng.integers(0, 2**63, size=(rows, n_words), dtype=np.uint64).astype(dtype)
        expected = popcount(words).sum(axis=-1)
        outputs = [
            popcount_sum(words),
            popcount_sum(words, scratch=np.empty(words.shape, np.uint8)),
        ]
        monkeypatch.setattr(popcount_module, "COLUMN_SUM_WORDS", 0)
        outputs.append(popcount_sum(words))
        for out in outputs:
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_other_axes_and_few_rows(self, rng, dtype):
        words = rng.integers(0, 2**63, size=(3, 5000, 4), dtype=np.uint64).astype(dtype)
        for axis in (0, 1, -1, 2):
            np.testing.assert_array_equal(
                popcount_sum(words, axis=axis), popcount(words).sum(axis=axis)
            )
        few = words[0, :7]  # below the rows-per-word floor: the reduce
        np.testing.assert_array_equal(popcount_sum(few), popcount(few).sum(axis=-1))
        np.testing.assert_array_equal(popcount_sum(words[0, 0]), popcount(words[0, 0]).sum())

    def test_column_path_taken_on_short_axes(self, rng, monkeypatch):
        words = rng.integers(0, 2**63, size=(4096, 4), dtype=np.uint64)
        adds = []
        real_add = np.add

        def counting_add(*args, **kwargs):
            adds.append(args[0].shape)
            return real_add(*args, **kwargs)

        monkeypatch.setattr(popcount_module.np, "add", counting_add)
        popcount_sum(words)
        assert adds == [(4096,)] * 3  # one add per word column after the first
        adds.clear()
        popcount_sum(rng.integers(0, 2**63, size=(4096, 32), dtype=np.uint64))
        assert adds == []  # a long axis keeps the reduce
