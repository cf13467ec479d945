"""Cross-cutting property-based tests (hypothesis).

These are the library's core invariants, checked on randomly generated
datasets rather than the fixed fixtures:

* every approach produces frequency tables identical to the oracle, for any
  dataset shape, phenotype balance and sample-count alignment;
* frequency tables always partition the samples (column sums = class sizes);
* binarisation/packing round-trips are lossless.

The ranking's invariance under every execution knob is the differential
oracle's (``tests/test_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approaches import get_approach, list_approaches
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle_many, validate_tables
from repro.core.scoring import K2Score
from repro.datasets.binarization import BinarizedDataset, PhenotypeSplitDataset
from repro.datasets.synthetic import SyntheticConfig, generate_dataset
from tests.strategies import genotype_datasets

# The tier-1 profile (conftest.py) gives these a fixed seed and no example
# database, so a failure seen once comes back.
COMMON_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestApproachOracleEquivalence:
    @pytest.mark.parametrize("name", list_approaches())
    @given(dataset=genotype_datasets())
    @COMMON_SETTINGS
    def test_tables_match_oracle(self, name, dataset):
        approach = get_approach(name)
        combos = generate_combinations(dataset.n_snps, 3)
        combos = combos[:: max(1, combos.shape[0] // 40)]
        tables = approach.build_tables(approach.prepare(dataset), combos)
        oracle = contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)
        assert np.array_equal(tables, oracle)

    @given(dataset=genotype_datasets())
    @COMMON_SETTINGS
    def test_tables_partition_samples(self, dataset):
        approach = get_approach("cpu-v2")
        combos = generate_combinations(dataset.n_snps, 3)[:40]
        tables = approach.build_tables(approach.prepare(dataset), combos)
        validate_tables(tables, dataset.n_controls, dataset.n_cases)

    @pytest.mark.parametrize("order", [2, 4, 5])
    @given(dataset=genotype_datasets(min_snps=5))
    @COMMON_SETTINGS
    def test_tables_match_oracle_other_orders(self, order, dataset):
        """The order-generic kernels stay bit-exact away from k = 3."""
        approach = get_approach("cpu-v4")
        combos = generate_combinations(dataset.n_snps, order)
        combos = combos[:: max(1, combos.shape[0] // 25)]
        tables = approach.build_tables(approach.prepare(dataset), combos)
        oracle = contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)
        assert np.array_equal(tables, oracle)
        validate_tables(tables, dataset.n_controls, dataset.n_cases)


class TestEncodingProperties:
    @given(dataset=genotype_datasets())
    @COMMON_SETTINGS
    def test_binarized_encoding_is_lossless(self, dataset):
        enc = BinarizedDataset.from_dataset(dataset)
        enc.validate()
        from repro.bitops.packing import unpack_bits

        reconstructed = np.zeros_like(dataset.genotypes)
        for snp in range(dataset.n_snps):
            for g in (1, 2):
                bits = unpack_bits(enc.planes[snp, g], dataset.n_samples)
                reconstructed[snp, bits] = g
        assert np.array_equal(reconstructed, dataset.genotypes)

    @given(dataset=genotype_datasets())
    @COMMON_SETTINGS
    def test_split_encoding_preserves_class_sizes(self, dataset):
        split = PhenotypeSplitDataset.from_dataset(dataset)
        split.validate()
        assert split.n_controls == dataset.n_controls
        assert split.n_cases == dataset.n_cases
        # The 1/3 traffic saving holds once both classes amortise the padding
        # of their last word; for tiny, very unbalanced classes the padding
        # can dominate, so the saving is only asserted in that regime.
        if min(split.n_controls, split.n_cases) >= 32:
            assert split.memory_reduction_vs_naive() > 0


class TestScoringProperties:
    @given(
        tables=st.lists(
            st.lists(
                st.tuples(st.integers(0, 500), st.integers(0, 500)),
                min_size=27,
                max_size=27,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @COMMON_SETTINGS
    def test_k2_finite_and_permutation_invariant(self, tables):
        arr = np.array(tables, dtype=np.float64)
        k2 = K2Score()
        scores = k2.score(arr)
        assert np.isfinite(scores).all()
        # K2 sums independent per-row terms, so it is invariant to the order
        # of the genotype-combination rows.
        rng = np.random.default_rng(0)
        permuted = arr[:, rng.permutation(27), :]
        assert np.allclose(k2.score(permuted), scores)

    @given(
        counts=st.lists(st.integers(0, 300), min_size=27, max_size=27),
        swap=st.booleans(),
    )
    @COMMON_SETTINGS
    def test_k2_symmetric_in_phenotype_classes(self, counts, swap):
        table = np.zeros((27, 2))
        table[:, 0] = counts
        table[:, 1] = counts[::-1]
        swapped = table[:, ::-1]
        k2 = K2Score()
        assert k2.score(table[None])[0] == pytest.approx(k2.score(swapped[None])[0])


class TestSyntheticProperties:
    @given(
        n_samples=st.integers(min_value=8, max_value=400),
        case_fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @COMMON_SETTINGS
    def test_balanced_generation_hits_target_exactly(self, n_samples, case_fraction, seed):
        ds = generate_dataset(
            SyntheticConfig(
                n_snps=4, n_samples=n_samples, case_fraction=case_fraction, seed=seed
            )
        )
        assert ds.n_cases == int(round(case_fraction * n_samples))


class TestTopKPrefilter:
    """``TopKHeap.push_batch`` selects each batch's top-k among the rows
    scoring at or below its k-th score; the heap must equal the one a full
    lexsort of every batch builds, ties, NaN and signed zeros included."""

    @staticmethod
    def _full_sort_heap(k, batches):
        import heapq

        from repro.core.result import Interaction

        items = []
        for combos, scores in batches:
            keys = tuple(combos[:, col] for col in range(combos.shape[1] - 1, -1, -1))
            order = np.lexsort(keys + (scores,))[:k]
            candidates = [
                Interaction(snps=tuple(int(s) for s in combos[i]), score=float(scores[i]))
                for i in order
            ]
            items = heapq.nsmallest(k, items + candidates)
        return items

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 8),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 30),
                    st.sampled_from([-1.5, -0.0, 0.0, 0.0, 2.0, 2.0, float("nan")]),
                ),
                min_size=1,
                max_size=40,
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_matches_full_lexsort(self, k, batches):
        from repro.engine.worker import TopKHeap

        arrays = []
        for batch in batches:
            firsts = np.array([first for first, _ in batch], dtype=np.int64)
            combos = np.stack([firsts, firsts + np.arange(1, len(batch) + 1)], axis=1)
            arrays.append((combos, np.array([score for _, score in batch])))
        heap = TopKHeap(k)
        for combos, scores in arrays:
            heap.push_batch(combos, scores)

        def key(items):
            return [(item.snps, float(item.score).hex()) for item in items]

        assert key(heap.items) == key(self._full_sort_heap(k, arrays))
