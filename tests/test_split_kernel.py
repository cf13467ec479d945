"""NumPy kernels: oracle tests of every execution branch and the workspace.

The NumPy phenotype-split kernel popcounts only the stored-plane cells of
each sub-combination and derives each genotype-2 cell as
``c* - c0 - c1``.  Its prefixes come from a lattice over runs of
consecutive combinations sharing them, its other pairs from the
encoding's per-class pair table (the pairs the table lacks are counted
and stored), and its other sub-combinations from a per-piece dedup.
These tests pin it against
:func:`repro.core.contingency.contingency_oracle_many` on the paths that
reach it:

* a direct call at orders 2-5, with and without a pair table;
* shuffled combinations, whose prefix runs have length 1 (scattered
  candidate-source combinations through the engine are drawn by
  ``tests/test_oracle.py``);
* calls beyond the kernel budget, which both kernels cut into pieces of
  fewer combinations and, below one combination's words, word slices;
* the word slices of the blocked ``build_tables`` (``cpu-v3`` and
  ``cpu-v4``), forced with a small kernel budget, and a pair table held
  full by the same budget, which then neither grows nor copies itself;
* fused tiles of one combination, forced with a one-byte kernel budget;
* whole-dataset planes of more than 70 000 SNP rows at ``k = 5``, where a
  positional sub-combination key (``n_snps^4``) would overflow ``int64``;
* searches that share one encoding: a second search counts no pair, and
  four engine threads filling one table match a single thread bit for bit;
  several cached encodings each fill their own tables.

The pair table itself adds rows first come within its byte bound and,
once full, still stores the pairs of its rows; a piece counts the singles
of the SNP rows it uses only.

Both kernels (split and naïve) carve their temporaries from one per-thread
workspace; the remaining tests pin its contract: reuse across growing and
shrinking batches, results that never alias it, concurrent threads,
``IndexError`` on an out-of-range SNP, a footprint within the budget after
calls (prefix runs of any length, table fills) and unfused searches of any
size, and no page faults in steady state.

Both word layouts run, and the sample counts leave padding bits in the last
word of each class under either layout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import EpistasisDetector
from repro.core.approaches import _kernels, get_approach
from repro.core.approaches._kernels import naive_tables, split_class_counts
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.core.encoding_cache import ENCODING_CACHE, encoding_cache_key
from repro.core.scoring import get_objective
from repro.datasets import SyntheticConfig, generate_dataset
from repro.datasets.binarization import BinarizedDataset, PairTable, PhenotypeSplitDataset
from repro.datasets.dataset import GenotypeDataset

ORDERS = (2, 3, 4, 5)
LAYOUTS = ("u32", "u64")
#: Controls and cases: neither is a multiple of 32, and the controls span
#: more than two u64 words, so two-word slices leave a partial last slice.
N_CONTROLS, N_CASES = 229, 166


@pytest.fixture(scope="module")
def dataset() -> GenotypeDataset:
    rng = np.random.default_rng(13)
    n_samples = N_CONTROLS + N_CASES
    phenotypes = np.zeros(n_samples, dtype=np.int8)
    phenotypes[rng.choice(n_samples, N_CASES, replace=False)] = 1
    genotypes = rng.choice(3, size=(12, n_samples), p=[0.5, 0.3, 0.2])
    assert N_CONTROLS % 32 and N_CASES % 32  # padding under u32 and u64
    return GenotypeDataset(genotypes=genotypes, phenotypes=phenotypes)


def _oracle(dataset, combos):
    return contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)


def _combos(dataset, order):
    return generate_combinations(dataset.n_snps, order)[::3]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_direct_call_matches_oracle(dataset, order, layout):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    combos = _combos(dataset, order)
    expected = _oracle(dataset, combos)
    for phenotype_class in (0, 1):
        planes, _ = split.planes_for_class(phenotype_class)
        mask = split.padding_mask(phenotype_class)
        counts = split_class_counts(planes, mask, combos)
        np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])
        assert split_class_counts(planes, mask, combos[:0]).shape == (0, 3**order)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_direct_call_with_a_pair_table_matches_oracle(dataset, order, layout):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    combos = _combos(dataset, order)
    expected = _oracle(dataset, combos)
    for phenotype_class in (0, 1):
        planes, _ = split.planes_for_class(phenotype_class)
        mask = split.padding_mask(phenotype_class)
        table = split.pair_table(phenotype_class)
        for _ in range(2):  # the second call reads every pair from the table
            counts = split_class_counts(planes, mask, combos, table)
            np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])
        assert split_class_counts(planes, mask, combos[:0], table).shape == (0, 3**order)
        n_pairs = dataset.n_snps * (dataset.n_snps - 1) // 2
        assert 0 < len(table) < n_pairs if order > 2 else len(table) == 0


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_shuffled_combos_match_oracle(dataset, order, layout):
    # Out of rank order, most rows start a new prefix run.
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    combos = np.random.default_rng(order).permutation(
        generate_combinations(dataset.n_snps, order)
    )
    assert (combos[1:, : order - 1] != combos[:-1, : order - 1]).any(axis=1).mean() > 0.75
    expected = _oracle(dataset, combos)
    for phenotype_class in (0, 1):
        planes, _ = split.planes_for_class(phenotype_class)
        counts = split_class_counts(
            planes,
            split.padding_mask(phenotype_class),
            combos,
            split.pair_table(phenotype_class),
        )
        np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])


@pytest.mark.parametrize("pass_words", (1, 2))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ("cpu-v3", "cpu-v4"))
def test_blocked_word_slices_match_oracle(
    dataset, monkeypatch, name, order, layout, pass_words
):
    # A budget below one combination over every word: the kernel runs the
    # blocked build in one-combination pieces of ``pass_words`` words.
    approach = get_approach(name, word_layout=layout)
    combos = _combos(dataset, order)[:40]
    itemsize = approach.word_layout.dtype().itemsize
    per_word = _kernels.combo_word_bytes(order, itemsize)
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", per_word * pass_words)
    encoded = approach.prepare(dataset)
    n_words = encoded.split.control_planes.shape[2]
    assert n_words > pass_words
    assert _kernels.combos_per_tile(order, n_words, itemsize) == 1
    assert _kernels.words_per_pass(order, 1, itemsize) == pass_words
    tables = approach.build_tables(encoded, combos)
    np.testing.assert_array_equal(tables, _oracle(dataset, combos))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", (3, 4, 5))
def test_full_pair_table_and_word_slices_match_oracle(
    dataset, monkeypatch, order, layout
):
    # Six SNP rows and a budget whose half holds one row of the table: the
    # first call adds SNP 0's row, and later calls find the table full.
    # They neither grow nor copy it, read SNP 0's pairs from it and count
    # the others on every call; every piece is one combination over one word.
    n_rows = 6
    one_row = 4 * n_rows + 17 * n_rows  # the row index and one row
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", 2 * one_row)
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    assert _kernels.words_per_pass(order, 1, split.control_planes.dtype.itemsize) == 1
    combos = generate_combinations(n_rows, order)
    expected = _oracle(dataset, combos)
    for phenotype_class in (0, 1):
        planes = split.planes_for_class(phenotype_class)[0][:n_rows]
        mask = split.padding_mask(phenotype_class)
        table = PairTable(planes)
        counts = split_class_counts(planes, mask, combos, table)
        np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])
        state, held = table._state, len(table)
        assert table.nbytes == one_row and held == n_rows - 2
        for _ in range(2):
            counts = split_class_counts(planes, mask, combos, table)
            np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])
        assert table._state is state and len(table) == held


def test_pair_table_keeps_the_rows_that_fit():
    # Rows are added first come, smallest SNP first within a store, up to
    # the bound; a full table still stores the pairs of its rows, in place.
    rng = np.random.default_rng(7)
    n_snps, bound = 50, 4 * 50 + 3 * 17 * 50  # the row index and three rows
    table = PairTable(np.zeros((n_snps, 2, 1), dtype=np.uint64))
    rows, expected = [], {}
    for _ in range(4):
        pairs = np.stack(np.divmod(rng.choice(n_snps**2, 60, replace=False), n_snps), axis=1)
        counts = rng.integers(0, 1000, size=(60, 4))
        rows += sorted(set(pairs[:, 0].tolist()) - set(rows))[: 3 - len(rows)]
        for pair, count in zip(map(tuple, pairs.tolist()), counts):
            if pair[0] in rows:
                expected[pair] = count
        table.store(pairs, counts, bound)
    assert table.nbytes == bound and len(table) == len(expected)
    held = sorted(expected)
    values, hit = table.lookup(np.array(held))
    assert hit.all()
    np.testing.assert_array_equal(values, [expected[pair] for pair in held])
    absent = [(x, y) for x in (rows[0], max(rows) + 1) for y in range(n_snps)]
    absent = np.array([pair for pair in absent if pair not in expected])
    assert not table.lookup(absent)[1].any()


def test_tables_of_other_planes_are_not_used(dataset):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout="u64")
    combos = _combos(dataset, 3)
    expected = _oracle(dataset, combos)
    cases = split.pair_table(1)
    counts = split_class_counts(split.control_planes, split.padding_mask(0), combos, cases)
    np.testing.assert_array_equal(counts, expected[:, :, 0])
    assert len(cases) == 0


@pytest.mark.parametrize("fused", ("on", "off"))
@pytest.mark.parametrize("order", (3, 4, 5))
def test_a_second_search_counts_no_new_pair(monkeypatch, order, fused):
    # A fresh encoding counts each pair its search needs once per class,
    # across tiles; a second search on it reads every pair from the table.
    seed = 2 * order + (fused == "on")  # a fresh encoding per case
    dataset = generate_dataset(SyntheticConfig(n_snps=11, n_samples=300, seed=seed))
    counted = []
    piece = _kernels._pair_piece

    def counting_piece(planes, mask, pairs):
        counted.extend(map(tuple, pairs.tolist()))
        return piece(planes, mask, pairs)

    monkeypatch.setattr(_kernels, "_pair_piece", counting_piece)
    itemsize = get_approach("cpu-v4").word_layout.dtype().itemsize
    monkeypatch.setattr(  # tiles and pieces of at most 20 combinations
        _kernels, "KERNEL_BUDGET_BYTES", 20 * _kernels.combo_word_bytes(order, itemsize) * 3
    )
    detector = EpistasisDetector(approach="cpu-v4", order=order, fused=fused, top_k=5)
    first = detector.detect(dataset)
    # Every pair but (0, 1), which is only ever a prefix, per class.
    assert len(counted) == 2 * (11 * 10 // 2 - 1)
    assert len(set(counted)) == len(counted) // 2
    counted.clear()
    second = detector.detect(dataset)
    assert counted == []
    assert [(i.snps, i.score) for i in second.top] == [(i.snps, i.score) for i in first.top]


@pytest.mark.parametrize("order", (3, 4))
def test_threads_sharing_one_encoding_match_one_thread(order):
    # Four engine threads fill one encoding's tables concurrently; cpu-v2
    # keys its own encoding, whose tables one thread fills.
    dataset = generate_dataset(SyntheticConfig(n_snps=16, n_samples=700, seed=40 + order))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = EpistasisDetector(
            approach="cpu-v4", order=order, n_workers=4, chunk_size=64, top_k=10
        ).detect(dataset)
    finally:
        sys.setswitchinterval(interval)
    single = EpistasisDetector(
        approach="cpu-v2", order=order, n_workers=1, top_k=10
    ).detect(dataset)
    assert [(i.snps, i.score) for i in threaded.top] == [
        (i.snps, i.score) for i in single.top
    ]


def test_cached_encodings_fill_their_own_tables(monkeypatch):
    # Each split encoding the cache keeps fills its own two tables up to
    # half the budget each: the tables are bounded per encoding, and the
    # cache bounds how many encodings a process keeps.
    budget = 8 << 10
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", budget)
    datasets = [
        generate_dataset(SyntheticConfig(n_snps=24, n_samples=300, seed=seed))
        for seed in (61, 62, 63)
    ]
    approach = get_approach("cpu-v4")
    ENCODING_CACHE.clear()
    try:
        for data in datasets:
            blocked = EpistasisDetector(approach="cpu-v4", order=3, top_k=5).detect(data)
            naive = EpistasisDetector(approach="cpu-v1", order=3, top_k=5).detect(data)
            assert [(i.snps, i.score) for i in blocked.top] == [
                (i.snps, i.score) for i in naive.top
            ]
        assert len(ENCODING_CACHE) == 2 * len(datasets) <= ENCODING_CACHE.max_entries
        for data in datasets:
            encoded = ENCODING_CACHE.get_or_build(
                encoding_cache_key(data, approach), lambda: pytest.fail("evicted")
            )
            for phenotype_class in (0, 1):
                # No room for another row of 17 bytes per SNP.
                table = encoded.split.pair_table(phenotype_class)
                assert table.nbytes <= budget // 2 < table.nbytes + 17 * data.n_snps
    finally:
        ENCODING_CACHE.clear()


def test_pieces_count_singles_of_the_rows_they_use(dataset, monkeypatch):
    # A rank slice of an encoding popcounts the planes of its own rows only.
    split = PhenotypeSplitDataset.from_dataset(dataset, layout="u64")
    popcounted = []
    popcount = _kernels._popcount

    def counting_popcount(ws, words):
        popcounted.append(words.shape[:-1])
        return popcount(ws, words)

    monkeypatch.setattr(_kernels, "_popcount", counting_popcount)
    combos = generate_combinations(dataset.n_snps, 3)[:5]  # SNP rows 0 to 6
    counts = split_class_counts(split.control_planes, split.padding_mask(0), combos)
    np.testing.assert_array_equal(counts, _oracle(dataset, combos)[:, :, 0])
    assert popcounted == [(2, 7)]


@pytest.mark.parametrize("words", (2, None))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_calls_beyond_the_budget_are_cut_into_pieces(
    dataset, monkeypatch, order, layout, words
):
    # ``words=None``: five combinations over every word per piece; ``2``:
    # one combination over two words, the word slices of a call too wide
    # for a single combination.
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    planes, phenotype_words = _naive_planes(dataset, layout)
    itemsize = planes.dtype.itemsize
    per_word = _kernels.combo_word_bytes(order, itemsize)
    n_words = planes.shape[2]
    budget = per_word * (2 if words else 5 * n_words)
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", budget)
    assert _kernels.combos_per_tile(order, n_words, itemsize) == (1 if words else 5)
    combos = _combos(dataset, order)[: 40 if words else None]
    expected = _oracle(dataset, combos)
    np.testing.assert_array_equal(
        naive_tables(planes, phenotype_words, combos), expected
    )
    for phenotype_class in (0, 1):
        class_planes, _ = split.planes_for_class(phenotype_class)
        counts = split_class_counts(
            class_planes, split.padding_mask(phenotype_class), combos
        )
        np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ("cpu-v2", "cpu-v3", "cpu-v4"))
def test_single_combination_fused_tiles(dataset, monkeypatch, name, order, layout):
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", 1)
    assert _kernels.combos_per_tile(order, 8, 8) == 1
    approach = get_approach(name, word_layout=layout)
    objective = get_objective("k2")
    objective.prepare(dataset)
    combos = _combos(dataset, order)[:40]
    scores = approach.score_combinations(approach.prepare(dataset), combos, objective)
    expected = objective.score(_oracle(dataset, combos))
    np.testing.assert_array_equal(scores, expected)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_k5_on_planes_beyond_70k_rows(dataset, layout):
    # The dataset's SNPs sit at the top of a 70 001-row plane array (the
    # other rows are all-zero planes, a valid encoding of genotype 2), so
    # combination indices near 70 000 reach every sub-combination level.
    n_rows = 70_001
    rows = np.arange(n_rows - 3 * dataset.n_snps, n_rows, 3)
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    combos = _combos(dataset, 5)
    expected = _oracle(dataset, combos)
    for phenotype_class in (0, 1):
        planes, _ = split.planes_for_class(phenotype_class)
        wide = np.zeros((n_rows,) + planes.shape[1:], dtype=planes.dtype)
        wide[rows] = planes
        counts = split_class_counts(
            wide, split.padding_mask(phenotype_class), rows[combos]
        )
        np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])


# -- the kernel workspace ---------------------------------------------------


def _naive_planes(dataset, layout):
    encoded = BinarizedDataset.from_dataset(dataset, layout=layout)
    return encoded.planes, encoded.phenotype_words


def _in_fresh_thread(body):
    """Run ``body`` on a new thread, whose workspace starts empty."""
    outcome = {}

    def run():
        try:
            outcome["value"] = body()
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_workspace_reused_as_batches_grow_and_shrink(dataset, order, layout):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    planes, phenotype_words = _naive_planes(dataset, layout)
    everything = generate_combinations(dataset.n_snps, order)

    def body():
        for stop in (3, 40, everything.shape[0], 11, 1):
            combos = everything[:stop]
            expected = _oracle(dataset, combos)
            tables = naive_tables(planes, phenotype_words, combos)
            np.testing.assert_array_equal(tables, expected)
            for phenotype_class in (0, 1):
                class_planes, _ = split.planes_for_class(phenotype_class)
                counts = split_class_counts(
                    class_planes, split.padding_mask(phenotype_class), combos
                )
                np.testing.assert_array_equal(counts, expected[:, :, phenotype_class])

    _in_fresh_thread(body)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_results_never_alias_the_workspace(dataset, layout):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    planes, phenotype_words = _naive_planes(dataset, layout)
    mask = split.padding_mask(0)
    first, second = _combos(dataset, 3)[:60], _combos(dataset, 3)[60:]

    counts = split_class_counts(split.control_planes, mask, first)
    tables = naive_tables(planes, phenotype_words, first)
    kept = counts.copy(), tables.copy()
    split_class_counts(split.control_planes, mask, second)
    naive_tables(planes, phenotype_words, second)
    np.testing.assert_array_equal(counts, kept[0])
    np.testing.assert_array_equal(tables, kept[1])
    for result in (counts, tables):
        assert not np.may_share_memory(result, _kernels._WORKSPACE.buffer)


def test_concurrent_threads_stay_oracle_exact(dataset):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout="u64")
    planes, phenotype_words = _naive_planes(dataset, "u64")
    jobs = [
        (order, generate_combinations(dataset.n_snps, order)[offset::4])
        for offset, order in enumerate((2, 3, 4, 5))
    ]
    expected = [_oracle(dataset, combos) for _, combos in jobs]

    def run(job):
        _, combos = job
        results = []
        for _ in range(5):
            tables = naive_tables(planes, phenotype_words, combos)
            counts = [
                split_class_counts(
                    split.planes_for_class(c)[0], split.padding_mask(c), combos
                )
                for c in (0, 1)
            ]
            results.append((tables, np.stack(counts, axis=-1)))
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            outcomes = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for results, reference in zip(outcomes, expected):
        for tables, counts in results:
            np.testing.assert_array_equal(tables, reference)
            np.testing.assert_array_equal(counts, reference)


def test_concurrent_threads_sharing_pair_tables_stay_oracle_exact(dataset):
    # Jobs of every order look up and store pairs in the same two tables.
    split = PhenotypeSplitDataset.from_dataset(dataset, layout="u64")
    jobs = [
        generate_combinations(dataset.n_snps, order)[offset::4]
        for offset, order in enumerate((2, 3, 4, 5))
    ]
    expected = [_oracle(dataset, combos) for combos in jobs]

    def run(combos):
        return [
            np.stack(
                [
                    split_class_counts(
                        split.planes_for_class(c)[0],
                        split.padding_mask(c),
                        combos,
                        split.pair_table(c),
                    )
                    for c in (0, 1)
                ],
                axis=-1,
            )
            for _ in range(5)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, combos) for combos in jobs]
            outcomes = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for results, reference in zip(outcomes, expected):
        for counts in results:
            np.testing.assert_array_equal(counts, reference)


@pytest.mark.parametrize("bad", ([[0, 1, 12]], [[-1, 3, 4]]))
def test_out_of_range_snp_raises_index_error(dataset, bad):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout="u64")
    planes, phenotype_words = _naive_planes(dataset, "u64")
    combos = np.array(bad)
    with pytest.raises(IndexError):
        split_class_counts(split.control_planes, split.padding_mask(0), combos)
    with pytest.raises(IndexError):  # a word slice takes the gather branch
        split_class_counts(
            split.control_planes[:, :, :2], split.padding_mask(0)[:2], combos
        )
    with pytest.raises(IndexError):
        naive_tables(planes, phenotype_words, combos)


#: The workspace bound of the kernel docstring: 9/8 of the budget plus 4 KiB.
def _workspace_limit(budget):
    return budget * 9 // 8 + 4096


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_calls_of_any_size_stay_within_the_budget(monkeypatch, order, layout):
    # Whole batches over every word, and batches of combinations each too
    # wide for the budget: the kernels cut both into pieces that stay
    # within the bound.  Disjoint combinations share no sub-combination,
    # the split kernel's largest footprint.
    budget, n_snps = 128 << 10, 1000
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", budget)
    rng = np.random.default_rng(order)
    genotypes = rng.choice(3, size=(n_snps, 700), p=[0.5, 0.3, 0.2])
    phenotypes = (rng.random(700) < 0.5).astype(np.int8)
    wide = GenotypeDataset(genotypes=genotypes, phenotypes=phenotypes)
    split = PhenotypeSplitDataset.from_dataset(wide, layout=layout)
    planes, phenotype_words = _naive_planes(wide, layout)
    rows = rng.permutation(n_snps)[: n_snps // order * order]
    combos = np.sort(rows.reshape(-1, order), axis=1)
    limit = _workspace_limit(budget)

    def body():
        naive_tables(planes, phenotype_words, combos)
        assert 0 < _kernels._WORKSPACE.buffer.size <= limit
        split_class_counts(split.control_planes, split.padding_mask(0), combos)
        assert _kernels._WORKSPACE.buffer.size <= limit
        # Below one combination's words: one-combination word slices.
        narrow = _kernels.combo_word_bytes(order, planes.dtype.itemsize) * 3
        monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", narrow)
        naive_tables(planes, phenotype_words, combos[:20])
        split_class_counts(split.control_planes, split.padding_mask(0), combos[:20])
        assert _kernels._WORKSPACE.buffer.size <= limit

    _in_fresh_thread(body)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
def test_prefix_runs_and_table_fills_stay_within_the_budget(monkeypatch, order, layout):
    # Rank-ordered batches share long prefix runs and fill a pair table;
    # whole batches, and one-combination word slices below one
    # combination's words, stay within the bound too.
    budget = 128 << 10
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", budget)
    rng = np.random.default_rng(order)
    genotypes = rng.choice(3, size=(40, 700), p=[0.5, 0.3, 0.2])
    phenotypes = (rng.random(700) < 0.5).astype(np.int8)
    split = PhenotypeSplitDataset.from_dataset(
        GenotypeDataset(genotypes=genotypes, phenotypes=phenotypes), layout=layout
    )
    ranked = generate_combinations(40, order)[:4000]
    table = split.pair_table(0)
    limit = _workspace_limit(budget)

    def body():
        split_class_counts(split.control_planes, split.padding_mask(0), ranked, table)
        assert 0 < _kernels._WORKSPACE.buffer.size <= limit
        assert 0 < len(table) <= 40 * 39 // 2 if order > 2 else len(table) == 0
        narrow = _kernels.combo_word_bytes(order, split.control_planes.dtype.itemsize) * 3
        monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", narrow)
        split_class_counts(split.control_planes, split.padding_mask(0), ranked[:20], table)
        assert _kernels._WORKSPACE.buffer.size <= limit

    _in_fresh_thread(body)


@pytest.mark.parametrize(
    "name", ("cpu-v1", "cpu-v2", "cpu-v3", "cpu-v4", "gpu-v1", "gpu-v2")
)
def test_unfused_searches_keep_the_workspace_within_the_budget(monkeypatch, name):
    # An unfused search hands the kernels whole chunks (a single-lane
    # detect() runs on the calling thread); the workspace it leaves behind
    # stays within the budget's bound.
    budget = 256 << 10
    monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", budget)
    dataset = generate_dataset(SyntheticConfig(n_snps=24, n_samples=4096, seed=4))
    detector = EpistasisDetector(
        order=3, approach=name, fused="off", chunk_size=2048, top_k=3
    )

    def body():
        detector.detect(dataset)
        return _kernels._WORKSPACE.buffer.size

    assert 0 < _in_fresh_thread(body) <= _workspace_limit(budget)


_FAULT_PROBE = """
import resource
import numpy as np
from repro.core.approaches._kernels import naive_tables, split_class_counts
from repro.core.combinations import generate_combinations
from repro.datasets.binarization import BinarizedDataset, PhenotypeSplitDataset
from repro.datasets.dataset import GenotypeDataset

rng = np.random.default_rng(5)
n_samples = 16384
dataset = GenotypeDataset(
    genotypes=rng.choice(3, size=(24, n_samples), p=[0.5, 0.3, 0.2]),
    phenotypes=(rng.random(n_samples) < 0.5).astype(np.int8),
)
split = PhenotypeSplitDataset.from_dataset(dataset, layout="u64")
naive = BinarizedDataset.from_dataset(dataset, layout="u64")
combos = generate_combinations(dataset.n_snps, 3)


def faults(call):
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


mask = split.padding_mask(0)
print(faults(lambda: split_class_counts(split.control_planes, mask, combos[:512])))
print(faults(lambda: naive_tables(naive.planes, naive.phenotype_words, combos[:256])))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc tunable")
def test_steady_state_calls_do_not_page_fault():
    # MALLOC_MMAP_THRESHOLD_ fixes glibc's mmap threshold at 128 KiB, so
    # every freed block that large is unmapped whatever the heap's history:
    # a kernel allocating its temporaries per call faults them in afresh.
    # Fixing it also pins the heap-trim threshold at 128 KiB, where freeing
    # the call's smaller blocks (its result among them) trims the heap top
    # or not depending on the heap's layout; a fixed, large trim threshold
    # takes that out, so only blocks of 128 KiB and more can fault.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(
        os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_="1073741824"
    )
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    split_faults, naive_faults = (int(line) for line in probe.stdout.split())
    assert split_faults <= 64
    assert naive_faults <= 64
