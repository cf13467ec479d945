"""Inclusion–exclusion split kernel: oracle tests of every execution branch.

The NumPy phenotype-split kernel popcounts only the ``2^k`` stored-plane
cells of a combination and derives each genotype-2 cell as
``c* - c0 - c1``, with the ``c*`` counts coming from per-row singles, the
batch's distinct lower-order sub-combinations and the padding mask.  These
tests pin it against :func:`repro.core.contingency.contingency_oracle_many`
on the paths that reach it:

* a direct call at orders 2-5;
* the word-slice branch of the blocked ``build_tables`` (``cpu-v3`` and
  ``cpu-v4``), forced with a small execution budget;
* fused tiles of one combination, forced with a small tile budget;
* whole-dataset planes of more than 70 000 SNP rows at ``k = 5``, where a
  positional sub-combination key (``n_snps^4``) would overflow ``int64``.

Both word layouts run, and the sample counts leave padding bits in the last
word of each class under either layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approaches import _fused, get_approach
from repro.core.approaches._kernels import split_class_counts
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.core.scoring import get_objective
from repro.datasets.binarization import PhenotypeSplitDataset
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


@pytest.mark.parametrize("words_per_pass", (1, 2))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ("cpu-v3", "cpu-v4"))
def test_blocked_word_slices_match_oracle(
    dataset, monkeypatch, name, order, layout, words_per_pass
):
    approach = get_approach(name, word_layout=layout)
    combos = _combos(dataset, order)
    itemsize = approach.word_layout.dtype().itemsize
    per_word = combos.shape[0] * 3 ** (order - 1) * itemsize
    monkeypatch.setattr(approach, "EXEC_GRID_BUDGET_BYTES", per_word * words_per_pass)
    encoded = approach.prepare(dataset)
    assert approach._exec_words_per_pass(combos.shape[0], order, itemsize) == (
        words_per_pass
    )
    assert encoded.split.control_planes.shape[2] > words_per_pass
    tables = approach.build_tables(encoded, combos)
    np.testing.assert_array_equal(tables, _oracle(dataset, combos))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ("cpu-v2", "cpu-v3", "cpu-v4"))
def test_single_combination_fused_tiles(dataset, monkeypatch, name, order, layout):
    monkeypatch.setattr(_fused, "TILE_GRID_BUDGET_BYTES", 1)
    assert _fused._tile_combos_for(order, 8, 8) == 1
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
