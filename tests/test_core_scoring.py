"""Tests of the objective functions (K2 score and extensions)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.contingency import contingency_oracle
from repro.core.scoring import (
    OBJECTIVES,
    ChiSquaredScore,
    GiniScore,
    K2Score,
    MutualInformationScore,
    get_objective,
)


def k2_reference(table: np.ndarray) -> float:
    """Literal transcription of Equation 1 (log-sum form) for small tables."""
    total = 0.0
    for row in table:
        r_i = int(row.sum())
        first = sum(math.log(b) for b in range(1, r_i + 2))
        second = sum(
            math.log(d) for r_ij in row for d in range(1, int(r_ij) + 1)
        )
        total += first - second
    return total


class TestK2Score:
    def test_matches_equation1_literal(self, rng):
        tables = rng.integers(0, 50, size=(8, 27, 2))
        scores = K2Score().score(tables)
        for i in range(8):
            assert scores[i] == pytest.approx(k2_reference(tables[i]), rel=1e-12)

    def test_empty_table_scores_zero_contribution(self):
        table = np.zeros((1, 27, 2))
        # Every row contributes gammaln(2) = log(1!) = 0.
        assert K2Score().score(table)[0] == pytest.approx(0.0)

    def test_perfect_separation_scores_lower(self):
        """A table that splits cases/controls perfectly beats a mixed one."""
        separated = np.zeros((27, 2))
        separated[0] = [40, 0]
        separated[1] = [0, 40]
        mixed = np.zeros((27, 2))
        mixed[0] = [20, 20]
        mixed[1] = [20, 20]
        k2 = K2Score()
        assert k2.score(separated[None])[0] < k2.score(mixed[None])[0]

    def test_batch_shapes(self, rng):
        tables = rng.integers(0, 10, size=(4, 5, 27, 2))
        assert K2Score().score(tables).shape == (4, 5)

    @pytest.mark.parametrize("n_cells", [9, 27, 81, 243])
    def test_any_cell_count(self, rng, n_cells):
        """Objectives consume flat (..., 3^k, 2) tables for every order k."""
        tables = rng.integers(0, 10, size=(6, n_cells, 2))
        for objective in (K2Score(), MutualInformationScore(), GiniScore(), ChiSquaredScore()):
            scores = objective.score(tables)
            assert scores.shape == (6,)
            assert np.isfinite(scores).all()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            K2Score().score(np.full((1, 27, 2), -1.0))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            K2Score().score(np.zeros((27, 3)))

    def test_planted_interaction_scores_best(self, planted_dataset):
        """On the planted dataset the true triplet beats random triplets."""
        from tests.conftest import PLANTED_TRIPLET

        k2 = K2Score()
        true_table = contingency_oracle(
            planted_dataset.genotypes, planted_dataset.phenotypes, PLANTED_TRIPLET
        )
        true_score = k2.score(true_table[None])[0]
        rng = np.random.default_rng(0)
        worse = 0
        for _ in range(30):
            combo = tuple(sorted(rng.choice(planted_dataset.n_snps, 3, replace=False)))
            if combo == PLANTED_TRIPLET:
                continue
            table = contingency_oracle(
                planted_dataset.genotypes, planted_dataset.phenotypes, combo
            )
            if k2.score(table[None])[0] > true_score:
                worse += 1
        assert worse >= 28  # essentially all random triplets score worse

    @given(
        hnp.arrays(
            np.int64,
            (27, 2),
            elements=st.integers(min_value=0, max_value=1000),
        )
    )
    @settings(max_examples=50)
    def test_always_finite(self, table):
        score = K2Score().score(table[None])[0]
        assert np.isfinite(score)


class TestOtherObjectives:
    @pytest.fixture()
    def strong_and_weak(self, planted_dataset):
        from tests.conftest import PLANTED_TRIPLET

        strong = contingency_oracle(
            planted_dataset.genotypes, planted_dataset.phenotypes, PLANTED_TRIPLET
        )
        weak = contingency_oracle(
            planted_dataset.genotypes, planted_dataset.phenotypes, (0, 1, 2)
        )
        return strong[None], weak[None]

    @pytest.mark.parametrize("name", ["mutual-information", "gini", "chi2"])
    def test_lower_is_better_convention(self, name, strong_and_weak):
        strong, weak = strong_and_weak
        objective = get_objective(name)
        assert objective.score(strong)[0] < objective.score(weak)[0]

    def test_mutual_information_zero_for_independent(self):
        table = np.full((27, 2), 10.0)
        assert MutualInformationScore().score(table[None])[0] == pytest.approx(0.0, abs=1e-9)

    def test_gini_bounds(self, rng):
        tables = rng.integers(0, 100, size=(16, 27, 2))
        scores = GiniScore().score(tables)
        assert ((scores >= 0) & (scores <= 0.5 + 1e-12)).all()

    def test_chi2_zero_for_independent(self):
        table = np.full((27, 2), 7.0)
        assert ChiSquaredScore().score(table[None])[0] == pytest.approx(0.0, abs=1e-9)

    def test_all_objectives_handle_empty_cells(self, rng):
        tables = rng.integers(0, 3, size=(10, 27, 2))  # many zero cells
        for cls in OBJECTIVES.values():
            scores = cls().score(tables)
            assert np.isfinite(scores).all()


class TestRegistry:
    def test_get_by_name(self):
        assert isinstance(get_objective("k2"), K2Score)
        assert isinstance(get_objective("K2"), K2Score)
        assert isinstance(get_objective("gini"), GiniScore)

    def test_passthrough_instance(self):
        inst = K2Score()
        assert get_objective(inst) is inst

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_objective("bic")

    def test_callable_protocol(self, rng):
        tables = rng.integers(0, 5, size=(3, 27, 2))
        k2 = K2Score()
        assert np.array_equal(k2(tables), k2.score(tables))


class _Samples:
    """Stand-in dataset for ``K2Score.prepare``: only the sample count matters."""

    def __init__(self, n_samples: int) -> None:
        self.n_samples = n_samples


def _k2_class_reduce(logfact: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The K2 table path as it was: sums over the length-2 class axis."""
    totals = tables.sum(axis=-1)
    return (logfact[totals + 1] - logfact[tables].sum(axis=-1)).sum(axis=-1)


def _count_tables(rng, kind: str, n: int, cells: int, n_samples: int) -> np.ndarray:
    """``(n, cells, 2)`` tables of ``n_samples`` samples each: random, all
    zero, or every sample of each class in one cell (the table's largest
    counts)."""
    if kind == "zero":
        return np.zeros((n, cells, 2), dtype=np.int64)
    tables = np.zeros((n, cells, 2), dtype=np.int64)
    if kind == "full":
        tables[:, rng.integers(0, cells), 0] = n_samples // 2
        tables[:, rng.integers(0, cells), 1] = n_samples - n_samples // 2
        return tables
    for column, size in ((0, n_samples // 2), (1, n_samples - n_samples // 2)):
        cell = rng.integers(0, cells, size=(n, size))
        for row in range(n):
            tables[row, :, column] = np.bincount(cell[row], minlength=cells)
    return tables


class TestK2ColumnSum:
    """K2 adds the two class columns instead of reducing over them, in row
    blocks; every score bit must match the previous formula and scipy."""

    @pytest.mark.parametrize("kind", ["random", "zero", "full"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_bit_identical(self, rng, order, kind):
        n_samples = 301
        k2 = K2Score()
        k2.prepare(_Samples(n_samples))
        n = 40 if order < 4 else 12
        tables = _count_tables(rng, kind, n, 3**order, n_samples)
        scores = k2.score(tables)
        assert scores.tobytes() == _k2_class_reduce(k2._logfact, tables).tobytes()
        assert scores.tobytes() == K2Score(precompute=False).score(tables).tobytes()

    def test_blocks_and_leading_axes(self, rng):
        # 5 000 pair tables span several row blocks; leading axes reshape.
        k2 = K2Score()
        k2.prepare(_Samples(120))
        tables = _count_tables(rng, "random", 5000, 9, 120)
        expected = _k2_class_reduce(k2._logfact, tables)
        assert k2.score(tables).tobytes() == expected.tobytes()
        batched = k2.score(tables.reshape(10, 500, 9, 2))
        assert batched.shape == (10, 500)
        assert batched.reshape(-1).tobytes() == expected.tobytes()
        single = k2.score(tables[7])
        assert np.ndim(single) == 0 and single == expected[7]

    def test_counts_beyond_the_table_take_scipy(self, rng):
        # Blocks scored before a count outside the log-factorial table
        # are rescored by the gammaln path: same bits either way.
        k2 = K2Score()
        k2.prepare(_Samples(60))
        tables = _count_tables(rng, "random", 5000, 9, 60)
        tables[-1, 0, 0] = 500
        expected = K2Score(precompute=False).score(tables)
        assert k2.score(tables).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_scores_do_not_depend_on_table_layout(rng, name):
    # Float reductions follow memory order, so Fortran-ordered and strided
    # tables are scored as C-ordered copies.
    objective = get_objective(name)
    objective.prepare(_Samples(400))
    tables = _count_tables(rng, "random", 220, 27, 400)
    expected = objective.score(tables).tobytes()
    strided = np.zeros((220, 27, 4), dtype=np.int64)[..., ::2]
    strided[...] = tables
    for layout in (np.asfortranarray(tables), strided, np.asfortranarray(tables.astype(float))):
        assert not layout.flags.c_contiguous
        assert objective.score(layout).tobytes() == expected
