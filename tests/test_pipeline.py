"""Tests of the staged search pipeline (screen → expand → refine → permutation)."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.bitops.packing import pack_bits
from repro.core import DetectorConfig, EpistasisDetector, RunSpec
from repro.core.approaches import _kernels
from repro.core.combinations import combination_count
from repro.core.result import Interaction
from repro.datasets.binarization import BinarizedDataset
from repro.datasets.dataset import GenotypeDataset
from repro.pipeline import (
    ExpandStage,
    PermutationStage,
    RefineStage,
    ScreenStage,
    SearchPipeline,
)
from repro.pipeline import stages
from repro.pipeline.stages import StageContext
from tests.conftest import PLANTED_TRIPLET


def _key(result):
    """Bit-exact comparison key of a top list."""
    return [(i.snps, i.score, i.snp_names) for i in result.top]


class TestFullRetentionEquivalence:
    """A staged run that retains every SNP must be bit-identical to detect()."""

    @pytest.mark.parametrize(
        "devices,schedule,workers",
        [
            (None, "dynamic", 1),
            (None, "static", 2),
            ("cpu+gpu", "carm", 2),
        ],
    )
    def test_bit_identical_to_exhaustive(
        self, planted_dataset, devices, schedule, workers
    ):
        detector = EpistasisDetector(
            approach="cpu-v4",
            order=3,
            top_k=7,
            devices=devices,
            schedule=schedule,
            n_workers=workers,
        )
        dense = detector.detect(planted_dataset)
        staged = detector.detect_staged(
            planted_dataset, screen_order=2, keep_snps=planted_dataset.n_snps
        )
        assert _key(staged) == _key(dense)
        assert staged.best_snps == dense.best_snps

    def test_full_retention_keeps_whole_universe(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v2", order=3)
        staged = detector.detect_staged(
            planted_dataset, keep_snps=planted_dataset.n_snps
        )
        assert staged.retained_snps == list(range(planted_dataset.n_snps))


class TestScreenExpand:
    def test_recovers_planted_interaction_with_pruning(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3, top_k=5)
        staged = detector.detect_staged(planted_dataset, screen_order=2, keep_snps=8)
        assert staged.best_snps == PLANTED_TRIPLET
        assert staged.evaluated_fraction < 0.2
        assert staged.final_order_evaluated == combination_count(8, 3)
        assert staged.exhaustive_combinations == combination_count(
            planted_dataset.n_snps, 3
        )

    def test_screen_retains_planted_snps(self, planted_dataset):
        pipeline = SearchPipeline(
            [ScreenStage(order=2, keep=6), ExpandStage(order=3)],
            approach="cpu-v4",
        )
        outcome = pipeline.run(planted_dataset)
        assert set(PLANTED_TRIPLET) <= set(outcome.retained_snps)
        [screen, expand] = outcome.stages
        assert screen.stage == "screen" and screen.retained_snps == 6
        assert expand.stage == "expand"
        assert expand.candidates == combination_count(6, 3)
        assert expand.effective_snps == 6

    def test_stage_reports_carry_estimates_and_devices(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3)
        staged = detector.detect_staged(planted_dataset, keep_snps=8)
        for stage in staged.stages:
            assert stage.estimated_seconds is not None
            assert stage.estimated_seconds > 0
            assert stage.device_stats
            assert stage.schedule == "dynamic"

    def test_chained_screens_narrow_monotonically(self, planted_dataset):
        pipeline = SearchPipeline(
            [
                ScreenStage(order=2, keep=16),
                ScreenStage(order=2, keep=8),
                ExpandStage(order=3),
            ]
        )
        outcome = pipeline.run(planted_dataset)
        assert len(outcome.retained_snps) == 8
        assert outcome.stages[1].candidates == combination_count(16, 2)

    def test_screen_order_must_be_below_detection_order(self, planted_dataset):
        detector = EpistasisDetector(order=3)
        with pytest.raises(ValueError, match="below the detection"):
            detector.detect_staged(planted_dataset, screen_order=3)

    def test_pipeline_without_expand_raises(self, planted_dataset):
        pipeline = SearchPipeline([ScreenStage(order=2, keep=8)])
        with pytest.raises(RuntimeError, match="no finalists"):
            pipeline.run(planted_dataset)


class TestRefineStage:
    def test_rescored_under_second_objective(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3, top_k=5)
        staged = detector.detect_staged(
            planted_dataset, keep_snps=10, refine_objective="mutual-information"
        )
        refine = staged.stages[-1]
        assert refine.stage == "refine"
        assert refine.objective == "mutual-information"
        assert refine.candidates == 5
        # Refined scores must equal direct scoring under the new objective.
        combos = np.array([i.snps for i in staged.top])
        direct = EpistasisDetector(
            approach="cpu-v1", objective="mutual-information"
        ).score_combinations(planted_dataset, combos)
        np.testing.assert_allclose([i.score for i in staged.top], direct)
        # Re-ranked ascending under the refine objective.
        scores = [i.score for i in staged.top]
        assert scores == sorted(scores)

    def test_refine_requires_objective(self):
        with pytest.raises(ValueError, match="needs an objective"):
            RefineStage()

    def test_refine_requires_finalists(self, planted_dataset):
        pipeline = SearchPipeline([RefineStage(objective="gini")])
        with pytest.raises(ValueError, match="needs finalists"):
            pipeline.run(planted_dataset)


class TestPermutationStage:
    def test_p_values_aligned_and_bounded(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3, top_k=4)
        staged = detector.detect_staged(
            planted_dataset, keep_snps=8, n_permutations=19, permutation_seed=11
        )
        assert staged.p_values is not None
        assert len(staged.p_values) == len(staged.top)
        assert all(0.0 < p <= 1.0 for p in staged.p_values)
        # The planted interaction survives every random relabelling.
        assert staged.best_snps == PLANTED_TRIPLET
        assert staged.p_values[0] == pytest.approx(1.0 / 20.0)
        perm = staged.stages[-1]
        assert perm.stage == "permutation"
        assert perm.evaluated == 20 * 4  # observed + 19 nulls, 4 finalists

    def test_deterministic_given_seed(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v2", order=3, top_k=3)
        first = detector.detect_staged(
            planted_dataset, keep_snps=6, n_permutations=7, permutation_seed=5
        )
        second = detector.detect_staged(
            planted_dataset, keep_snps=6, n_permutations=7, permutation_seed=5
        )
        assert first.p_values == second.p_values

    def test_requires_finalists(self, planted_dataset):
        pipeline = SearchPipeline([PermutationStage(n_permutations=3)])
        with pytest.raises(ValueError, match="needs finalists"):
            pipeline.run(planted_dataset)

    def test_p_values_test_the_refine_objective(self, planted_dataset):
        """With a refine stage, the permutation null must score under the
        refine objective — the statistic displayed next to the p-values."""
        detector = EpistasisDetector(approach="cpu-v2", order=3, top_k=3)
        staged = detector.detect_staged(
            planted_dataset,
            keep_snps=8,
            refine_objective="gini",
            n_permutations=9,
        )
        perm = staged.stages[-1]
        assert perm.stage == "permutation"
        assert perm.objective == "gini"
        assert staged.stages[-2].objective == "gini"

    def test_stage_validate_override(self, planted_dataset):
        pipeline = SearchPipeline(
            [ScreenStage(order=2, keep=6), ExpandStage(order=3, validate=True)]
        )
        outcome = pipeline.run(planted_dataset)
        assert outcome.best_snps == PLANTED_TRIPLET

    def test_null_runs_do_not_inflate_sweep_metric(self, planted_dataset):
        """Refine/permutation tables are finalist re-scoring, not sweep
        coverage: even a long null on a tiny space keeps the pruning
        fraction at nCr(keep, k) / nCr(M, k) (and below 1)."""
        detector = EpistasisDetector(approach="cpu-v2", order=3, top_k=5)
        staged = detector.detect_staged(
            planted_dataset,
            keep_snps=6,
            refine_objective="gini",
            n_permutations=50,
        )
        assert staged.final_order_evaluated == combination_count(6, 3)
        assert staged.evaluated_fraction == pytest.approx(
            combination_count(6, 3)
            / combination_count(planted_dataset.n_snps, 3)
        )
        assert staged.evaluated_fraction < 1.0
        # The re-scoring stages still report their own table counts.
        refine, perm = staged.stages[-2], staged.stages[-1]
        assert not refine.sweep and not perm.sweep
        assert perm.evaluated == 51 * 5


def _relabelled(dataset, phenotypes):
    return GenotypeDataset(genotypes=dataset.genotypes, phenotypes=phenotypes)


def _hand_rolled_p_values(dataset, combos, detector, n_permutations, seed):
    """The null as one ``score_combinations`` call per relabelling."""
    observed = detector.score_combinations(dataset, combos)
    rng = np.random.default_rng(seed)
    exceed = np.zeros(len(combos), dtype=np.int64)
    for _ in range(n_permutations):
        permuted = _relabelled(dataset, rng.permutation(dataset.phenotypes))
        exceed += detector.score_combinations(permuted, combos, cache=False) <= observed
    return [(1 + int(count)) / (1 + n_permutations) for count in exceed]


class TestBatchedPermutationNull:
    """The batched null against per-relabelling scoring, bit for bit.

    No relabelling beats a search's own finalists, so their p-values all
    sit at 1/(1+P) and cannot show a wrong null; these tests score fixed,
    unselected combinations instead.
    """

    #: Unselected finalists of ``small_dataset`` (24 SNPs, no planted
    #: effect), sharing SNPs so the stage's slicing remaps them.
    FINALISTS = np.array(
        [[0, 5, 9], [1, 5, 17], [2, 9, 23], [3, 12, 17], [4, 13, 20], [6, 9, 17]]
    )
    N_PERMUTATIONS = 37

    @pytest.mark.parametrize(
        "objective", ["k2", "gini", "mutual-information", "chi2"]
    )
    @pytest.mark.parametrize("approach", ["cpu-v1", "cpu-v4", "gpu-v4"])
    @pytest.mark.parametrize("layout", ["u32", "u64"])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_scores_match_per_relabelling_scoring(
        self, odd_sample_dataset, order, layout, approach, objective
    ):
        dataset = odd_sample_dataset  # 205 samples: a partial last word
        rng = np.random.default_rng(order)
        combos = np.unique(
            np.sort(
                [rng.choice(dataset.n_snps, order, replace=False) for _ in range(9)]
            ),
            axis=0,
        )
        draws = np.stack([rng.permutation(dataset.phenotypes) for _ in range(5)])
        detector = EpistasisDetector(
            approach=approach, objective=objective, order=order, word_layout=layout
        )
        expected = np.stack(
            [
                detector.score_combinations(
                    _relabelled(dataset, phenotypes), combos, cache=False
                )
                for phenotypes in draws
            ]
        )
        encoded = BinarizedDataset.from_dataset(
            dataset, layout=detector.approach.word_layout
        )
        batched = PermutationStage.null_scores(detector, encoded, draws, combos)
        assert batched.shape == (len(draws), len(combos))
        np.testing.assert_array_equal(
            batched.view(np.uint64), expected.view(np.uint64)
        )

    def _stage_p_values(self, dataset, approach, objective, **run_fields):
        detector = EpistasisDetector(approach=approach, objective=objective)
        scores = detector.score_combinations(dataset, self.FINALISTS)
        ctx = StageContext(
            dataset=dataset,
            defaults=DetectorConfig(approach=approach, objective=objective),
            top=[
                Interaction(snps=tuple(int(s) for s in row), score=float(score))
                for row, score in zip(self.FINALISTS, scores)
            ],
            run=RunSpec(**run_fields),
        )
        PermutationStage(
            n_permutations=self.N_PERMUTATIONS, seed=5, checkpoint_every=8
        ).run(ctx)
        return ctx.p_values

    @pytest.mark.parametrize(
        "approach,objective", [("cpu-v4", "k2"), ("cpu-v1", "gini")]
    )
    def test_stage_matches_hand_rolled_loop(
        self, small_dataset, approach, objective, tmp_path
    ):
        reference = _hand_rolled_p_values(
            small_dataset,
            self.FINALISTS,
            EpistasisDetector(approach=approach, objective=objective),
            self.N_PERMUTATIONS,
            seed=5,
        )
        # Every p-value strictly inside (1/(1+P), 1): a skipped, repeated
        # or reordered draw moves at least one of them.
        floor = 1.0 / (1 + self.N_PERMUTATIONS)
        assert all(floor < p < 1.0 for p in reference), reference
        assert self._stage_p_values(small_dataset, approach, objective) == reference
        checkpointed = self._stage_p_values(
            small_dataset, approach, objective, checkpoint=str(tmp_path)
        )
        assert checkpointed == reference

    def test_ledger_commits_once_per_window(self, small_dataset, monkeypatch, tmp_path):
        # A fresh checkpointed null writes its ledger once up front and once
        # per window; the last window's write already records the finished
        # null, so a resumed run of it counts nothing and writes nothing.
        from repro.distributed.checkpoint import JsonLedger

        written = []
        write = JsonLedger.write

        def counting_write(ledger):
            written.append(ledger.doc["perm_done"])
            write(ledger)

        monkeypatch.setattr(JsonLedger, "write", counting_write)
        fresh = self._stage_p_values(
            small_dataset, "cpu-v4", "k2", checkpoint=str(tmp_path)
        )
        windows = list(range(8, self.N_PERMUTATIONS, 8)) + [self.N_PERMUTATIONS]
        assert written == [0] + windows

        written.clear()

        def no_null(*args):
            raise AssertionError("a finished null was counted again")

        monkeypatch.setattr(PermutationStage, "null_scores", no_null)
        resumed = self._stage_p_values(
            small_dataset, "cpu-v4", "k2", checkpoint=str(tmp_path), resume=True
        )
        assert resumed == fresh
        assert written == []

    @pytest.mark.parametrize("finalists_per_piece,words_per_piece", [(2, None), (1, 1)])
    def test_small_budget_cuts_finalist_blocks(
        self, small_dataset, monkeypatch, finalists_per_piece, words_per_piece
    ):
        reference = _hand_rolled_p_values(
            small_dataset,
            self.FINALISTS,
            EpistasisDetector(approach="cpu-v4"),
            self.N_PERMUTATIONS,
            seed=5,
        )
        encoded = BinarizedDataset.from_dataset(small_dataset)
        per_word = _kernels._permuted_word_bytes(3, 8, encoded.planes.dtype.itemsize)
        words = words_per_piece or encoded.n_words
        monkeypatch.setattr(
            _kernels, "KERNEL_BUDGET_BYTES", per_word * words * finalists_per_piece
        )
        pieces = []
        piece = _kernels._naive_permutation_piece

        def counting_piece(planes, phenotypes, combos):
            pieces.append((len(combos), planes.shape[2]))
            return piece(planes, phenotypes, combos)

        monkeypatch.setattr(_kernels, "_naive_permutation_piece", counting_piece)
        p_values = self._stage_p_values(small_dataset, "cpu-v4", "k2")
        assert p_values == reference
        windows = -(-self.N_PERMUTATIONS // 8)
        blocks = -(-len(self.FINALISTS) // finalists_per_piece)
        word_passes = -(-encoded.n_words // words)
        assert len(pieces) == windows * blocks * word_passes
        assert max(n for n, _ in pieces) == finalists_per_piece
        assert max(w for _, w in pieces) == words

    def test_validate_checks_every_relabelling(self, small_dataset, monkeypatch):
        encoded = BinarizedDataset.from_dataset(small_dataset)
        rng = np.random.default_rng(1)
        draws = np.stack([rng.permutation(small_dataset.phenotypes) for _ in range(4)])
        count = _kernels.naive_permutation_tables

        def miscount(*args):
            tables = count(*args).copy()
            tables[3, 0, 0, 1] += 1  # one case too many, last relabelling only
            return tables

        monkeypatch.setattr(stages, "naive_permutation_tables", miscount)
        PermutationStage.null_scores(
            EpistasisDetector(), encoded, draws, self.FINALISTS
        )
        with pytest.raises(ValueError, match="column sums"):
            PermutationStage.null_scores(
                EpistasisDetector(validate=True), encoded, draws, self.FINALISTS
            )

    def test_workspace_grows_to_the_window_not_the_budget(self, small_dataset):
        encoded = BinarizedDataset.from_dataset(small_dataset)
        rng = np.random.default_rng(3)
        draws = np.stack([rng.permutation(small_dataset.phenotypes) for _ in range(32)])
        block = pack_bits(draws.astype(bool), encoded.layout)
        sizes = []

        def run():
            _kernels.naive_permutation_tables(encoded.planes, block, self.FINALISTS)
            sizes.append(_kernels._WORKSPACE.buffer.size)

        thread = threading.Thread(target=run)  # a fresh per-thread workspace
        thread.start()
        thread.join()
        needed = _kernels._permuted_word_bytes(3, 32, encoded.planes.dtype.itemsize)
        needed *= len(self.FINALISTS) * encoded.n_words
        assert sizes == [needed + 4096]
        assert needed < _kernels.KERNEL_BUDGET_BYTES // 100


class TestPerStageConfiguration:
    def test_stage_overrides_apply(self, planted_dataset):
        pipeline = SearchPipeline(
            [
                ScreenStage(order=2, keep=8, approach="gpu-v4", schedule="guided"),
                ExpandStage(order=3, devices="cpu+gpu", schedule="carm", n_workers=2),
            ],
            approach="cpu-v4",
        )
        outcome = pipeline.run(planted_dataset)
        [screen, expand] = outcome.stages
        assert screen.approach == "gpu-v4"
        assert screen.schedule == "guided"
        assert expand.schedule == "carm"
        assert set(expand.device_stats) == {"cpu", "gpu"}

    def test_progress_reports_stage_names(self, planted_dataset):
        seen: list[tuple[str, int, int]] = []
        pipeline = SearchPipeline(
            [ScreenStage(order=2, keep=8), ExpandStage(order=3)],
            chunk_size=64,
        )
        pipeline.run(
            planted_dataset, progress=lambda stage, done, total: seen.append((stage, done, total))
        )
        stages = {s for s, _, _ in seen}
        assert stages == {"screen", "expand"}
        screen_final = [(d, t) for s, d, t in seen if s == "screen"][-1]
        assert screen_final[0] == screen_final[1]


class TestPipelineResult:
    def test_to_dict_is_json_serialisable(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3, top_k=3)
        staged = detector.detect_staged(
            planted_dataset, keep_snps=8, n_permutations=5
        )
        doc = json.loads(json.dumps(staged.to_dict()))
        assert doc["final_order"] == 3
        assert doc["top"][0]["rank"] == 1
        assert doc["top"][0]["snps"] == list(PLANTED_TRIPLET)
        assert "p_value" in doc["top"][0]
        assert len(doc["stages"]) == 3
        assert doc["stages"][0]["stage"] == "screen"

    def test_summary_mentions_stages_and_fraction(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3)
        staged = detector.detect_staged(planted_dataset, keep_snps=8)
        text = staged.summary()
        assert "staged search" in text
        assert "screen" in text and "expand" in text
        assert "best interaction" in text

    def test_contains(self, planted_dataset):
        detector = EpistasisDetector(approach="cpu-v4", order=3)
        staged = detector.detect_staged(planted_dataset, keep_snps=8)
        assert staged.contains(PLANTED_TRIPLET)
        assert not staged.contains((0, 1, 2))


class TestStagedCostModel:
    def test_estimate_staged_search_document(self):
        from repro.perfmodel import estimate_staged_search

        doc = estimate_staged_search(1024, 4096, keep_snps=64)
        assert doc["exhaustive_tables"] == combination_count(1024, 3)
        assert doc["stages"][0]["tables"] == combination_count(1024, 2)
        assert doc["stages"][1]["tables"] == combination_count(64, 3)
        assert doc["expand_fraction"] < 0.001
        assert doc["modelled_speedup"] > 1.0

    def test_estimate_rejects_bad_budget(self):
        from repro.perfmodel import estimate_staged_search

        with pytest.raises(ValueError, match="keep_snps"):
            estimate_staged_search(100, 256, keep_snps=0)
        with pytest.raises(ValueError, match="cannot form"):
            estimate_staged_search(100, 256, keep_snps=2, expand_order=3)
