"""Fused build+score path tests: knob, bit-identity, charging parity.

The fused path folds each combination's contingency table straight into
the objective without materialising the chunk-wide table array.  These
tests pin its contracts:

* **knob semantics** — ``fused="auto"|"on"|"off"`` on the config/CLI and
  the ``REPRO_FUSED`` environment variable validate with friendly errors
  naming the valid values; ``fused="on"`` rejects ``validate=True``;
* **bit-identity** — fused and unfused runs return *identical* scores and
  top-k for every objective, order 2-4, both word layouts, both kernel
  families, the numpy and numba backends (numba skip-marked), on
  single-device, heterogeneous CARM, staged-pipeline and 2-worker
  distributed plans;
* **charging parity** — §IV op/traffic accounting is modelled, not
  measured: fused and unfused runs charge bit-identical counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import NumbaBackend, get_backend
from repro.core import EpistasisDetector
from repro.core.approaches import get_approach
from repro.core.combinations import generate_combinations
from repro.core.detector import DetectorConfig
from repro.core.fusion import (
    FUSED_ENV,
    VALID_FUSED_MODES,
    check_fused_mode,
    default_fused_mode,
    resolve_fused_mode,
)
from repro.core.scoring import get_objective
from repro.engine.tiling import iter_snp_tiles

HAS_NUMBA = NumbaBackend.is_available()
needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")

OBJECTIVES = ("k2", "gini", "mutual-information", "chi2")


def _top_rows(result):
    return [(inter.snps, inter.score) for inter in result.top]


# ---------------------------------------------------------------------------
# knob semantics
# ---------------------------------------------------------------------------


class TestFusedMode:
    def test_valid_modes(self):
        assert VALID_FUSED_MODES == ("auto", "on", "off")
        assert check_fused_mode(" On ") == "on"
        assert check_fused_mode("AUTO") == "auto"

    def test_unknown_mode_names_valid_values(self):
        with pytest.raises(ValueError, match="valid values.*auto, on, off"):
            check_fused_mode("sideways")

    def test_env_default_parse(self, monkeypatch):
        monkeypatch.delenv(FUSED_ENV, raising=False)
        assert default_fused_mode() == "auto"
        monkeypatch.setenv(FUSED_ENV, "off")
        assert default_fused_mode() == "off"
        monkeypatch.setenv(FUSED_ENV, "bananas")
        with pytest.raises(ValueError, match=f"{FUSED_ENV}.*valid values"):
            default_fused_mode()

    def test_resolve_prefers_explicit_over_env(self, monkeypatch):
        monkeypatch.setenv(FUSED_ENV, "off")
        assert resolve_fused_mode("on") == "on"
        assert resolve_fused_mode(None) == "off"

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="valid values"):
            DetectorConfig(fused="maybe")

    def test_on_rejects_validate(self):
        with pytest.raises(ValueError, match="incompatible with validate"):
            DetectorConfig(fused="on", validate=True)

    def test_env_on_rejects_validate_at_run(self, small_dataset, monkeypatch):
        # The spec resolves REPRO_FUSED when it is built, so the detector
        # is refused before any search runs.
        monkeypatch.setenv(FUSED_ENV, "on")
        with pytest.raises(ValueError, match="incompatible with validate"):
            EpistasisDetector(order=2, validate=True)

    def test_auto_with_validate_falls_back(self, small_dataset):
        # validate=True needs materialized tables: auto silently unfuses.
        result = EpistasisDetector(order=2, validate=True).detect(small_dataset)
        base = EpistasisDetector(order=2).detect(small_dataset)
        assert _top_rows(result) == _top_rows(base)

    def test_stats_name_the_mode(self, small_dataset):
        result = EpistasisDetector(order=2, fused="on").detect(small_dataset)
        assert result.stats.extra["fused"] == "on"
        default = EpistasisDetector(order=2).detect(small_dataset)
        assert default.stats.extra["fused"] == "auto"


# ---------------------------------------------------------------------------
# SNP-block tiling
# ---------------------------------------------------------------------------


class TestSnpTiling:
    def test_tiles_cover_combos_in_order(self):
        combos = generate_combinations(12, 3)
        seen = []
        for tile, unique_snps, local in iter_snp_tiles(combos, tile_combos=37):
            assert np.array_equal(np.sort(unique_snps), unique_snps)
            # local indices reconstruct the original tile exactly.
            np.testing.assert_array_equal(unique_snps[local], combos[tile])
            seen.append(combos[tile])
        np.testing.assert_array_equal(np.concatenate(seen), combos)

    def test_gather_reuse_within_tile(self):
        combos = generate_combinations(40, 2)[:64]
        (tile, unique_snps, local), = list(iter_snp_tiles(combos, tile_combos=64))
        # A tile gathers each participating SNP's planes exactly once.
        assert len(unique_snps) == len(set(unique_snps.tolist()))
        assert local.max() == len(unique_snps) - 1


# ---------------------------------------------------------------------------
# bit-identity: fused vs unfused
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("objective", OBJECTIVES)
class TestNumpyIdentityMatrix:
    def _scores(self, dataset, approach, objective, order, layout, fused):
        detector = EpistasisDetector(
            approach=approach, objective=objective, order=order,
            word_layout=layout, backend="numpy", fused=fused,
        )
        combos = generate_combinations(dataset.n_snps, order)[:200]
        return detector.score_combinations(dataset, combos)

    def test_split_family(self, small_dataset, objective, order, layout):
        on = self._scores(small_dataset, "cpu-v2", objective, order, layout, "on")
        off = self._scores(small_dataset, "cpu-v2", objective, order, layout, "off")
        assert np.array_equal(on, off)

    def test_naive_family(self, small_dataset, objective, order, layout):
        on = self._scores(small_dataset, "cpu-v1", objective, order, layout, "on")
        off = self._scores(small_dataset, "cpu-v1", objective, order, layout, "off")
        assert np.array_equal(on, off)


@needs_numba
@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("objective", OBJECTIVES)
class TestNumbaIdentityMatrix:
    """The numba in-kernel fused path must match the numpy reference."""

    def test_split_family(self, small_dataset, objective, order, layout):
        combos = generate_combinations(small_dataset.n_snps, order)[:200]
        ref = EpistasisDetector(
            approach="cpu-v2", objective=objective, order=order,
            word_layout=layout, backend="numpy", fused="off",
        ).score_combinations(small_dataset, combos)
        fused = EpistasisDetector(
            approach="cpu-v2", objective=objective, order=order,
            word_layout=layout, backend="numba", fused="on",
        ).score_combinations(small_dataset, combos)
        assert np.array_equal(fused, ref)

    def test_naive_family(self, small_dataset, objective, order, layout):
        combos = generate_combinations(small_dataset.n_snps, order)[:200]
        ref = EpistasisDetector(
            approach="cpu-v1", objective=objective, order=order,
            word_layout=layout, backend="numpy", fused="off",
        ).score_combinations(small_dataset, combos)
        fused = EpistasisDetector(
            approach="cpu-v1", objective=objective, order=order,
            word_layout=layout, backend="numba", fused="on",
        ).score_combinations(small_dataset, combos)
        assert np.array_equal(fused, ref)


@pytest.mark.parametrize("approach", ["cpu-v1", "cpu-v2", "cpu-v3", "cpu-v4"])
@pytest.mark.parametrize("objective", ["k2", "gini"])
class TestDetectIdentity:
    def test_topk_identical(self, planted_dataset, approach, objective):
        off = EpistasisDetector(
            approach=approach, objective=objective, top_k=5, fused="off"
        ).detect(planted_dataset)
        on = EpistasisDetector(
            approach=approach, objective=objective, top_k=5, fused="on"
        ).detect(planted_dataset)
        assert _top_rows(on) == _top_rows(off)

    def test_charging_parity(self, small_dataset, approach, objective):
        # §IV accounting is modelled, not measured: fusing the execution
        # must charge bit-identical op counters.
        combos = generate_combinations(small_dataset.n_snps, 3)[:64]
        obj = get_objective(objective)
        counts = {}
        for fused in ("off", "on"):
            proto = get_approach(approach, backend="numpy")
            encoded = proto.prepare(small_dataset)
            obj.prepare(small_dataset)
            if fused == "on":
                scores = proto.score_combinations(encoded, combos, obj)
                assert scores is not None
            else:
                proto.build_tables(encoded, combos)
            counts[fused] = dict(proto.counter.ops)
        assert counts["on"] == counts["off"]


class TestPlansIdentity:
    def test_carm_heterogeneous_identity(self, planted_dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(tmp_path / "calib.json"))
        base = EpistasisDetector(order=3, top_k=5, fused="off").detect(planted_dataset)
        het = EpistasisDetector(
            order=3, top_k=5, devices="cpu+gpu", schedule="carm",
            backend="numpy", fused="on",
        ).detect(planted_dataset)
        assert _top_rows(het) == _top_rows(base)

    def test_distributed_identity(self, planted_dataset):
        base = EpistasisDetector(order=3, top_k=5, fused="off").detect(planted_dataset)
        sharded = EpistasisDetector(order=3, top_k=5, fused="on").detect(
            planted_dataset, workers=2
        )
        assert _top_rows(sharded) == _top_rows(base)
        assert sharded.stats.extra["fused"] == "on"

    def test_staged_pipeline_identity(self, planted_dataset):
        kwargs = dict(keep_snps=12, n_permutations=6, permutation_seed=3)
        off = EpistasisDetector(top_k=5, fused="off").detect_staged(
            planted_dataset, **kwargs
        )
        on = EpistasisDetector(top_k=5, fused="on").detect_staged(
            planted_dataset, **kwargs
        )
        assert _top_rows(on) == _top_rows(off)
        assert on.p_values == off.p_values

    def test_score_combinations_uncached_identity(self, small_dataset):
        combos = generate_combinations(small_dataset.n_snps, 3)[:50]
        on = EpistasisDetector(fused="on").score_combinations(
            small_dataset, combos, cache=False
        )
        off = EpistasisDetector(fused="off").score_combinations(
            small_dataset, combos, cache=False
        )
        assert np.array_equal(on, off)


# ---------------------------------------------------------------------------
# backend capability
# ---------------------------------------------------------------------------


class TestBackendCapability:
    def test_default_matches_materialized_scoring(self, small_dataset):
        from repro.datasets.binarization import PhenotypeSplitDataset

        split = PhenotypeSplitDataset.from_dataset(small_dataset)
        combos = generate_combinations(small_dataset.n_snps, 3)[:64]
        backend = get_backend("numpy")
        objective = get_objective("k2")
        objective.prepare(small_dataset)
        args = (
            split.control_planes, split.case_planes,
            split.padding_mask(0), split.padding_mask(1), combos,
        )
        fused = backend.score_combinations(
            "split", combos, objective,
            control_planes=split.control_planes, case_planes=split.case_planes,
            control_mask=split.padding_mask(0), case_mask=split.padding_mask(1),
        )
        assert np.array_equal(fused, objective.score(backend.split_tables(*args)))

    def test_unknown_family_rejected(self):
        backend = get_backend("numpy")
        with pytest.raises(ValueError, match="family"):
            backend.score_combinations(
                "hybrid", np.zeros((1, 2), dtype=np.int64), get_objective("gini")
            )

    def test_fused_spec_advertised_only_when_exact(self, small_dataset):
        k2 = get_objective("k2")
        assert k2.fused_spec() is None  # unprepared: no log-factorial table
        k2.prepare(small_dataset)
        spec = k2.fused_spec()
        assert spec is not None and spec["kind"] == "k2"
        assert get_objective("gini").fused_spec() == {"kind": "gini"}
        # Transcendental objectives never advertise an in-kernel form.
        mi = get_objective("mutual-information")
        mi.prepare(small_dataset)
        assert mi.fused_spec() is None

    @needs_numba
    def test_numba_empty_batch(self, small_dataset):
        from repro.datasets.binarization import PhenotypeSplitDataset

        split = PhenotypeSplitDataset.from_dataset(small_dataset)
        combos = np.empty((0, 3), dtype=np.int64)
        objective = get_objective("gini")
        scores = NumbaBackend().score_combinations(
            "split", combos, objective,
            control_planes=split.control_planes, case_planes=split.case_planes,
            control_mask=split.padding_mask(0), case_mask=split.padding_mask(1),
        )
        assert scores.shape == (0,)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def _save(self, tmp_path, dataset):
        from repro.datasets import save_npz

        path = tmp_path / "ds.npz"
        save_npz(dataset, str(path))
        return str(path)

    def test_detect_fused_flag(self, capsys, tmp_path, small_dataset):
        from repro.cli import main

        path = self._save(tmp_path, small_dataset)
        assert main(
            ["detect", path, "--order", "2", "--fused", "on", "--top-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "fused       : on" in out

    def test_detect_fused_identity(self, capsys, tmp_path, small_dataset):
        from repro.cli import main

        path = self._save(tmp_path, small_dataset)
        outputs = []
        for mode in ("on", "off"):
            assert main(["detect", path, "--order", "2", "--fused", mode]) == 0
            out = capsys.readouterr().out
            outputs.append(
                [
                    line
                    for line in out[: out.index("\nbackend")].splitlines()
                    if not line.startswith(("elapsed", "throughput"))
                ]
            )
        assert outputs[0] == outputs[1]

    def test_malformed_env_is_friendly(self, capsys, tmp_path, small_dataset,
                                       monkeypatch):
        from repro.cli import main

        path = self._save(tmp_path, small_dataset)
        monkeypatch.setenv(FUSED_ENV, "fast-please")
        assert main(["detect", path, "--order", "2"]) == 2
        err = capsys.readouterr().err
        assert FUSED_ENV in err and "valid values: auto, on, off" in err
