"""Fused build+score path tests: knob, charging parity, backend capability.

The fused path folds each combination's contingency table straight into
the objective without materialising the chunk-wide table array.  These
tests pin its contracts:

* **knob semantics** — ``fused="auto"|"on"|"off"`` on the config/CLI and
  the ``REPRO_FUSED`` environment variable validate with friendly errors
  naming the valid values; ``fused="on"`` rejects ``validate=True``;
* **charging parity** — §IV op/traffic accounting is modelled, not
  measured: fused and unfused runs charge bit-identical counters.

That every mode ranks exactly what the brute-force oracle ranks, on every
plan, is drawn by the differential oracle (``tests/test_oracle.py``).
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
        assert result.stats.extra["fused"] == "auto"

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
# charging parity (top-k identity is drawn by tests/test_oracle.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", ["cpu-v1", "cpu-v2", "cpu-v3", "cpu-v4"])
@pytest.mark.parametrize("objective", ["k2", "gini"])
class TestChargingParity:
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
