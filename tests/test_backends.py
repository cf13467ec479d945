"""Execution-backend plane tests: registry, bit-exactness, calibration.

Pins the contracts the backend plane rests on:

* **registry semantics** — name validation and the ``REPRO_BACKEND``
  parse fail with friendly errors naming the valid values; ``auto``
  resolves to numba only when importable; requesting an unavailable
  optional backend warns and degrades to the NumPy reference;
* **bit-exactness** — every backend reproduces the genotype-matrix
  oracle exactly, for both kernel families, both word layouts and
  orders 2-4 (the numba/cupy classes are skip-marked when the optional
  dependency is absent, so the suite passes on a NumPy-only host);
* **calibration** — store round-trips survive a fresh process-like
  reload, and any fingerprint component changing (library version, word
  layout, order, host) invalidates the record;
* **end-to-end identity** — ``detect()`` with an explicit backend
  returns bit-identical top-k to the default on single-device,
  heterogeneous CARM and 2-worker distributed plans, and the CARM
  splitter prices every lane with the analytical model, whether or not
  a calibration record matches.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.backends import (
    BACKENDS,
    VALID_BACKEND_NAMES,
    CalibrationRecord,
    CalibrationStore,
    CupyBackend,
    NumbaBackend,
    calibrate,
    calibration_fingerprint,
    cell_digits,
    check_backend_name,
    default_backend_name,
    get_backend,
    list_backends,
    resolve_backend_name,
    run_probe,
)
from repro.core import EpistasisDetector
from repro.core.combinations import generate_combinations
from repro.core.contingency import contingency_oracle_many
from repro.core.detector import DetectorConfig
from repro.datasets.binarization import BinarizedDataset, PhenotypeSplitDataset

HAS_NUMBA = NumbaBackend.is_available()
HAS_CUPY = CupyBackend.is_available()

needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
needs_cupy = pytest.mark.skipif(not HAS_CUPY, reason="cupy/CUDA not available")


def _oracle(dataset, combos):
    return contingency_oracle_many(dataset.genotypes, dataset.phenotypes, combos)


def _naive_result(backend, dataset, combos, layout):
    encoded = BinarizedDataset.from_dataset(dataset, layout=layout)
    return backend.naive_tables(encoded.planes, encoded.phenotype_words, combos)


def _split_result(backend, dataset, combos, layout):
    split = PhenotypeSplitDataset.from_dataset(dataset, layout=layout)
    return backend.split_tables(
        split.control_planes,
        split.case_planes,
        split.padding_mask(0),
        split.padding_mask(1),
        combos,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_valid_names(self):
        assert VALID_BACKEND_NAMES == ("auto", "cupy", "numba", "numpy")
        assert set(BACKENDS) == {"cupy", "numba", "numpy"}

    def test_check_backend_name(self):
        assert check_backend_name("NumPy") == "numpy"
        assert check_backend_name(" auto ") == "auto"
        with pytest.raises(ValueError, match="valid values.*numpy"):
            check_backend_name("cuda")

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="valid values"):
            DetectorConfig(backend="tensorrt")

    def test_env_default_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "auto"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "warp9")
        with pytest.raises(ValueError, match="REPRO_BACKEND.*valid values"):
            default_backend_name()

    def test_word_width_env_parse(self, monkeypatch):
        from repro.bitops.packing import default_layout

        monkeypatch.setenv("REPRO_WORD_WIDTH", "33")
        with pytest.raises(ValueError, match="REPRO_WORD_WIDTH"):
            default_layout()
        monkeypatch.setenv("REPRO_WORD_WIDTH", "32")
        assert default_layout().name == "u32"

    def test_auto_resolution(self):
        expected = "numba" if HAS_NUMBA else "numpy"
        assert resolve_backend_name("auto") == expected
        assert resolve_backend_name("numpy") == "numpy"

    def test_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend(get_backend("numpy")) is get_backend("numpy")

    @pytest.mark.skipif(HAS_NUMBA, reason="fallback only fires without numba")
    def test_unavailable_fallback_warns(self):
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            backend = get_backend("numba")
        assert backend.name == "numpy"

    def test_list_backends_report(self):
        rows = {row["name"]: row for row in list_backends()}
        assert rows["numpy"]["available"] is True
        assert rows["numpy"]["kind"] == "cpu"
        assert rows["cupy"]["kind"] == "gpu"
        for row in rows.values():
            assert row["detail"]

    def test_cell_digits(self):
        digits = cell_digits(2)
        assert digits.shape == (9, 2)
        assert digits.tolist() == [
            [g0, g1] for g0 in range(3) for g1 in range(3)
        ]
        with pytest.raises(ValueError):
            digits[0, 0] = 5  # read-only: shared across kernels


# ---------------------------------------------------------------------------
# bit-exactness vs the genotype-matrix oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4])
class TestNumpyOracle:
    def test_naive(self, odd_sample_dataset, order, layout):
        combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
        tables = _naive_result(get_backend("numpy"), odd_sample_dataset, combos, layout)
        np.testing.assert_array_equal(tables, _oracle(odd_sample_dataset, combos))

    def test_split(self, odd_sample_dataset, order, layout):
        combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
        tables = _split_result(get_backend("numpy"), odd_sample_dataset, combos, layout)
        np.testing.assert_array_equal(tables, _oracle(odd_sample_dataset, combos))


@pytest.mark.parametrize("budget", [None, 4096])
@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_numpy_results_are_c_ordered(odd_sample_dataset, monkeypatch, order, layout, budget):
    # Objectives reduce in the tables' memory order: every kernel result
    # comes back C-contiguous, whole calls and budget-cut pieces alike.
    from repro.core.approaches import _kernels

    if budget is not None:
        monkeypatch.setattr(_kernels, "KERNEL_BUDGET_BYTES", budget)
    backend = get_backend("numpy")
    combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
    split = PhenotypeSplitDataset.from_dataset(odd_sample_dataset, layout=layout)
    results = [
        _naive_result(backend, odd_sample_dataset, combos, layout),
        backend.split_class_counts(
            split.control_planes, split.padding_mask(0), combos, pairs=split.pair_table(0)
        ),
        backend.split_tables(
            split.control_planes,
            split.case_planes,
            split.padding_mask(0),
            split.padding_mask(1),
            combos,
            control_pairs=split.pair_table(0),
            case_pairs=split.pair_table(1),
        ),
    ]
    for result in results:
        assert result.flags.c_contiguous
    np.testing.assert_array_equal(results[2], _oracle(odd_sample_dataset, combos))


@needs_numba
@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4])
class TestNumbaOracle:
    def test_naive(self, odd_sample_dataset, order, layout):
        combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
        tables = _naive_result(NumbaBackend(), odd_sample_dataset, combos, layout)
        np.testing.assert_array_equal(tables, _oracle(odd_sample_dataset, combos))

    def test_split(self, odd_sample_dataset, order, layout):
        combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
        tables = _split_result(NumbaBackend(), odd_sample_dataset, combos, layout)
        np.testing.assert_array_equal(tables, _oracle(odd_sample_dataset, combos))


@needs_numba
def test_numba_empty_batch(odd_sample_dataset):
    combos = np.empty((0, 3), dtype=np.int64)
    tables = _split_result(NumbaBackend(), odd_sample_dataset, combos, "u64")
    assert tables.shape == (0, 27, 2)


@needs_cupy
@pytest.mark.parametrize("layout", ["u32", "u64"])
@pytest.mark.parametrize("order", [2, 3, 4])
class TestCupyOracle:
    def test_naive(self, odd_sample_dataset, order, layout):
        combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
        tables = _naive_result(CupyBackend(), odd_sample_dataset, combos, layout)
        np.testing.assert_array_equal(tables, _oracle(odd_sample_dataset, combos))

    def test_split(self, odd_sample_dataset, order, layout):
        combos = generate_combinations(odd_sample_dataset.n_snps, order)[:150]
        tables = _split_result(CupyBackend(), odd_sample_dataset, combos, layout)
        np.testing.assert_array_equal(tables, _oracle(odd_sample_dataset, combos))


# ---------------------------------------------------------------------------
# calibration store
# ---------------------------------------------------------------------------


def _record(**overrides) -> CalibrationRecord:
    base = dict(
        backend="numpy",
        backend_version="2.0.0",
        family="split",
        order=3,
        layout="u64",
        combos_per_second=1e5,
        elements_per_second=4.096e8,
    )
    base.update(overrides)
    return CalibrationRecord(**base)


class TestCalibrationStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "calib.json"
        store = CalibrationStore(path)
        record = _record()
        store.put(record)
        # A fresh instance re-reads the document from disk.
        reloaded = CalibrationStore(path).get(record.fingerprint)
        assert reloaded is not None
        assert reloaded.combos_per_second == record.combos_per_second
        assert reloaded.fingerprint == record.fingerprint

    def test_fingerprint_invalidation(self, tmp_path):
        store = CalibrationStore(tmp_path / "calib.json")
        store.put(_record())
        hit = store.lookup("numpy", "2.0.0", "split", 3, "u64")
        assert hit is not None
        # Any component changing misses the store.
        assert store.lookup("numpy", "2.1.0", "split", 3, "u64") is None
        assert store.lookup("numpy", "2.0.0", "naive", 3, "u64") is None
        assert store.lookup("numpy", "2.0.0", "split", 4, "u64") is None
        assert store.lookup("numpy", "2.0.0", "split", 3, "u32") is None
        other_host = calibration_fingerprint(
            "numpy", "2.0.0", "split", 3, "u64", host="elsewhere/8c"
        )
        assert store.get(other_host) is None

    def test_corrupt_store_degrades_to_empty(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text("not json{")
        store = CalibrationStore(path)
        assert len(store) == 0
        store.put(_record())
        assert len(CalibrationStore(path)) == 1

    def test_version_mismatch_discards_document(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"version": 99, "records": {"x": {}}}))
        assert len(CalibrationStore(path)) == 0

    def test_version_1_store_reads_empty(self, tmp_path):
        # Version-1 numpy split records timed the NOR-expanding kernel;
        # they must not keep pricing CARM lanes after the kernel changed.
        path = tmp_path / "calib.json"
        record = _record()
        path.write_text(
            json.dumps(
                {"version": 1, "records": {record.fingerprint: asdict(record)}}
            )
        )
        store = CalibrationStore(path)
        assert len(store) == 0
        assert store.lookup("numpy", "2.0.0", "split", 3, "u64") is None

    def test_version_2_store_reads_empty(self, tmp_path):
        # Version-2 numpy records timed kernels that page-faulted fresh
        # temporaries on every call; the workspace kernels run faster.
        path = tmp_path / "calib.json"
        record = _record()
        path.write_text(
            json.dumps(
                {"version": 2, "records": {record.fingerprint: asdict(record)}}
            )
        )
        store = CalibrationStore(path)
        assert len(store) == 0
        assert store.lookup("numpy", "2.0.0", "split", 3, "u64") is None

    def test_version_3_store_reads_empty(self, tmp_path):
        # Version-3 numpy split records timed the kernel that rebuilt every
        # pair's planes per piece; the prefix-lattice kernel runs faster.
        path = tmp_path / "calib.json"
        record = _record()
        path.write_text(
            json.dumps(
                {"version": 3, "records": {record.fingerprint: asdict(record)}}
            )
        )
        store = CalibrationStore(path)
        assert len(store) == 0
        assert store.lookup("numpy", "2.0.0", "split", 3, "u64") is None

    def test_version_4_store_reads_empty(self, tmp_path):
        # Version-4 records timed the fused probe through a K2 that reduced
        # over the class axis; the column-add K2 scores faster.
        path = tmp_path / "calib.json"
        record = _record()
        path.write_text(
            json.dumps(
                {"version": 4, "records": {record.fingerprint: asdict(record)}}
            )
        )
        store = CalibrationStore(path)
        assert len(store) == 0
        assert store.lookup("numpy", "2.0.0", "split", 3, "u64") is None

    def test_empty_store_is_not_replaced(self, tmp_path):
        # CalibrationStore defines __len__, so an empty store is falsy;
        # calibrate() must still write into the instance it was handed.
        store = CalibrationStore(tmp_path / "calib.json")
        records = calibrate(backends=["numpy"], orders=(2,), store=store, repeats=1)
        assert len(records) == 1
        assert len(CalibrationStore(tmp_path / "calib.json")) == 1

    def test_run_probe_numpy(self):
        record = run_probe(
            get_backend("numpy"), family="split", order=2,
            n_snps=12, n_samples=256, repeats=1,
        )
        assert record.backend == "numpy"
        assert record.combos_per_second > 0
        assert record.elements_per_second == pytest.approx(
            record.combos_per_second * 256
        )
        assert record.probe_seconds > 0

    @pytest.mark.parametrize("family", ["split", "naive"])
    def test_run_probe_fused(self, family):
        # Fused probes time score_combinations() and key the record
        # under "<family>+fused" so store fingerprints never collide
        # with the unfused measurement.
        record = run_probe(
            get_backend("numpy"), family=family, order=2,
            n_snps=12, n_samples=256, repeats=1, fused=True,
        )
        assert record.family == f"{family}+fused"
        assert record.combos_per_second > 0
        assert record.fingerprint != run_probe(
            get_backend("numpy"), family=family, order=2,
            n_snps=12, n_samples=256, repeats=1,
        ).fingerprint


# ---------------------------------------------------------------------------
# CARM splits are priced by the model, whatever the store holds
# ---------------------------------------------------------------------------


class TestCarmPricedByModel:
    def _store_cpu_record(self, tmp_path, monkeypatch, elements=1e12):
        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(tmp_path / "calib.json"))
        from repro.bitops.packing import get_layout

        version = BACKENDS["numpy"].version() or "unknown"
        CalibrationStore().put(
            _record(
                backend_version=version,
                layout=get_layout(None).name,
                elements_per_second=elements,
            )
        )

    def test_split_priced_by_the_model(self, tmp_path, monkeypatch):
        from repro.engine import parse_devices
        from repro.engine.policies import CarmRatioPolicy
        from repro.perfmodel.efficiency import device_throughput

        self._store_cpu_record(tmp_path, monkeypatch)
        devices = parse_devices("cpu+gpu")
        policy = CarmRatioPolicy()
        policy.configure(n_snps=48, n_samples=4096, order=3)
        weights = [
            device_throughput(d.spec(), n_snps=48, n_samples=4096, order=3)
            for d in devices
        ]
        model = CarmRatioPolicy(ratios=weights).shares(100_000, devices)
        assert policy.shares(100_000, devices) == model
        assert model[1] > model[0]  # the modelled Titan Xp out-runs the CPU

    def test_detect_split_ignores_the_store(self, tmp_path, monkeypatch):
        from repro.datasets import SyntheticConfig, generate_dataset

        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(tmp_path / "calib.json"))
        dataset = generate_dataset(SyntheticConfig(n_snps=32, n_samples=512, seed=7))

        def planned():
            result = EpistasisDetector(
                devices="cpu+gpu", schedule="carm", top_k=5
            ).detect(dataset)
            lanes = result.stats.extra["devices"]
            return {lane: entry["planned_items"] for lane, entry in lanes.items()}, [
                (i.snps, i.score) for i in result.top
            ]

        without = planned()
        self._store_cpu_record(tmp_path, monkeypatch)
        assert planned() == without

    def test_explicit_ratios_still_win(self, tmp_path, monkeypatch):
        from repro.engine import parse_devices
        from repro.engine.policies import CarmRatioPolicy

        self._store_cpu_record(tmp_path, monkeypatch)
        policy = CarmRatioPolicy(ratios=[1, 3])
        assert policy.shares(1000, parse_devices("cpu+gpu")) == [250, 750]


# ---------------------------------------------------------------------------
# end-to-end identity through detect()
# ---------------------------------------------------------------------------


def _top_rows(result):
    return [(inter.snps, inter.score) for inter in result.top]


class TestDetectorBackend:
    def test_stats_name_the_backend(self, small_dataset):
        result = EpistasisDetector(order=2, backend="numpy").detect(small_dataset)
        assert result.stats.extra["backend"] == "numpy"

    def test_explicit_numpy_matches_default(self, planted_dataset):
        base = EpistasisDetector(order=3, top_k=5).detect(planted_dataset)
        explicit = EpistasisDetector(order=3, top_k=5, backend="numpy").detect(
            planted_dataset
        )
        assert _top_rows(explicit) == _top_rows(base)

    @pytest.mark.parametrize("approach", ["cpu-v1", "cpu-v3"])
    def test_backend_routes_every_family(self, small_dataset, approach):
        base = EpistasisDetector(approach=approach, order=3, top_k=5).detect(
            small_dataset
        )
        explicit = EpistasisDetector(
            approach=approach, order=3, top_k=5, backend="numpy"
        ).detect(small_dataset)
        assert _top_rows(explicit) == _top_rows(base)

    def test_carm_heterogeneous_identity(self, planted_dataset, tmp_path, monkeypatch):
        # Point the CARM lookup at an empty store so only the word-level
        # identity (not the split sizing) is under test here.
        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(tmp_path / "calib.json"))
        base = EpistasisDetector(order=3, top_k=5).detect(planted_dataset)
        het = EpistasisDetector(
            order=3, top_k=5, devices="cpu+gpu", schedule="carm", backend="numpy"
        ).detect(planted_dataset)
        assert _top_rows(het) == _top_rows(base)
        devices = het.stats.extra["devices"]
        assert devices["cpu"]["backend"] == "numpy"
        assert devices["gpu"]["backend"] == "gpusim"

    def test_distributed_identity(self, planted_dataset):
        base = EpistasisDetector(order=3, top_k=5, backend="numpy").detect(
            planted_dataset
        )
        sharded = EpistasisDetector(order=3, top_k=5, backend="numpy").detect(
            planted_dataset, workers=2
        )
        assert _top_rows(sharded) == _top_rows(base)

    @needs_numba
    def test_numba_detect_identity(self, planted_dataset):
        base = EpistasisDetector(order=3, top_k=5, backend="numpy").detect(
            planted_dataset
        )
        jitted = EpistasisDetector(order=3, top_k=5, backend="numba").detect(
            planted_dataset
        )
        assert _top_rows(jitted) == _top_rows(base)
        assert jitted.stats.extra["backend"] == "numba"

    @needs_numba
    def test_numba_charges_match_numpy(self, small_dataset):
        # §IV accounting is modelled, backend-independent: identical op
        # counts whichever backend executed the words.
        from repro.core.approaches import get_approach

        combos = generate_combinations(small_dataset.n_snps, 3)[:64]
        counts = {}
        for name in ("numpy", "numba"):
            approach = get_approach("cpu-v2", backend=name)
            approach.build_tables(approach.prepare(small_dataset), combos)
            counts[name] = dict(approach.counter.ops)
        assert counts["numpy"] == counts["numba"]

    def test_gpu_approaches_keep_gpusim(self, small_dataset):
        result = EpistasisDetector(
            approach="gpu-v4", order=2, backend="numpy"
        ).detect(small_dataset)
        assert result.stats.extra["backend"] == "gpusim"

    def test_env_backend_reaches_detector(self, small_dataset, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        result = EpistasisDetector(order=2).detect(small_dataset)
        assert result.stats.extra["backend"] == "numpy"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_backends_report(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(tmp_path / "calib.json"))
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "available" in out
        assert "default" in out

    def test_backends_json_calibrate(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CALIBRATION_PATH", str(tmp_path / "calib.json"))
        assert main(["backends", "--calibrate", "--repeats", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {row["name"]: row for row in doc["backends"]}
        assert rows["numpy"]["calibrated_combos_per_second"] > 0
        assert doc["default"] in ("numba", "numpy")

    def test_detect_backend_flag(self, capsys, tmp_path, small_dataset):
        from repro.cli import main
        from repro.datasets import save_npz

        path = tmp_path / "ds.npz"
        save_npz(small_dataset, str(path))
        assert main(
            ["detect", str(path), "--order", "2", "--backend", "numpy", "--top-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend     : numpy" in out
