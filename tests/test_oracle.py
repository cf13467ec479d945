"""The differential oracle: every execution knob ranks what brute force ranks.

The system's core invariant is that a search returns the same top-k, bit
for bit, whatever runs it.  This harness draws a small dataset, a search
spec (:class:`~repro.core.detector.DetectorConfig`) and a run spec
(:class:`~repro.core.detector.RunSpec`) together, and checks every search
against :class:`~repro.baselines.BruteForceReference`, which scores the raw
genotype matrix one combination at a time:

* the top-k SNP tuples and every float64 score bit equal the oracle's;
* ``detect_candidates(collect_snp_minima=True)``, the entry point every
  pipeline sweep stage and every shard runs, returns each SNP's best
  participating score bit for bit as brute force finds it (``inf`` for a
  SNP no candidate holds), in-process and sharded;
* on single-lane plans, the §IV op counts and byte traffic equal those of a
  one-thread numpy ``detect()`` with the same approach, order, word layout
  and approach params (the charges are per paper word, so the layout's
  padding shows in them).

Tier-1 runs a fixed-seed slice (the ``tier-1`` profile of ``conftest.py``)
in which every value of every knob is a cell of its own, named by the knob
and drawn around; the CI ``oracle-sweep`` job runs the wide random sweep::

    PYTHONPATH=src python -m pytest tests/test_oracle.py --hypothesis-profile=oracle-sweep

A new execution knob proves its identity by being drawn here.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backends import list_backends
from repro.baselines import BruteForceReference
from repro.bitops.simd import ISA_PRESETS
from repro.core import EpistasisDetector
from repro.core.approaches import list_approaches
from repro.core.combinations import combination_count, generate_combinations
from repro.core.detector import DetectorConfig, RunSpec
from repro.datasets import generate_null_dataset
from repro.distributed import run_distributed, shutdown_fleets
from repro.distributed.resilience import RetryPolicy
from repro.engine import DenseRangeSource, ExplicitCombinationSource
from repro.faults import FaultPlan
from tests.strategies import genotype_datasets

#: Every backend this host runs, plus the defaults that resolve to one
#: (``None`` reads ``REPRO_BACKEND``).
BACKENDS = (None, "auto") + tuple(row["name"] for row in list_backends() if row["available"])
#: The values of each knob of the kernels, and of the execution around
#: them.  Tier-1 pins each kernel value once per approach and each
#: execution value once (see ``_cells``).
KERNEL_KNOBS = {
    "order": (2, 3, 4, 5),
    "objective": ("k2", "gini", "mutual-information", "chi2"),
    "word_layout": ("u32", "u64", None),
    "backend": BACKENDS,
    "fused": ("auto", "on", "off"),
    "validate": (False, True),
}
EXECUTION_KNOBS = {
    "n_workers": (1, 2, 3, 4),
    "devices": (None, "cpu+gpu"),
    "schedule": ("dynamic", "static", "guided", "carm"),
    "chunk_size": (None, 1, "auto"),
    "telemetry": ("off", "minimal", "full"),
}
#: Fault kinds a sharded run recovers from without a watchdog.
RECOVERABLE_FAULTS = ("crash", "exit", "error", "slow")
FAST_RETRY = RetryPolicy(backoff_seconds=0.01)


def _share(fraction: float) -> settings:
    """``fraction`` of the loaded profile's examples: the slice or the sweep."""
    return settings(
        max_examples=max(1, int(settings.default.max_examples * fraction)),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


@pytest.fixture(scope="module", autouse=True)
def _no_fleet_left():
    yield
    shutdown_fleets()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def approach_params(approach: str):
    """Constructor params of ``approach``, each one present or left default."""
    optional = {}
    if approach in ("cpu-v3", "cpu-v4"):
        optional = {"block_snps": st.integers(1, 8), "block_samples": st.integers(1, 512)}
        if approach == "cpu-v4":
            optional["isa"] = st.sampled_from(sorted(ISA_PRESETS))
    elif approach == "gpu-v4":
        optional = {"block_size": st.integers(1, 64), "bsched": st.integers(1, 512)}
    return st.fixed_dictionaries({}, optional=optional)


@st.composite
def searches(draw, min_order=2, max_order=5, **pinned):
    """A dataset and the ``DetectorConfig`` fields of a search over it.

    A ``pinned`` field keeps its value; every other field is drawn.
    """
    min_snps = max(4, pinned.get("order", 0))
    dataset = draw(genotype_datasets(min_snps=min_snps, max_snps=10, max_samples=200))

    def knob(name, strategy=None):
        """The pinned value, else a draw (of the knob's values by default)."""
        if name in pinned:
            return pinned[name]
        if strategy is None:
            strategy = st.sampled_from(KERNEL_KNOBS.get(name) or EXECUTION_KNOBS[name])
        return draw(strategy)

    approach = knob("approach", st.sampled_from(list_approaches()))
    spec = dict(
        approach=approach,
        objective=knob("objective"),
        order=knob("order", st.integers(min_order, min(max_order, dataset.n_snps))),
        word_layout=knob("word_layout"),
        backend=knob("backend"),
        fused=knob("fused"),
        validate=knob("validate"),
        n_workers=knob("n_workers"),
        devices=knob("devices"),
        schedule=knob("schedule"),
        chunk_size=knob("chunk_size", st.one_of(st.none(), st.integers(1, 300), st.just("auto"))),
        telemetry=knob("telemetry"),
        top_k=draw(st.integers(1, 12)),
        approach_params=draw(approach_params(approach)),
    )
    return dataset, spec


def _cells():
    """The detect cells: each kernel knob value on each approach, and each
    execution knob value on any approach, the rest of the search drawn."""
    for approach in list_approaches():
        for name, values in KERNEL_KNOBS.items():
            for value in values:
                cell = {"approach": approach, name: value}
                yield pytest.param(cell, id=f"{approach}-{name}={value}")
    for name, values in EXECUTION_KNOBS.items():
        for value in values:
            yield pytest.param({name: value}, id=f"{name}={value}")


def _run_case(workers, pool="keep", shm="on", faults=None, checkpoint=True, budget=None,
              staged=False):
    fields = dict(workers=workers, pool=pool, shm=shm, retry=FAST_RETRY, faults=faults)
    return fields, checkpoint, budget, staged


@st.composite
def run_specs(draw):
    """A sharded run: ``RunSpec`` fields, a ledger, a budget and the entry.

    One worker always keeps a ledger (that is what makes it sharded).  A
    budget ends a first ``run_distributed`` early and ``detect`` resumes
    it; without one the search may be staged instead.
    """
    workers = draw(st.integers(1, 2))
    faults = st.builds(
        FaultPlan.schedule,
        seed=st.integers(0, 2**16),
        n_faults=st.integers(1, 2),
        kinds=st.just(RECOVERABLE_FAULTS),
        delay_seconds=st.just(0.02),
    )
    checkpoint = workers == 1 or draw(st.booleans())
    budget = draw(st.one_of(st.none(), st.integers(0, 40))) if checkpoint else None
    return _run_case(
        workers,
        pool=draw(st.sampled_from(("keep", "fresh"))),
        shm=draw(st.sampled_from(("on", "off"))),
        faults=draw(st.one_of(st.none(), faults)),
        checkpoint=checkpoint,
        budget=budget,
        staged=budget is None and draw(st.booleans()),
    )


# ---------------------------------------------------------------------------
# the oracle and the reference counts
# ---------------------------------------------------------------------------


def _ranking(top):
    """SNP tuples and the exact float64 bits of a ranking."""
    return [(tuple(item.snps), float(item.score).hex()) for item in top]


def _oracle(dataset, config):
    reference = BruteForceReference(config.objective, config.order, config.top_k)
    return _ranking(reference.detect(dataset).top)


def _oracle_minima(dataset, objective, combos):
    """Each SNP's brute-force best score over ``combos``, as float hex."""
    oracle = BruteForceReference(objective, combos.shape[1])
    scores = [oracle.score_combination(dataset, combo) for combo in combos]
    return [
        float(min((s for c, s in zip(combos, scores) if snp in c), default=np.inf)).hex()
        for snp in range(dataset.n_snps)
    ]


def _minima(result):
    return [float(value).hex() for value in result.snp_minima]


def _charges(stats):
    return stats.op_counts, stats.bytes_loaded, stats.bytes_stored


def _reference_charges(dataset, config):
    """§IV charges of a one-thread numpy search with the same kernel setup."""
    reference = EpistasisDetector(
        approach=config.approach,
        order=config.order,
        word_layout=config.word_layout,
        backend="numpy",
        **config.approach_params,
    )
    return _charges(reference.detect(dataset).stats)


def _config(spec) -> DetectorConfig:
    """The spec's config; ``fused="on"`` with ``validate=True`` is refused."""
    if spec["fused"] == "on" and spec["validate"]:
        with pytest.raises(ValueError, match="incompatible with validate"):
            DetectorConfig(**spec)
        spec = {**spec, "validate": False}
    return DetectorConfig(**spec)


def _check_detect(result, dataset, config):
    assert _ranking(result.top) == _oracle(dataset, config)
    stats = result.stats
    assert stats.n_combinations == combination_count(dataset.n_snps, config.order)
    # The lanes claimed every combination once, whether or not it ranks.
    lanes = stats.extra["devices"].values()
    assert sum(lane["items"] for lane in lanes) == stats.n_combinations
    assert stats.extra["order"] == config.order
    assert stats.extra["schedule"] == config.schedule
    assert stats.extra["fused"] == config.fused
    if config.devices is None:
        assert _charges(stats) == _reference_charges(dataset, config)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pinned", list(_cells()))
@_share(0.02)
@given(data=st.data())
def test_detect_matches_oracle(pinned, data):
    dataset, spec = data.draw(searches(**pinned))
    config = _config(spec)
    result = EpistasisDetector(config=config).detect(dataset)
    _check_detect(result, dataset, config)
    assert ("telemetry" in result.stats.extra) == (config.telemetry != "off")


@pytest.mark.parametrize("approach", list_approaches())
@_share(0.06)
@given(data=st.data())
def test_candidates_match_oracle(approach, data):
    """Scattered candidates in reverse rank order, compared as a map."""
    dataset, spec = data.draw(searches(approach=approach))
    config = _config(spec)
    total = combination_count(dataset.n_snps, config.order)
    ranks = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=40, unique=True))
    combos = generate_combinations(dataset.n_snps, config.order)[sorted(ranks, reverse=True)]
    detector = EpistasisDetector(config=replace(config, top_k=len(combos)))
    result = detector.detect_candidates(
        dataset, ExplicitCombinationSource(combos), collect_snp_minima=True
    )

    oracle = BruteForceReference(config.objective, config.order)
    expected = [float(oracle.score_combination(dataset, combo)).hex() for combo in combos]
    assert {item.snps: float(item.score).hex() for item in result.top} == dict(
        zip(map(tuple, combos.tolist()), expected)
    )
    assert _minima(result) == _oracle_minima(dataset, config.objective, combos)
    scores = detector.score_combinations(dataset, combos, cache=False)
    assert [float(score).hex() for score in scores] == expected


def _check_staged(detector, dataset, run=None, **staging):
    """Full retention: the finalists are the oracle's top-k, and the
    p-values are those of an in-process, untraced default search."""
    config = detector.config
    staged = detector.detect_staged(dataset, keep_snps=dataset.n_snps, run=run, **staging)
    assert _ranking(staged.top) == _oracle(dataset, config)
    plain = EpistasisDetector(
        objective=config.objective, order=config.order, top_k=config.top_k, telemetry="off"
    ).detect_staged(dataset, keep_snps=dataset.n_snps, **staging)
    assert staged.p_values == plain.p_values


@pytest.mark.parametrize("objective", KERNEL_KNOBS["objective"])
@_share(0.05)
@given(data=st.data())
def test_staged_matches_oracle(objective, data):
    dataset, spec = data.draw(searches(min_order=3, objective=objective))
    config = _config(spec)
    _check_staged(
        EpistasisDetector(config=config),
        dataset,
        screen_order=data.draw(st.integers(2, config.order - 1)),
        n_permutations=data.draw(st.integers(1, 4)),
        permutation_seed=data.draw(st.integers(0, 99)),
    )


_FLEET_DATASET = generate_null_dataset(8, 101, seed=27)


def _fleet_case(**spec):
    """A search for the fixed sharded cases below."""
    return _FLEET_DATASET, {
        "approach": "cpu-v4", "objective": "k2", "order": 3, "word_layout": None,
        "backend": None, "fused": "auto", "validate": False, "n_workers": 1,
        "devices": None, "schedule": "dynamic", "chunk_size": None, "telemetry": "off",
        "top_k": 5, "approach_params": {}, **spec,
    }


# Besides the draws, every run makes four fixed sharded cases: both pools
# and both data planes on two workers, a seeded fault schedule, and a kill
# point resumed on a warm fleet and inline.
@_share(0.05)
@given(case=searches(max_order=4), run_case=run_specs())
@example(case=_fleet_case(), run_case=_run_case(2, "keep", "on", budget=9))
@example(
    case=_fleet_case(approach="gpu-v4", order=2, devices="cpu+gpu", schedule="carm"),
    run_case=_run_case(2, "fresh", "off", checkpoint=False, faults=FaultPlan.schedule(
        seed=7, n_faults=2, kinds=RECOVERABLE_FAULTS, delay_seconds=0.02,
    )),
)
@example(
    case=_fleet_case(approach="cpu-v2", order=4, n_workers=2, chunk_size=7),
    run_case=_run_case(1, budget=3),
)
@example(
    case=_fleet_case(approach="cpu-v1", objective="gini", telemetry="full"),
    run_case=_run_case(2, "keep", "off", checkpoint=False, staged=True),
)
def test_sharded_runs_match_oracle(case, run_case):
    """Worker processes, pools, data planes, faults and a kill-then-resume."""
    dataset, spec = case
    config = _config(spec)
    fields, checkpoint, budget, staged = run_case
    detector = EpistasisDetector(config=config)
    source = DenseRangeSource(dataset.n_snps, config.order)
    with tempfile.TemporaryDirectory() as tmp:
        run = RunSpec(**fields, checkpoint=os.path.join(tmp, "sweep") if checkpoint else None)
        if staged and config.order >= 3:
            _check_staged(detector, dataset, run, screen_order=2, n_permutations=3)
            return
        if budget is not None:
            run_distributed(
                dataset, source, config=config, run=run, shard_budget=budget,
                collect_snp_minima=True,
            )
            run = RunSpec.of(run, resume=True)
        result = detector.detect_candidates(dataset, source, run=run, collect_snp_minima=True)
    _check_detect(result, dataset, config)
    combos = generate_combinations(dataset.n_snps, config.order)
    assert _minima(result) == _oracle_minima(dataset, config.objective, combos)
    distributed = result.stats.extra["distributed"]
    assert distributed["workers"] == run.workers
    assert distributed["mode"] == ("inline" if run.workers == 1 else "processes")
