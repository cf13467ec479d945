"""Which scipy modules a process loads, and when.

scipy is imported only inside the two functions that call it: K2's
``gammaln`` on first use (:func:`repro.core.scoring._gammaln`) and
``scipy.stats.chi2`` in :func:`repro.datasets.qc.hardy_weinberg_pvalues`.
``import repro`` therefore loads no scipy module, a K2 search loads
``scipy.special`` only, and no search loads ``scipy.stats`` — about a
second of a fresh process's start-up, which every spawned fleet worker
would pay again.

A fleet worker loads no scipy module at all: with shared memory on, the
coordinator builds the K2 log-factorial table once and publishes it, and
each worker context adopts those bytes instead of evaluating ``gammaln``.
That holds for a worker of a kept fleet and for one of a pool respawned
after a crash.  This module imports no scipy itself: every worker that
runs the fleet probes below imports it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import EpistasisDetector, SyntheticConfig, generate_dataset
from repro.distributed import get_fleet, shutdown_fleets

_SRC = Path(__file__).resolve().parent.parent / "src"

#: One fresh interpreter: the scipy modules loaded after ``import repro``
#: and ``repro.cli``, then after a K2 search.
_PROBE = """
import json
import sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import repro
import repro.cli

imported = scipy_modules()
dataset = repro.generate_dataset(repro.SyntheticConfig(n_snps=8, n_samples=128, seed=1))
repro.EpistasisDetector(objective="k2", order=2, top_k=3).detect(dataset)
print(json.dumps({"imported": imported, "searched": scipy_modules()}))
"""


def _worker_state() -> dict:
    """Worker-side probe: pid, scipy modules and the K2 tables of its contexts.

    It holds its worker for a moment, so the other worker takes the next
    probe.
    """
    from repro.distributed import runner

    time.sleep(0.3)
    tables = []
    for context in runner._CONTEXTS.values():
        logfact = getattr(context.detector.objective, "_logfact", None)
        if logfact is not None:
            tables.append(logfact.tobytes())
    scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    return {"pid": os.getpid(), "scipy": scipy, "tables": tables}


def _probe_fleet(workers: int = 2) -> list:
    probes = [get_fleet(workers).submit(_worker_state) for _ in range(workers)]
    return [probe.result(timeout=120) for probe in probes]


@pytest.fixture(scope="module")
def fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(probe.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SyntheticConfig(n_snps=12, n_samples=256, seed=3))


@pytest.fixture(scope="module")
def coordinator_table(dataset):
    """The bytes of the table a coordinator builds for ``dataset``."""
    from repro.core.scoring import K2Score

    return K2Score.log_factorials(dataset.n_samples).tobytes()


@pytest.fixture(scope="module")
def kept_fleet_search(dataset):
    """A K2 search on a kept 2-worker fleet spawned for this module.

    The kept fleet outlives a test file, and a worker that ran an
    ``shm="off"`` K2 shard earlier built its own table (and loaded
    ``scipy.special``), so the fleet is spawned anew here.
    """
    shutdown_fleets()
    return EpistasisDetector(order=2, top_k=3).detect(dataset, workers=2, pool="keep")


def test_importing_the_package_and_cli_loads_no_scipy(fresh_process):
    assert fresh_process["imported"] == []


def test_a_k2_search_loads_scipy_special_but_not_stats(fresh_process):
    loaded = fresh_process["searched"]
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_fleet_workers_do_not_load_scipy_stats(kept_fleet_search):
    for state in _probe_fleet():
        assert "scipy.stats" not in state["scipy"], state["pid"]


def test_fleet_workers_load_no_scipy_special(kept_fleet_search):
    assert kept_fleet_search.stats.extra["distributed"]["shm"] is True
    for state in _probe_fleet():
        assert "scipy.special" not in state["scipy"], state["pid"]


def test_fleet_workers_adopt_the_coordinators_table(
    kept_fleet_search, coordinator_table
):
    states = _probe_fleet()
    tables = [table for state in states for table in state["tables"]]
    assert tables, "no probed worker has run a K2 shard"
    assert all(table == coordinator_table for table in tables)


def test_a_respawned_pool_adopts_the_table_too(
    kept_fleet_search, dataset, coordinator_table
):
    # The crash breaks the kept fleet's pool; its replacement starts from
    # fresh interpreters and runs the remaining shards.
    result = EpistasisDetector(order=2, top_k=3).detect(
        dataset, workers=2, pool="keep", faults="shard.run:crash"
    )
    assert result.stats.extra["distributed"]["resilience"]["ladder"] == "respawned"
    assert [(i.snps, i.score) for i in result.top] == [
        (i.snps, i.score) for i in kept_fleet_search.top
    ]
    states = _probe_fleet()
    tables = [table for state in states for table in state["tables"]]
    assert tables, "no probed worker of the respawned pool has run a K2 shard"
    for state in states:
        assert "scipy.special" not in state["scipy"], state["pid"]
        assert all(table == coordinator_table for table in state["tables"])
