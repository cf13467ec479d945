"""Which scipy modules a process loads, and when.

scipy is imported only inside the two functions that call it: K2's
``gammaln`` on first use (:func:`repro.core.scoring._gammaln`) and
``scipy.stats.chi2`` in :func:`repro.datasets.qc.hardy_weinberg_pvalues`.
``import repro`` therefore loads no scipy module, a K2 search loads
``scipy.special`` only, and no search loads ``scipy.stats`` — about a
second of a fresh process's start-up, which every spawned fleet worker
would pay again.  This module imports no scipy itself: every worker
that runs the fleet probe below imports it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import EpistasisDetector, SyntheticConfig, generate_dataset
from repro.distributed import get_fleet

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


def _scipy_modules() -> list:
    """Worker-side probe: the scipy modules this process has loaded."""
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


@pytest.fixture(scope="module")
def fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(probe.stdout.splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy(fresh_process):
    assert fresh_process["imported"] == []


def test_a_k2_search_loads_scipy_special_but_not_stats(fresh_process):
    loaded = fresh_process["searched"]
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_fleet_workers_do_not_load_scipy_stats():
    dataset = generate_dataset(SyntheticConfig(n_snps=12, n_samples=256, seed=3))
    EpistasisDetector(order=2, top_k=3).detect(dataset, workers=2, pool="keep")
    loaded = get_fleet(2).submit(_scipy_modules).result(timeout=120)
    assert "scipy.stats" not in loaded
