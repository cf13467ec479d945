#!/usr/bin/env python3
"""Walkthrough: sharded multi-process detection with checkpoint/resume.

A whole-genome ``nCr(M, k)`` sweep can run for days; ``repro.distributed``
turns it from "hope the process lives" into a resumable, machine-saturating
job.  This walkthrough demonstrates the three guarantees on a small planted
dataset:

1. **shard/worker invariance** — the same top-k, bit for bit, whether the
   sweep runs in one process or across a pool of OS workers;
2. **crash safety** — the run commits an atomic JSON shard ledger after
   every arrived batch of shards (every shard, inline); we simulate a kill
   by stopping after a shard budget and inspect what survived on disk;
3. **resume** — the continued run restores the completed shards from the
   ledger, evaluates only the remainder and reports the identical result.

Run with::

    PYTHONPATH=src python examples/distributed_resume.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import (
    EpistasisDetector,
    PlantedInteraction,
    SyntheticConfig,
    generate_dataset,
)
from repro.core.detector import DetectorConfig
from repro.distributed import run_distributed
from repro.engine import DenseRangeSource

PLANTED = (7, 19, 33)


def main() -> None:
    dataset = generate_dataset(
        SyntheticConfig(
            n_snps=40,
            n_samples=1024,
            interaction=PlantedInteraction(
                snps=PLANTED, model="threshold", baseline=0.05, effect=0.9
            ),
            seed=9,
        )
    )

    # -- 1. worker invariance ------------------------------------------------
    print("== 1. shard/worker invariance ==")
    single = EpistasisDetector(approach="cpu-v4", top_k=5).detect(dataset)
    sharded = EpistasisDetector(approach="cpu-v4", top_k=5).detect(
        dataset, workers=2
    )
    identical = [(i.snps, i.score) for i in single.top] == [
        (i.snps, i.score) for i in sharded.top
    ]
    print(f"in-process best : {single.best}")
    print(f"2-process best  : {sharded.best}")
    print(f"top-5 bit-identical: {identical}")
    dist = sharded.stats.extra["distributed"]
    print(f"shards: {dist['n_shards']}, workers: {dist['workers']}\n")

    # -- 2. simulated kill mid-run -------------------------------------------
    print("== 2. kill mid-run (shard budget) ==")
    config = DetectorConfig(approach="cpu-v4", top_k=5)
    source = DenseRangeSource(dataset.n_snps, 3)
    with tempfile.TemporaryDirectory(prefix="repro-distributed-") as workdir:
        ledger_path = Path(workdir) / "sweep.ckpt.json"
        partial = run_distributed(
            dataset,
            source,
            config=config,
            workers=1,
            checkpoint=str(ledger_path),
            shard_budget=10,  # ... and then the machine "dies"
        )
        print(f"run interrupted after {partial.shards_done}/{partial.n_shards} "
              f"shards ({partial.items_evaluated}/{partial.items_total} tables)")
        ledger = json.loads(ledger_path.read_text())
        print(f"ledger on disk : {ledger_path}")
        print(f"  completed={ledger['completed']}, "
              f"shards recorded={sorted(map(int, ledger['shards']))}\n")

        # -- 3. resume -------------------------------------------------------
        print("== 3. resume ==")
        resumed = run_distributed(
            dataset,
            source,
            config=config,
            workers=1,
            checkpoint=str(ledger_path),
            resume=True,
        )
        print(f"restored {resumed.shards_restored} shards "
              f"({resumed.items_restored} tables) from the ledger; "
              f"evaluated only {resumed.items_evaluated} new tables")
    same = [(i.snps, i.score) for i in resumed.result.top] == [
        (i.snps, i.score) for i in single.top
    ]
    print(f"resumed best    : {resumed.result.best}")
    print(f"identical to the uninterrupted run: {same}")
    assert same and identical and resumed.completed
    print("\nplanted interaction:", PLANTED,
          "->", "recovered" if resumed.result.best_snps == PLANTED else "missed")


if __name__ == "__main__":
    main()
