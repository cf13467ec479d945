"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that the layer tracer's self times add up on nested, re-entered
stand-in layers; on every workload, that a timed and a traced run
complete, print every metric of ``BENCHMARK.json`` by name and agree with
the reference, that the traced layer self times plus
``engine.unattributed_s`` add up to the traced wall time, that only the
fleet workload reports pipeline, distributed and checkpoint metrics, and
that ``model.*`` repeat exactly on another seed; that a deliberately
corrupted answer is counted as failed; and that the benchmark refuses to
run without the program.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
from layers import LayerTracer
from workloads import WORKLOADS

#: Per-layer prefixes only the staged fleet workload may report as non-zero.
FLEET_ONLY = ("pipeline.", "distributed.", "checkpoint.")


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout, doc


class _Layered:
    """Stand-ins for two layers: ``outer`` re-enters itself and calls ``inner``."""

    def outer(self, depth):
        time.sleep(0.002)
        if depth:
            self.outer(depth - 1)
        return self.inner()

    def inner(self):
        time.sleep(0.003)
        return 1


def tracer_sums() -> bool:
    """Self times of nested, re-entered layers add up to the root's wall."""
    tracer = LayerTracer()

    def install(t):
        t.wrap_methods(_Layered, "outer", "outer")
        t.wrap_methods(_Layered, "inner", "inner")

    with tracer.installed(install), tracer.search():
        time.sleep(0.001)
        _Layered().outer(2)
    restored = "_layer" not in vars(_Layered.outer)
    total = sum(tracer.self_s.values())
    return (
        restored
        and abs(total - tracer.wall) <= 1e-9 * tracer.wall
        and tracer.spans["outer"] == 1
        and tracer.spans["inner"] == 3
        and tracer.self_s["outer"] >= 0.006
        and tracer.self_s["inner"] >= 0.009
        and tracer.self_s["search"] >= 0.001
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    check(tracer_sums(), "layer self times add up to the root span's wall time")
    modelled = {}

    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out, doc = run("--workload", name, "--seed", "11", "--trace", str(trace), "--toy")
            names = [m["name"] for m in spec[section]]
            label = f"{name} trace={trace}"
            check(code == 0 and doc is not None, f"{label}: completes with a result line")
            if doc is None:
                continue
            check(sorted(doc["metrics"]) == sorted(names), f"{label}: reports every {section} metric")
            check(all(f"\n{n} " in out for n in names), f"{label}: prints every metric name")
            check(doc["correct"] and doc["failed"] == 0, f"{label}: answers agree with the reference")
            if trace:
                check("engine.unattributed_s = traced wall: ok" in out,
                      f"{label}: layer self times + engine.unattributed_s = traced wall")
                modelled[name] = {n: v["value"] for n, v in doc["metrics"].items()
                                  if n.startswith("model.")}
                fleet = {n: v["value"] for n, v in doc["metrics"].items() if n.startswith(FLEET_ONLY)}
                expect = WORKLOADS[name].workers > 1
                check(
                    all((v != 0) == expect for n, v in fleet.items() if n != "distributed.retries"),
                    f"{label}: pipeline/distributed/checkpoint metrics "
                    + ("non-zero" if expect else "absent"),
                )

    for name, model in modelled.items():
        code, out, doc = run("--workload", name, "--seed", "12", "--trace", "1", "--toy")
        again = doc and {n: v["value"] for n, v in doc["metrics"].items() if n.startswith("model.")}
        check(again == model, f"{name}: model.* repeat exactly on another seed")

    code, out, doc = run("--workload", "paper-k3", "--seed", "11", "--trace", "0", "--toy",
                         "--corrupt", "1")
    frac = [float(line.split()[1]) for line in out.splitlines() if line.startswith("failed_frac ")]
    check(
        doc is not None and doc["failed"] == 1 and not doc["correct"] and frac and frac[0] > 0,
        "a corrupted answer raises failed_frac",
    )

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out, doc = run("--workload", "paper-k3", "--seed", "1", "--trace", "0", cwd=bare)
        check(code != 0 and doc is None, "refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
