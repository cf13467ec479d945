"""The repository benchmark: end-to-end metrics and a traced per-layer breakdown.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload paper-k3 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs the traced searches and reports the
per-layer metrics instead.  Either way every search's answer is compared
bit for bit with a reference computed outside the timed region, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This script never imports the program.  It generates the inputs, starts one
fresh interpreter per role (``child.py``), times set-up from outside and
checks the answers.  The program runs from ``src/`` of the checkout with
every ``REPRO_*`` environment variable removed.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
from workloads import WORKLOADS, write_inputs

#: Set-up samples per timed run: fresh interpreters brought to ready.
SETUP_SAMPLES = 5
#: Wall-clock limits of the roles, in seconds, counted from process start.
REFERENCE_TIMEOUT = 60
SETUP_TIMEOUT = 30
SEARCH_TIMEOUT = 60
#: Limit of the whole run: past it the run stops without a result.
RUN_TIMEOUT = 160
#: Seconds a stopping role's processes get before the next, harder signal.
STOP_GRACE = 3.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def program_env(scratch: Path) -> tuple[dict, list]:
    """Environment of the program's processes, and the variables removed.

    Inherited ``REPRO_*`` settings (a backend, a word width, a fault plan, a
    tracing mode) would silently measure a different program.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(scratch)
    return env, cleared


class Child:
    """One ``child.py`` role in its own process group."""

    def __init__(self, role, args, npz, scratch, env, run_deadline, seconds=0.0, corrupt=None):
        self.out = scratch / f"{role}-{time.monotonic_ns()}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--npz", str(npz), "--scratch", str(scratch), "--out", str(self.out),
            "--seconds", str(seconds),
        ]
        if args.toy:
            cmd.append("--toy")
        if corrupt is not None:
            cmd += ["--corrupt", str(corrupt)]
        self.role = role
        self.run_deadline = run_deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def _deadline(self, timeout: float) -> float:
        return min(self.started + timeout, self.run_deadline)

    def ready(self, timeout: float) -> float:
        """Seconds from process start to its ``READY`` line."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            deadline = self._deadline(timeout)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchmarkError(f"{self.role}: not ready in time")
                line = self.proc.stdout.readline()
                if line.strip() == "READY":
                    return time.perf_counter() - self.started
                if not line:
                    raise BenchmarkError(
                        f"{self.role}: exited with {self.proc.wait()} before ready"
                    )

    def result(self, timeout: float) -> dict:
        """Wait for the process to end and return its document."""
        try:
            self.proc.communicate(timeout=max(0.1, self._deadline(timeout) - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{self.role}: still running at its time limit") from None
        if self.proc.returncode != 0:
            raise BenchmarkError(f"{self.role}: exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())

    def stop(self) -> None:
        """End the role's process group and wait until all of it is gone.

        SIGTERM first: multiprocessing's resource tracker ignores it, sees
        its users die and unlinks the semaphores and shared-memory segments
        they leaked.  Whatever still runs after a grace period gets SIGKILL.
        """
        if self.proc.poll() is None:
            self._signal_group(signal.SIGTERM)
        if not self._wait_group():
            self._signal_group(signal.SIGKILL)
            self._wait_group()
        self.proc.stdout.close()

    def _wait_group(self) -> bool:
        """Reap the role, then wait for the rest of its group; ``True`` once empty."""
        deadline = time.perf_counter() + STOP_GRACE
        try:
            self.proc.wait(timeout=STOP_GRACE)
        except subprocess.TimeoutExpired:
            return False
        while self._signal_group(0):
            if time.perf_counter() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def _signal_group(self, sig) -> bool:
        """Signal the role's process group; ``False`` once it has no members."""
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            return False
        return True


def spread_note(samples: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[pct - 1]
            return f"median; p{pct} {cut:.6g}"
    return "median"


def check_answers(reference: dict, answers: list) -> int:
    """Searches that raised or whose answer differs from the reference."""
    return sum(answer != reference["answer"] for answer in answers)


def end_to_end(workload, setup_s, measured) -> tuple[dict, list]:
    walls = measured["search_s"]
    rates = [workload.space / wall for wall in walls]
    metrics = {
        "combos_per_s": statistics.median(rates),
        "search_s": statistics.median(walls),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {
        "combos_per_s": (len(rates), spread_note(rates)),
        "search_s": (len(walls), spread_note(walls)),
        "setup_s": (len(setup_s), "median of fresh interpreters: " + " ".join(f"{s:.3f}" for s in setup_s)),
        "peak_rss_mb": (1, "benchmark process" + (" + fleet workers" if workload.workers > 1 else "")),
    }
    return metrics, [(name, metrics[name]) + notes[name] for name in metrics]


def print_table(rows, units) -> None:
    print(f"{'metric':<32} {'value':>16} {'unit':<7} {'n':>4}  note")
    for name, value, n, note in rows:
        print(f"{name:<32} {value:>16.6g} {units.get(name, ''):<7} {n:>4}  {note}")


#: Per-layer metrics printed next to the measured table-build time and
#: labelled as the paper's modelled accounting.
MODELLED = ("model.ops", "model.bytes", "model.ops_per_byte")
#: Layer self times of one traced search; with the per-search encode self
#: time they add up to ``trace.search_s``.
PARTITION = (
    "backends.build_s", "scoring.score_s", "tiling.s", "topk.s", "candidates.s",
    "pipeline.s", "distributed.s", "checkpoint.s", "engine.unattributed_s",
)
NOTES = {
    "trace.search_s": "traced search wall, the base of the shares",
    "encode.s": "set-up first encode + per search",
    "encode.builds": "set-up + per search",
    "distributed.spawn_s": "fleet warm-up during set-up",
    "distributed.shard_run_s": "program shard.run spans, all workers",
    "distributed.dispatch_wait_s": "program shard.dispatch spans",
    "distributed.shm_publish_s": "program shm.publish spans",
    "telemetry.overhead_ratio": "median traced / median untraced search",
}


def per_layer_rows(metrics: dict, order: list, traced: int) -> list:
    rows = []
    wall = metrics["trace.search_s"]
    for name in order:
        if name in MODELLED:
            continue
        note = NOTES.get(name, "")
        if name in PARTITION:
            note = f"{metrics[name] / wall:6.1%} of traced search (self time)"
        elif name.startswith("pipeline.") and name.endswith("_s"):
            note = f"{metrics[name] / wall:6.1%} of traced search (stage wall)"
        rows.append((name, metrics[name], traced, note))
        if name == "backends.build_s":
            rows += [
                (m, metrics[m], traced, "modelled: §IV paper-word accounting, not a speed")
                for m in MODELLED
            ]
    return rows


def collect(args, workload, env, scratch):
    """Run the roles; return ``(reference, setup_s, measured, planted)``."""
    run_deadline = time.perf_counter() + RUN_TIMEOUT
    npz, planted = write_inputs(workload, args.seed, scratch)
    children = []

    def start(role, **kwargs):
        child = Child(role, args, npz, scratch, env, run_deadline, **kwargs)
        children.append(child)
        return child

    try:
        reference = start("reference").result(REFERENCE_TIMEOUT)
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = start("setup")
                setup_s.append(probe.ready(SETUP_TIMEOUT))
                probe.result(SETUP_TIMEOUT)
        child = start("trace" if args.trace else "measure", seconds=args.seconds,
                      corrupt=args.corrupt)
        setup_s.append(child.ready(SETUP_TIMEOUT))
        measured = child.result(SETUP_TIMEOUT + args.seconds + SEARCH_TIMEOUT)
    finally:
        for child in children:
            child.stop()
    return reference, setup_s, measured, planted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    parser.add_argument("--corrupt", type=int, default=None,
                        help="self-test: corrupt the answer of this search")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload].scaled(args.toy)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env, cleared = program_env(scratch)
    try:
        reference, setup_s, measured, planted = collect(args, workload, env, scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in measured["errors"][:3]:
        print(f"search raised:\n{error}", file=sys.stderr)
    completed = "metrics" in measured if args.trace else bool(measured["search_s"])
    if not completed:
        print("perfbench: no search completed", file=sys.stderr)
        return 1

    answers = measured["answers"]
    failed = check_answers(reference, answers)
    checks_ok = all(reference["checks"].values())
    program = measured["program"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' toy' if args.toy else ''}")
    print(f"program  : backend {program['backend']}, words {program['word_layout']}, "
          f"fused {program['fused']}, telemetry {program['telemetry']}; "
          f"cleared {', '.join(cleared) if cleared else 'no REPRO_* variables'}")
    print(f"host     : {json.dumps(program['host'], sort_keys=True)}")
    checks = "; ".join(f"{name}: {'ok' if ok else 'FAILED'}"
                       for name, ok in reference["checks"].items())
    print(f"reference: cpu-v2 validate=True in-process; {checks}"
          + (f"; planted SNPs {planted}" if planted else ""))

    if args.trace:
        sums_ok = all(
            abs(s["self_sum"] - s["wall"]) <= 1e-9 * s["wall"] and s["min_self"] >= -1e-6
            for s in measured["identity"]
        )
        checks_ok = checks_ok and sums_ok
        metrics = {name: measured["metrics"][name] for name in units}
        print(f"traced   : {measured['traced']} traced and {measured['untraced']} untraced "
              f"searches; layer self times + engine.unattributed_s = traced wall: "
              f"{'ok' if sums_ok else 'VIOLATED'}")
        if workload.workers > 1:
            print("workers  : encode vs permutation-null split inside the fleet workers is "
                  "not attributed yet (needs in-program spans); both sit in "
                  "pipeline.permutation_s")
        print_table(per_layer_rows(metrics, list(units), measured["traced"]), units)
    else:
        metrics, rows = end_to_end(workload, setup_s, measured)
        rows.append(("failed_frac", failed / len(answers), len(answers),
                     "searches failed or disagreeing / attempted"))
        print_table(rows, units)

    result = {
        "correct": checks_ok and failed == 0,
        "attempted": len(answers),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
