"""Benchmark of the BWAP reproduction: one workload per invocation.

    python3 perfbench/run.py --workload cosched-grid --seed 7 --seconds 35 --trace 0

Run from the repository root. The program is imported from ``src/``;
nothing is written. With ``--trace 0`` the last stdout line is a JSON
object carrying every end-to-end metric declared in ``BENCHMARK.json``;
with ``--trace 1`` the run also makes a separate traced pass and the JSON
carries the per-layer metrics instead. Human-readable lines (every
metric with its unit, checks, cross-checks) come before it. See
``perfbench/README.md`` for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ``fleet-steady`` runs like the others but is not in BENCHMARK.json
#: (README.md, "Run-to-run spread").
WORKLOADS = ("cosched-grid", "fleet-steady", "fleet-chaos")
#: Set-ups per run, ``setup_s`` being their median: the run's own plus
#: repeats, each in a fresh child process (the import is part of set-up
#: and happens once per process). The repeats are spread over the timed
#: phase, between items, so the median covers the same stretch of host
#: time as the timed items.
SETUP_SAMPLES = 11

#: Metrics that only some workloads define: printed with their unit, but
#: in neither JSON (see README.md).
STDOUT_ONLY_UNITS = {
    "item_p90_ms": "ms",
    "sim_bwap_speedup_gmean": "x",
    "sim_slo_violation_rate": "fraction",
}


def isolate() -> None:
    """Single-threaded numerics, store off, serial runs: set before the
    first numpy import, whatever the caller's environment says."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in list(os.environ):
        if var.startswith("BWAP_"):
            del os.environ[var]
    os.environ["BWAP_STORE"] = "0"
    os.environ["BWAP_JOBS"] = "1"
    os.environ["BWAP_FLEET_SHARDS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def declared(mode: str):
    """Metric names (and units) ``BENCHMARK.json`` declares for ``mode``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def setup(workload: str, seed: int):
    """Build the workload (imports the program). Returns (module, state)."""
    if workload == "cosched-grid":
        import cosched_grid

        return cosched_grid, cosched_grid.Grid(seed)
    import fleet_traces

    return fleet_traces, fleet_traces.Fleet(seed, chaos=workload == "fleet-chaos")


def check_program_location() -> None:
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    isolate()
    t_import = time.perf_counter()
    module, state = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t_import
    check_program_location()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def log(msg: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {msg}", flush=True)

    setups = [setup_s]

    def between() -> None:
        if not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(child_setup_seconds(args.workload, args.seed))

    rec, metrics, layers = module.measure(state, args.seconds, bool(args.trace), log, between)
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    if args.trace:
        want, values = per_layer, layers
    else:
        while len(setups) < SETUP_SAMPLES:
            between()
        log("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        metrics["setup_s"] = statistics.median(setups)
        want, values = end_to_end, metrics
    units = {**end_to_end, **per_layer, **STDOUT_ONLY_UNITS}
    shown = {**metrics, **(layers or {})}
    for name in sorted(shown):
        note = "" if name in want else "  (not in this mode's JSON)"
        log(f"{name} = {shown[name]!r} {units[name]}{note}")
    for problem in rec.problems:
        log(f"problem: {problem}")

    missing = sorted(set(want) - set(values))
    if missing:
        raise SystemExit(f"BENCHMARK.json declares metrics the benchmark lacks: {missing}")
    result = {
        "correct": rec.ok and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {n: {"value": values[n], "unit": want[n]} for n in want},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
