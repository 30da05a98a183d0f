"""``cosched-grid``: the paper's co-scheduled Fig. 2 set-up as a tuning grid.

The Table-I suite (SC, OC, ON, SP.B, FT.C) x machines A and B x 1-3 worker
nodes x all six placement policies, with Swaptions co-scheduled on the
remaining nodes: 180 scenarios per pass. One item is one scenario run
through the public :func:`repro.experiments.common.run_scenario`; the
seed is the simulator seed (counter noise the tuners measure through).
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback

import common

MACHINES = ("A", "B")
WORKERS = (1, 2, 3)
#: Cells rerun through the scalar reference loop without solver cache:
#: (machine, Table-I index, workers) — every benchmark, both machines,
#: every worker count.
CHECK_CELLS = (("A", 0, 1), ("B", 1, 3), ("A", 2, 2), ("B", 3, 2), ("A", 4, 3))
TUNED = ("bwap", "bwap-uniform")
#: ``measure`` calls its ``between`` hook after every this many timed items.
BETWEEN_EVERY = 45


class Grid:
    """Set-up state: machines, canonical profiles, the item list; builds
    and warms up in the constructor (all of it counts as set-up)."""

    def __init__(self, seed: int):
        from repro.engine import pick_worker_nodes
        from repro.experiments import common as xp
        from repro.workloads import paper_benchmarks

        self.seed = seed
        self.xp = xp
        self.policies = xp.ALL_POLICIES
        self.baselines = xp.BASELINE_POLICIES
        self.benchmarks = paper_benchmarks()
        self.machines = {m: xp.get_machine(m) for m in MACHINES}
        for mach in self.machines.values():
            canonical = xp.get_canonical(mach)
            for n in WORKERS:
                canonical.weights(pick_worker_nodes(mach, n))
        self.cells = [
            (m, wl, n) for m in MACHINES for wl in self.benchmarks for n in WORKERS
        ]
        self.items = [(m, wl, n, p) for m, wl, n in self.cells for p in self.policies]
        # Untimed warm-up: one cell per machine under every policy.
        for m in MACHINES:
            for p in self.policies:
                self.run_item((m, self.benchmarks[0], 1, p))

    def run_item(self, item):
        m, wl, n, p = item
        return self.xp.run_scenario(
            self.machines[m], wl, n, p, coscheduled=True, seed=self.seed
        )

    # ------------------------------------------------------------------ #
    # Model outputs
    # ------------------------------------------------------------------ #

    def sim_metrics(self, outcomes):
        per_cell = len(self.policies)
        logs, slowdowns = [], []
        for c in range(len(self.cells)):
            times = dict(
                zip(
                    self.policies,
                    (o.exec_time_s for o in outcomes[c * per_cell : (c + 1) * per_cell]),
                )
            )
            best_baseline = min(times[p] for p in self.baselines)
            logs.append(math.log(best_baseline / times["bwap"]))
            best = min(times.values())
            slowdowns.extend(t / best for t in times.values())
        return {
            "sim_p99_slowdown": common.percentile(slowdowns, 99),
            "sim_bwap_speedup_gmean": math.exp(sum(logs) / len(logs)),
        }

    # ------------------------------------------------------------------ #
    # Output check: scalar reference loop, no solver cache
    # ------------------------------------------------------------------ #

    def reference_outcome(self, item):
        from repro.engine import Application, Simulator, pick_worker_nodes
        from repro.memsim import FirstTouch
        from repro.workloads import swaptions

        m, wl, n, p = item
        mach = self.machines[m]
        workers = pick_worker_nodes(mach, n)
        sim = Simulator(mach, seed=self.seed, epoch_kernel=False, solver_cache=False)
        rest = tuple(x for x in mach.node_ids if x not in workers)
        sim.add_app(
            Application("A", swaptions(), mach, rest, policy=FirstTouch(), looping=True)
        )
        _app, tuner = self.xp.deploy_app(
            sim,
            "B",
            wl,
            workers,
            p,
            canonical=self.xp.get_canonical(mach),
            high_priority_app_id="A",
        )
        return self.xp.outcome_for_app(sim.run(max_time=36000.0), "B", tuner)


def measure(grid: Grid, seconds: float, trace: bool, log, between=lambda: None):
    """Timed phase, output checks and (with ``trace``) the traced pass.
    ``between()`` runs, untimed, after every ``BETWEEN_EVERY`` timed items.
    Returns ``(record, metrics, layer metrics or None)``."""
    rec = common.Record()

    # ---- timed phase: whole passes until ``seconds`` have passed --------
    # Whole passes keep the item mix, and so every metric, independent of
    # how fast the host runs.
    n_items = len(grid.items)
    first = [None] * n_items
    times = []
    elapsed = 0.0
    gc.collect()
    i = 0
    while i % n_items or elapsed < seconds:
        item = grid.items[i % n_items]
        t0 = time.perf_counter()
        try:
            out = grid.run_item(item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        times.append(time.perf_counter() - t0)
        elapsed += times[-1]
        if out is None:
            rec.fail(1, f"item {i} raised")
        elif i < n_items:
            first[i] = out
        elif out != first[i % n_items]:
            rec.fail(1, f"item {i} differs from its first-pass run")
        i += 1
        if i == n_items:
            # After a fixed amount of work, so host speed cannot move it.
            peak_rss_mb = common.peak_rss_mb()
        if i % BETWEEN_EVERY == 0:
            between()
    rec.attempted += i

    metrics = {
        "items_per_s": i / elapsed,
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_p90_ms": 1e3 * common.percentile(times, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    complete = all(o is not None for o in first)
    if complete:
        metrics.update(grid.sim_metrics(first))
    else:
        metrics.update(sim_p99_slowdown=0.0, sim_bwap_speedup_gmean=0.0)
    log(f"timed: {i} items in {elapsed:.3f} s (first pass {n_items} items)")

    # ---- output check: sampled cells through the reference path --------
    per_cell = len(grid.policies)
    failed_before = rec.failed
    for m, wi, n in CHECK_CELLS:
        c = grid.cells.index((m, grid.benchmarks[wi], n))
        for k in range(c * per_cell, (c + 1) * per_cell):
            rec.attempted += 1
            try:
                ok = grid.reference_outcome(grid.items[k]) == first[k]
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                m, wl, n, p = grid.items[k]
                rec.fail(1, f"reference loop disagrees on {m}/{wl.name}/{n}W/{p}")
    log(
        f"check: {len(CHECK_CELLS) * per_cell} scenarios under "
        "Simulator(epoch_kernel=False, solver_cache=False), "
        f"{rec.failed - failed_before} differ"
    )

    if not trace:
        return rec, metrics, None

    # ---- traced pass: the first pass again, under the wrappers ----------
    tracer = common.make_tracer()
    traced, item_s = [], 0.0
    gc.collect()
    with tracer:
        for item in grid.items:
            t0 = time.perf_counter()
            try:
                traced.append(grid.run_item(item))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                traced.append(None)
            item_s += time.perf_counter() - t0
    rec.attempted += n_items
    # Equal outcomes imply equal sim_* metrics.
    if not complete or traced != first:
        rec.fail(n_items, "traced pass outcomes differ from the untraced pass")
    else:
        moved = sum(
            o.pages_moved for o, it in zip(first, grid.items) if it[3] in TUNED
        )
        iters = sum(o.tuner_iterations or 0 for o in first)
        rec.cross_check("core.interleave.pages_moved", tracer.counts["pages_moved"], moved)
        rec.cross_check("core.dwp.iterations", tracer.counts["stall_samples"], iters)
    layers = common.layer_metrics(tracer, item_s)
    layers["trace.overhead"] = 100.0 * (item_s / sum(times[:n_items]) - 1.0)
    return rec, metrics, layers
